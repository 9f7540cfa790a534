"""Small deterministic PRNG (splitmix64) for reproducible generic-point draws.

The stdlib ``random`` module does not promise identical streams across
Python versions, and ``hash()`` is salted per process; candidate points that
certify open-orbit membership must be bit-stable across runs and machines,
so we carry our own generator.
"""
from __future__ import annotations

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
VECTOR_BOUND = 9
WIDE_BITS = 61
WEIGHT_BITS = 122


def _mix(z: int) -> int:
    z &= _MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return z ^ (z >> 31)


class Stream:
    """Deterministic 64-bit stream seeded by an integer and a context label.

    Distinct context labels give independent substreams of the same seed, so
    unrelated draws (candidate points, invariant sample points) do not
    interfere with each other's reproducibility.
    """

    def __init__(self, seed: int, context: str = "") -> None:
        state = _mix(seed & _MASK)
        for byte in context.encode("utf-8"):
            state = _mix((state + _GAMMA * (byte + 1)) & _MASK)
        self._state = state

    def next64(self) -> int:
        self._state = (self._state + _GAMMA) & _MASK
        return _mix(self._state)

    def randint(self, lo: int, hi: int) -> int:
        """Uniform integer in [lo, hi], rejection-sampled to avoid bias."""
        if lo > hi:
            raise ValueError("empty range")
        span = hi - lo + 1
        limit = (1 << 64) - ((1 << 64) % span)
        while True:
            v = self.next64()
            if v < limit:
                return lo + v % span

    def vector(self, length: int) -> list[int]:
        return [self.randint(-VECTOR_BOUND, VECTOR_BOUND) for _ in range(length)]

    def wide_vector(self, length: int) -> list[int]:
        """Entries uniform in [0, 2**WIDE_BITS): the top bits of each draw."""
        return [self.next64() >> (64 - WIDE_BITS) for _ in range(length)]

    def weights(self, length: int) -> list[int]:
        """Entries uniform in [1, 2**WEIGHT_BITS]: the top bits of two
        draws each, plus one."""
        return [((self.next64() << 64 | self.next64()) >> (128 - WEIGHT_BITS)) + 1
                for _ in range(length)]
