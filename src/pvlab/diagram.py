"""Weighted Dynkin diagrams: a compact DSL, sub-diagram extraction, ASCII art.

A weighted diagram is a simple type with a nonempty set of circled nodes;
the compact form ``D9[2,3,5,8]`` is the canonical serialization.  Node
indices are 1-based in the numbering fixed by :mod:`pvlab.rootsys`.
"""
from __future__ import annotations

from dataclasses import dataclass

from .rootsys import (
    InadmissibleType,
    SimpleType,
    build_root_system,
    check_admissible,
    split_pieces,
)

__all__ = [
    "WeightedDiagram", "Subdiagram", "parse_diagram", "render_compact",
    "render_ascii", "subdiagram", "DiagramError",
    "ParseError", "IndexOutOfRange", "DuplicateIndex", "EmptyCircledSet",
    "NotCircled", "InadmissibleType",
]


class DiagramError(ValueError):
    pass


class ParseError(DiagramError):
    """Lexical/syntactic failure, pointing at the offending 1-based column."""

    def __init__(self, message: str, position: int) -> None:
        super().__init__(message)
        self.position = position

    @property
    def column(self) -> int:
        return self.position + 1

    def __str__(self) -> str:
        return f"{self.args[0]} (column {self.column})"


class IndexOutOfRange(DiagramError):
    pass


class DuplicateIndex(DiagramError):
    pass


class EmptyCircledSet(DiagramError):
    pass


class NotCircled(DiagramError):
    pass


@dataclass(frozen=True)
class WeightedDiagram:
    """A simple type with circled nodes (and ``theta`` = the uncircled rest)."""

    type: SimpleType
    circled: tuple[int, ...]

    def __post_init__(self) -> None:
        check_admissible(self.type)
        if not self.circled:
            raise EmptyCircledSet(f"{self.type} needs at least one circled node")
        seen: set[int] = set()
        for i in self.circled:
            if not 1 <= i <= self.type.rank:
                raise IndexOutOfRange(f"node {i} outside 1..{self.type.rank}")
            if i in seen:
                raise DuplicateIndex(f"node {i} circled twice")
            seen.add(i)
        object.__setattr__(self, "circled", tuple(sorted(seen)))

    @property
    def theta(self) -> tuple[int, ...]:
        return tuple(i for i in range(1, self.type.rank + 1) if i not in self.circled)

    def __str__(self) -> str:
        return render_compact(self)


@dataclass(frozen=True)
class Subdiagram:
    """The sub-PV data attached to a subset of circled nodes."""

    gamma: tuple[int, ...]
    psi_gamma: tuple[int, ...]
    theta_gamma: tuple[int, ...]
    pieces: tuple[tuple[tuple[int, ...], WeightedDiagram], ...]


def parse_diagram(text: str) -> WeightedDiagram:
    """Parse the compact form, e.g. ``parse_diagram("D9[2,3,5,8]")``.

    Inverse of :func:`render_compact`.
    """
    i, n = 0, len(text)

    def skip_ws() -> None:
        nonlocal i
        while i < n and text[i].isspace():
            i += 1

    def fail(expected: str) -> ParseError:
        got = repr(text[i]) if i < n else "end of input"
        return ParseError(f"expected {expected}, got {got}", i)

    def read_int(what: str) -> int:
        nonlocal i
        skip_ws()
        start = i
        while i < n and text[i].isdecimal():
            i += 1
        if i == start:
            raise fail(what)
        return int(text[start:i])

    skip_ws()
    if i >= n or not text[i].isalpha():
        raise fail("a family letter A-G")
    family = text[i].upper()
    i += 1
    rank = read_int("a rank number")
    t = SimpleType(family, rank)
    check_admissible(t)
    skip_ws()
    if i >= n or text[i] != "[":
        raise fail("'['")
    i += 1
    skip_ws()
    if i < n and text[i] == "]":
        raise EmptyCircledSet(f"{t} needs at least one circled node")
    circled = [read_int("a node index")]
    skip_ws()
    while i < n and text[i] == ",":
        i += 1
        circled.append(read_int("a node index"))
        skip_ws()
    if i >= n or text[i] != "]":
        raise fail("',' or ']'")
    i += 1
    skip_ws()
    if i != n:
        raise fail("end of input")
    return WeightedDiagram(t, tuple(circled))


def render_compact(d: WeightedDiagram) -> str:
    return f"{d.type}[{','.join(map(str, d.circled))}]"


def subdiagram(d: WeightedDiagram, gamma) -> Subdiagram:
    """Restrict to the circled subset ``gamma`` and its surrounding theta nodes.

    The result covers, for each node of gamma, the connected component of
    theta plus that node; the pieces are the connected components of the
    union, relabelled as standalone diagrams circled at the gamma nodes.
    This is the one piece split: :class:`pvlab.pvcore.SubsetLattice` reads
    the pieces of every proper component sum from it.
    """
    gamma = tuple(sorted(set(gamma)))
    if not gamma:
        raise EmptyCircledSet("gamma must be nonempty")
    for a in gamma:
        if a not in d.circled:
            raise NotCircled(f"node {a} is not circled in {render_compact(d)}")
    rs = build_root_system(d.type)
    keep = set(d.theta) | set(gamma)
    pieces = []
    covered: list[int] = []
    for p in split_pieces(rs, sorted(keep)):
        marks = tuple(sorted(p.relabel[a] for a in gamma if a in p.nodes))
        if not marks:
            continue
        pieces.append((p.nodes, WeightedDiagram(p.type, marks)))
        covered.extend(p.nodes)
    psi = tuple(sorted(covered))
    return Subdiagram(
        gamma=gamma,
        psi_gamma=psi,
        theta_gamma=tuple(a for a in psi if a not in gamma),
        pieces=tuple(pieces),
    )


def _node(d: WeightedDiagram, i: int) -> str:
    return "(o)" if i in d.circled else "o"


def _bond(lengths: list[int], a: int, b: int) -> str:
    """Drawing symbol for the edge a--b, arrows pointing toward short roots."""
    la, lb = lengths[a - 1], lengths[b - 1]
    if la == lb:
        return "--"
    if la > lb:
        return "≡>" if la == 3 * lb else "=>"
    return "≡<" if lb == 3 * la else "<="


def render_ascii(d: WeightedDiagram) -> str:
    """Multi-line picture; forks (D, E) put the off-chain node under its anchor.

    Examples
    ========
    >>> print(render_ascii(parse_diagram("B3[3]")))
    o--o=>(o)
    """
    t = d.type
    fam, n = t
    if fam == "D":
        chain = list(range(1, n))
        below = (n - 2, n)  # anchor node, hanging node
    elif fam == "E":
        chain = [1] + list(range(3, n + 1))
        below = (4, 2)
    else:
        chain = list(range(1, n + 1))
        below = None
    lengths = build_root_system(t).lengths
    row = ""
    centers = {}
    for k, i in enumerate(chain):
        if k:
            row += _bond(lengths, chain[k - 1], i)
        tok = _node(d, i)
        centers[i] = len(row) + len(tok) // 2
        row += tok
    if below is None:
        return row
    anchor, hang = below
    col = centers[anchor]
    tok = _node(d, hang)
    pad = col - len(tok) // 2
    return "\n".join([row, " " * col + "|", " " * pad + tok])
