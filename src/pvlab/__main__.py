"""``python -m pvlab``: the ``pvlab`` command line without the console script."""
from . import cli

if __name__ == "__main__":
    raise SystemExit(cli.main())
