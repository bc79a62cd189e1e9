"""`python -m augcov`: the same command line as the `augcov` script."""

from .cli import entry

if __name__ == "__main__":
    entry()
