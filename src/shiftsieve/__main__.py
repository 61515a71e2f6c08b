"""`python -m shiftsieve`: the `shiftsieve` command."""

from .cli import entry

if __name__ == "__main__":
    entry()
