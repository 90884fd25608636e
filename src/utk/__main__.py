"""`python -m utk`: the `utk` command."""

from .cli import main

if __name__ == "__main__":
    main()
