"""`python -m gridstat`: the command-line front end (see `gridstat.cli`)."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
