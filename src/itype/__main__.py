"""``python -m itype``: the batch front end of ``itype.cli``."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
