"""`python -m wvtomo`: the same CLI as the installed `wvtomo` script."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
