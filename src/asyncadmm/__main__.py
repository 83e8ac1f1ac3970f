"""``python -m asyncadmm``: the command line interface (see :mod:`asyncadmm.cli`)."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
