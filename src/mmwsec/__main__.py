"""``python -m mmwsec``: the mmwsec command line (see ``mmwsec.cli``)."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
