"""``python -m watchstack``: the command line, without an installed
``watchstack`` script."""

import sys

from .cli import main

sys.exit(main())
