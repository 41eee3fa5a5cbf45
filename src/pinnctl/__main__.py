"""``python -m pinnctl``: the command line, with its exit code."""

import sys

from .cli import main

sys.exit(main())
