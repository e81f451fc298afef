"""`python -m scomult`: the `scomult` command, for a checkout without an install."""

import sys

from .cli import main

sys.exit(main())
