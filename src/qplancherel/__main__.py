"""``python -m qplancherel``: the same command line as ``qplancherel``."""

import sys

from .cli import main

sys.exit(main())
