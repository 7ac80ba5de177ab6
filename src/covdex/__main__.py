"""Run the command-line front end as ``python -m covdex``."""

import sys

from .cli import main

sys.exit(main())
