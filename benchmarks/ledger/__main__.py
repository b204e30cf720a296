"""``python -m benchmarks.ledger`` (see :mod:`.cli`)."""

import sys

from .cli import main

sys.exit(main())
