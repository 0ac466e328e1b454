"""``python -m coneradon``: the ``coneradon`` command line."""

import sys

from .cli import main

sys.exit(main())
