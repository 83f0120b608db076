"""Imports for the harness self-test: the package from this checkout's
``src/`` and the harness modules from this directory."""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
for path in (HERE, HERE.parent / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))
