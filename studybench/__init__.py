"""Benchmark of the ``nipg2d study`` pipeline; see NOTES.md and run.py.

Importing the package puts the repository's ``src`` directory first on
``sys.path``, so the benchmark always measures the checkout it sits in.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))
