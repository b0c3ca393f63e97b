"""Put the repository root and its ``src`` on the path for these tests.

Run them with ``python3 -m pytest perfbench/tests -q`` from the root.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
for path in (ROOT, ROOT / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))
