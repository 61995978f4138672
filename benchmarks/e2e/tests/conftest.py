"""Put the benchmark's own modules and the in-tree package on the path."""

import sys
from pathlib import Path

E2E = Path(__file__).resolve().parents[1]
ROOT = E2E.parents[1]
for path in (str(ROOT / "src"), str(E2E)):
    if path not in sys.path:
        sys.path.insert(0, path)
