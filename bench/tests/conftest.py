"""Put the benchmark's modules and the checkout's satpath sources on the path.

Run with ``python -m pytest bench/tests -q`` from the checkout root.
"""

import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent
for entry in (BENCH, BENCH.parent / "src"):
    if str(entry) not in sys.path:
        sys.path.insert(0, str(entry))
