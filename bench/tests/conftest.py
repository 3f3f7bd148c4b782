import sys
from pathlib import Path

# The benchmark's modules are plain scripts in bench/, imported by name, and
# the library is imported from the checkout's src/.
BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]
