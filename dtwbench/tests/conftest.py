import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent
# The benchmark's modules import each other by plain name, as run.py sees them.
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))
