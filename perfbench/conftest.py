import sys
from pathlib import Path

# the benchmark imports the package from the checkout's own src/
SRC = Path(__file__).resolve().parent.parent / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))
