"""``python -m bench``: the repository benchmark (see bench/README.md)."""

import sys
from pathlib import Path

# The program runs from source: ``src`` beside this package.
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from bench.run import main  # noqa: E402

sys.exit(main(sys.argv[1:]))
