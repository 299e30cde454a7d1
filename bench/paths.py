"""Locations inside the checkout; importing this puts ``src/`` first on sys.path.

The benchmark runs against the sources next to it, never an installed copy,
and refuses to run when they are missing.
"""

import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

if not (SRC / "regsum" / "__init__.py").is_file():
    raise SystemExit(f"error: no regsum sources under {SRC}")
if sys.path[0] != str(SRC):
    sys.path.insert(0, str(SRC))
