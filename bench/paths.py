"""Locations inside the checkout, and the import of the library under test."""

from __future__ import annotations

import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"


def use_checkout_library():
    """Import ``driftbench`` from this checkout's ``src``, never from an
    installed copy; exit non-zero when the checkout has no library."""
    package = SRC / "driftbench"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"no driftbench library at {package}")
    sys.path.insert(0, str(SRC))
    import driftbench

    if Path(driftbench.__file__).resolve().parent != package:
        raise SystemExit(f"driftbench imported from {driftbench.__file__}, "
                         f"not from {package}")
    return driftbench
