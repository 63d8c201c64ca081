"""Import the program under test from the `src/` tree of this checkout.

The benchmark must measure the sources next to it, never another installed
copy, so the import is pinned to `<checkout>/src` and its origin checked.
"""

from __future__ import annotations

import importlib
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
MODULES = ("heis", "heis.core", "heis.lattice", "heis.grid", "heis.siegel",
           "heis.textio", "heis.checks", "heis.cli")


def import_heis() -> None:
    """Import every module of the program; exit with an error if its sources
    are not in this checkout."""
    package = SRC / "heis"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"error: no heis sources at {package}")
    sys.path.insert(0, str(SRC))
    for name in MODULES:
        importlib.import_module(name)
    origin = Path(sys.modules["heis"].__file__).resolve().parent
    if origin != package.resolve():
        raise SystemExit(f"error: imported heis from {origin}, expected {package}")
