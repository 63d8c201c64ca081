"""Real, integer, and complex Heisenberg groups, a finite clock-and-shift
operator representation, and the affine action on the Siegel upper half-space."""

__version__ = "0.1.0"


class _Numpy:
    """numpy, imported on first use: a module's global `np` until the first
    attribute read, which imports numpy and rebinds that global to it, so
    importing heis imports no numpy and every later read is numpy's own."""

    def __init__(self, module_globals: dict):
        self._globals = module_globals

    def __getattr__(self, name: str):
        import numpy  # the import lock makes a concurrent first read wait for the whole module

        self._globals["np"] = numpy
        return getattr(numpy, name)
