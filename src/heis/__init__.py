"""Real, integer, and complex Heisenberg groups, a finite clock-and-shift
operator representation, and the affine action on the Siegel upper half-space."""

__version__ = "0.1.0"
