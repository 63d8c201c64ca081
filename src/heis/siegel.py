"""The complex Heisenberg group and its affine action on the upper half-space.

Elements are pairs (z, t) with z in C^n and t real, multiplied by

    (z, t) (z', t') = (z + z', t + t' + 2 Im sum_j z_j conj(z'_j)).

Here the cocycle is antisymmetric, so (-z, -t) genuinely inverts (z, t).

The group acts on the closure of

    U = { (w, sigma) in C^n x C : Im sigma > |w|^2 }

by the complex-affine maps

    A_(z,t)(w, sigma) = (w + z, sigma + t + i |z|^2 + 2 i sum_j w_j conj(z_j)),

which preserve the height Im sigma - |w|^2 exactly, hence map the domain to
itself and its boundary to its boundary.  The anisotropic dilations
(z, t) -> (r z, r^2 t) and (w, sigma) -> (r w, r^2 sigma) intertwine the
action and scale the height by r^2.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Sequence, Tuple

# r > 0 scales (z, t) -> (r z, r^2 t) and (w, sigma) -> (r w, r^2 sigma), as in H_n(R)
from .core import Dilation as ComplexDilation
from .errors import (DimensionError, ParameterError, dimension, finite_output, finite_vector,
                     trusted_output)

BOUNDARY_TOL = 1e-12  # classify: |height| up to this is the boundary
COMPOSE_TOL = 1e-12   # act_compose_check: max deviation relative to the magnitudes


@dataclass(frozen=True)
class ComplexElement:
    """A pair (z, t) with z in C^n and t real."""

    z: Tuple[complex, ...]
    t: float

    def __post_init__(self):
        object.__setattr__(self, "z", finite_vector(self.z, complex))
        object.__setattr__(self, "t", float(self.t))
        if not math.isfinite(self.t):
            raise ParameterError("t must be finite")

    @property
    def n(self) -> int:
        return len(self.z)

    @staticmethod
    def identity(n: int) -> "ComplexElement":
        return trusted_output(ComplexElement, (0j,) * dimension(n), 0.0)


def cmul(g: ComplexElement, h: ComplexElement) -> ComplexElement:
    if g.n != h.n:
        raise DimensionError(f"dimension mismatch: {g.n} vs {h.n}")
    twist = 2.0 * sum((a * b.conjugate() for a, b in zip(g.z, h.z)), 0j).imag
    return finite_output(
        ComplexElement, "product",
        tuple(a + b for a, b in zip(g.z, h.z)),
        g.t + h.t + twist,
    )


def cinverse(g: ComplexElement) -> ComplexElement:
    """(-z, -t); exact here since sum z_j conj(z_j) is real.  Negation cannot
    overflow."""
    return trusted_output(ComplexElement, tuple(-c for c in g.z), -g.t)


@dataclass(frozen=True)
class SiegelPoint:
    """A point (w, sigma) of C^n x C, classified by its height Im sigma - |w|^2."""

    w: Tuple[complex, ...]
    sigma: complex

    def __post_init__(self):
        object.__setattr__(self, "w", finite_vector(self.w, complex))
        object.__setattr__(self, "sigma", complex(self.sigma))
        if not cmath.isfinite(self.sigma):
            raise ParameterError("sigma must be finite")

    @property
    def n(self) -> int:
        return len(self.w)


def _norm2(v: Sequence[complex]) -> float:
    # a * a overflows to inf, where abs(c) ** 2 would raise OverflowError
    return sum(a * a for a in map(abs, v))


def height(p: SiegelPoint) -> float:
    """Im sigma - |w|^2; positive inside the domain, zero on its boundary."""
    return p.sigma.imag - _norm2(p.w)


def classify(p: SiegelPoint) -> str:
    """'interior', 'boundary' or 'outside' by the sign of the height."""
    ht = height(p)
    if ht > BOUNDARY_TOL:
        return "interior"
    if ht < -BOUNDARY_TOL:
        return "outside"
    return "boundary"


def act(g: ComplexElement, p: SiegelPoint) -> SiegelPoint:
    """The affine automorphism A_(z,t); preserves the height exactly."""
    if g.n != p.n:
        raise DimensionError(f"dimension mismatch: {g.n} vs {p.n}")
    cross = sum((wj * zj.conjugate() for wj, zj in zip(p.w, g.z)), 0j)
    sigma = p.sigma + g.t + 1j * _norm2(g.z) + 2j * cross
    return finite_output(SiegelPoint, "action", tuple(a + b for a, b in zip(p.w, g.z)), sigma)


def act_compose_check(g: ComplexElement, g2: ComplexElement, p: SiegelPoint) -> bool:
    """Does acting by g after g2 agree with acting by the product g g2?

    Componentwise comparison, relative to max(1, magnitudes involved).
    """
    lhs = act(g, act(g2, p))
    rhs = act(cmul(g, g2), p)
    scale = max(
        1.0,
        max(abs(c) for c in lhs.w + rhs.w),
        abs(lhs.sigma),
        abs(rhs.sigma),
    )
    dev = max(
        max(abs(a - b) for a, b in zip(lhs.w, rhs.w)),
        abs(lhs.sigma - rhs.sigma),
    )
    return dev <= COMPOSE_TOL * scale


def cdilate(d: ComplexDilation, g: ComplexElement) -> ComplexElement:
    return finite_output(ComplexElement, "dilation", tuple(d.r * c for c in g.z), d.r * d.r * g.t)


def domain_dilate(d: ComplexDilation, p: SiegelPoint) -> SiegelPoint:
    """Scales the height by exactly r^2, so preserves domain and boundary."""
    return finite_output(SiegelPoint, "dilation", tuple(d.r * c for c in p.w), d.r * d.r * p.sigma)
