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

Each formula lives once, in a private kernel over plain components (`_cmul`,
`_act`, `_height`, `_dilate`, and `_compose_gap` for the composition
identity).  A kernel runs unchanged on Python numbers and on numpy arrays
holding one value per trial in each coordinate: the public functions wrap
the kernels with the dimension check and `errors.finite_pair`, and
`checks.siegel_check` runs them on arrays.
"""

from __future__ import annotations

import math
import operator
from typing import Sequence, Tuple

from . import _Value
# r > 0 scales (z, t) -> (r z, r^2 t) and (w, sigma) -> (r w, r^2 sigma), as in H_n(R)
from .core import Dilation as ComplexDilation
from .errors import (DimensionError, ParameterError, dimension, finite_pair, finite_scalar,
                     finite_vector)

BOUNDARY_TOL = 1e-12  # classify: |height| up to this is the boundary
COMPOSE_TOL = 1e-12   # act_compose_check: max deviation relative to the magnitudes


class ComplexElement(_Value):
    """A pair (z, t) with z in C^n and t real: a tuple of complex and a float."""

    __match_args__ = _fields = ("z", "t")

    def __init__(self, z: Sequence[complex], t: float):
        self.__dict__.update(z=finite_vector(z, complex), t=finite_scalar(t, float, "t"))

    @property
    def n(self) -> int:
        return len(self.z)

    @staticmethod
    def identity(n: int) -> "ComplexElement":
        return _complex((0j,) * dimension(n), 0.0)


_complex = ComplexElement._builder()  # unchecked: takes its fields as `__init__` leaves them


def _cdot(a: Sequence, b: Sequence):
    """sum_j a_j conj(b_j)."""
    return sum([x * y.conjugate() for x, y in zip(a, b)], 0j)


def _norm2(v: Sequence):
    """|v|^2.  m * m overflows to inf, where abs(c) ** 2 would raise OverflowError."""
    return sum([m * m for m in map(abs, v)])


def _cmul(z: Sequence, t, z2: Sequence, t2) -> Tuple:
    """(z, t)(z2, t2) on plain components: (z + z2, t + t2 + 2 Im z . conj(z2))."""
    return tuple(map(operator.add, z, z2)), t + t2 + 2.0 * _cdot(z, z2).imag


def _act(z: Sequence, t, w: Sequence, sigma) -> Tuple:
    """A_(z,t)(w, sigma) on plain components."""
    return tuple(map(operator.add, w, z)), sigma + t + 1j * _norm2(z) + 2j * _cdot(w, z)


def _height(w: Sequence, sigma):
    """Im sigma - |w|^2 on plain components."""
    return sigma.imag - _norm2(w)


def _dilate(r, v: Sequence, s) -> Tuple:
    """(r v, r^2 s): the dilation of (z, t) and of (w, sigma) alike."""
    return tuple([r * c for c in v]), r * r * s


def _compose_gap(z: Sequence, t, z2: Sequence, t2, w: Sequence, sigma, top) -> Tuple:
    """(deviation, scale) of A_(z,t) A_(z2,t2) = A_((z,t)(z2,t2)) at (w, sigma):
    the largest componentwise difference of the two sides, and the largest of 1
    and every component's modulus.  `top` is the maximum of its arguments:
    `_finite_max` on Python numbers, an elementwise maximum on arrays."""
    lw, ls = _act(z, t, *_act(z2, t2, w, sigma))
    rw, rs = _act(*_cmul(z, t, z2, t2), w, sigma)
    lhs, rhs = lw + (ls,), rw + (rs,)
    return top(*(abs(a - b) for a, b in zip(lhs, rhs))), top(1.0, *map(abs, lhs + rhs))


def _finite_max(*moduli: float) -> float:
    """The largest of finite moduli; an overflow on the way made one inf or nan."""
    if not all(map(math.isfinite, moduli)):
        raise ParameterError("composition overflows the float range")
    return max(moduli)


def cmul(g: ComplexElement, h: ComplexElement) -> ComplexElement:
    if len(g.z) != len(h.z):
        raise DimensionError(f"dimension mismatch: {g.n} vs {h.n}")
    return finite_pair(_complex, "product", *_cmul(g.z, g.t, h.z, h.t))


def cinverse(g: ComplexElement) -> ComplexElement:
    """(-z, -t); exact here since sum z_j conj(z_j) is real.  Negation cannot
    overflow."""
    return _complex(tuple([-c for c in g.z]), -g.t)


class SiegelPoint(_Value):
    """A point (w, sigma) of C^n x C, classified by its height Im sigma - |w|^2:
    a tuple of complex and a complex."""

    __match_args__ = _fields = ("w", "sigma")

    def __init__(self, w: Sequence[complex], sigma: complex):
        self.__dict__.update(w=finite_vector(w, complex),
                             sigma=finite_scalar(sigma, complex, "sigma"))

    @property
    def n(self) -> int:
        return len(self.w)


_point = SiegelPoint._builder()  # unchecked: takes its fields as `__init__` leaves them


def height(p: SiegelPoint) -> float:
    """Im sigma - |w|^2; positive inside the domain, zero on its boundary."""
    return _height(p.w, p.sigma)


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
    if len(g.z) != len(p.w):
        raise DimensionError(f"dimension mismatch: {len(g.z)} vs {len(p.w)}")
    return finite_pair(_point, "action", *_act(g.z, g.t, p.w, p.sigma))


def act_compose_check(g: ComplexElement, g2: ComplexElement, p: SiegelPoint) -> bool:
    """Does acting by g after g2 agree with acting by the product g g2?

    Componentwise comparison, relative to max(1, magnitudes involved).
    """
    if not len(g.z) == len(g2.z) == len(p.w):
        raise DimensionError(f"dimension mismatch: {g.n} vs {g2.n} vs {p.n}")
    dev, scale = _compose_gap(g.z, g.t, g2.z, g2.t, p.w, p.sigma, _finite_max)
    return dev <= COMPOSE_TOL * scale


def cdilate(d: ComplexDilation, g: ComplexElement) -> ComplexElement:
    return finite_pair(_complex, "dilation", *_dilate(d.r, g.z, g.t))


def domain_dilate(d: ComplexDilation, p: SiegelPoint) -> SiegelPoint:
    """Scales the height by exactly r^2, so preserves domain and boundary."""
    return finite_pair(_point, "dilation", *_dilate(d.r, p.w, p.sigma))
