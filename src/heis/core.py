"""The real Heisenberg group H_n(R).

Elements are triples (x, y, t) with x, y in R^n and t in R, multiplied by

    (x, y, t) (x', y', t') = (x + x', y + y', t + t' + x' . y).

The inverse forced by this law is (-x, -y, -t + x . y); the naive sign flip
(-x, -y, -t) multiplies to (0, 0, -x . y) and is *not* a left or right
inverse unless x . y = 0.  See tests for the regression pinning this down.
The law and this inverse are computed only by `law` and `law_inverse`, over
plain components, so H_n(Z) (lattice) and the grid triples share them.

Also provided: the anisotropic dilations (x, y, t) -> (r x, r y, r^2 t),
which are group automorphisms, and reduction modulo the integer subgroup
H_n(Z) to a canonical representative in the half-open cube [0, 1)^(2n+1).

`RealElement(...)` and the `textio` parsers validate what comes from outside.
Operation outputs are built unchecked, except for the overflow test of
`errors.finite_triple`: validation happens once, at the public boundary.
"""

from __future__ import annotations

import math
import operator
from typing import Sequence, Tuple

from . import _Value
from .errors import (DimensionError, ParameterError, dimension, finite_scalar, finite_triple,
                     finite_vector, integer, integers)


def _dot(a: Sequence, b: Sequence):
    return sum(map(operator.mul, a, b))


class RealElement(_Value):
    """A point (x, y, t) of H_n(R): tuples of floats x, y and a float t."""

    __match_args__ = _fields = ("x", "y", "t")

    def __init__(self, x: Sequence[float], y: Sequence[float], t: float):
        x, y, t = finite_vector(x, float), finite_vector(y, float), finite_scalar(t, float, "t")
        if len(x) != len(y):
            raise DimensionError(f"x has length {len(x)} but y has length {len(y)}")
        self.__dict__.update(x=x, y=y, t=t)

    @property
    def n(self) -> int:
        return len(self.x)

    @staticmethod
    def identity(n: int) -> "RealElement":
        zeros = (0.0,) * dimension(n)
        return _real(zeros, zeros, 0.0)


def _real(x: tuple, y: tuple, t: float) -> RealElement:
    """The RealElement (x, y, t), unchecked: its fields as `__init__` leaves them."""
    obj = object.__new__(RealElement)
    fields = obj.__dict__
    fields["x"], fields["y"], fields["t"] = x, y, t
    return obj


def law(x: Sequence, y: Sequence, t, x2: Sequence, y2: Sequence, t2) -> Tuple:
    """The group law on plain components, for any number type:
    (x, y, t)(x2, y2, t2) = (x + x2, y + y2, t + t2 + x2 . y).

    Floats stay float64 and Python ints stay exact; the caller builds its
    own element type from the returned (x, y, t).
    """
    if len(x) != len(x2):
        raise DimensionError(f"dimension mismatch: {len(x)} vs {len(x2)}")
    return (tuple(map(operator.add, x, x2)), tuple(map(operator.add, y, y2)),
            t + t2 + _dot(x2, y))


def law_inverse(x: Sequence, y: Sequence, t) -> Tuple:
    """The two-sided inverse (-x, -y, -t + x . y) on plain components."""
    return tuple(map(operator.neg, x)), tuple(map(operator.neg, y)), -t + _dot(x, y)


def mul(g: RealElement, h: RealElement) -> RealElement:
    """Group product g h; the central slot picks up h.x . g.y."""
    return finite_triple(_real, "product", *law(g.x, g.y, g.t, h.x, h.y, h.t))


def inverse(g: RealElement) -> RealElement:
    """The two-sided inverse (-x, -y, -t + x . y)."""
    return finite_triple(_real, "inverse", *law_inverse(g.x, g.y, g.t))


def naive_inverse(g: RealElement) -> RealElement:
    """The plain sign flip (-x, -y, -t).

    Not an inverse when x . y != 0: mul(g, naive_inverse(g)) = (0, 0, -x . y).
    Kept as a regression witness.  Negation cannot overflow.
    """
    return _real(tuple([-c for c in g.x]), tuple([-c for c in g.y]), -g.t)


class Dilation(_Value):
    """The scaling delta_r: (x, y, t) -> (r x, r y, r^2 t), r > 0."""

    __match_args__ = _fields = ("r",)

    def __init__(self, r: float):
        self.__dict__.update(r=finite_scalar(r, float, "dilation parameter", positive=True))


def dilate(d: Dilation, g: RealElement) -> RealElement:
    r = d.r
    return finite_triple(_real, "dilation",
                         tuple([r * c for c in g.x]), tuple([r * c for c in g.y]), r * r * g.t)


class CosetReduction(_Value):
    """Result of reducing g modulo H_n(Z): gamma . g = rep with rep in [0,1)^(2n+1).

    gamma is returned as its integer triple (k, l, m); rep is the canonical
    coset representative, a RealElement.
    """

    __match_args__ = _fields = ("k", "l", "m", "rep")

    def __init__(self, k: Tuple[int, ...], l: Tuple[int, ...], m: int, rep: RealElement):
        self.__dict__.update(k=k, l=l, m=m, rep=rep)


def _frac_split(v: float) -> Tuple[int, float]:
    """Write v = -k + f with f in [0, 1); returns (k, f)."""
    k = -math.floor(v)
    f = v + k
    # v + k is exactly >= 0 and rounds to >= 0, but to 1.0 for v just below an integer
    if f >= 1.0:
        k -= 1
        f -= 1.0
    return k, f


def coset_reduce(g: RealElement) -> CosetReduction:
    """Left-translate g by the unique gamma in H_n(Z) landing it in [0,1)^(2n+1).

    With gamma = (k, l, m), the product gamma . g is
    (k + x, l + y, m + t + x . l), so k and l are fixed coordinatewise by
    x and y, and m is then fixed by t + x . l.  Raises ParameterError when
    t + x . l overflows the float range, since m is then undefined.
    """
    k, rx = zip(*(_frac_split(c) for c in g.x))
    l, ry = zip(*(_frac_split(c) for c in g.y))
    central = g.t + _dot(g.x, l)
    if not math.isfinite(central):
        raise ParameterError(f"t + x . l overflows to {central} in coset reduction")
    m, rt = _frac_split(central)
    return CosetReduction(k, l, m, _real(rx, ry, rt))


def embed_integer(k: Sequence[int], l: Sequence[int], m: int) -> RealElement:
    """The inclusion H_n(Z) -> H_n(R) on an integer triple (k, l, m), as held
    by a `LatticeElement` or a `CosetReduction`.

    Raises ParameterError when a component is not an integer (a float would
    embed a point off the lattice) or is too large for a float.
    """
    k, l, m = integers(k, "k"), integers(l, "l"), integer(m, "m")
    if not 0 < len(k) == len(l):
        raise DimensionError(f"k and l must have equal length n >= 1, got {len(k)} and {len(l)}")
    return _embed(k, l, m)


def _embed(k: tuple, l: tuple, m: int) -> RealElement:
    """`embed_integer` on the checked ints of a `LatticeElement`."""
    try:
        return _real(tuple(map(float, k)), tuple(map(float, l)), float(m))
    except OverflowError:
        raise ParameterError("embedding overflows the float range") from None
