"""The Siegel action against an independent oracle: unipotent matrices.

The complex Heisenberg group acts linearly on homogeneous coordinates
x = (1, w, sigma) through the (n+2)x(n+2) matrix

    M(z, t) = [[1, 0, 0], [z, I_n, 0], [t + i|z|^2, 2i conj(z)^T, 1]].

Products, adjoints and dilations of these matrices are taken in exact
Gaussian-rational arithmetic (pairs of Fractions) on dyadic inputs, so
siegel.act / cmul / cdilate / domain_dilate / height are checked against
linear algebra rather than against each other.
"""

import random
from fractions import Fraction

import pytest

from heis import siegel

TRIALS = 100
RATIOS = (Fraction(1, 4), Fraction(1, 2), Fraction(3, 4), Fraction(2), Fraction(4))


class Gauss:
    """An exact Gaussian rational re + i im."""

    __slots__ = ("re", "im")

    def __init__(self, re, im=0):
        self.re, self.im = Fraction(re), Fraction(im)

    @classmethod
    def of(cls, c: complex) -> "Gauss":
        return cls(c.real, c.imag)

    def __add__(self, o):
        return Gauss(self.re + o.re, self.im + o.im)

    def __mul__(self, o):
        return Gauss(self.re * o.re - self.im * o.im, self.re * o.im + self.im * o.re)

    def __eq__(self, o):
        return self.re == o.re and self.im == o.im

    def conj(self):
        return Gauss(self.re, -self.im)

    def __repr__(self):
        return f"({self.re} + {self.im}i)"


ZERO, ONE = Gauss(0), Gauss(1)


def matrix(g: siegel.ComplexElement):
    n = g.n
    z = [Gauss.of(c) for c in g.z]
    m = [[ONE if i == j else ZERO for j in range(n + 2)] for i in range(n + 2)]
    norm2 = sum((c.re * c.re + c.im * c.im for c in z), Fraction(0))
    m[n + 1][0] = Gauss(g.t, norm2)
    for j, c in enumerate(z, start=1):
        m[j][0] = c
        m[n + 1][j] = Gauss(0, 2) * c.conj()
    return m


def matmul(a, b):
    return [[sum((a[i][k] * b[k][j] for k in range(len(b))), ZERO) for j in range(len(b[0]))]
            for i in range(len(a))]


def adjoint(a):
    return [[a[j][i].conj() for j in range(len(a))] for i in range(len(a[0]))]


def form(n):
    """J with x* J x = Im(x_sigma conj(x_0)) - |w|^2."""
    j = [[ZERO] * (n + 2) for _ in range(n + 2)]
    j[0][n + 1] = Gauss(0, Fraction(-1, 2))
    j[n + 1][0] = Gauss(0, Fraction(1, 2))
    for k in range(1, n + 1):
        j[k][k] = Gauss(-1)
    return j


def coords(p: siegel.SiegelPoint):
    """Homogeneous coordinates (1, w, sigma) as a column."""
    return [[ONE]] + [[Gauss.of(c)] for c in p.w] + [[Gauss.of(p.sigma)]]


def dyadic(rng):
    # multiples of 1/8 up to 8 in size: sums and products stay exact in float64
    return rng.randint(-64, 64) / 8


def cvec(rng, n):
    return tuple(complex(dyadic(rng), dyadic(rng)) for _ in range(n))


def element(rng, n):
    return siegel.ComplexElement(cvec(rng, n), dyadic(rng))


def point(rng, n):
    return siegel.SiegelPoint(cvec(rng, n), complex(dyadic(rng), dyadic(rng)))


def close(got: complex, want: Gauss, tol: float) -> bool:
    return abs(Fraction(got.real) - want.re) <= tol and abs(Fraction(got.imag) - want.im) <= tol


# |z|^2 and |w|^2 go through abs(), which rounds; every other step is exact on
# dyadics.  Dropping a term of the action moves sigma by at least 1/64.
ACT_TOL = 1e-12


@pytest.mark.parametrize("n", [1, 2, 3])
def test_action_is_the_matrix_on_homogeneous_coordinates(n):
    rng = random.Random(100 + n)
    for _ in range(TRIALS):
        g, p = element(rng, n), point(rng, n)
        moved = siegel.act(g, p)
        image = matmul(matrix(g), coords(p))
        assert image[0][0] == ONE
        got = moved.w + (moved.sigma,)
        assert all(close(c, row[0], ACT_TOL) for c, row in zip(got, image[1:]))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_matrices_multiply_like_the_group(n):
    rng = random.Random(200 + n)
    for _ in range(TRIALS):
        g, h = element(rng, n), element(rng, n)
        assert matmul(matrix(g), matrix(h)) == matrix(siegel.cmul(g, h))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_matrices_preserve_the_hermitian_form(n):
    rng = random.Random(300 + n)
    j = form(n)
    for _ in range(TRIALS):
        g, p = element(rng, n), point(rng, n)
        m = matrix(g)
        assert matmul(adjoint(m), matmul(j, m)) == j
        # x* J x is the height, before and after the action
        for q in (p, siegel.act(g, p)):
            x = coords(q)
            value = matmul(adjoint(x), matmul(j, x))[0][0]
            assert value.im == 0
            assert abs(Fraction(siegel.height(q)) - value.re) <= ACT_TOL


@pytest.mark.parametrize("n", [1, 2, 3])
def test_dilation_is_diag_1_r_r2(n):
    rng = random.Random(400 + n)
    for _ in range(TRIALS):
        g, p = element(rng, n), point(rng, n)
        r = rng.choice(RATIOS)
        d = siegel.ComplexDilation(float(r))
        scale = [Gauss(1)] + [Gauss(r)] * n + [Gauss(r * r)]
        unscale = [Gauss(1 / s.re) for s in scale]
        assert coords(siegel.domain_dilate(d, p)) == [[s * row[0]] for s, row in zip(scale, coords(p))]
        conjugated = [[scale[i] * v * unscale[j] for j, v in enumerate(row)]
                      for i, row in enumerate(matrix(g))]
        assert matrix(siegel.cdilate(d, g)) == conjugated
