"""The one group law against an independent oracle.

(x, y, t) is the (n+2)x(n+2) unitriangular matrix [[1, y, t], [0, I_n, x],
[0, 0, 1]].  Matrix products and inverses are taken in exact Fraction / int
arithmetic and read back as triples, so core.mul / core.inverse and
lattice.lmul / lattice.linverse are checked against something other than
core.law itself.
"""

import random
from fractions import Fraction

import pytest

from heis import core, grid, lattice

TRIALS = 200


def matrix(x, y, t):
    n = len(x)
    m = [[int(i == j) for j in range(n + 2)] for i in range(n + 2)]
    m[0][1:n + 1] = y
    m[0][n + 1] = t
    for i, c in enumerate(x, start=1):
        m[i][n + 1] = c
    return m


def matmul(a, b):
    return [[sum(a[i][k] * b[k][j] for k in range(len(b))) for j in range(len(b[0]))]
            for i in range(len(a))]


def matinv(u):
    # u = I + N with N strictly upper triangular over three blocks, so N^3 = 0
    # and u^-1 = I - N + N^2
    size = len(u)
    nil = [[u[i][j] - (i == j) for j in range(size)] for i in range(size)]
    sq = matmul(nil, nil)
    return [[(i == j) - nil[i][j] + sq[i][j] for j in range(size)] for i in range(size)]


def triple(m):
    """The triple of a group matrix, after checking it has the group's shape."""
    n = len(m) - 2
    x = tuple(m[i][n + 1] for i in range(1, n + 1))
    y = tuple(m[0][1:n + 1])
    t = m[0][n + 1]
    assert m == matrix(x, y, t)
    return x, y, t


def dyadic(rng, n):
    # multiples of 1/8 up to 8 in size: every product and sum is exact in float64
    return tuple(Fraction(rng.randint(-64, 64), 8) for _ in range(n))


def big(rng, n):
    return tuple(rng.randint(-2**80, 2**80) for _ in range(n))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_real_law_matches_matrices(n):
    rng = random.Random(n)
    for _ in range(TRIALS):
        a = (dyadic(rng, n), dyadic(rng, n), dyadic(rng, 1)[0])
        b = (dyadic(rng, n), dyadic(rng, n), dyadic(rng, 1)[0])
        g, h = core.RealElement(*a), core.RealElement(*b)
        prod, inv = core.mul(g, h), core.inverse(g)
        assert (prod.x, prod.y, prod.t) == triple(matmul(matrix(*a), matrix(*b)))
        assert (inv.x, inv.y, inv.t) == triple(matinv(matrix(*a)))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_lattice_law_matches_matrices_beyond_64_bits(n):
    rng = random.Random(10 + n)
    for _ in range(TRIALS):
        a = (big(rng, n), big(rng, n), big(rng, 1)[0])
        b = (big(rng, n), big(rng, n), big(rng, 1)[0])
        g, h = lattice.LatticeElement(*a), lattice.LatticeElement(*b)
        prod, inv = lattice.lmul(g, h), lattice.linverse(g)
        assert (prod.k, prod.l, prod.m) == triple(matmul(matrix(*a), matrix(*b)))
        assert (inv.k, inv.l, inv.m) == triple(matinv(matrix(*a)))
        assert max(map(abs, prod.k + prod.l + (prod.m,))) > 2**64


def test_grid_triples_are_lattice_elements():
    assert grid.QuantizedTriple is lattice.LatticeElement
    assert grid.triple_mul is lattice.lmul
    assert grid.triple_inverse is lattice.linverse
