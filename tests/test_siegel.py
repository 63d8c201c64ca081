
import operator

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heis import core, siegel
from heis.errors import DimensionError, ParameterError

reals = st.floats(min_value=-10, max_value=10, allow_nan=False, allow_infinity=False)
complexes = st.builds(complex, reals, reals)


def celements(n):
    return st.builds(siegel.ComplexElement, st.tuples(*([complexes] * n)), reals)


def points(n):
    return st.builds(siegel.SiegelPoint, st.tuples(*([complexes] * n)), complexes)


class TestGroupLaw:
    def test_identity(self):
        g = siegel.ComplexElement((1 + 2j, 3j), 4.0)
        e = siegel.ComplexElement.identity(2)
        assert siegel.cmul(g, e) == g
        assert siegel.cmul(e, g) == g

    def test_hand_example(self):
        g = siegel.ComplexElement((1 + 0j,), 0.0)
        h = siegel.ComplexElement((1j,), 0.0)
        prod = siegel.cmul(g, h)
        assert prod.z == (1 + 1j,)
        assert prod.t == -2.0

    @given(celements(1))
    @settings(max_examples=200)
    def test_sign_flip_inverts(self, g):
        e = siegel.ComplexElement.identity(1)
        prod = siegel.cmul(g, siegel.cinverse(g))
        assert max(abs(c) for c in prod.z) == 0.0
        assert abs(prod.t) <= 1e-9
        prod = siegel.cmul(siegel.cinverse(g), g)
        assert abs(prod.t) <= 1e-9

    @given(celements(2), celements(2), celements(2))
    @settings(max_examples=200)
    def test_associative(self, g, h, k):
        lhs = siegel.cmul(siegel.cmul(g, h), k)
        rhs = siegel.cmul(g, siegel.cmul(h, k))
        assert max(abs(a - b) for a, b in zip(lhs.z, rhs.z)) <= 1e-10
        assert abs(lhs.t - rhs.t) <= 1e-10

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            siegel.cmul(siegel.ComplexElement.identity(1), siegel.ComplexElement.identity(2))


class TestHeight:
    def test_interior(self):
        p = siegel.SiegelPoint((0j,), 1j)
        assert siegel.height(p) == 1.0
        assert siegel.classify(p) == "interior"

    def test_boundary(self):
        p = siegel.SiegelPoint((1 + 0j,), 1j)
        assert siegel.height(p) == 0.0
        assert siegel.classify(p) == "boundary"

    def test_outside(self):
        p = siegel.SiegelPoint((1 + 0j,), 0j)
        assert siegel.height(p) == -1.0
        assert siegel.classify(p) == "outside"


class TestAction:
    def test_identity_acts_trivially(self):
        p = siegel.SiegelPoint((1 + 2j,), 3 + 9j)
        assert siegel.act(siegel.ComplexElement.identity(1), p) == p

    def test_hand_example(self):
        g = siegel.ComplexElement((1 + 0j,), 0.0)
        p = siegel.SiegelPoint((0j,), 1j)
        out = siegel.act(g, p)
        assert out.w == (1 + 0j,)
        assert out.sigma == 2j
        assert siegel.height(p) == siegel.height(out) == 1.0

    def test_pure_time_translation(self):
        g = siegel.ComplexElement((0j,), 5.0)
        out = siegel.act(g, siegel.SiegelPoint((0j,), 1j))
        assert out.w == (0j,)
        assert out.sigma == 5 + 1j

    @given(celements(2), points(2))
    @settings(max_examples=300)
    def test_height_invariance(self, g, p):
        assert abs(siegel.height(siegel.act(g, p)) - siegel.height(p)) <= 1e-10

    @given(celements(1), celements(1), points(1))
    @settings(max_examples=300)
    def test_composition(self, g, g2, p):
        assert siegel.act_compose_check(g, g2, p)

    @given(celements(2), points(2))
    @settings(max_examples=100)
    def test_inverse_action(self, g, p):
        back = siegel.act(g, siegel.act(siegel.cinverse(g), p))
        assert max(abs(a - b) for a, b in zip(back.w, p.w)) <= 1e-9
        assert abs(back.sigma - p.sigma) <= 1e-9

    def test_affine_in_the_point(self):
        # act(g, .) commutes with complex affine combinations of points
        g = siegel.ComplexElement((1 - 2j, 0.5j), 3.0)
        p = siegel.SiegelPoint((1j, 2 + 0j), 5j)
        q = siegel.SiegelPoint((2 + 1j, -1j), 1 + 3j)
        for s in (0.25, 1j, -0.7 + 0.3j):
            mixed = siegel.SiegelPoint(
                tuple(a + s * (b - a) for a, b in zip(p.w, q.w)),
                p.sigma + s * (q.sigma - p.sigma),
            )
            ap, aq, am = siegel.act(g, p), siegel.act(g, q), siegel.act(g, mixed)
            expect_w = tuple(a + s * (b - a) for a, b in zip(ap.w, aq.w))
            expect_sigma = ap.sigma + s * (aq.sigma - ap.sigma)
            assert max(abs(a - b) for a, b in zip(am.w, expect_w)) <= 1e-12
            assert abs(am.sigma - expect_sigma) <= 1e-12


class TestDilations:
    def test_unit(self):
        g = siegel.ComplexElement((1 + 1j,), 3.0)
        p = siegel.SiegelPoint((1 + 0j,), 2j)
        one = siegel.ComplexDilation(1.0)
        assert siegel.cdilate(one, g) == g
        assert siegel.domain_dilate(one, p) == p

    def test_hand_examples(self):
        two = siegel.ComplexDilation(2.0)
        g = siegel.cdilate(two, siegel.ComplexElement((1 + 1j,), 3.0))
        assert g.z == (2 + 2j,) and g.t == 12.0
        p = siegel.domain_dilate(two, siegel.SiegelPoint((1 + 0j,), 2j))
        assert p.w == (2 + 0j,) and p.sigma == 8j
        assert siegel.height(p) == 4.0

    def test_rejects_nonpositive(self):
        with pytest.raises(ParameterError):
            siegel.ComplexDilation(0.0)

    def test_one_dilation_type(self):
        # the complex group scales by the real group's dilation parameter
        assert siegel.ComplexDilation is core.Dilation

    @given(celements(1), celements(1), st.floats(min_value=0.1, max_value=10))
    @settings(max_examples=100)
    def test_group_homomorphism(self, g, h, r):
        d = siegel.ComplexDilation(r)
        lhs = siegel.cdilate(d, siegel.cmul(g, h))
        rhs = siegel.cmul(siegel.cdilate(d, g), siegel.cdilate(d, h))
        assert max(abs(a - b) for a, b in zip(lhs.z, rhs.z)) <= 1e-9
        assert abs(lhs.t - rhs.t) <= 1e-8

    @pytest.mark.parametrize("r", [0.5, 1.0, 2.0, 10.0])
    def test_action_equivariance(self, r):
        rng = np.random.default_rng(21)
        d = siegel.ComplexDilation(r)
        for _ in range(50):
            v = rng.uniform(-10, 10, size=7)
            g = siegel.ComplexElement((complex(v[0], v[1]),), v[2])
            p = siegel.SiegelPoint((complex(v[3], v[4]),), complex(v[5], v[6]))
            lhs = siegel.domain_dilate(d, siegel.act(g, p))
            rhs = siegel.act(siegel.cdilate(d, g), siegel.domain_dilate(d, p))
            scale = max(1.0, abs(lhs.sigma))
            assert abs(lhs.w[0] - rhs.w[0]) <= 1e-10 * scale
            assert abs(lhs.sigma - rhs.sigma) <= 1e-10 * scale


# --- the kernels, pinned to the formulas they had as chains of `map` ------------

def old_cdot(a, b):
    return sum(map(operator.mul, a, map(operator.methodcaller("conjugate"), b)), 0j)


def old_norm2(v):
    m = tuple(map(abs, v))
    return sum(map(operator.mul, m, m))


def old_dilate(r, v, s):
    return tuple(r * c for c in v), r * r * s


SUB = 5e-324  # the smallest subnormal
SCALAR_VECTORS = [
    (-0.0,), (complex(-0.0, -0.0), complex(0.0, -0.0)), (-0.0, complex(-0.0, 0.0), 0.0),
    (SUB, -SUB, complex(SUB, -SUB)), (2.2e-308, complex(-1e-310, 3e-320)),
    (1e200, -1e300), (complex(1e160, -1e160), 1e300j, 3.0),  # squares overflow to inf
    (complex(1e308, 1e308), complex(-1e308, 1e308)), (1.5, -2.5j, complex(0.1, -0.3)),
    (1.0, 1e-8, complex(1e-8, 1e-8)), (1.0, 1e-8j, -1e-8),  # sums that depend on their order
]


def _arrays(rng, n):
    """A kernel's block: n arrays of complex128, one value per trial, mixing
    -0.0, subnormals, components whose squares overflow and normal values
    of many magnitudes, whose sums depend on their order."""
    special = np.array([-0.0, SUB, -SUB, 2.2e-308, 1e200, -1e300, 1e308, 0.0, 1.0, -3.5])
    return tuple(rng.choice(special, 24) + 1j * rng.choice(special, 24)
                 + rng.standard_normal(24) * 10.0 ** rng.integers(-9, 9, 24) for _ in range(n))


def _same(a, b) -> bool:
    """Bit for bit: equal types and bytes, so -0.0 differs from 0.0 and nan matches nan."""
    if isinstance(a, tuple):
        return type(b) is tuple and len(a) == len(b) and all(map(_same, a, b))
    if isinstance(a, np.ndarray):
        return type(b) is np.ndarray and a.dtype == b.dtype and a.tobytes() == b.tobytes()
    return type(a) is type(b) and repr(a) == repr(b)


def test_kernels_keep_the_map_formulas_bit_for_bit():
    rng = np.random.default_rng(5)
    blocks = [_arrays(rng, n) for n in (1, 2, 3)]
    cases = [(a, b) for a in SCALAR_VECTORS for b in SCALAR_VECTORS if len(a) == len(b)]
    cases += [(a, b[::-1]) for a in blocks for b in blocks if len(a) == len(b)]
    with np.errstate(over="ignore", invalid="ignore"):
        for a, b in cases:
            assert _same(siegel._cdot(a, b), old_cdot(a, b)), (a, b)
            assert _same(siegel._norm2(a), old_norm2(a)), a
            for r in (0.5, 1e200, SUB):
                assert _same(siegel._dilate(r, a, b[0]), old_dilate(r, a, b[0])), (r, a)
