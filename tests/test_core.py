import itertools
import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from heis import core
from heis.errors import DimensionError, ParameterError


def elem(*args):
    if len(args) == 3 and not isinstance(args[0], tuple):
        return core.RealElement((args[0],), (args[1],), args[2])
    return core.RealElement(*args)


def approx_eq(a, b, tol=0.0):
    return (
        all(abs(p - q) <= tol for p, q in zip(a.x, b.x))
        and all(abs(p - q) <= tol for p, q in zip(a.y, b.y))
        and abs(a.t - b.t) <= tol
    )


coords = st.floats(min_value=-10, max_value=10, allow_nan=False, allow_infinity=False)


def elements(n):
    vec = st.tuples(*([coords] * n))
    return st.builds(core.RealElement, vec, vec, coords)


class TestMul:
    def test_identity(self):
        g = core.RealElement((1, 2), (3, 4), 5)
        e = core.RealElement.identity(2)
        assert core.mul(g, e) == g
        assert core.mul(e, g) == g
        assert g.n == e.n == 2

    def test_hand_example(self):
        assert core.mul(elem(1, 2, 0), elem(3, 4, 0)) == elem(4, 6, 6)

    def test_naive_inverse_misses(self):
        # the central slot of g * (-x, -y, -t) is -x.y, not 0
        assert core.mul(elem(1, 2, 3), elem(-1, -2, -3)) == elem(0, 0, -2)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            core.mul(elem(1, 2, 3), core.RealElement((1, 2), (3, 4), 5))

    @given(elements(2), elements(2), elements(2))
    @settings(max_examples=200)
    def test_associative(self, g, h, k):
        lhs = core.mul(core.mul(g, h), k)
        rhs = core.mul(g, core.mul(h, k))
        assert approx_eq(lhs, rhs, 1e-9)


class TestInverse:
    def test_identity_self_inverse(self):
        e = core.RealElement.identity(1)
        assert core.inverse(e) == e

    def test_hand_example(self):
        assert core.inverse(elem(1, 2, 3)) == elem(-1, -2, -1)

    def test_zero_pairing_matches_naive(self):
        g = core.RealElement((1, 0), (0, 1), 0)
        assert core.inverse(g) == core.naive_inverse(g)
        assert core.inverse(g) == core.RealElement((-1, 0), (0, -1), 0)

    @given(elements(1))
    @settings(max_examples=200)
    def test_two_sided(self, g):
        e = core.RealElement.identity(1)
        assert approx_eq(core.mul(g, core.inverse(g)), e, 1e-12)
        assert approx_eq(core.mul(core.inverse(g), g), e, 1e-12)

    @given(elements(2))
    @settings(max_examples=100)
    def test_naive_defect_is_minus_x_dot_y(self, g):
        prod = core.mul(g, core.naive_inverse(g))
        xy = sum(a * b for a, b in zip(g.x, g.y))
        assert prod.x == (0.0, 0.0) and prod.y == (0.0, 0.0)
        assert abs(prod.t + xy) <= 1e-12


class TestDilation:
    def test_unit(self):
        g = elem(1, 2, 3)
        assert core.dilate(core.Dilation(1.0), g) == g

    def test_hand_example(self):
        assert core.dilate(core.Dilation(2.0), elem(1, 1, 1)) == elem(2, 2, 4)

    def test_composition(self):
        g = elem(1, 0, 5)
        two_three = core.dilate(core.Dilation(3.0), core.dilate(core.Dilation(2.0), g))
        assert two_three == core.dilate(core.Dilation(6.0), g)

    def test_rejects_nonpositive(self):
        for bad in (0.0, -1.0, math.inf):
            with pytest.raises(ParameterError):
                core.Dilation(bad)

    @given(elements(2), elements(2), st.floats(min_value=0.1, max_value=10))
    @settings(max_examples=100)
    def test_homomorphism(self, g, h, r):
        d = core.Dilation(r)
        lhs = core.dilate(d, core.mul(g, h))
        rhs = core.mul(core.dilate(d, g), core.dilate(d, h))
        assert approx_eq(lhs, rhs, 1e-9)


class TestCosetReduce:
    def test_already_reduced(self):
        red = core.coset_reduce(elem(0.5, 0.25, 0.75))
        assert (red.k, red.l, red.m) == ((0,), (0,), 0)
        assert red.rep == elem(0.5, 0.25, 0.75)

    def test_hand_example(self):
        red = core.coset_reduce(elem(1.5, -0.25, 2.3))
        assert (red.k, red.l, red.m) == ((-1,), (1,), -3)
        assert approx_eq(red.rep, elem(0.5, 0.75, 0.8), 1e-12)

    @given(elements(2))
    @settings(max_examples=300)
    def test_recompose_and_range(self, g):
        red = core.coset_reduce(g)
        for c in red.rep.x + red.rep.y + (red.rep.t,):
            assert 0.0 <= c < 1.0
        gamma = core.embed_integer(red.k, red.l, red.m)
        assert approx_eq(core.mul(gamma, g), red.rep, 1e-12)

    @given(elements(1))
    @settings(max_examples=100)
    def test_idempotent(self, g):
        red = core.coset_reduce(g)
        again = core.coset_reduce(red.rep)
        assert (again.k, again.l, again.m) == ((0,), (0,), 0)

    def test_overflow_is_a_parameter_error(self):
        # finite input, but t + x . l = 1e200 * -1e200 is -inf
        with pytest.raises(ParameterError, match="overflow"):
            core.coset_reduce(elem(1e200, 1e200, 0.0))

    @given(st.floats(allow_nan=False, allow_infinity=False))
    @example(-5e-324)
    @example(-1e-20)  # v + 1 rounds to 1.0
    @example(-(2**53 - 0.5))
    @example(1e300)
    @example(-1e300)
    @settings(max_examples=1000)
    def test_frac_split_is_in_the_unit_interval(self, v):
        k, f = core._frac_split(v)
        assert type(k) is int and 0.0 <= f < 1.0
        assert -k in (math.floor(v), math.floor(v) + 1)

    def test_translator_unique_in_window(self):
        # no two distinct small integer translators both land g in the cube
        for g in (elem(0.3, 0.6, 0.9), elem(1.2, -0.7, 0.1), elem(-0.5, 0.5, 1.5)):
            hits = 0
            for k, l, m in itertools.product(range(-2, 3), repeat=3):
                cand = core.mul(core.embed_integer((k,), (l,), m), g)
                if all(0.0 <= c < 1.0 for c in cand.x + cand.y + (cand.t,)):
                    hits += 1
            assert hits == 1
