import cmath
import dataclasses
import io
import warnings

import numpy as np
import pytest

from heis import checks, grid
from heis.errors import DimensionError, ParameterError


def spec1(N=4, L=1.0):
    return grid.GridSpec(1, N, L)


def gf(spec, values):
    return grid.GridFunction(spec, np.asarray(values, dtype=complex))


def random_f(spec, seed=0):
    rng = np.random.default_rng(seed)
    return grid.GridFunction(
        spec, rng.standard_normal(spec.shape) + 1j * rng.standard_normal(spec.shape)
    )


class TestSpec:
    def test_step(self):
        assert spec1(8, 2.0).h == 0.25

    def test_guards(self):
        with pytest.raises(ParameterError):
            grid.GridSpec(1, 1)
        with pytest.raises(ParameterError):
            grid.GridSpec(1, 4, -1.0)
        with pytest.raises(ParameterError):
            grid.GridSpec(3, 2048)  # 2048^3 blows the point guard

    def test_point_guard_edges(self):
        for n, N in [(1, 2**20), (2, 2**10), (20, 2)]:
            assert grid.GridSpec(n, N).shape == (N,) * n
        for n, N in [(1, 2**20 + 1), (2, 2**10 + 1), (21, 2)]:
            with pytest.raises(ParameterError, match=f"^grid with N\\^n = {N}\\^{n} points "):
                grid.GridSpec(n, N)

    def test_no_scale_parameter(self):
        # no operator reads a continuum scale, so the grid has none
        assert [f.name for f in dataclasses.fields(grid.GridSpec)] == ["n", "N", "L"]

    def test_sizes_must_be_integers(self):
        for n, N, message in [(1.5, 8, "^n must be an integer, got 1.5$"),
                              ("2", 8, "^n must be an integer, got '2'$"),
                              (1, 8.0, "^N must be an integer, got 8.0$"),
                              (1, "8", "^N must be an integer, got '8'$")]:
            with pytest.raises(ParameterError, match=message):
                grid.GridSpec(n, N)
        with pytest.raises(ParameterError, match="^N must be an integer"):
            checks.rep_check(1, 8.0, 1, 0)
        s = grid.GridSpec(np.int64(2), np.int32(8))
        assert (type(s.n), type(s.N)) == (int, int) and s == grid.GridSpec(2, 8)

    def test_values_are_frozen(self):
        f = random_f(spec1())
        with pytest.raises(ValueError):
            f.values[0] = 0


class TestTranslation:
    def test_zero_shift(self):
        f = random_f(spec1(8))
        assert grid.apply_T((0,), f).max_abs_diff(f) == 0.0

    def test_hand_shift(self):
        f = gf(spec1(4), [1, 2, 3, 4])
        assert np.array_equal(grid.apply_T((1,), f).values, [4, 1, 2, 3])

    def test_additive(self):
        f = random_f(spec1(8))
        lhs = grid.apply_T((3,), grid.apply_T((6,), f))
        rhs = grid.apply_T((9,), f)
        assert lhs.max_abs_diff(rhs) == 0.0

    def test_2d_shift(self):
        s = grid.GridSpec(2, 4)
        f = random_f(s, seed=3)
        g = grid.apply_T((1, 2), f)
        assert g.values[1, 2] == f.values[0, 0]

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            grid.apply_T((1, 2), random_f(spec1()))


class TestModulation:
    def test_zero(self):
        f = random_f(spec1(8))
        assert grid.apply_U((0,), f).max_abs_diff(f) == 0.0

    def test_fourth_roots(self):
        f = gf(spec1(4), [1, 1, 1, 1])
        got = grid.apply_U((1,), f).values
        assert np.allclose(got, [1, 1j, -1, -1j], atol=1e-15)

    def test_additive(self):
        f = random_f(spec1(8))
        lhs = grid.apply_U((3,), grid.apply_U((6,), f))
        rhs = grid.apply_U((9,), f)
        assert lhs.max_abs_diff(rhs) <= 1e-14


class TestScalar:
    def test_unit(self):
        f = random_f(spec1())
        assert grid.apply_C(1.0, f).max_abs_diff(f) == 0.0

    def test_multiplies(self):
        f = gf(spec1(2), [1, 2])
        assert np.array_equal(grid.apply_C(1j, f).values, [1j, 2j])

    def test_rejects_non_unimodular(self):
        with pytest.raises(ParameterError):
            grid.apply_C(2.0, random_f(spec1()))

    def test_commutes_with_t_and_u(self):
        f = random_f(spec1(8))
        a = cmath.exp(0.7j)
        assert grid.apply_C(a, grid.apply_T((3,), f)).max_abs_diff(
            grid.apply_T((3,), grid.apply_C(a, f))) <= 1e-15
        assert grid.apply_C(a, grid.apply_U((5,), f)).max_abs_diff(
            grid.apply_U((5,), grid.apply_C(a, f))) <= 1e-15


class TestWeylRelation:
    def test_alpha_values(self):
        assert grid.weyl_alpha((0,), (1,), spec1(4)) == 1.0
        assert abs(grid.weyl_alpha((1,), (1,), spec1(4)) - 1j) <= 1e-15
        expected = cmath.exp(2j * cmath.pi * 5 / 8)
        assert abs(grid.weyl_alpha((1, 2), (3, 1), grid.GridSpec(2, 8)) - expected) <= 1e-15

    @pytest.mark.parametrize("n,N", [(1, 4), (1, 8), (2, 4)])
    def test_exact_relation_both_orientations(self, n, N):
        s = grid.GridSpec(n, N)
        rng = np.random.default_rng(11)
        for _ in range(5):
            p = tuple(rng.integers(0, N, size=n))
            q = tuple(rng.integers(0, N, size=n))
            f = grid.GridFunction(s, rng.standard_normal(s.shape) + 1j * rng.standard_normal(s.shape))
            alpha = grid.weyl_alpha(p, q, s)
            ut = grid.apply_U(q, grid.apply_T(p, f))
            tuc = grid.apply_T(p, grid.apply_U(q, grid.apply_C(alpha, f)))
            assert ut.max_abs_diff(tuc) <= 1e-12
            tu = grid.apply_T(p, grid.apply_U(q, f))
            cut = grid.apply_C(alpha.conjugate(), grid.apply_U(q, grid.apply_T(p, f)))
            assert tu.max_abs_diff(cut) <= 1e-12


def vectors(n, N, seed):
    """p, q pairs whose entries include negatives and entries >= N."""
    rng = np.random.default_rng(seed)
    fixed = [((-1,) * n, (N,) * n), ((N + 1,) * n, (-N - 3,) * n), ((0,) * n, (2 * N - 1,) * n)]
    drawn = [(tuple(int(v) for v in rng.integers(-3 * N, 3 * N, n)),
              tuple(int(v) for v in rng.integers(-3 * N, 3 * N, n))) for _ in range(5)]
    return fixed + drawn


class TestPrimitiveFormulas:
    """apply_T, apply_U and weyl_alpha against the formulas in their docstrings."""

    SIZES = [(n, N) for n in (1, 2, 3) for N in (4, 5, 16)]

    @pytest.mark.parametrize("n,N", SIZES)
    def test_translation_is_index_shift(self, n, N):
        s = grid.GridSpec(n, N)
        f = random_f(s, seed=n * N)
        j = np.indices(s.shape)
        for p, _ in vectors(n, N, seed=N):
            want = f.values[tuple((j[a] - p[a]) % N for a in range(n))]
            got = grid.apply_T(p, f).values
            assert np.array_equal(got, want)
            assert not got.flags.writeable
            assert not np.shares_memory(got, f.values)

    @pytest.mark.parametrize("n,N", SIZES)
    def test_zero_shift_is_fresh_and_frozen(self, n, N):
        s = grid.GridSpec(n, N)
        f = random_f(s)
        for p in [(0,) * n, (N,) * n, (-N,) * n]:
            got = grid.apply_T(p, f).values
            assert np.array_equal(got, f.values)
            assert not got.flags.writeable
            assert not np.shares_memory(got, f.values)

    @pytest.mark.parametrize("n,N", SIZES)
    def test_modulation_is_root_of_unity_diagonal(self, n, N):
        s = grid.GridSpec(n, N)
        f = random_f(s, seed=n + N)
        j = np.indices(s.shape)
        for _, q in vectors(n, N, seed=N + 1):
            qj = sum(q[a] * j[a] for a in range(n))
            want = np.exp(2j * np.pi * (qj % N) / N) * f.values
            got = grid.apply_U(q, f).values
            assert np.max(np.abs(got - want)) <= 1e-15
            assert not got.flags.writeable

    @pytest.mark.parametrize("n,N", SIZES)
    def test_alpha_is_root_at_q_dot_p(self, n, N):
        s = grid.GridSpec(n, N)
        for p, q in vectors(n, N, seed=N + 2):
            qp = sum(a * b for a, b in zip(q, p))
            assert abs(grid.weyl_alpha(p, q, s) - cmath.exp(2j * cmath.pi * (qp % N) / N)) <= 1e-15


class TestArgumentContract:
    def test_numpy_integer_tuples(self):
        s = grid.GridSpec(2, 8)
        f = random_f(s, seed=1)
        p = tuple(np.array([3, -5], dtype=np.int64))
        q = tuple(np.array([9, 2], dtype=np.int32))
        plain_p, plain_q = (3, -5), (9, 2)
        assert np.array_equal(grid.apply_T(p, f).values, grid.apply_T(plain_p, f).values)
        assert np.array_equal(grid.apply_U(q, f).values, grid.apply_U(plain_q, f).values)
        assert grid.weyl_alpha(p, q, s) == grid.weyl_alpha(plain_p, plain_q, s)

    @pytest.mark.parametrize("call,name", [
        (lambda v, f: grid.apply_T(v, f), "p"),
        (lambda v, f: grid.apply_U(v, f), "q"),
        (lambda v, f: grid.weyl_alpha(v, (0, 0), f.spec), "p"),
        (lambda v, f: grid.weyl_alpha((0, 0), v, f.spec), "q"),
    ])
    def test_wrong_length_message(self, call, name):
        f = random_f(grid.GridSpec(2, 4))
        for v, shape in [((1, 2, 3), "(3,)"), ((1,), "(1,)"), ((), "(0,)")]:
            with pytest.raises(DimensionError) as err:
                call(v, f)
            assert str(err.value) == f"{name} must be an n-vector of length 2, got shape {shape}"

    @pytest.mark.parametrize("call,name", [
        (lambda v, f: grid.apply_T(v, f), "p"),
        (lambda v, f: grid.apply_U(v, f), "q"),
        (lambda v, f: grid.weyl_alpha(v, (0, 0), f.spec), "p"),
        (lambda v, f: grid.weyl_alpha((0, 0), v, f.spec), "q"),
    ])
    def test_non_integers_are_refused_not_truncated(self, call, name):
        f = random_f(grid.GridSpec(2, 4))
        for v in [(1.5, 0), (1.9, 1), ("3", 0), (2.0, 0), (np.float64(1), 0), (None, 0)]:
            with pytest.raises(ParameterError, match=f"^{name} must have integers"):
                call(v, f)



class TestRepresentation:
    def test_identity_triple(self):
        s = spec1(8)
        f = random_f(s)
        op = grid.rep(grid.QuantizedTriple((0,), (0,), 0), s)
        assert op(f).max_abs_diff(f) == 0.0

    def test_central_period(self):
        s = spec1(8)
        f = random_f(s)
        op = grid.rep(grid.QuantizedTriple((0,), (0,), 8), s)
        assert op(f).max_abs_diff(f) <= 1e-12

    def test_homomorphism_random(self):
        s = spec1(16)
        rng = np.random.default_rng(5)
        for _ in range(10):
            g = grid.QuantizedTriple(tuple(rng.integers(0, 16, 1)),
                                     tuple(rng.integers(0, 16, 1)),
                                     int(rng.integers(0, 16)))
            g2 = grid.QuantizedTriple(tuple(rng.integers(0, 16, 1)),
                                      tuple(rng.integers(0, 16, 1)),
                                      int(rng.integers(0, 16)))
            f = grid.GridFunction(s, rng.standard_normal(16) + 1j * rng.standard_normal(16))
            lhs = grid.rep(g, s)(grid.rep(g2, s)(f))
            rhs = grid.rep(grid.triple_mul(g, g2), s)(f)
            assert lhs.max_abs_diff(rhs) <= 1e-12

    def test_inverse_undoes(self):
        s = spec1(16)
        f = random_f(s, seed=9)
        g = grid.QuantizedTriple((3,), (7,), 5)
        out = grid.rep(grid.triple_inverse(g), s)(grid.rep(g, s)(f))
        assert out.max_abs_diff(f) <= 1e-12

    def test_kernel(self):
        s = spec1(8)
        for p in range(8):
            for s_central in (0, 3, 8):
                g = grid.QuantizedTriple((p,), (0,), s_central)
                expect = (p % 8 == 0) and (s_central % 8 == 0)
                assert grid.is_identity_operator(grid.rep(g, s), s) == expect

    def test_operator_refuses_a_function_on_another_grid(self):
        g = grid.QuantizedTriple((3,), (5,), 1)
        f = random_f(spec1(8))
        with pytest.raises(DimensionError, match="^grid functions live on different grids$"):
            grid.rep(g, spec1(16))(f)
        with pytest.raises(DimensionError, match="^grid functions live on different grids$"):
            grid.rep(g, spec1(8, L=2.0))(f)
        # an equal grid is the same grid, whichever object describes it
        assert np.array_equal(grid.rep(g, spec1(8))(f).values, grid.rep(g, f.spec)(f).values)

    def test_dense_matrix_matches_matrix_free(self):
        s = spec1(8)
        g = grid.QuantizedTriple((2,), (3,), 1)
        mat = grid.dense_matrix(grid.rep(g, s), s)
        f = random_f(s, seed=4)
        direct = grid.rep(g, s)(f).values
        assert np.max(np.abs(mat @ f.values - direct)) <= 1e-12

    def test_composite_closure(self):
        # product of two T.U.C composites is again a single T.U.C composite
        s = spec1(8)
        f = random_f(s, seed=2)
        g = grid.QuantizedTriple((1,), (2,), 3)
        g2 = grid.QuantizedTriple((5,), (7,), 4)
        prod = grid.triple_mul(g, g2)
        lhs = grid.rep(g, s)(grid.rep(g2, s)(f))
        alpha = cmath.exp(2j * cmath.pi * prod.m / 8)
        rhs = grid.apply_T(prod.k, grid.apply_U(prod.l, grid.apply_C(alpha, f)))
        assert lhs.max_abs_diff(rhs) <= 1e-12


class TestIndependentOracles:
    """The clock and shift against oracles that share no code with grid:
    numpy's FFT, and the closed form of each matrix entry."""

    @pytest.mark.parametrize("n,N", [(n, N) for n in (1, 2, 3) for N in (4, 5, 8, 16)])
    def test_modulation_is_translation_in_frequency(self, n, N):
        # the DFT of f . exp(2 pi i q.j / N) is the DFT of f shifted by q
        s = grid.GridSpec(n, N)
        f = random_f(s, seed=10 * n + N)
        axes = tuple(range(n))
        spectrum = np.fft.fftn(f.values)
        for _, q in vectors(n, N, seed=n + 2 * N):
            got = np.fft.fftn(grid.apply_U(q, f).values)
            want = np.roll(spectrum, q, axis=axes)
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want)), q

    @pytest.mark.parametrize("n,N", [(1, 4), (1, 5), (1, 16), (2, 4), (2, 5), (2, 16), (3, 4), (3, 5)])
    def test_dense_representation_is_a_phased_permutation(self, n, N):
        # rep(p, q, s) has one entry per row and column, exp(2 pi i (s + q.(j-p)) / N),
        # at row j and column (j - p) mod N
        s = grid.GridSpec(n, N)
        rows = np.indices(s.shape).reshape(n, -1).T
        rng = np.random.default_rng(n * N)
        for p, q in vectors(n, N, seed=3 * N + n):
            central = int(rng.integers(-3 * N, 3 * N))
            mat = grid.dense_matrix(grid.rep(grid.QuantizedTriple(p, q, central), s), s)
            assert np.max(np.abs(mat.conj().T @ mat - np.eye(N**n))) <= 1e-12
            assert (np.count_nonzero(mat, axis=0) == 1).all()
            assert (np.count_nonzero(mat, axis=1) == 1).all()
            for row, j in enumerate(rows):
                d = j - np.array(p)
                col = np.ravel_multi_index(tuple(d % N), s.shape)
                phase = cmath.exp(2j * cmath.pi * ((central + int(np.dot(q, d))) % N) / N)
                assert abs(mat[row, col] - phase) <= 1e-12, (p, q, j)


class TestMonomialKernel:
    """grid._monomial, the integer data of rep(p, q, s), against the np.indices
    formula out[j] = exp(2 pi i (s + q . (j - p)) / N) f[(j - p) mod N], one
    operator at a time and as a stack with a leading trial axis."""

    SIZES = [(n, N) for n in (1, 2, 3) for N in (2, 5, 16)]

    @staticmethod
    def triples(n, N):
        rng = np.random.default_rng(7 * n + N)
        return [(p, q, int(s)) for (p, q), s in zip(vectors(n, N, seed=N + n),
                                                    rng.integers(-3 * N, 3 * N, 8))]

    @staticmethod
    def stack(triples, n):
        """The triples' components as int arrays of shape (B,) + (1,) * n."""
        shape = (len(triples),) + (1,) * n
        p, q, s = (np.array(part).reshape(len(triples), -1) for part in zip(*triples))
        return (tuple(p[:, a].reshape(shape) for a in range(n)),
                tuple(q[:, a].reshape(shape) for a in range(n)), s.reshape(shape))

    @staticmethod
    def assert_formula(spec, source, exponent, central, p, q, s):
        n, N = spec.n, spec.N
        j = np.indices(spec.shape)
        moved = tuple((j[a] - p[a]) % N for a in range(n))
        assert np.array_equal(source, np.ravel_multi_index(moved, spec.shape))
        # U_q's exponent at each source point, s's on its own, and both at each output point
        assert np.array_equal(np.broadcast_to(exponent, spec.shape),
                              sum(q[a] * j[a] for a in range(n)) % N)
        central = int(np.ravel(central)[0])
        assert central == s % N
        at_output = (central + np.broadcast_to(exponent, spec.shape).ravel()[source]) % N
        assert np.array_equal(at_output, (s + sum(q[a] * (j[a] - p[a]) for a in range(n))) % N)

    @pytest.mark.parametrize("n,N", SIZES)
    def test_integer_data_is_the_index_formula(self, n, N):
        spec = grid.GridSpec(n, N)
        triples = self.triples(n, N)
        for p, q, s in triples:
            self.assert_formula(spec, *grid._monomial(p, q, s, spec), p, q, s)
        move, exponent, central = grid._monomial(*self.stack(triples, n), spec)
        for b, (p, q, s) in enumerate(triples):
            # a stack's source indexes the flattened stack: trial b starts at b N^n
            self.assert_formula(spec, move[b] - b * N**n, exponent[b], central[b], p, q, s)

    @pytest.mark.parametrize("n,N", SIZES)
    def test_stack_is_rep_byte_for_byte(self, n, N):
        spec = grid.GridSpec(n, N)
        triples = self.triples(n, N)
        rng = np.random.default_rng(n * N)
        shape = (len(triples),) + spec.shape
        fs = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        out = grid._apply(grid._monomial(*self.stack(triples, n), spec), fs, spec)
        for b, (p, q, s) in enumerate(triples):
            want = grid.rep(grid.QuantizedTriple(p, q, s), spec)(grid.GridFunction(spec, fs[b]))
            assert out[b].tobytes() == want.values.tobytes(), (p, q, s)
            one = grid._apply(grid._monomial(p, q, s, spec), fs[b], spec)
            assert one.tobytes() == want.values.tobytes(), (p, q, s)

    @pytest.mark.parametrize("n,N", [(1, 2), (1, 5), (2, 2), (2, 5)])
    def test_identity_is_the_basis_sweep(self, n, N):
        """`_is_identity` reads the integer data; `is_identity_operator` applies the
        operator to every basis function.  They agree, in and out of the kernel."""
        spec = grid.GridSpec(n, N)
        steps = (0, 1, N, -N, 2 * N + 1)
        triples = [((a,) + (0,) * (n - 1), (0,) * (n - 1) + (b,), c)
                   for a in steps for b in steps for c in steps]
        stacked = grid._is_identity(grid._monomial(*self.stack(triples, n), spec), spec)
        for (p, q, s), got in zip(triples, stacked):
            want = grid.is_identity_operator(grid.rep(grid.QuantizedTriple(p, q, s), spec), spec)
            assert want == (p[0] % N == 0 and q[-1] % N == 0 and s % N == 0)
            assert bool(got) == want
            assert grid._is_identity(grid._monomial(p, q, s, spec), spec).tolist() == [want]


@pytest.fixture
def cold_cache(monkeypatch):
    """An empty operator cache for one test; the module's own is restored after it."""
    monkeypatch.setattr(grid, "_operators", {})
    monkeypatch.setattr(grid, "_operator_bytes", 0)
    return grid._operators


class TestOperatorCache:
    """The scalar operators' cache of U_q's phases and T_p's source index: bounded
    in bytes, keyed by residues, frozen, and invisible in every output byte."""

    def test_holds_at_most_its_bound(self, cold_cache):
        # every vector at n = 2, N = 32: 1024 phases of 16 KiB and indices of 8 KiB
        spec = grid.GridSpec(2, 32)
        f = random_f(spec)
        vs = list(np.ndindex(spec.shape))
        for v in vs:
            grid.apply_U(v, f)
            grid.apply_T(v, f)
        held = sum(arr.nbytes for arr in cold_cache.values())
        assert held == grid._operator_bytes <= grid._CACHE_BYTES
        assert held > grid._CACHE_BYTES - 16 * 32**2
        # the oldest entries went first
        assert (2, 32, "T", vs[-1]) in cold_cache and (2, 32, "U", vs[-1]) in cold_cache
        assert (2, 32, "U", vs[0]) not in cold_cache

    def test_array_over_the_bound_is_not_cached(self, cold_cache):
        small = random_f(spec1(8))
        grid.apply_U((3,), small)
        grid.apply_T((3,), small)
        before = dict(cold_cache)
        N = 2**20
        f = grid.GridFunction(spec1(N), np.arange(N))
        roots = np.exp(2j * np.pi * np.arange(N) / N)
        assert np.array_equal(grid.apply_U((1,), f).values, roots * f.values)
        assert np.array_equal(grid.apply_T((1,), f).values, np.roll(f.values, 1))
        assert list(cold_cache) == list(before)
        assert all(cold_cache[key] is arr for key, arr in before.items())
        assert grid._operator_bytes == sum(arr.nbytes for arr in before.values())

    def test_residues_share_one_entry(self, cold_cache):
        n, N = 2, 7
        spec = grid.GridSpec(n, N)
        f = random_f(spec)
        v = (3, -2)
        same = [v, (v[0] + N, v[1]), (v[0], v[1] + N), (v[0] - N, v[1] - N)]
        for apply in (grid.apply_U, grid.apply_T):
            outs = [apply(w, f).values for w in same]
            assert all(np.array_equal(out, outs[0]) for out in outs)
        assert sorted(cold_cache) == [(n, N, "T", (3, 5)), (n, N, "U", (3, 5))]

    @pytest.mark.parametrize("n,N", [(1, 8), (2, 5), (3, 4)])
    def test_modulation_bytes_cold_and_cached(self, cold_cache, n, N):
        spec = grid.GridSpec(n, N)
        f = random_f(spec, seed=N)
        roots = np.exp(2j * np.pi * np.arange(N) / N)
        j = np.indices(spec.shape)
        by_residue = {tuple(a % N for a in q): q for _, q in vectors(n, N, seed=n)}
        for residues, q in by_residue.items():
            want = roots[sum(q[a] * j[a] for a in range(n)) % N] * f.values
            assert (n, N, "U", residues) not in cold_cache
            assert np.array_equal(grid.apply_U(q, f).values, want)  # cold
            assert (n, N, "U", residues) in cold_cache
            assert np.array_equal(grid.apply_U(q, f).values, want)  # cached

    @pytest.mark.parametrize("n,N", [(1, 8), (2, 5), (3, 4)])
    def test_rep_bytes_are_the_monomial_index_formula(self, cold_cache, n, N):
        spec = grid.GridSpec(n, N)
        f = random_f(spec, seed=n * N)
        roots = np.exp(2j * np.pi * np.arange(N) / N)
        j = np.indices(spec.shape)
        for p, q, s in TestMonomialKernel.triples(n, N):
            g = grid.QuantizedTriple(p, q, s)
            cold = grid.rep(g, spec)(f).values  # the first triple's data is not cached yet
            cached = grid.rep(g, spec)(f).values
            source, exponent, central = grid._monomial(p, q, s, spec)
            want = (roots[exponent] * (roots[central] * f.values)).ravel()[source]
            moved = tuple((j[a] - p[a]) % N for a in range(n))
            phases = roots[sum(q[a] * j[a] for a in range(n)) % N]
            assert np.array_equal(want, (phases * (roots[s % N] * f.values))[moved])
            assert np.array_equal(cold, want) and np.array_equal(cached, want), (p, q, s)

    def test_cached_arrays_are_frozen_and_never_handed_out(self, cold_cache):
        spec = grid.GridSpec(2, 4)
        f = random_f(spec)
        g = grid.QuantizedTriple((1, 2), (3, 1), 2)
        outs = [grid.apply_T((1, 2), f), grid.apply_U((3, 1), f), grid.rep(g, spec)(f),
                grid.apply_T((0, 0), f), grid.apply_U((0, 0), f),
                grid.rep(grid.QuantizedTriple((0, 0), (0, 0), 0), spec)(f)]
        assert len(cold_cache) == 4
        for arr in cold_cache.values():
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr.flat[0] = 0
        for out in outs:
            for arr in [f.values, *cold_cache.values()]:
                assert not np.shares_memory(out.values, arr)


class TestCommutator:
    def sine(self, N, L=1.0):
        s = spec1(N, L)
        w = np.arange(N) * s.h
        return grid.GridFunction(s, np.sin(2 * np.pi * w / L))

    def test_zero_mu(self):
        assert grid.commutator_defect((1.0,), (0.0,), self.sine(32)) <= 1e-14

    def test_zero_nu(self):
        assert grid.commutator_defect((0.0,), (1.0,), self.sine(32)) == 0.0

    def test_second_order_convergence(self):
        d32 = grid.commutator_defect((1.0,), (1.0,), self.sine(32))
        d64 = grid.commutator_defect((1.0,), (1.0,), self.sine(64))
        assert 3.5 <= d32 / d64 <= 4.5

    def test_2d_general_direction(self):
        s = grid.GridSpec(2, 64, 1.0)
        w0, w1 = np.meshgrid(np.arange(64) * s.h, np.arange(64) * s.h, indexing="ij")
        f = grid.GridFunction(s, np.sin(2 * np.pi * w0) * np.cos(2 * np.pi * w1))
        d = grid.commutator_defect((1.0, -0.5), (0.3, 2.0), f)
        assert d <= 0.05  # O(h^2) at N=64

    @pytest.mark.parametrize("nu,N", [((1.0,), 2), ((3.0,), 6), ((-2.5,), 6)])
    def test_too_small_grid_raises_before_any_work(self, monkeypatch, nu, N):
        def no_work(*args):
            raise AssertionError("differenced a grid the margin refuses")
        monkeypatch.setattr(grid, "_difference", no_work)
        monkeypatch.setattr(grid, "_coordinate", no_work)
        with pytest.raises(ParameterError, match="seam-exclusion margin"):
            grid.commutator_defect(nu, (1.0,), self.sine(N))

    @pytest.mark.parametrize("L, values", [
        (1e-320, np.sin(np.arange(32) / 5.0)),      # 1 / (2 h) overflows
        (5e-324, np.sin(np.arange(32) / 5.0)),      # h = L / N rounds to 0
        (1e308, 1e300 * (-1.0) ** np.arange(32)),   # mu f overflows
    ])
    def test_overflow_is_a_parameter_error(self, L, values):
        f = grid.GridFunction(spec1(32, L), values)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # numpy's overflow warnings stay inside
            with pytest.raises(ParameterError, match="commutator overflows the float range"):
                grid.commutator_defect((1.0,), (1.0,), f)

    def test_margin_edge_is_admitted(self):
        # margin 3 leaves one interior point at N = 7
        assert grid.commutator_defect((3.0,), (0.0,), self.sine(7)) == 0.0

    def test_derivative_accuracy(self):
        f = self.sine(64)
        df = grid.directional_difference((1.0,), f)
        w = np.arange(64) / 64
        exact = 2 * np.pi * np.cos(2 * np.pi * w)
        assert np.max(np.abs(df.values - exact)) <= 0.05


class TestSerialization:
    def test_roundtrip(self):
        f = random_f(grid.GridSpec(2, 4, 2.0), seed=13)
        buf = io.StringIO()
        grid.write_grid_function(f, buf)
        buf.seek(0)
        g = grid.read_grid_function(buf)
        assert g.spec == f.spec
        assert g.max_abs_diff(f) == 0.0

    def test_bad_header(self):
        with pytest.raises(ParameterError):
            grid.read_grid_function(io.StringIO("1 4\n"))

    def test_header_is_n_N_L(self):
        buf = io.StringIO()
        grid.write_grid_function(random_f(grid.GridSpec(1, 2, 0.5)), buf)
        assert buf.getvalue().splitlines()[0] == "1 2 0.5"

    def test_old_header_with_lambda_is_rejected(self):
        with pytest.raises(ParameterError, match="the header must be `n N L`"):
            grid.read_grid_function(io.StringIO("1 2 1 1\n0 0\n0 0\n"))

    def test_wrong_count(self):
        with pytest.raises(ParameterError, match="expected 4 samples, got 1"):
            grid.read_grid_function(io.StringIO("1 4 1\n0 0\n"))
