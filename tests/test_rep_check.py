"""rep-check draws each block of trials with one call per kind and runs its
trials as stacks through the grid's monomial kernel.

These tests pin the random stream: per block, one `integers` call for every
trial's p, q, s, p', q', s', then one `standard_normal` call for every
trial's f, give the numbers, in the order, that one call per component gives
when a block's integers are all drawn before its samples.  A block of one
trial draws as trial-by-trial calls do, and the kernel receives the draws
block by block.  They also show that the check sees a broken kernel, and
that its kernel check finishes at the grid sizes the point guard admits.
"""

import time

import numpy as np
import pytest

from heis import checks, cli, grid

SEEDS = (0, 5, 11, 271828)
SIZES = [(n, N) for n in (1, 2, 3) for N in (2, 5, 16, 1000) if N**n <= grid.MAX_GRID_POINTS]


@pytest.fixture(autouse=True)
def fresh_kernel_check():
    """The kernel check is kept per size, not per kernel function, so every
    test here starts and ends with it cleared: a test that patches or spies
    on the kernel checks its own kernel and leaves no mutant's result kept."""
    checks._kernel_violations.cache_clear()
    yield
    checks._kernel_violations.cache_clear()


def block_stream(n, N, trials, block, seed):
    """Each trial's ((p, q, s), (p', q', s'), f samples), one call per component,
    in blocks of `block` trials: every integer of a block's trials, then every
    sample of them.  Blocks of one trial are the trial-by-trial stream."""
    rng = np.random.default_rng(seed)

    def vec():
        return tuple(int(v) for v in rng.integers(0, N, size=n))

    for start in range(0, trials, block):
        triples = [((vec(), vec(), int(rng.integers(0, N))), (vec(), vec(), int(rng.integers(0, N))))
                   for _ in range(min(block, trials - start))]
        for g, g2 in triples:
            values = rng.standard_normal((N,) * n) + 1j * rng.standard_normal((N,) * n)
            yield g, g2, values


@pytest.mark.parametrize("n, N", SIZES)
@pytest.mark.parametrize("seed", SEEDS)
def test_header_and_first_sample_are_the_per_component_stream(n, N, seed):
    (p, q, s), (p2, q2, s2), _ = next(block_stream(n, N, 1, 1, seed))
    text, _ = checks.rep_check(n, N, 1, seed)
    assert text.splitlines()[:2] == [
        f"rep-check: n={n} N={N} L=1 lambda=1 trials=1 seed={seed}",
        f"first sample: p={p} q={q} s={s} p'={p2} q'={q2} s'={s2}",
    ]


def _triples(p, q, s):
    """The triples of a stack of operators, as the kernel receives them:
    components of shape (B,) + (1,) * n."""
    return [(tuple(int(pa.flat[b]) for pa in p), tuple(int(qa.flat[b]) for qa in q),
             int(s.flat[b])) for b in range(len(s))]


@pytest.fixture
def kernel_inputs(monkeypatch):
    """The integer stacks that reach `grid._monomial` and the sample stacks
    that reach `grid._apply`, in call order."""
    stacks, samples = [], []
    monomial, apply = grid._monomial, grid._apply

    def spy_monomial(p, q, s, spec):
        if isinstance(p[0], np.ndarray):
            assert all(c.dtype.kind == "i" and c.shape == (len(s),) + (1,) * spec.n
                       for c in p + q)
            stacks.append(_triples(p, q, s))
        return monomial(p, q, s, spec)

    def spy_apply(move, phases, alpha, values):
        samples.append(values)
        return apply(move, phases, alpha, values)

    monkeypatch.setattr(grid, "_monomial", spy_monomial)
    monkeypatch.setattr(grid, "_apply", spy_apply)
    return stacks, samples


def _assert_blocks_reach_the_kernel(kernel_inputs, n, N, trials, block, seed):
    """Run the check; each block's g and g' reach the kernel as integer stacks
    and its f as a sample stack, all equal to `block_stream`'s draws."""
    stacks, samples = kernel_inputs
    stacks.clear()
    samples.clear()
    checks.rep_check(n, N, trials, seed)
    want = list(block_stream(n, N, trials, block, seed))
    for start in range(0, trials, block):
        trial = want[start:start + block]
        assert [g for g, _, _ in trial] in stacks
        assert [g2 for _, g2, _ in trial] in stacks
        f = np.stack([values for _, _, values in trial])
        assert any(np.array_equal(got, f) for got in samples)


@pytest.mark.parametrize("n, N", [size for size in SIZES if size[1]**size[0] <= 4096])
def test_every_trial_is_the_per_component_stream(n, N, kernel_inputs, monkeypatch):
    """Trial k's triples and samples are the k-th draws of the block stream, in
    trial order, with one trial a block, two trials a block and every trial
    in one block."""
    trials = 5
    for block in (1, 2, trials):
        monkeypatch.setattr(checks, "BLOCK_VALUES", block * N**n)
        for seed in SEEDS:
            _assert_blocks_reach_the_kernel(kernel_inputs, n, N, trials, block, seed)


def test_one_trial_blocks_draw_the_per_trial_stream(kernel_inputs):
    """A grid of more than BLOCK_VALUES / 2 points runs one trial a block, whose
    draws are the trial-by-trial stream: nothing is patched here."""
    n, N = 1, 2**16
    assert checks.BLOCK_VALUES // N**n == 1
    _assert_blocks_reach_the_kernel(kernel_inputs, n, N, 3, 1, 0)


def test_two_draws_per_block(monkeypatch):
    calls = []
    default_rng = np.random.default_rng

    class Counted:
        def __init__(self, seed):
            self.rng = default_rng(seed)

        def __getattr__(self, name):
            calls.append(name)
            return getattr(self.rng, name)

    monkeypatch.setattr(np.random, "default_rng", Counted)
    checks.rep_check(2, 4, 7, 3)
    assert calls == ["integers", "standard_normal"]
    calls.clear()
    monkeypatch.setattr(checks, "BLOCK_VALUES", 2 * 4**2)  # blocks of 2, 2, 2 and 1 trials
    checks.rep_check(2, 4, 7, 3)
    assert calls == ["integers", "standard_normal"] * 4


def _report_value(text, label):
    return next(line.split(": ")[1] for line in text.splitlines() if line.startswith(label))


def _mutant(monkeypatch, change):
    """Patch the kernel so that it builds rep(change(p, q, s)) for rep(p, q, s)."""
    monomial = grid._monomial
    monkeypatch.setattr(grid, "_monomial", lambda p, q, s, spec: monomial(*change(p, q, s), spec))


def _negated(v):
    return tuple(-a for a in v)


def test_conjugated_modulation_phases_fail(monkeypatch):
    """U_q with exp(-2 pi i q . j / N) no longer satisfies U T = T U C_alpha,
    and rep is no longer a homomorphism for the group law."""
    _mutant(monkeypatch, lambda p, q, s: (p, _negated(q), s))
    text, ok = checks.rep_check(1, 8, 20, 0)
    assert not ok and text.endswith("result: FAIL\n")
    assert float(_report_value(text, "max weyl-relation deviation")) > checks.REP_TOL
    assert float(_report_value(text, "max homomorphism deviation")) > checks.REP_TOL


def test_dropped_central_phase_fails(monkeypatch):
    """rep(p, q, s) without C_{exp(2 pi i s / N)} breaks the homomorphism, the
    inverse and the central kernel."""
    _mutant(monkeypatch, lambda p, q, s: (p, q, 0 * s))
    text, ok = checks.rep_check(2, 4, 5, 0)
    assert not ok and text.endswith("result: FAIL\n")
    assert float(_report_value(text, "max homomorphism deviation")) > checks.REP_TOL
    assert float(_report_value(text, "max inverse deviation")) > checks.REP_TOL
    assert "kernel check: FAILED" in text
    assert "kernel violation at s=1" in text


def test_shift_in_the_wrong_direction_fails(monkeypatch):
    """out[j] = f[j + p] is T_{-p}, whose commutation phase with U_q is
    conj(alpha): the Weyl relation, the homomorphism and the inverse break."""
    _mutant(monkeypatch, lambda p, q, s: (_negated(p), q, s))
    text, ok = checks.rep_check(1, 8, 20, 0)
    assert not ok and text.endswith("result: FAIL\n")
    for label in ("max weyl-relation deviation", "max homomorphism deviation",
                  "max inverse deviation"):
        assert float(_report_value(text, label)) > checks.REP_TOL, label


def test_gather_ahead_of_the_phases_fails(monkeypatch, capsys):
    """Gathering before the phases applies U_q o T_p o C, not T_p o U_q o C.
    `grid.rep` and rep-check apply the one formula `grid._apply`, so a mutant
    of it changes the operator callers get and the verb exits 4."""
    spec, g = grid.GridSpec(1, 8), grid.QuantizedTriple((3,), (5,), 1)
    f = grid.GridFunction(spec, np.arange(8))
    before = grid.rep(g, spec)(f).values
    monkeypatch.setattr(grid, "_apply",
                        lambda move, phases, alpha, values: phases * (alpha * values).take(move))
    assert not np.allclose(grid.rep(g, spec)(f).values, before)
    assert cli.main(["rep-check", "--n", "1", "--N", "8", "--trials", "20", "--seed", "0"]) == 4
    assert capsys.readouterr().out.endswith("result: FAIL\n")


def test_a_nan_operator_fails(monkeypatch, capsys):
    """An operator that returns NaN samples makes every deviation NaN: the
    report prints it and the verb exits 4, where `max(0.0, nan)` read 0."""
    apply = grid._apply
    monkeypatch.setattr(grid, "_apply", lambda *args: apply(*args) * np.nan)
    assert cli.main(["rep-check", "--n", "1", "--N", "8", "--trials", "20", "--seed", "0"]) == 4
    out = capsys.readouterr().out
    for label in ("max weyl-relation deviation", "max homomorphism deviation",
                  "max inverse deviation"):
        assert _report_value(out, label) == "nan", label
    assert out.endswith("result: FAIL\n")


@pytest.mark.parametrize("which", range(3))
def test_one_nan_deviation_fails(which, monkeypatch):
    """A NaN in any one property, in any block, fails the check."""
    deviations = checks._rep_deviations

    def one_nan(*args):
        devs = list(deviations(*args))
        devs[which] = float("nan")
        return tuple(devs)

    monkeypatch.setattr(checks, "BLOCK_VALUES", 8)  # one trial a block
    monkeypatch.setattr(checks, "_rep_deviations", one_nan)
    text, ok = checks.rep_check(1, 8, 3, 0)
    assert not ok and text.endswith("result: FAIL\n")
    assert [line.endswith(": nan") for line in text.splitlines()[2:5]] == [
        i == which for i in range(3)]


def test_a_shift_acting_as_the_identity_fails_the_kernel_check(monkeypatch):
    """A monomial kernel that drops p makes the unit shift the identity: the
    kernel check names the violation and fails."""
    monomial = grid._monomial
    monkeypatch.setattr(grid, "_monomial",
                        lambda p, q, s, spec: monomial(tuple(0 * c for c in p), q, s, spec))
    text, ok = checks.rep_check(1, 8, 5, 0)
    assert not ok
    assert "\nkernel violation: nontrivial shift acts as identity\n" in text
    assert "\nkernel check: FAILED\n" in text


def _shift_dropped(monomial):
    return lambda p, q, s, spec: monomial(tuple(0 * c for c in p), q, s, spec)


def _identity_negated(is_identity):
    return lambda data, spec: ~is_identity(data, spec)


@pytest.mark.parametrize("kernel, mutant, violation", [
    ("_monomial", _shift_dropped, "kernel violation: nontrivial shift acts as identity"),
    ("_is_identity", _identity_negated, "kernel violation at s=1"),
], ids=["shift-dropped", "identity-negated"])
def test_the_kept_kernel_check_cannot_hide_a_broken_kernel(kernel, mutant, violation,
                                                           monkeypatch, capsys):
    """The kernel check is kept per size only: a run at this size keeps a
    passing check, which a patched kernel reuses until the memo is cleared.
    Cleared, a broken kernel fails the check, and the kernel restored passes
    again once the mutant's result is cleared, all in one process."""
    argv = ["rep-check", "--n", "1", "--N", "8", "--trials", "20", "--seed", "0"]
    assert checks.rep_check(1, 8, 20, 0)[1]
    with monkeypatch.context() as patch:
        patch.setattr(grid, kernel, mutant(getattr(grid, kernel)))
        assert "\nkernel check: ok\n" in checks.rep_check(1, 8, 20, 0)[0]
        checks._kernel_violations.cache_clear()
        assert cli.main(argv) == 4
        out = capsys.readouterr().out
        assert f"\n{violation}\n" in out and "\nkernel check: FAILED\n" in out
    checks._kernel_violations.cache_clear()
    assert cli.main(argv) == 0
    assert "\nkernel check: ok\nresult: PASS\n" in capsys.readouterr().out


def test_the_kernel_check_runs_once_per_size(monkeypatch):
    """Runs at one size share one kernel check; a new size makes its own."""
    specs = []
    is_identity = grid._is_identity

    def spy(data, spec):
        specs.append((spec.n, spec.N))
        return is_identity(data, spec)

    monkeypatch.setattr(grid, "_is_identity", spy)
    for seed in range(3):
        assert checks.rep_check(1, 8, 20, seed)[1]
    assert specs == [(1, 8)] * 2  # the central elements, then the unit shift
    assert checks.rep_check(2, 8, 20, 0)[1]
    assert specs == [(1, 8)] * 2 + [(2, 8)] * 2


@pytest.mark.parametrize("n, N", [(1, 2**14), (2, 128)])
def test_a_large_trial_is_the_scalar_operators(n, N):
    """At 2^14 points a sample function fills 256 KiB, where numpy's `*` reuses a
    temporary with its factors swapped.  A one-trial block's deviations still
    keep the bytes of the scalar operators' products and `max_abs_diff`."""
    spec = grid.GridSpec(n, N)
    stack, stack2, f = next(checks._rep_blocks(np.random.default_rng(3), spec, 1))
    g, g2 = (grid.QuantizedTriple(tuple(c.item(0) for c in p), tuple(c.item(0) for c in q), s.item(0))
             for p, q, s in (stack, stack2))
    F = grid.GridFunction(spec, f[0])

    def rep(g):
        return grid.rep(g, spec)

    p, q = g.k, g.l
    alpha = grid.weyl_alpha(p, q, spec)
    ut = grid.apply_U(q, grid.apply_T(p, F))
    weyl = max(ut.max_abs_diff(rep(grid.QuantizedTriple(p, q, sum(a * b for a, b in zip(q, p))))(F)),
               rep(grid.QuantizedTriple(p, q, 0))(F).max_abs_diff(grid.apply_C(alpha.conjugate(), ut)))
    hom = rep(g)(rep(g2)(F)).max_abs_diff(rep(grid.triple_mul(g, g2))(F))
    inverse = rep(grid.triple_inverse(g))(rep(g)(F)).max_abs_diff(F)
    assert checks._rep_deviations(spec, stack, stack2, f) == (weyl, hom, inverse)


@pytest.mark.parametrize("n, N", [(1, 2**16), (2, 256)])
def test_large_grids_pass_in_seconds(n, N):
    """The kernel check reads integer data, O(N^n + N), where a basis sweep
    took O(N^(2n)): minutes at these sizes."""
    start = time.monotonic()
    text, ok = checks.rep_check(n, N, 1, 0)
    assert ok and text.endswith("kernel check: ok\nresult: PASS\n")
    assert time.monotonic() - start < 5.0
