"""rep-check draws each trial with one call per kind and runs its trials as
stacks through the grid's monomial kernel.

These tests pin the random stream: one `integers` call for p, q, s, p', q',
s' and one `standard_normal` call for f give the numbers, in the order, that
one call per component gives, and the kernel receives them block by block,
so seeded reports keep their bytes.  They also show that the check sees a
broken kernel, and that its kernel check finishes at the grid sizes the
point guard admits.
"""

import time

import numpy as np
import pytest

from heis import checks, grid

SEEDS = (0, 5, 11, 271828)
SIZES = [(n, N) for n in (1, 2, 3) for N in (2, 5, 16, 1000) if N**n <= grid.MAX_GRID_POINTS]


def per_component_stream(n, N, trials, seed):
    """Each trial's ((p, q, s), (p', q', s'), f samples), one call per component."""
    rng = np.random.default_rng(seed)

    def vec():
        return tuple(int(v) for v in rng.integers(0, N, size=n))

    for _ in range(trials):
        g = vec(), vec(), int(rng.integers(0, N))
        g2 = vec(), vec(), int(rng.integers(0, N))
        values = rng.standard_normal((N,) * n) + 1j * rng.standard_normal((N,) * n)
        yield g, g2, values


@pytest.mark.parametrize("n, N", SIZES)
@pytest.mark.parametrize("seed", SEEDS)
def test_header_and_first_sample_are_the_per_component_stream(n, N, seed):
    (p, q, s), (p2, q2, s2), _ = next(per_component_stream(n, N, 1, seed))
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


@pytest.mark.parametrize("n, N", [size for size in SIZES if size[1]**size[0] <= 4096])
def test_every_trial_is_the_per_component_stream(n, N, monkeypatch):
    """Trial k's triples and samples are the k-th per-component draws: each
    block's g and g' reach the kernel as integer stacks and its f as a sample
    stack, in trial order, also when the trials span several blocks."""
    stacks, samples = [], []
    monomial, apply = grid._monomial, grid._apply

    def spy_monomial(p, q, s, spec):
        if isinstance(p[0], np.ndarray):
            assert all(c.dtype.kind == "i" and c.shape == (len(s),) + (1,) * n for c in p + q)
            stacks.append(_triples(p, q, s))
        return monomial(p, q, s, spec)

    def spy_apply(data, values, spec):
        samples.append(values)
        return apply(data, values, spec)

    monkeypatch.setattr(grid, "_monomial", spy_monomial)
    monkeypatch.setattr(grid, "_apply", spy_apply)
    trials = 5
    for points in (checks.BLOCK_VALUES, 2 * N**n):  # one block, then blocks of 2 trials
        monkeypatch.setattr(checks, "BLOCK_VALUES", points)
        block = max(1, points // N**n)
        for seed in SEEDS:
            stacks.clear()
            samples.clear()
            checks.rep_check(n, N, trials, seed)
            want = list(per_component_stream(n, N, trials, seed))
            for start in range(0, trials, block):
                trial = want[start:start + block]
                assert [g for g, _, _ in trial] in stacks
                assert [g2 for _, g2, _ in trial] in stacks
                f = np.stack([values for _, _, values in trial])
                assert any(np.array_equal(got, f) for got in samples)


def test_two_draws_per_trial(monkeypatch):
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
    assert calls == ["integers", "standard_normal"] * 7


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


@pytest.mark.parametrize("n, N", [(1, 2**16), (2, 256)])
def test_large_grids_pass_in_seconds(n, N):
    """The kernel check reads integer data, O(N^n + N), where a basis sweep
    took O(N^(2n)): minutes at these sizes."""
    start = time.monotonic()
    text, ok = checks.rep_check(n, N, 1, 0)
    assert ok and text.endswith("kernel check: ok\nresult: PASS\n")
    assert time.monotonic() - start < 5.0
