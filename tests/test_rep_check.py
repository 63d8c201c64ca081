"""rep-check draws each trial with one call per kind.

These tests pin the random stream: one `integers` call for p, q, s, p', q',
s' and one `standard_normal` call for f give the numbers, in the order, that
one call per component gives, so seeded reports keep their bytes.  They also
show that the check sees a broken operator.
"""

import numpy as np
import pytest

from heis import checks, grid, lattice

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


@pytest.fixture
def no_kernel_sweep(monkeypatch):
    """The kernel check builds 2N + 1 operators and sweeps the N^n basis with
    each, which at N = 1000 takes minutes; these tests are about the draws,
    which come before it.  Operators are built only when applied."""
    rep = grid.rep
    monkeypatch.setattr(grid, "rep", lambda g, spec: lambda f: rep(g, spec)(f))
    monkeypatch.setattr(grid, "is_identity_operator", lambda op, spec: False)


@pytest.mark.parametrize("n, N", SIZES)
@pytest.mark.parametrize("seed", SEEDS)
def test_header_and_first_sample_are_the_per_component_stream(n, N, seed, no_kernel_sweep):
    (p, q, s), (p2, q2, s2), _ = next(per_component_stream(n, N, 1, seed))
    text, _ = checks.rep_check(n, N, 1, seed)
    assert text.splitlines()[:2] == [
        f"rep-check: n={n} N={N} L=1 lambda=1 trials=1 seed={seed}",
        f"first sample: p={p} q={q} s={s} p'={p2} q'={q2} s'={s2}",
    ]


@pytest.mark.parametrize("n, N", [size for size in SIZES if size[1]**size[0] <= 4096])
def test_every_trial_is_the_per_component_stream(n, N, monkeypatch, no_kernel_sweep):
    """Trial k's triples and samples are the k-th per-component draws."""
    seen = []

    class Spy(grid.GridFunction):
        __slots__ = ()

        def __init__(self, spec, values):
            seen.append(("f", np.array(values)))
            super().__init__(spec, values)

    class SpyElement(lattice.LatticeElement):
        def __post_init__(self):
            seen.append(("g", (self.k, self.l, self.m)))
            super().__post_init__()

    monkeypatch.setattr(grid, "GridFunction", Spy)
    monkeypatch.setattr(lattice, "LatticeElement", SpyElement)
    trials = 5
    for seed in SEEDS:
        seen.clear()
        checks.rep_check(n, N, trials, seed)
        want = [item for g, g2, values in per_component_stream(n, N, trials, seed)
                for item in (("f", values), ("g", g), ("g", g2))]
        assert [kind for kind, _ in seen] == [kind for kind, _ in want]
        for (kind, got), (_, expected) in zip(seen, want):
            if kind == "f":
                assert np.array_equal(got, expected)
            else:
                assert got == expected and all(type(v) is int for v in got[0] + got[1])


def test_two_draws_per_trial(monkeypatch, no_kernel_sweep):
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


def test_conjugated_modulation_phases_fail(monkeypatch):
    """U_q with exp(-2 pi i q . j / N) no longer satisfies U T = T U C_alpha,
    and rep is no longer a homomorphism for the group law."""
    phases = grid._phases
    monkeypatch.setattr(grid, "_phases", lambda q, spec: phases(q, spec).conj())
    text, ok = checks.rep_check(1, 8, 20, 0)
    assert not ok and text.endswith("result: FAIL\n")
    assert float(_report_value(text, "max weyl-relation deviation")) > checks.REP_TOL
    assert float(_report_value(text, "max homomorphism deviation")) > checks.REP_TOL


def test_dropped_central_phase_fails(monkeypatch):
    """rep(p, q, s) without C_{exp(2 pi i s / N)} breaks the homomorphism, the
    inverse and the central kernel."""
    rep = grid.rep
    monkeypatch.setattr(grid, "rep", lambda g, spec: rep(grid.QuantizedTriple(g.k, g.l, 0), spec))
    text, ok = checks.rep_check(2, 4, 5, 0)
    assert not ok and text.endswith("result: FAIL\n")
    assert float(_report_value(text, "max homomorphism deviation")) > checks.REP_TOL
    assert float(_report_value(text, "max inverse deviation")) > checks.REP_TOL
    assert "kernel check: FAILED" in text
