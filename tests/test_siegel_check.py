"""siegel-check runs its trials as arrays through the `siegel` kernels.

These tests pin the random stream the batched check draws (the same doubles,
in the same order, as one trial at a time), show that the check evaluates the
scalar API's own kernels, so that breaking a kernel breaks the check, and
compare the kernels on arrays with the same kernels on Python numbers.
"""

import numpy as np
import pytest

from heis import checks, siegel

SEEDS = (0, 5, 11, 271828)


def per_trial_samples(n, trials, seed):
    """The trials drawn one at a time, as the scalar API's objects:
    z and t, z2 and t2, then w and sigma, each vector re/im interleaved."""
    rng = np.random.default_rng(seed)
    bound = checks.SIEGEL_BOUND

    def cvec():
        v = rng.uniform(-bound, bound, size=2 * n)
        return tuple(complex(v[2 * j], v[2 * j + 1]) for j in range(n))

    for _ in range(trials):
        g = siegel.ComplexElement(cvec(), float(rng.uniform(-bound, bound)))
        g2 = siegel.ComplexElement(cvec(), float(rng.uniform(-bound, bound)))
        p = siegel.SiegelPoint(cvec(), complex(*rng.uniform(-bound, bound, size=2)))
        yield g, g2, p


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("seed", SEEDS)
def test_header_and_first_sample_are_the_per_trial_stream(n, seed):
    g, _, _ = next(per_trial_samples(n, 1, seed))
    text, ok = checks.siegel_check(n, 20, seed)
    assert ok
    assert text.splitlines()[:2] == [
        f"siegel-check: n={n} trials=20 seed={seed} bound=10",
        f"first sample: z={g.z} t={g.t:.6f}",
    ]


@pytest.mark.parametrize("n", [1, 2, 3])
def test_every_block_is_the_per_trial_stream(n, monkeypatch):
    """Across block boundaries, trial k's components are the ones the k-th
    per-trial draw gives."""
    monkeypatch.setattr(checks, "BLOCK_VALUES", 3 * (6 * n + 4))  # three trials a block
    trials = 8
    for seed in SEEDS:
        blocks = list(checks._siegel_blocks(np.random.default_rng(seed), n, trials))
        assert [len(block[1]) for block in blocks] == [3, 3, 2]
        z, t, z2, t2, w, sigma = (
            np.concatenate([np.column_stack(part) if isinstance(part, tuple) else part
                            for part in parts])
            for parts in zip(*blocks))
        for k, (g, g2, p) in enumerate(per_trial_samples(n, trials, seed)):
            assert tuple(z[k]) == g.z and t[k] == g.t
            assert tuple(z2[k]) == g2.z and t2[k] == g2.t
            assert tuple(w[k]) == p.w and sigma[k] == p.sigma


def test_trials_past_one_block():
    trials = checks.BLOCK_VALUES // (6 * 1 + 4) + 1
    text, ok = checks.siegel_check(1, trials, 3)
    assert ok and text.startswith(f"siegel-check: n=1 trials={trials} seed=3 ")
    assert "composition-identity failures: 0\n" in text


@pytest.mark.parametrize("n, trials, block", [(1, 20000, 6553), (2, 9000, 4096),
                                               (3, 7000, 2978), (50, 1000, 215),
                                               (200, 150, 54), (11000, 3, 1)])
def test_each_uniform_call_draws_at_most_one_block(n, trials, block, monkeypatch):
    """A block holds BLOCK_VALUES draws or fewer, unless one trial is wider
    (n = 11000 takes 66004 draws a trial): memory does not grow with n."""
    draws = []
    default_rng = np.random.default_rng

    class Spied:
        def __init__(self, seed):
            self.rng = default_rng(seed)

        def uniform(self, low, high, size):
            draws.append(size)
            return self.rng.uniform(low, high, size)

    monkeypatch.setattr(np.random, "default_rng", Spied)
    checks.siegel_check(n, trials, 1)
    width = 6 * n + 4
    assert {cols for _, cols in draws} == {width}
    last = [trials % block] if trials % block else []
    assert [rows for rows, _ in draws] == [block] * (trials // block) + last
    assert all(rows * width <= max(checks.BLOCK_VALUES, width) for rows, _ in draws)


def _report_value(text, label):
    return next(line.split(": ")[1] for line in text.splitlines() if line.startswith(label))


def test_a_flipped_cocycle_fails_the_composition_identity(monkeypatch):
    """The product with the cocycle's sign flipped is no longer the group
    whose action A is; the check must see it through the shared kernel."""
    cmul = siegel._cmul

    def flipped(z, t, z2, t2):
        total, central = cmul(z, t, z2, t2)
        return total, 2 * (t + t2) - central  # t + t2 - 2 Im z . conj(z2)

    monkeypatch.setattr(siegel, "_cmul", flipped)
    text, ok = checks.siegel_check(2, 20, 0)
    assert not ok and text.endswith("result: FAIL\n")
    assert int(_report_value(text, "composition-identity failures")) > 0
    g, g2, p = next(per_trial_samples(2, 1, 0))
    assert not siegel.act_compose_check(g, g2, p)  # the scalar API breaks alike


def test_an_action_without_i_z2_breaks_height_invariance(monkeypatch):
    act = siegel._act

    def dropped(z, t, w, sigma):
        moved, moved_sigma = act(z, t, w, sigma)
        return moved, moved_sigma - 1j * siegel._norm2(z)

    monkeypatch.setattr(siegel, "_act", dropped)
    text, ok = checks.siegel_check(3, 20, 5)
    assert not ok and text.endswith("result: FAIL\n")
    assert float(_report_value(text, "max height-invariance deviation")) > checks.SIEGEL_TOL
    g, _, p = next(per_trial_samples(3, 1, 5))
    assert abs(siegel.height(siegel.act(g, p)) - siegel.height(p)) > checks.SIEGEL_TOL


def rows(result):
    """A kernel's (vector, scalar) or scalar result, one row per trial."""
    vector, scalar = result if isinstance(result, tuple) else ((), result)
    return np.column_stack([*vector, scalar])


@pytest.mark.parametrize("n", [1, 2, 3])
def test_kernels_on_arrays_match_python_numbers(n):
    """Each kernel on arrays, against the same kernel one trial at a time on
    Python numbers.  numpy may fuse a complex product's multiply and add, so
    the two agree to rounding, not bit for bit: within 8 ulp of the largest
    modulus, a tolerance set from float64's epsilon."""
    trials = 50
    (z, t, z2, t2, w, sigma), = checks._siegel_blocks(np.random.default_rng(n), n, trials)
    samples = list(per_trial_samples(n, trials, n))
    cases = [
        (siegel._act(z, t, w, sigma), [siegel._act(g.z, g.t, p.w, p.sigma) for g, _, p in samples]),
        (siegel._cmul(z, t, z2, t2), [siegel._cmul(g.z, g.t, h.z, h.t) for g, h, _ in samples]),
        (siegel._height(w, sigma), [siegel._height(p.w, p.sigma) for _, _, p in samples]),
        (siegel._dilate(2.5, w, sigma), [siegel._dilate(2.5, p.w, p.sigma) for _, _, p in samples]),
    ]
    for batched, scalar in cases:
        want = np.vstack([rows(one) for one in scalar])
        got = rows(batched)
        assert got.shape == want.shape == (trials, want.shape[1])
        tol = 8 * np.finfo(np.float64).eps * max(1.0, np.max(np.abs(want)))
        assert np.max(np.abs(got - want)) <= tol
