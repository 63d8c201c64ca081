"""Seeded property-check suites behind the CLI's *-check verbs.

Every suite takes an integer seed and a trial count and returns a plain-text
report plus a pass flag.  Randomness comes from numpy's default PCG64
generator seeded directly with the given seed, and all numbers are printed
with fixed formatting, so identical seeds give byte-identical reports with
the same numpy build and CPU features: numpy may fuse a complex product's
multiply and add where the CPU can, which moves the last digits of the
printed deviations.

rep-check draws each trial with one `integers` call (p, q, s, p', q', s')
and one `standard_normal` call (f's real, then imaginary parts): the numbers
one call per component gives, since PCG64 keeps its spare 32-bit word in the
bit generator.  Each operator is computed once per trial.

siegel-check draws SIEGEL_BLOCK trials at a time with one `uniform` call,
the same doubles in the same order as drawing each trial alone, and runs the
`siegel` kernels, the formulas of the scalar API, on one array per
coordinate.  Memory stays bounded by the block, whatever the trial count.
"""

from __future__ import annotations

import functools
import operator
from typing import List, Tuple

import numpy as np

from . import grid, lattice, siegel
from .errors import ParameterError, dimension

DIL_FACTORS = (0.5, 1.0, 2.0, 10.0)
REP_TOL = 1e-12                  # rep-check: max deviation of every property
COMMUTATOR_RATIO = (3.5, 4.5)    # commutator: admissible defect ratio at N vs 2N
SIEGEL_BOUND = 10.0              # siegel-check: samples are drawn from [-bound, bound]
SIEGEL_TOL = 1e-10               # siegel-check: max deviation of every property
SIEGEL_BLOCK = 4096              # siegel-check: trials drawn and run as arrays at once


def _fmt(v: float) -> str:
    return f"{v:.3e}"


def _verdict(lines: List[str], ok: bool) -> Tuple[str, bool]:
    lines.append("result: " + ("PASS" if ok else "FAIL"))
    return "\n".join(lines) + "\n", ok


def _check_run(n: int, trials: int, seed: int) -> Tuple[int, int, int]:
    """(n, trials, seed) as ints, once each is known to be valid."""
    n = dimension(n)
    try:
        trials = operator.index(trials)
    except TypeError:
        raise ParameterError(f"trials must be an integer, got {trials!r}") from None
    # with no trials every maximum stays 0 and the suite would pass vacuously
    if trials < 1:
        raise ParameterError(f"trials must be >= 1, got {trials}")
    try:
        if operator.index(seed) < 0:
            raise TypeError  # a negative seed is refused like a non-integer
    except TypeError:
        raise ParameterError(f"seed must be a non-negative integer, got {seed!r}") from None
    return n, trials, operator.index(seed)


def relation_check(n: int) -> Tuple[str, bool]:
    """Exhaustive defining-relation check for H_n(Z)."""
    report = lattice.check_relations(n)
    lines = [f"relcheck: n={n}", f"relations checked: {report.checked}"]
    for bad in report.counterexamples:
        lines.append(f"counterexample: {bad}")
    lines.append(f"counterexamples: {len(report.counterexamples)}")
    return _verdict(lines, report.ok)


def rep_check(n: int, N: int, trials: int, seed: int) -> Tuple[str, bool]:
    """Weyl relation, homomorphism, inverse, and kernel checks on the grid."""
    n, trials, seed = _check_run(n, trials, seed)
    spec = grid.GridSpec(n, N)
    rng = np.random.default_rng(seed)
    # No operator reads L or lambda, so neither is a setting.  The header prints
    # both as 1, as it always has: report readers compare it byte for byte.
    lines = [f"rep-check: n={n} N={N} L=1 lambda=1 trials={trials} seed={seed}"]

    max_weyl = max_hom = max_inv = 0.0
    for trial in range(trials):
        ints = rng.integers(0, N, size=4 * n + 2).tolist()
        p, q, p2, q2 = (tuple(ints[k:k + n]) for k in (0, n, 2 * n + 1, 3 * n + 1))
        s, s2 = ints[2 * n], ints[4 * n + 1]
        parts = rng.standard_normal((2,) + spec.shape)
        f = grid.GridFunction(spec, parts[0] + 1j * parts[1])
        if trial == 0:
            lines.append(f"first sample: p={p} q={q} s={s} p'={p2} q'={q2} s'={s2}")

        # U T = T U C_alpha, and the reverse orientation with conj(alpha)
        alpha = grid.weyl_alpha(p, q, spec)
        ut = grid.apply_U(q, grid.apply_T(p, f))
        rhs = grid.apply_T(p, grid.apply_U(q, grid.apply_C(alpha, f)))
        tu = grid.apply_T(p, grid.apply_U(q, f))
        max_weyl = max(max_weyl, ut.max_abs_diff(rhs),
                       tu.max_abs_diff(grid.apply_C(alpha.conjugate(), ut)))

        g, g2 = lattice.LatticeElement(p, q, s), lattice.LatticeElement(p2, q2, s2)
        rep_g = grid.rep(g, spec)
        direct = grid.rep(lattice.lmul(g, g2), spec)(f)
        max_hom = max(max_hom, rep_g(grid.rep(g2, spec)(f)).max_abs_diff(direct))
        max_inv = max(max_inv, grid.rep(lattice.linverse(g), spec)(rep_g(f)).max_abs_diff(f))

    kernel_ok = True
    for s in range(2 * N):
        central = grid.rep(grid.QuantizedTriple((0,) * n, (0,) * n, s), spec)
        if grid.is_identity_operator(central, spec) != (s % N == 0):
            kernel_ok = False
            lines.append(f"kernel violation at s={s}")
    nontrivial = grid.QuantizedTriple((1,) + (0,) * (n - 1), (0,) * n, 0)
    if grid.is_identity_operator(grid.rep(nontrivial, spec), spec):
        kernel_ok = False
        lines.append("kernel violation: nontrivial shift acts as identity")

    lines.append(f"max weyl-relation deviation: {_fmt(max_weyl)}")
    lines.append(f"max homomorphism deviation: {_fmt(max_hom)}")
    lines.append(f"max inverse deviation: {_fmt(max_inv)}")
    lines.append(f"kernel check: {'ok' if kernel_ok else 'FAILED'}")
    ok = kernel_ok and max(max_weyl, max_hom, max_inv) <= REP_TOL
    return _verdict(lines, ok)


def commutator_check(N: int, L: float) -> Tuple[str, bool]:
    """Second-order convergence of the difference/multiplication commutator.

    Measures the interior defect for f = sin(2 pi w / L), mu(w) = w, nu = 1
    at resolutions N and 2N; halving the step should shrink the defect by
    about four.
    """
    defects = []
    for res in (N, 2 * N):
        spec = grid.GridSpec(1, res, L)
        w = np.arange(res) * spec.h
        f = grid.GridFunction(spec, np.sin(2.0 * np.pi * w / L))
        defects.append(grid.commutator_defect((1.0,), (1.0,), f))
    ratio = defects[0] / defects[1]
    lines = [
        f"commutator: N={N} L={L:.17g} f=sin(2*pi*w/L) mu(w)=w nu=1",
        f"interior defect at N={N}: {_fmt(defects[0])}",
        f"interior defect at N={2 * N}: {_fmt(defects[1])}",
        f"defect ratio: {ratio:.6f}",
    ]
    return _verdict(lines, COMMUTATOR_RATIO[0] <= ratio <= COMMUTATOR_RATIO[1])


def _siegel_blocks(rng: np.random.Generator, n: int, trials: int):
    """The trials' samples, SIEGEL_BLOCK at a time, as components for the
    `siegel` kernels: (z, t, z2, t2, w, sigma), one array per coordinate.

    Each trial takes 6n + 4 consecutive uniform draws: z (re, im interleaved),
    t, z2, t2, w, then sigma's real and imaginary parts.
    """
    bound = SIEGEL_BOUND
    for start in range(0, trials, SIEGEL_BLOCK):
        draws = rng.uniform(-bound, bound, size=(min(SIEGEL_BLOCK, trials - start), 6 * n + 4))
        z, z2, w = (tuple(draws[:, k:k + 2 * n].copy().view(np.complex128).T)
                    for k in (0, 2 * n + 1, 4 * n + 2))
        sigma = draws[:, 6 * n + 2:].copy().view(np.complex128)[:, 0]
        yield z, draws[:, 2 * n], z2, draws[:, 4 * n + 1], w, sigma


def _top(*parts):
    """The elementwise maximum of arrays and numbers."""
    return functools.reduce(np.maximum, parts)


def siegel_check(n: int, trials: int, seed: int) -> Tuple[str, bool]:
    """Height invariance, action composition, and dilation equivariance."""
    n, trials, seed = _check_run(n, trials, seed)
    rng = np.random.default_rng(seed)
    lines = [f"siegel-check: n={n} trials={trials} seed={seed} bound={SIEGEL_BOUND:.17g}"]

    max_height = 0.0
    max_equiv = 0.0
    compose_fails = 0
    factors = np.array(DIL_FACTORS)[:, None]
    for block, (z, t, z2, t2, w, sigma) in enumerate(_siegel_blocks(rng, n, trials)):
        if block == 0:
            lines.append(f"first sample: z={tuple(complex(c[0]) for c in z)} t={t[0]:.6f}")

        moved = siegel._act(z, t, w, sigma)
        max_height = max(max_height, np.max(abs(siegel._height(*moved) - siegel._height(w, sigma))))
        dev, scale = siegel._compose_gap(z, t, z2, t2, w, sigma, top=_top)
        compose_fails += int(np.count_nonzero(~(dev <= siegel.COMPOSE_TOL * scale)))
        # one row per dilation factor
        lw, ls = siegel._dilate(factors, *moved)
        rw, rs = siegel._act(*siegel._dilate(factors, z, t), *siegel._dilate(factors, w, sigma))
        scale = _top(1.0, *map(abs, lw), abs(ls))
        devn = _top(*(abs(a - b) for a, b in zip(lw + (ls,), rw + (rs,)))) / scale
        max_equiv = max(max_equiv, np.max(devn))

    lines.append(f"max height-invariance deviation: {_fmt(max_height)}")
    lines.append(f"composition-identity failures: {compose_fails}")
    lines.append(f"max dilation-equivariance deviation: {_fmt(max_equiv)}")
    ok = max_height <= SIEGEL_TOL and compose_fails == 0 and max_equiv <= SIEGEL_TOL
    return _verdict(lines, bool(ok))
