"""Seeded property-check suites behind the CLI's *-check verbs.

Every suite takes an integer seed and a trial count and returns a plain-text
report plus a pass flag.  Randomness comes from numpy's default PCG64
generator seeded directly with the given seed, and all numbers are printed
with fixed formatting, so identical seeds give byte-identical reports.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from . import grid, lattice, siegel
from .errors import ParameterError, dimension

DIL_FACTORS = (0.5, 1.0, 2.0, 10.0)
REP_TOL = 1e-12                  # rep-check: max deviation of every property
COMMUTATOR_RATIO = (3.5, 4.5)    # commutator: admissible defect ratio at N vs 2N
SIEGEL_BOUND = 10.0              # siegel-check: samples are drawn from [-bound, bound]
SIEGEL_TOL = 1e-10               # siegel-check: max deviation of every property


def _fmt(v: float) -> str:
    return f"{v:.3e}"


def _verdict(lines: List[str], ok: bool) -> Tuple[str, bool]:
    lines.append("result: " + ("PASS" if ok else "FAIL"))
    return "\n".join(lines) + "\n", ok


def _check_run(n: int, trials: int, seed: int) -> None:
    dimension(n)
    # with no trials every maximum stays 0 and the suite would pass vacuously
    if trials < 1:
        raise ParameterError(f"trials must be >= 1, got {trials}")
    if seed < 0:
        raise ParameterError(f"seed must be a non-negative integer, got {seed}")


def relation_check(n: int) -> Tuple[str, bool]:
    """Exhaustive defining-relation check for H_n(Z)."""
    report = lattice.check_relations(n)
    lines = [f"relcheck: n={n}", f"relations checked: {report.checked}"]
    for bad in report.counterexamples:
        lines.append(f"counterexample: {bad}")
    lines.append(f"counterexamples: {len(report.counterexamples)}")
    return _verdict(lines, report.ok)


def _random_grid_function(rng: np.random.Generator, spec: grid.GridSpec) -> grid.GridFunction:
    shape = spec.shape
    return grid.GridFunction(spec, rng.standard_normal(shape) + 1j * rng.standard_normal(shape))


def rep_check(n: int, N: int, trials: int, seed: int) -> Tuple[str, bool]:
    """Weyl relation, homomorphism, inverse, and kernel checks on the grid."""
    _check_run(n, trials, seed)
    spec = grid.GridSpec(n, N)
    rng = np.random.default_rng(seed)
    # No operator reads L or lambda, so neither is a setting.  The header prints
    # both as 1, as it always has: report readers compare it byte for byte.
    lines = [f"rep-check: n={n} N={N} L=1 lambda=1 trials={trials} seed={seed}"]

    max_weyl = 0.0
    max_hom = 0.0
    max_inv = 0.0
    for trial in range(trials):
        p = tuple(int(v) for v in rng.integers(0, N, size=n))
        q = tuple(int(v) for v in rng.integers(0, N, size=n))
        s = int(rng.integers(0, N))
        p2 = tuple(int(v) for v in rng.integers(0, N, size=n))
        q2 = tuple(int(v) for v in rng.integers(0, N, size=n))
        s2 = int(rng.integers(0, N))
        f = _random_grid_function(rng, spec)
        if trial == 0:
            lines.append(f"first sample: p={p} q={q} s={s} p'={p2} q'={q2} s'={s2}")

        # U T = T U C_alpha, and the reverse orientation with conj(alpha)
        alpha = grid.weyl_alpha(p, q, spec)
        lhs = grid.apply_U(q, grid.apply_T(p, f))
        rhs = grid.apply_T(p, grid.apply_U(q, grid.apply_C(alpha, f)))
        max_weyl = max(max_weyl, lhs.max_abs_diff(rhs))
        lhs2 = grid.apply_T(p, grid.apply_U(q, f))
        rhs2 = grid.apply_C(alpha.conjugate(), grid.apply_U(q, grid.apply_T(p, f)))
        max_weyl = max(max_weyl, lhs2.max_abs_diff(rhs2))

        g = grid.QuantizedTriple(p, q, s)
        g2 = grid.QuantizedTriple(p2, q2, s2)
        composed = grid.rep(g, spec)(grid.rep(g2, spec)(f))
        direct = grid.rep(grid.triple_mul(g, g2), spec)(f)
        max_hom = max(max_hom, composed.max_abs_diff(direct))

        undone = grid.rep(grid.triple_inverse(g), spec)(grid.rep(g, spec)(f))
        max_inv = max(max_inv, undone.max_abs_diff(f))

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


def siegel_check(n: int, trials: int, seed: int) -> Tuple[str, bool]:
    """Height invariance, action composition, and dilation equivariance."""
    _check_run(n, trials, seed)
    bound = SIEGEL_BOUND
    rng = np.random.default_rng(seed)
    lines = [f"siegel-check: n={n} trials={trials} seed={seed} bound={bound:.17g}"]

    def rand_cvec(size: int) -> Tuple[complex, ...]:
        v = rng.uniform(-bound, bound, size=2 * size)
        return tuple(complex(v[2 * j], v[2 * j + 1]) for j in range(size))

    max_height = 0.0
    max_equiv = 0.0
    compose_fails = 0
    for trial in range(trials):
        g = siegel.ComplexElement(rand_cvec(n), float(rng.uniform(-bound, bound)))
        g2 = siegel.ComplexElement(rand_cvec(n), float(rng.uniform(-bound, bound)))
        p = siegel.SiegelPoint(rand_cvec(n), complex(*rng.uniform(-bound, bound, size=2)))
        if trial == 0:
            lines.append(f"first sample: z={g.z} t={g.t:.6f}")

        max_height = max(max_height, abs(siegel.height(siegel.act(g, p)) - siegel.height(p)))
        if not siegel.act_compose_check(g, g2, p):
            compose_fails += 1
        for r in DIL_FACTORS:
            d = siegel.ComplexDilation(r)
            lhs = siegel.domain_dilate(d, siegel.act(g, p))
            rhs = siegel.act(siegel.cdilate(d, g), siegel.domain_dilate(d, p))
            scale = max(1.0, max(abs(c) for c in lhs.w), abs(lhs.sigma))
            devn = max(
                max(abs(a - b) for a, b in zip(lhs.w, rhs.w)),
                abs(lhs.sigma - rhs.sigma),
            ) / scale
            max_equiv = max(max_equiv, devn)

    lines.append(f"max height-invariance deviation: {_fmt(max_height)}")
    lines.append(f"composition-identity failures: {compose_fails}")
    lines.append(f"max dilation-equivariance deviation: {_fmt(max_equiv)}")
    ok = max_height <= SIEGEL_TOL and compose_fails == 0 and max_equiv <= SIEGEL_TOL
    return _verdict(lines, ok)
