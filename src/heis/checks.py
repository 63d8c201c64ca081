"""Seeded property-check suites behind the CLI's *-check verbs.

Every suite takes an integer seed and a trial count and returns a plain-text
report plus a pass flag.  Randomness comes from numpy's default PCG64
generator seeded directly with the given seed, and all numbers are printed
with fixed formatting, so identical seeds give byte-identical reports with
the same numpy build and CPU features: numpy may fuse a complex product's
multiply and add where the CPU can, which moves the last digits of the
printed deviations.

rep-check and siegel-check run their trials in blocks of BLOCK_VALUES values,
or of one trial if it holds more: N^n grid points per rep-check trial, 6n + 4
uniform draws per siegel-check trial.  So memory does not grow with the
trial count.  numpy may round a complex element differently by its position
in an array, so the last digits of a report over several blocks depend on
the block size.

rep-check draws each trial with one `integers` call (p, q, s, p', q', s')
and one `standard_normal` call (f's real, then imaginary parts): the numbers
one call per component gives, since PCG64 keeps its spare 32-bit word in the
bit generator.  It runs each block through `grid._monomial` as stacks, each
operator computed once: both orientations of the Weyl relation, the
homomorphism and the inverse, each product the one the scalar operators
form.  The kernel check reads the operators' integer data, O(N^n + N).

siegel-check draws each block with one `uniform` call, the same doubles in
the same order as drawing each trial alone, and runs the `siegel` kernels,
the formulas of the scalar API, on one array per coordinate.
"""

from __future__ import annotations

import functools
import operator
from typing import List, Tuple

import numpy as np

from . import core, grid, lattice, siegel
from .errors import ParameterError, dimension

DIL_FACTORS = (0.5, 1.0, 2.0, 10.0)
BLOCK_VALUES = 2**16             # values per block of trials, or one trial if it holds more
REP_TOL = 1e-12                  # rep-check: max deviation of every property
COMMUTATOR_RATIO = (3.5, 4.5)    # commutator: admissible defect ratio at N vs 2N
SIEGEL_BOUND = 10.0              # siegel-check: samples are drawn from [-bound, bound]
SIEGEL_TOL = 1e-10               # siegel-check: max deviation of every property


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


def _rep_blocks(rng: np.random.Generator, spec: grid.GridSpec, trials: int):
    """The trials' draws, one block at a time: an int array of shape (B, 4n + 2)
    holding each trial's p, q, s, p', q', s', and the complex samples f, of
    shape (B,) + the grid shape, written into arrays that every block reuses.
    """
    n, N = spec.n, spec.N
    block = min(trials, max(1, BLOCK_VALUES // N**n))
    ints = np.empty((block, 4 * n + 2), dtype=np.int64)
    parts = np.empty((block, 2) + spec.shape)
    for start in range(0, trials, block):
        size = min(block, trials - start)
        for b in range(size):
            ints[b] = rng.integers(0, N, size=4 * n + 2)
            rng.standard_normal(out=parts[b])
        yield ints[:size], parts[:size, 0] + 1j * parts[:size, 1]


def _max_dev(a: np.ndarray, b: np.ndarray) -> float:
    """max |a - b| over every trial and point, as `GridFunction.max_abs_diff`."""
    return float(np.maximum.reduce(np.abs(a - b), axis=None))


def _rep_deviations(spec: grid.GridSpec, ints: np.ndarray, f: np.ndarray) -> Tuple[float, ...]:
    """The largest Weyl-relation, homomorphism and inverse deviations over a
    block of trials, each operator one `grid._monomial` stack.  Every product
    is the one the scalar operators form, in the same order, so each trial's
    deviations keep the bytes of applying `grid.rep` to it alone."""
    n, N = spec.n, spec.N
    roots = grid._tables(n, N)[0]
    # one component per column, shaped (B,) + (1,) * n to broadcast against the grid
    cols = ints.reshape(ints.shape + (1,) * n)
    p, q, p2, q2 = (tuple(cols[:, k + a] for a in range(n)) for k in (0, n, 2 * n + 1, 3 * n + 1))
    g, g2 = (p, q, cols[:, 2 * n]), (p2, q2, cols[:, 4 * n + 1])
    rep_g = grid._monomial(*g, spec)

    # U T = T U C_alpha, and the reverse orientation with conj(alpha)
    move, phases = rep_g[0], roots[rep_g[1]]
    alpha = roots[sum(map(operator.mul, q, p)) % N]
    ut = phases * f.take(move)
    weyl = max(_max_dev(ut, (phases * (alpha * f)).take(move)),
               _max_dev((phases * f).take(move), alpha.conj() * ut))
    del ut, phases  # each stage's arrays go before the next: 16 MiB apiece at 2^20 points

    direct = grid._apply(grid._monomial(*core.law(*g, *g2), spec), f, spec)
    composed = grid._apply(rep_g, grid._apply(grid._monomial(*g2, spec), f, spec), spec)
    hom = _max_dev(composed, direct)
    del direct, composed
    undone = grid._apply(grid._monomial(*core.law_inverse(*g), spec),
                         grid._apply(rep_g, f, spec), spec)
    return weyl, hom, _max_dev(undone, f)


def _kernel_violations(spec: grid.GridSpec) -> List[str]:
    """The kernel check, read off the operators' integer data: among the 2N
    central elements (0, 0, s), exactly those with s divisible by N act as the
    identity, and the unit shift does not."""
    n, N = spec.n, spec.N
    zeros, central = (0,) * n, np.arange(2 * N)
    identity = grid._is_identity(
        grid._monomial(zeros, zeros, central.reshape((-1,) + (1,) * n), spec), spec)
    lines = [f"kernel violation at s={s}"
             for s in np.flatnonzero(identity != (central % N == 0)).tolist()]
    if grid._is_identity(grid._monomial((1,) + zeros[1:], zeros, 0, spec), spec)[0]:
        lines.append("kernel violation: nontrivial shift acts as identity")
    return lines


def rep_check(n: int, N: int, trials: int, seed: int) -> Tuple[str, bool]:
    """Weyl relation, homomorphism, inverse, and kernel checks on the grid."""
    n, trials, seed = _check_run(n, trials, seed)
    spec = grid.GridSpec(n, N)
    rng = np.random.default_rng(seed)
    # No operator reads L or lambda, so neither is a setting.  The header prints
    # both as 1, as it always has: report readers compare it byte for byte.
    lines = [f"rep-check: n={n} N={N} L=1 lambda=1 trials={trials} seed={seed}"]

    max_weyl = max_hom = max_inv = 0.0
    for block, (ints, f) in enumerate(_rep_blocks(rng, spec, trials)):
        if block == 0:
            first = ints[0].tolist()
            p, q, p2, q2 = (tuple(first[k:k + n]) for k in (0, n, 2 * n + 1, 3 * n + 1))
            lines.append(f"first sample: p={p} q={q} s={first[2 * n]} p'={p2} q'={q2} "
                         f"s'={first[4 * n + 1]}")
        weyl, hom, inv = _rep_deviations(spec, ints, f)
        max_weyl, max_hom, max_inv = max(max_weyl, weyl), max(max_hom, hom), max(max_inv, inv)

    violations = _kernel_violations(spec)
    lines.extend(violations)
    lines.append(f"max weyl-relation deviation: {_fmt(max_weyl)}")
    lines.append(f"max homomorphism deviation: {_fmt(max_hom)}")
    lines.append(f"max inverse deviation: {_fmt(max_inv)}")
    lines.append(f"kernel check: {'FAILED' if violations else 'ok'}")
    ok = not violations and max(max_weyl, max_hom, max_inv) <= REP_TOL
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
        with np.errstate(all="ignore"):  # 2 pi w can overflow; GridFunction refuses it
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
    """The trials' samples, one block at a time, as components for the
    `siegel` kernels: (z, t, z2, t2, w, sigma), one array per coordinate.

    Each trial takes 6n + 4 consecutive uniform draws: z (re, im interleaved),
    t, z2, t2, w, then sigma's real and imaginary parts.
    """
    width = 6 * n + 4
    block = min(trials, max(1, BLOCK_VALUES // width))
    # numpy refuses with a ValueError an array of more bytes than an index can count
    if block * width > np.iinfo(np.intp).max // 8:
        raise ParameterError(f"siegel-check blocks of {block} x {width} samples exceed the "
                             f"largest array")
    for start in range(0, trials, block):
        draws = rng.uniform(-SIEGEL_BOUND, SIEGEL_BOUND, size=(min(block, trials - start), width))
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
