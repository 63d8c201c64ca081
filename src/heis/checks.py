"""Seeded property-check suites behind the CLI's *-check verbs.

Every suite takes an integer seed and a trial count and returns a plain-text
report plus a pass flag.  Randomness comes from numpy's default PCG64
generator seeded directly with the given seed, and all numbers are printed
with fixed formatting, so identical seeds give byte-identical reports with
the same numpy build and CPU features: numpy's complex `*` and complex
`np.abs` give different bits under different SIMD dispatch (the kernels numpy
picks for the CPU, AVX2 or AVX-512 on x86), which moves the last digits of
the printed deviations.

rep-check and siegel-check run their trials in blocks of BLOCK_VALUES values,
or of one trial if it holds more: N^n grid points per rep-check trial, 6n + 4
uniform draws per siegel-check trial.  So memory does not grow with the
trial count.  numpy may round a complex element differently by its position
in an array, so the last digits of a report over several blocks depend on
the block size.

rep-check draws each block with one call per kind: one `integers` call for
every trial's p, q, s, p', q', s', then one `standard_normal` call for every
trial's f (real, then imaginary parts).  These are the numbers one call per
component gives in that order, since PCG64 keeps its spare 32-bit word in
the bit generator.  So the samples depend on the block size: a block of one
trial (N^n > BLOCK_VALUES / 2) draws as trial-by-trial calls do, and the
first trial's integers are the first draws at every size.  Replaying trial
K means redrawing every block up to the one that holds K.  rep-check runs
each block through `grid._monomial` as stacks, each operator's phases read
once and applied by `grid._apply`, the one formula `grid.rep` applies: both
orientations of the Weyl relation, the homomorphism and the inverse.  A
block holds f (its draw is freed first), rep(g)'s integer data and phases,
and one stage's operators and products at a time.  The kernel check reads
the operators' integer data, O(N^n + N), once per (n, N) in a process,
before the first block: it is kept for 16 sizes.

siegel-check draws each block with one `uniform` call, the same doubles in
the same order as drawing each trial alone, and runs the `siegel` kernels,
the formulas of the scalar API, on one array per coordinate.

Both suites carry a NaN deviation into the report, and it fails the check.

numpy is imported on first use, as in `grid`: `relation_check` loads none.
"""

from __future__ import annotations

import functools
from typing import List, Tuple

from . import _Numpy, core, grid, lattice, siegel
from .errors import ParameterError, dimension, integer

np = _Numpy(globals())  # numpy, imported on first use

DIL_FACTORS = (0.5, 1.0, 2.0, 10.0)
BLOCK_VALUES = 2**16             # values per block of trials, or one trial if it holds more
REP_TOL = 1e-12                  # rep-check: max deviation of every property
COMMUTATOR_RATIO = (3.5, 4.5)    # commutator: admissible defect ratio at N vs 2N
SIEGEL_BOUND = 10.0              # siegel-check: samples are drawn from [-bound, bound]
SIEGEL_TOL = 1e-10               # siegel-check: max deviation of the other properties
HEIGHT_ROUNDING = 2.0**-48       # 16 float64 eps; siegel-check: height bound / ((n + 1) S)


def _fmt(v: float) -> str:
    return f"{v:.3e}"


def _verdict(lines: List[str], ok: bool) -> Tuple[str, bool]:
    lines.append("result: " + ("PASS" if ok else "FAIL"))
    return "\n".join(lines) + "\n", ok


def _worst(*devs: float) -> float:
    """The largest deviation, or NaN if one is NaN: `max` keeps whichever comes
    first of a number and a NaN, so a NaN deviation would pass unseen."""
    total = sum(devs)  # NaN exactly when a deviation is, as none is negative
    return total if total != total else max(devs)


def _check_run(n: int, trials: int, seed: int) -> Tuple[int, int, int]:
    """(n, trials, seed) as ints, once each is known to be valid."""
    n, trials = dimension(n), integer(trials, "trials")
    # with no trials every maximum stays 0 and the suite would pass vacuously
    if trials < 1:
        raise ParameterError(f"trials must be >= 1, got {trials}")
    seed = integer(seed, "seed")
    if seed < 0:
        raise ParameterError(f"seed must be a non-negative integer, got {seed}")
    return n, trials, seed


def relation_check(n: int) -> Tuple[str, bool]:
    """Exhaustive defining-relation check for H_n(Z)."""
    n = dimension(n)
    report = lattice.check_relations(n)
    lines = [f"relcheck: n={n}", f"relations checked: {report.checked}"]
    for bad in report.counterexamples:
        lines.append(f"counterexample: {bad}")
    lines.append(f"counterexamples: {len(report.counterexamples)}")
    return _verdict(lines, report.ok)


def _rep_blocks(rng: np.random.Generator, spec: grid.GridSpec, trials: int):
    """The trials' draws, one block at a time, each with one call per kind:
    every trial's p, q, s, p', q', s' in an int array of shape
    (B, 4n + 2) + (1,) * n, then the complex samples f, of shape (B,) + the
    grid shape.  Yields the stacks (p, q, s) and (p', q', s'), one int array
    per component shaped (B,) + (1,) * n to broadcast against the grid, and f.
    """
    n, N = spec.n, spec.N
    block = min(trials, max(1, BLOCK_VALUES // N**n))
    for start in range(0, trials, block):
        size = min(block, trials - start)
        cols = rng.integers(0, N, size=(size, 4 * n + 2) + (1,) * n)
        parts = rng.standard_normal((size, 2) + spec.shape)
        f = parts[:, 0] + 1j * parts[:, 1]
        del parts  # the draw goes before the block is checked
        p, q, p2, q2 = (tuple(cols[:, k + a] for a in range(n))
                        for k in (0, n, 2 * n + 1, 3 * n + 1))
        yield (p, q, cols[:, 2 * n]), (p2, q2, cols[:, 4 * n + 1]), f


def _rep_deviations(spec: grid.GridSpec, g: Tuple, g2: Tuple, f: np.ndarray) -> Tuple[float, ...]:
    """The largest Weyl-relation, homomorphism and inverse deviations over a
    block of trials, each operator one `grid._monomial` stack applied by
    `grid._apply`, the formula `grid.rep` applies, so each trial's deviations
    keep the bytes of applying `grid.rep` to it alone."""
    N = spec.N
    roots = grid._tables(spec.n, N)[0]
    p, q, _ = g

    def rep(p, q, s):  # the stack rep(p, q, s) as `grid._apply` takes it
        move, exponent, central = grid._monomial(p, q, s, spec)
        return move, roots[exponent], roots[central]

    # U T = T U C_alpha, and the reverse orientation with conj(alpha)
    rep_g = move, phases, _ = rep(*g)
    alpha = roots[core._dot(q, p) % N]
    ut = f.take(move)
    np.multiply(phases, ut, out=ut)  # apply_U's factor order at any size, as in `grid._apply`
    weyl = _worst(grid._max_abs_diff(ut, grid._apply(move, phases, alpha, f)),
                  grid._max_abs_diff(grid._apply(move, phases, 1, f), alpha.conj() * ut))
    del ut  # each stage's arrays go before the next: 16 MiB apiece at 2^20 points

    direct = grid._apply(*rep(*core.law(*g, *g2)), f)
    composed = grid._apply(*rep_g, grid._apply(*rep(*g2), f))
    hom = grid._max_abs_diff(composed, direct)
    del direct, composed
    undone = grid._apply(*rep(*core.law_inverse(*g)), grid._apply(*rep_g, f))
    return weyl, hom, grid._max_abs_diff(undone, f)


@functools.lru_cache(maxsize=16)
def _kernel_violations(spec: grid.GridSpec) -> Tuple[str, ...]:
    """The kernel check, read off the operators' integer data: among the 2N
    central elements (0, 0, s), exactly those with s divisible by N act as the
    identity, and the unit shift does not.  Kept for 16 sizes."""
    n, N = spec.n, spec.N
    zeros, central = (0,) * n, np.arange(2 * N)
    data = grid._monomial(zeros, zeros, central.reshape((-1,) + (1,) * n), spec)
    identity = grid._is_identity(data, spec)
    lines = [f"kernel violation at s={s}"
             for s in np.flatnonzero(identity != (central % N == 0)).tolist()]
    if grid._is_identity(grid._monomial((1,) + zeros[1:], zeros, 0, spec), spec)[0]:
        lines.append("kernel violation: nontrivial shift acts as identity")
    return tuple(lines)


def rep_check(n: int, N: int, trials: int, seed: int) -> Tuple[str, bool]:
    """Weyl relation, homomorphism, inverse, and kernel checks on the grid."""
    n, trials, seed = _check_run(n, trials, seed)
    spec = grid.GridSpec(n, N)
    rng = np.random.default_rng(seed)
    # No operator reads L or lambda, so neither is a setting.  The header prints
    # both as 1, as it always has: report readers compare it byte for byte.
    lines = [f"rep-check: n={n} N={N} L=1 lambda=1 trials={trials} seed={seed}"]

    # before any block's arrays, so that its own do not add to theirs
    violations = _kernel_violations(spec)
    worst = (0.0, 0.0, 0.0)  # the Weyl relation's, the homomorphism's and the inverse's
    for block, (g, g2, f) in enumerate(_rep_blocks(rng, spec, trials)):
        if block == 0:  # the first trial's integers, as Python ints
            p, q, p2, q2 = (tuple(c.item(0) for c in v) for v in (g[0], g[1], g2[0], g2[1]))
            lines.append(f"first sample: p={p} q={q} s={g[2].item(0)} p'={p2} q'={q2} "
                         f"s'={g2[2].item(0)}")
        worst = tuple(map(_worst, worst, _rep_deviations(spec, g, g2, f)))

    lines.extend(violations)
    for label, dev in zip(("weyl-relation", "homomorphism", "inverse"), worst):
        lines.append(f"max {label} deviation: {_fmt(dev)}")
    lines.append(f"kernel check: {'FAILED' if violations else 'ok'}")
    ok = not violations and _worst(*worst) <= REP_TOL
    return _verdict(lines, ok)


def commutator_check(N: int) -> Tuple[str, bool]:
    """Second-order convergence of the difference/multiplication commutator.

    Measures the interior defect for f = sin(2 pi w), mu(w) = w, nu = 1 at
    resolutions N and 2N; halving the step should shrink the defect by about
    four.  An N that the check cannot run with is refused by name.
    """
    coarse = grid.GridSpec(1, N)
    if 2 * coarse.N > grid.MAX_GRID_POINTS:
        raise ParameterError(f"N = {coarse.N} is too large: the check also runs at 2N = "
                             f"{2 * coarse.N} points, over the {grid.MAX_GRID_POINTS} guard")
    defects = []
    for spec in (coarse, grid.GridSpec(1, 2 * coarse.N)):
        samples = np.sin(2.0 * np.pi * (np.arange(spec.N) * spec.h))
        f = grid.GridFunction._wrap(spec, samples.astype(np.complex128))
        defects.append(grid.commutator_defect((1.0,), (1.0,), f))
    ratio = defects[0] / defects[1]
    lines = [
        # no period is read (h cancels), but report readers compare L=1 byte for byte
        f"commutator: N={N} L=1 f=sin(2*pi*w/L) mu(w)=w nu=1",
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
    """Height invariance, action composition, and dilation equivariance.  A
    trial's height may deviate by its rounding, HEIGHT_ROUNDING (n + 1) S with
    S = 1 + |Im sigma| + |w|^2 + |z|^2: below 2e-11 at n <= 3."""
    n, trials, seed = _check_run(n, trials, seed)
    rng = np.random.default_rng(seed)
    lines = [f"siegel-check: n={n} trials={trials} seed={seed} bound={SIEGEL_BOUND:.17g}"]

    max_height = max_equiv = 0.0
    height_fails = compose_fails = 0
    factors = np.array(DIL_FACTORS)[:, None]
    for block, (z, t, z2, t2, w, sigma) in enumerate(_siegel_blocks(rng, n, trials)):
        if block == 0:
            lines.append(f"first sample: z={tuple(complex(c[0]) for c in z)} t={t[0]:.6f}")

        moved = siegel._act(z, t, w, sigma)
        dev = abs(siegel._height(*moved) - siegel._height(w, sigma))
        max_height = _worst(max_height, float(np.max(dev)))
        scale = 1.0 + abs(sigma.imag) + siegel._norm2(w) + siegel._norm2(z)
        height_fails += int(np.count_nonzero(~(dev <= HEIGHT_ROUNDING * (n + 1) * scale)))
        dev, scale = siegel._compose_gap(z, t, z2, t2, w, sigma, top=_top)
        compose_fails += int(np.count_nonzero(~(dev <= siegel.COMPOSE_TOL * scale)))
        # one row per dilation factor
        lw, ls = siegel._dilate(factors, *moved)
        rw, rs = siegel._act(*siegel._dilate(factors, z, t), *siegel._dilate(factors, w, sigma))
        scale = _top(1.0, *map(abs, lw), abs(ls))
        devn = _top(*(abs(a - b) for a, b in zip(lw + (ls,), rw + (rs,)))) / scale
        max_equiv = _worst(max_equiv, float(np.max(devn)))

    lines.append(f"max height-invariance deviation: {_fmt(max_height)}")
    lines.append(f"composition-identity failures: {compose_fails}")
    lines.append(f"max dilation-equivariance deviation: {_fmt(max_equiv)}")
    ok = height_fails == 0 and compose_fails == 0 and max_equiv <= SIEGEL_TOL
    return _verdict(lines, bool(ok))
