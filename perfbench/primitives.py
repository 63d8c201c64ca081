"""Per-call time of each primitive the ROADMAP names, at its fixed sizes:
grid at n = 2, N = 16; group operations at n = 2; words of 50 tokens.

Timed with tracing off, as blocks of back-to-back calls on inputs generated
from the seed; the figure is the median block's time per call, less the cost
of an empty call through the same loop, at nominal host speed.
"""

from __future__ import annotations

import random
import statistics
import time
from typing import Callable, Dict

import numpy as np

from heis import core, grid, lattice, siegel

import hostspeed
import oracles
import workloads

BLOCK_NS = 5_000_000
BLOCKS = 5


def _per_call_ns(call: Callable[[], object]) -> float:
    clock = time.perf_counter_ns
    t0 = clock()
    call()
    calls = max(5, int(BLOCK_NS / max(clock() - t0, 1)))
    per_call, speed = [], [hostspeed.sample()]
    for _ in range(BLOCKS):
        t0 = clock()
        for _ in range(calls):
            call()
        per_call.append((clock() - t0) / calls)
        speed.append(hostspeed.sample())
    return statistics.median(per_call) * hostspeed.factor(speed)


def cases(seed: int) -> Dict[str, Callable[[], object]]:
    rng = np.random.default_rng(seed)
    spec = grid.GridSpec(2, 16)

    def samples():
        return rng.standard_normal(spec.shape) + 1j * rng.standard_normal(spec.shape)

    values = samples()
    f, f2 = grid.GridFunction(spec, values), grid.GridFunction(spec, samples())
    p, q = tuple(int(v) for v in rng.integers(0, 16, 2)), tuple(int(v) for v in rng.integers(0, 16, 2))
    alpha = grid.weyl_alpha(p, q, spec)
    operator = grid.rep(grid.QuantizedTriple(p, q, int(rng.integers(0, 16))), spec)

    def real():
        v = rng.uniform(-10, 10, size=5).tolist()
        return core.RealElement(v[:2], v[2:4], v[4])

    def integer():
        v = rng.integers(-100, 101, size=5).tolist()
        return lattice.LatticeElement(v[:2], v[2:4], v[4])

    g, h = real(), real()
    a, b = integer(), integer()
    text = oracles.word_text(workloads.random_tokens(random.Random(seed), 2, 50))
    word = lattice.parse_word(text, 2)

    def cvec():
        v = rng.uniform(-10, 10, size=4).tolist()
        return complex(v[0], v[1]), complex(v[2], v[3])

    cg, cg2 = (siegel.ComplexElement(cvec(), float(rng.uniform(-10, 10))) for _ in range(2))
    point = siegel.SiegelPoint(cvec(), complex(*rng.uniform(-10, 10, size=2).tolist()))
    return {
        "grid.apply_T": lambda: grid.apply_T(p, f),
        "grid.apply_U": lambda: grid.apply_U(q, f),
        "grid.apply_C": lambda: grid.apply_C(alpha, f),
        "grid.rep_operator": lambda: operator(f),
        "grid.max_abs_diff": lambda: f.max_abs_diff(f2),
        "grid.GridFunction": lambda: grid.GridFunction(spec, values),
        "core.mul": lambda: core.mul(g, h),
        "core.inverse": lambda: core.inverse(g),
        "core.coset_reduce": lambda: core.coset_reduce(g),
        "lattice.lmul": lambda: lattice.lmul(a, b),
        "lattice.parse_word": lambda: lattice.parse_word(text, 2),
        "lattice.evaluate_word": lambda: lattice.evaluate_word(word),
        "siegel.act": lambda: siegel.act(cg, point),
        "siegel.cmul": lambda: siegel.cmul(cg, cg2),
    }


def per_call_us(seed: int) -> Dict[str, float]:
    empty = _per_call_ns(lambda: None)
    return {f"{name}.us_per_call": (_per_call_ns(call) - empty) / 1e3
            for name, call in cases(seed).items()}
