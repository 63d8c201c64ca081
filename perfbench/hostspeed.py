"""Host speed, measured by a fixed computation interleaved with the work.

On a host whose cores are shared with other tenants, the same unit can take
twice as long when the neighbours are busy, and that load drifts over
minutes.  Every time the benchmark reports is therefore scaled to a nominal
host: a duration measured while the reference computation below took r ns is
multiplied by NOMINAL_NS / r.  The reference never calls the program, so a
change to the program moves the scaled figures exactly as it moves the raw
ones on a quiet host.

Import this module only after anything whose import time is measured: it
imports numpy, which the program imports too.
"""

from __future__ import annotations

import argparse
import io
import math
import os
import re
import time
from fractions import Fraction
from typing import Sequence

import numpy as np

NOMINAL_NS = 1_500_000  # what the reference takes on the nominal host


def _arithmetic() -> int:
    acc = 0
    table = {}
    for i in range(700):
        pair = (i, i ^ 5)
        acc += (pair[0] * pair[1]) % 7
        table[i & 31] = [acc, pair]
        acc += len(str(i & 255))
    return acc


class _Point:
    """A validating value object, like the program's group elements."""

    __slots__ = ("x", "y", "t")

    def __init__(self, x, y, t):
        x, y, t = tuple(float(v) for v in x), tuple(float(v) for v in y), float(t)
        if len(x) != len(y) or not all(math.isfinite(v) for v in x + y + (t,)):
            raise ValueError("invalid point")
        self.x, self.y, self.t = x, y, t

    def mul(self, other: "_Point") -> "_Point":
        return _Point(tuple(a + b for a, b in zip(self.x, other.x)),
                      tuple(a + b for a, b in zip(self.y, other.y)),
                      self.t + other.t + 0.5 * sum(a * b for a, b in zip(self.x, other.y)))


def _objects() -> _Point:
    g, h = _Point((1.0, 2.0), (3.0, 4.0), 5.0), _Point((0.5, 0.25), (1.5, 2.0), 1.0)
    for _ in range(45):
        g = g.mul(h)
        try:
            _Point((1.0,), (2.0, 3.0), 0.0)
        except ValueError:
            pass
    return g


_TOKEN = re.compile(r"([abc])(\d*)(?:\^(-?\d+))?")


def _text() -> int:
    acc = 0
    for i in range(40):
        for token in f"a{i % 3 + 1}^{i % 5 - 2} b2 c^{i % 7}".split():
            match = _TOKEN.fullmatch(token)
            acc += len(match.group(1)) + int(match.group(3) or 1)
        literal = ",".join(repr(v / 8) for v in range(i % 4 + 1)) + ";" + repr(i / 3)
        acc += len(literal.split(";")[0].split(","))
        out = io.StringIO()
        out.write(f"{i:>6}: {acc!r}\n")
        acc += len(out.getvalue())
    return acc


_SAMPLES = np.random.default_rng(0).standard_normal((16, 16, 2)).view(complex)[..., 0]
_PHASE = np.exp(2j * np.pi * np.arange(16) / 16)


def _arrays() -> float:
    deviation = 0.0
    for i in range(15):
        moved = np.roll(_SAMPLES, (i, 3), axis=(0, 1)) * _PHASE
        deviation += float(np.max(np.abs(moved - _SAMPLES)))
    return deviation


def _fractions() -> Fraction:
    acc = Fraction(0)
    for i in range(1, 50):
        acc += Fraction(i, 8) * Fraction(-3, i + 1)
    return acc


_PARSER = argparse.ArgumentParser(prog="reference")
_PARSER.add_argument("verb")
_PARSER.add_argument("literals", nargs="*")
_PARSER.add_argument("--n", type=int, default=1)


def _arguments() -> None:
    for _ in range(12):
        _PARSER.parse_args(["mul", "1;2;3", "4;5;6", "--n", "2"])


def reference() -> None:
    """Fixed work of each kind the program does, in about equal shares:
    interpreter arithmetic, validating value objects, text parsing and
    formatting, small numpy arrays, Fraction arithmetic and argparse.

    A mix tracks the workloads better than any one kind.  Over 7 minutes
    in which the host's speed swung 2.9x (2-core shared VM), scaling by this
    mix left 0.013 to 0.024 IQR/median in the time of fixed work per 20 s,
    across the four workloads; scaling by the arithmetic part alone left
    0.024 to 0.027.
    """
    _arithmetic()
    _objects()
    _text()
    _arrays()
    _fractions()
    _arguments()


def sample() -> int:
    """Nanoseconds one run of the reference takes now."""
    start = time.perf_counter_ns()
    reference()
    return time.perf_counter_ns() - start


class CpuRotation:
    """Moves this process to each CPU it may run on, in turn.

    The CPUs of a shared host differ, and not alike for every kind of work:
    on a 2-core VM, scaled to the reference, lattice-words ran 5% slower on
    one CPU than on the other, and group-law 4% faster.  A process the
    scheduler leaves on one CPU for a whole run measures that CPU, so runs
    of the same code fell into two groups.  Moving at each interval gives
    every run the same share of each CPU.  Where the affinity cannot be set,
    the process stays where the scheduler puts it.
    """

    def __init__(self):
        try:
            self.allowed = os.sched_getaffinity(0)
        except (AttributeError, OSError):
            self.allowed = set()
        self.cpus = sorted(self.allowed)
        self.moves = 0

    def advance(self) -> None:
        if len(self.cpus) < 2:
            return
        try:
            os.sched_setaffinity(0, {self.cpus[self.moves % len(self.cpus)]})
        except OSError:
            self.cpus = []
            return
        self.moves += 1

    def restore(self) -> None:
        if self.moves:
            os.sched_setaffinity(0, self.allowed)


def factor(samples: Sequence[int]) -> float:
    """Scale for durations measured while the reference took `samples`."""
    return NOMINAL_NS * len(samples) / sum(samples)
