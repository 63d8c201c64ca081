#!/usr/bin/env python3
"""Closed-loop benchmark of the heis library and CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One client in one thread sends the next unit only when the previous one has
returned.  Inputs are generated from --seed before timing; every unit's
outputs are verified against the benchmark's own oracles after it is timed.
Times are scaled to a nominal host speed (see hostspeed.py).

--trace 0 prints the end-to-end metrics; --trace 1 runs the pool untraced,
then traced, then the per-primitive probe, and prints the per-layer metrics.
Human-readable lines come first; the last line of standard output is one
JSON object.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from array import array  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import program  # noqa: E402

program.import_heis()

import hostspeed  # noqa: E402
import primitives  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
SETUP_SAMPLES = 15
SETUP_TIMEOUT_S = 60
INTERVAL_NS = 50_000_000  # of unit time on one CPU, between host-speed samples
UNTRACED_SHARE = 0.35  # of --seconds, in a traced run
TRACED_SHARE = 0.45
SPAN_CAP = 500_000  # no further traced pass once this many spans are held

END_TO_END_UNITS = {"throughput_ops_s": "1/s", "latency_p50_us": "us", "latency_p99_us": "us",
                    "setup_s": "s", "peak_rss_mib": "MiB"}
PER_LAYER_UNITS = (("calls_per_op", "calls/op"), ("raised_per_op", "raises/op"),
                   ("self_us_per_op", "us/op"), ("us_per_call", "us/call"),
                   ("validated_per_op", "objects/op"), ("lmul_per_token", "calls/token"),
                   ("computed_bytes_per_op", "B/op"), ("span_cost_us", "us/span"),
                   ("overhead_ratio", "ratio"), ("known_defects", "count"))


class Tally:
    """Latencies, host-speed samples and outcomes of the units of one loop."""

    def __init__(self, pool_size: int):
        self.pool_size = pool_size
        self.latency_ns = array("q")
        self.intervals = []  # (units run by the interval's end, its host-speed factor)
        self.failures = []  # (unit index, args, error)

    @property
    def attempted(self) -> int:
        return len(self.latency_ns)

    def scaled_ns(self) -> np.ndarray:
        """Each latency at nominal host speed, using the host-speed samples
        taken at the start and end of the interval that ran its unit."""
        bounds = [0] + [count for count, _ in self.intervals]
        factors = [factor for _, factor in self.intervals]
        per_unit = np.repeat(factors, np.diff(bounds))
        return np.frombuffer(self.latency_ns, dtype=np.int64) * per_unit

    def by_pass(self) -> np.ndarray:
        """Scaled latencies, one row per whole pass over the pool; the whole
        loop as one row when it made no full pass."""
        scaled = self.scaled_ns()
        passes = len(scaled) // self.pool_size
        if passes == 0:
            return scaled.reshape(1, -1)
        return scaled[:passes * self.pool_size].reshape(passes, self.pool_size)

    def typical_ns(self) -> np.ndarray:
        """Each unit's median scaled latency across the passes.  A unit slowed
        in one pass by a busy neighbour does not move it, so the tail of
        these is that of the inputs (long words, check verbs)."""
        return np.median(self.by_pass(), axis=0)

    def throughput(self) -> float:
        """Units per second, each unit taking its median latency."""
        typical = self.typical_ns()
        return float(len(typical) * 1e9 / typical.sum())

    def latency_us(self, q: float) -> float:
        """The q-th percentile of the units' median latencies."""
        return float(np.percentile(self.typical_ns(), q)) / 1e3


def run_units(workload, pool, tally: Tally, deadline: float, mark=None, stop=None) -> None:
    """Cycle through `pool` until `deadline`, timing each unit and verifying it
    after the clock stops.  The loop runs in intervals of INTERVAL_NS of unit
    time, each on the next CPU in turn, with the host speed sampled on that
    CPU at its start and end.  With `stop`, end only between whole passes,
    once the deadline has passed or `stop()` is true."""
    clock = time.perf_counter_ns
    size, i, in_interval = len(pool), 0, 0
    cpus = hostspeed.CpuRotation()
    cpus.advance()
    opened = hostspeed.sample()
    try:
        while True:
            unit = pool[i % size]
            if mark is not None:
                mark[0] = i
            t0 = clock()
            try:
                out, error = workload.run(unit.args), None
            except Exception as exc:  # an escaping exception is a failed unit
                out, error = None, exc
            elapsed = clock() - t0
            tally.latency_ns.append(elapsed)
            i += 1
            try:
                ok = error is None and workload.verify(unit, out)
            except (ValueError, KeyError, IndexError, TypeError, AttributeError) as exc:
                ok, error = False, exc
            if not ok:
                tally.failures.append((i - 1, unit.args, repr(error)))
            in_interval += elapsed
            if in_interval >= INTERVAL_NS:
                tally.intervals.append((i, hostspeed.factor((opened, hostspeed.sample()))))
                cpus.advance()
                opened = hostspeed.sample()
                in_interval = 0
            if stop is None or i % size == 0:
                if time.perf_counter() >= deadline or (stop is not None and stop()):
                    break
        if in_interval:
            tally.intervals.append((i, hostspeed.factor((opened, hostspeed.sample()))))
    finally:
        cpus.restore()


def prepare(workload, seed: int):
    pool = workload.make(seed, workload.pool_size)
    for unit in pool[:workloads.WARMUP_UNITS]:
        try:
            workload.run(unit.args)
        except Exception:
            pass
    gc.collect()
    gc.freeze()  # the pool lives for the whole run; keep it out of collections
    return pool


def setup_seconds(workload: str, seed: int) -> list:
    samples = []
    for _ in range(SETUP_SAMPLES):
        done = subprocess.run([sys.executable, str(HERE / "setup_child.py"), workload, str(seed)],
                              capture_output=True, text=True, timeout=SETUP_TIMEOUT_S, check=True)
        samples.append(float(done.stdout.strip().splitlines()[-1]))
    return samples


def end_to_end(workload, seed: int, seconds: float):
    setup = setup_seconds(workload.name, seed)
    pool = prepare(workload, seed)
    tally = Tally(len(pool))
    run_units(workload, pool, tally, time.perf_counter() + seconds)
    passes = tally.by_pass().shape[0]
    samples = (f"{tally.attempted} samples: {len(pool)} units, each its median over "
               f"{passes} passes")
    metrics = {
        "throughput_ops_s": (tally.throughput(), samples),
        "latency_p50_us": (tally.latency_us(50), samples),
        "latency_p99_us": (tally.latency_us(99), samples),
        "setup_s": (statistics.median(setup), f"median of {len(setup)} fresh interpreters"),
        "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                         "max resident set of this process"),
    }
    host = f"host at {sum(tally.latency_ns) / tally.scaled_ns().sum():.3f}x nominal time"
    return [tally], host, {k: (v, END_TO_END_UNITS[k], note) for k, (v, note) in metrics.items()}


def traced(workload, seed: int, seconds: float):
    pool = prepare(workload, seed)
    untraced = Tally(len(pool))
    run_units(workload, pool, untraced, time.perf_counter() + UNTRACED_SHARE * seconds)

    spans = tracing.Tracer()
    spans.install()
    traced_tally = Tally(len(pool))
    try:
        run_units(workload, pool, traced_tally, time.perf_counter() + TRACED_SHARE * seconds,
                  mark=spans.current_unit, stop=lambda: len(spans) >= SPAN_CAP)
    finally:
        spans.uninstall()
    out_dir = HERE / "traces"
    out_dir.mkdir(exist_ok=True)
    spans.save(out_dir / f"spans-{workload.name}-seed{seed}.npz")

    # The cost of one span on this workload: the extra time per unit tracing
    # took, over the spans per unit.  Subtracting it leaves self times that
    # add up to the untraced time per unit.
    untraced_tp, traced_tp = untraced.throughput(), traced_tally.throughput()
    span_cost = max(0.0, 1e9 / traced_tp - 1e9 / untraced_tp) * traced_tally.attempted / len(spans)
    traced_scale = traced_tally.scaled_ns().sum() / sum(traced_tally.latency_ns)
    raw_cost = span_cost / traced_scale
    inside = tracing.inside_share()
    metrics = tracing.layer_metrics(spans, len(pool), traced_tally.attempted,
                                    sum(unit.tokens for unit in pool),
                                    raw_cost * inside, raw_cost * (1 - inside))
    for name in metrics:
        if name.endswith("self_us_per_op"):
            metrics[name] *= traced_scale
    metrics.update(primitives.per_call_us(seed))
    metrics["trace.span_cost_us"] = span_cost / 1e3
    metrics["trace.overhead_ratio"] = untraced_tp / traced_tp

    host = f"{traced_tally.attempted} traced units, {len(spans)} spans"
    units = {name: next(u for suffix, u in PER_LAYER_UNITS if name.endswith(suffix))
             for name in metrics}
    return [untraced, traced_tally], host, {k: (v, units[k], "") for k, v in metrics.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    workload = workloads.WORKLOADS[args.workload]
    measure = traced if args.trace else end_to_end
    tallies, context, metrics = measure(workload, args.seed, args.seconds)
    defects = workloads.known_defects_present()
    if args.trace:
        metrics["cli.known_defects"] = (len(defects), "count", "untimed, outside the mix")
    attempted = sum(t.attempted for t in tallies)
    failures = [failure for t in tallies for failure in t.failures]
    failed = len(failures)

    for index, unit_args, error in failures[:5]:
        print(f"failure at unit {index}: {unit_args!r:.200} {error}", file=sys.stderr)
    print(f"{workload.name} seed={args.seed} trace={args.trace}: {attempted} units, "
          f"{failed} failed (error_rate {failed / attempted:.6f}); {context}")
    for name, detail in defects:
        print(f"  known defect {name} (untimed, outside the mix): {detail}")
    for name, (value, unit, note) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}" + (f"  ({note})" if note else ""))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit, _) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
