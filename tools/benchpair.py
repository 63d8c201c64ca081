#!/usr/bin/env python3
"""Compare two checkouts of heis with alternating perfbench runs.

    python3 tools/benchpair.py --parent DIR --change DIR \\
        --workload cli-session --workload grid-weyl --seed 11 --seed 23 \\
        --pairs 10 --out BENCH_8.json

Each pair runs `perfbench/run.py --trace 0` once in each checkout, on the same
workload and seed, for the run length BENCHMARK.json fixes.  Pair i (from 1)
runs the parent first when i is odd and the change first when i is even, and
takes the i-th seed, cycling.  Per workload and end-to-end metric the output
records each side's median and quartiles, the relative change of the
medians, the pairs the change won, the bound from BENCHMARK.json, whether the
change stays inside it, whether a gain is resolved, and every run.  A gain is
resolved when at least 10 pairs ran, the change won at least 9/10 of them (a
tie is no win), and the medians differ in the better direction by more than
the distance between the parent's quartiles.  Each run's count of attempted
units sits beside the metrics, in the same order as the runs, so a reader can
tell whether a metric such as `peak_rss_mib` follows the number of units timed.
`src_lines` records each checkout's total line count of `src/heis/*.py`, so
that a change's growth or shrink sits next to its benchmark pairs.
The file is rewritten after each pair, so an interrupted comparison keeps
the pairs it finished.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One untraced perfbench run in `checkout`: its final JSON line."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True,
                          timeout=10 * seconds + 600)
    if proc.returncode != 0:
        raise SystemExit(f"error: {' '.join(cmd)} in {checkout} exited {proc.returncode}:\n"
                         f"{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def src_lines(checkout: Path) -> int:
    """The lines of `src/heis/*.py` in `checkout`, counted as `wc -l` does."""
    return sum(path.read_bytes().count(b"\n") for path in (checkout / "src" / "heis").glob("*.py"))


def summary(values: list) -> dict:
    if len(values) == 1:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def compare(spec: dict, runs: dict) -> dict:
    """One metric of one workload: both sides' spread and the verdict."""
    parent, change = summary(runs["parent"]), summary(runs["change"])
    relative = (change["median"] - parent["median"]) / parent["median"]
    sign = 1 if spec["better"] == "higher" else -1
    wins = sum(sign * (c - p) > 0 for p, c in zip(runs["parent"], runs["change"]))
    pairs, parent_iqr = len(runs["parent"]), parent["q3"] - parent["q1"]
    return {
        "unit": spec["unit"],
        "better": spec["better"],
        "parent": parent,
        "change": change,
        "relative_change": relative,
        "change_wins": f"{wins}/{pairs}",
        "parent_iqr": parent_iqr,
        "gain_resolved": (pairs >= 10 and 10 * wins >= 9 * pairs
                          and sign * (change["median"] - parent["median"]) > parent_iqr),
        "bound": spec["bound"],
        "within_bound": sign * relative >= -spec["bound"],
        "runs": runs,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True, help="checkout of the parent")
    parser.add_argument("--change", type=Path, required=True, help="checkout of the change")
    parser.add_argument("--workload", action="append", required=True, help="repeatable")
    parser.add_argument("--seed", type=int, action="append", required=True,
                        help="repeatable; pair i takes the i-th, cycling")
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True, help="the BENCH_<n>.json to write")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error(f"--pairs must be >= 1, got {args.pairs}")

    benchmark = json.loads((args.change / "BENCHMARK.json").read_text())
    seconds = benchmark["run_seconds"]
    specs = benchmark["end_to_end"]
    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    report = {
        "command": f"python3 perfbench/run.py --workload W --seed S --seconds {seconds} --trace 0",
        "host": f"{os.cpu_count()}-CPU {platform.machine()} host, Python "
                f"{platform.python_version()}; times scaled to the nominal host by "
                "perfbench/hostspeed.py",
        "pairs_alternated": "odd pairs run the parent first, even pairs the change first",
        "src_lines": {side: src_lines(checkouts[side]) for side in SIDES},
        "workloads": {},
    }
    for workload in args.workload:
        results = {side: [] for side in SIDES}
        seeds = []
        for i in range(args.pairs):
            seed = args.seed[i % len(args.seed)]
            seeds.append(seed)
            for side in SIDES if i % 2 == 0 else SIDES[::-1]:
                results[side].append(run_once(checkouts[side], workload, seed, seconds))
                print(f"{workload} pair {i + 1}/{args.pairs} seed {seed} {side}: "
                      f"{results[side][-1]['metrics']}", file=sys.stderr)
            report["workloads"][workload] = {
                "pairs": i + 1,
                "seeds": seeds,
                "attempted": {side: sum(r["attempted"] for r in results[side]) for side in SIDES},
                "attempted_per_run": {side: [r["attempted"] for r in results[side]]
                                      for side in SIDES},
                "failed": {side: sum(r["failed"] for r in results[side]) for side in SIDES},
                "metrics": {spec["name"]: compare(spec, {
                    side: [r["metrics"][spec["name"]]["value"] for r in results[side]]
                    for side in SIDES}) for spec in specs},
            }
            args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
