#!/usr/bin/env python3
"""Compare two checkouts of heis with alternating perfbench runs.

    python3 tools/benchpair.py --parent DIR --change DIR \\
        --workload cli-session --workload grid-weyl --seed 11 --seed 23 \\
        --test test_03_lattice_normal_form_oracle --verb mul --verb rep-check \\
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
that a change's growth or shrink sits next to its benchmark pairs, and
`src_code_lines` the lines of code among them: not blank, not a comment and
not inside a docstring, so that deleting prose does not read as a smaller
program.

Each `--test ID` names a criterion of `tests/test_acceptance.py`.  Pair i runs
it once in each checkout, each time in a fresh `python -m pytest` process, in
the same alternating order, and records the call-phase seconds that pytest's
`--durations` reports (unscaled, to its 0.01 s resolution).  Per criterion,
`acceptance` holds the same spread, pair wins and `gain_resolved` as a
workload metric, with no bound: it is a reading, not a gate.

Each `--verb NAME` names a row of `VERB_ARGV`: a `heis` verb on a fixed
argv, or `VERB@SIZE`, the verb at a realistic size.  Pair i times one fresh
`python -m heis.cli <argv>` process in each checkout, with PYTHONPATH set to
that checkout's `src` alone, in the same alternating order: the wall seconds
from start to exit, unscaled, start-up included, and the process's own peak
resident set (`ru_maxrss` from `os.wait4` on its pid, not RUSAGE_CHILDREN,
which keeps the largest child so far).  Linux starts a child's peak at the
resident set of the process that forked it, so no reading falls below
benchpair's own, about 15 MiB: the numpy-free verbs read that floor, the
check verbs (35 MiB and up) their own.  Per row,
`verb_argv` holds the argv and `verbs` the seconds' spread, pair wins and
`gain_resolved` as a criterion's, again with no bound, and the same for the
MiB under `peak_rss_mib`.
The file is rewritten after each pair, so an interrupted comparison keeps
the pairs it finished.
"""

from __future__ import annotations

import argparse
import ast
import contextlib
import json
import os
import platform
import re
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

SIDES = ("parent", "change")

# one fixed argv per heis verb: the single operations on small literals, the
# check verbs at their default sizes; then VERB@SIZE rows, check verbs at sizes
# where their own work outweighs start-up
VERB_ARGV = {
    "mul": ["mul", "--n", "2", "1,2;3,4;5", "-1,0.5;2,-3;0.25"],
    "inv": ["inv", "--n", "2", "1,2;3,4;5"],
    "dilate": ["dilate", "--n", "2", "--r", "3", "1,2;3,4;5"],
    "reduce": ["reduce", "--n", "2", "1.5,-2.25;3.75,4;-5.5"],
    "parse": ["parse", "--n", "2", "a1^2 b2 c^-1 a2 b1^-3"],
    "norm": ["norm", "--n", "2", "b1 a1 b2^2 a2^-1 c"],
    "eval": ["eval", "--n", "2", "b1 a1 b2^2 a2^-1 c"],
    "relcheck": ["relcheck", "--n", "2"],
    "rep-check": ["rep-check", "--seed", "0"],
    "commutator": ["commutator"],
    "siegel-mul": ["siegel-mul", "--n", "2", "1+2i,3-1i;5", "-2+0.5i,1i;-1"],
    "siegel-act": ["siegel-act", "--n", "2", "1+2i,3-1i;5", "0.5,1i;2+20i"],
    "siegel-check": ["siegel-check", "--n", "2", "--seed", "0"],
    "rep-check@2^20": ["rep-check", "--n", "1", "--N", "1048576", "--trials", "1", "--seed", "0"],
    "rep-check@n2-N64": ["rep-check", "--n", "2", "--N", "64", "--trials", "200", "--seed", "0"],
    "siegel-check@n200": ["siegel-check", "--n", "200", "--trials", "4096", "--seed", "0"],
    "siegel-check@n3-1e5": ["siegel-check", "--n", "3", "--trials", "100000", "--seed", "0"],
    "relcheck@n80": ["relcheck", "--n", "80"],
    # one fixed word of 2000 tokens: 250 copies of eight terms
    "eval@n3-2000": ["eval", "--n", "3", " ".join(["b1 a1 b2^2 a2^-1 c b3^-3 a3^4 a1^-2"] * 250)],
}


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


def run_test(checkout: Path, test: str) -> float:
    """The call-phase seconds of acceptance criterion `test`, run in a fresh
    pytest process in `checkout`."""
    node = f"tests/test_acceptance.py::{test}"
    cmd = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", node,
           "--durations=0", "--durations-min=0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, timeout=1800)
    call = re.search(rf"^([0-9.]+)s call +{re.escape(node)}$", proc.stdout, re.MULTILINE)
    if proc.returncode != 0 or call is None:
        raise SystemExit(f"error: {' '.join(cmd)} in {checkout} exited {proc.returncode}:\n"
                         f"{proc.stdout[-2000:]}{proc.stderr[-2000:]}")
    return float(call[1])


def run_child(cmd: list, cwd: Path, env: dict, timeout: float = 600) -> tuple:
    """The wall seconds and the peak resident MiB of one process running
    `cmd`, its stdout discarded; a process still running after `timeout`
    seconds is killed.  A nonzero exit stops the comparison."""
    with tempfile.TemporaryFile() as stderr:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=cwd, env=env, stdout=subprocess.DEVNULL, stderr=stderr)

        def kill():  # os.kill, not proc.kill, whose poll() could reap the child before wait4
            with contextlib.suppress(ProcessLookupError):  # reaped just as the timer fired
                os.kill(proc.pid, signal.SIGKILL)

        timer = threading.Timer(timeout, kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)  # this process's own figures
        finally:
            timer.cancel()
        seconds = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)  # reaped here, not by Popen
        if proc.returncode != 0:
            stderr.seek(0)
            raise SystemExit(f"error: {' '.join(cmd)} in {cwd} exited {proc.returncode}:\n"
                             f"{stderr.read()[-2000:].decode(errors='replace')}")
    return seconds, usage.ru_maxrss / 1024  # Linux counts ru_maxrss in KiB


def run_verb(checkout: Path, verb: str) -> tuple:
    """The wall seconds and the peak resident MiB of one fresh
    `python -m heis.cli` process running `verb`'s row of `VERB_ARGV` on
    `checkout`'s sources."""
    return run_child([sys.executable, "-m", "heis.cli", *VERB_ARGV[verb]], checkout,
                     {**os.environ, "PYTHONPATH": str(checkout / "src")})


def src_lines(checkout: Path) -> int:
    """The lines of `src/heis/*.py` in `checkout`, counted as `wc -l` does."""
    return sum(path.read_bytes().count(b"\n") for path in (checkout / "src" / "heis").glob("*.py"))


def src_code_lines(checkout: Path) -> int:
    """The lines of `src/heis/*.py` in `checkout` that are not blank, not a
    comment and not inside a module, class or function docstring."""
    total = 0
    for path in (checkout / "src" / "heis").glob("*.py"):
        text = path.read_text()
        prose = set()
        for node in ast.walk(ast.parse(text)):
            if (isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
                    and ast.get_docstring(node, clean=False) is not None):
                prose.update(range(node.body[0].lineno, node.body[0].end_lineno + 1))
        total += sum(1 for number, line in enumerate(text.splitlines(), 1)
                     if number not in prose and line.strip() and not line.lstrip().startswith("#"))
    return total


def summary(values: list) -> dict:
    if len(values) == 1:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def verdict(unit: str, better: str, runs: dict) -> dict:
    """One reading's paired runs: both sides' spread, the pairs the change
    won and whether it resolves a gain."""
    parent, change = summary(runs["parent"]), summary(runs["change"])
    sign = 1 if better == "higher" else -1
    wins = sum(sign * (c - p) > 0 for p, c in zip(runs["parent"], runs["change"]))
    pairs, parent_iqr = len(runs["parent"]), parent["q3"] - parent["q1"]
    return {
        "unit": unit,
        "better": better,
        "parent": parent,
        "change": change,
        # null for a reading at 0, as a criterion under 0.005 s reads
        "relative_change": ((change["median"] - parent["median"]) / parent["median"]
                            if parent["median"] else None),
        "change_wins": f"{wins}/{pairs}",
        "parent_iqr": parent_iqr,
        "gain_resolved": (pairs >= 10 and 10 * wins >= 9 * pairs
                          and sign * (change["median"] - parent["median"]) > parent_iqr),
        "runs": runs,
    }


def compare(spec: dict, runs: dict) -> dict:
    """One metric of one workload: `verdict`, and whether the change stays
    inside the metric's bound from BENCHMARK.json."""
    out = verdict(spec["unit"], spec["better"], runs)
    sign = 1 if spec["better"] == "higher" else -1
    return {**out, "bound": spec["bound"],
            "within_bound": sign * out["relative_change"] >= -spec["bound"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True, help="checkout of the parent")
    parser.add_argument("--change", type=Path, required=True, help="checkout of the change")
    parser.add_argument("--workload", action="append", default=[], help="repeatable")
    parser.add_argument("--seed", type=int, action="append", default=[],
                        help="repeatable; pair i takes the i-th, cycling; needed by --workload")
    parser.add_argument("--test", action="append", default=[],
                        help="a tests/test_acceptance.py criterion to time; repeatable")
    parser.add_argument("--verb", action="append", default=[], choices=VERB_ARGV,
                        help="a row of VERB_ARGV to time in fresh processes; repeatable")
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True, help="the BENCH_<n>.json to write")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error(f"--pairs must be >= 1, got {args.pairs}")
    if not args.workload and not args.test and not args.verb:
        parser.error("give at least one --workload, --test or --verb")
    if args.workload and not args.seed:
        parser.error("--workload needs at least one --seed")

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
        "src_code_lines": {side: src_code_lines(checkouts[side]) for side in SIDES},
        "workloads": {},
    }
    if args.test:
        report["acceptance_command"] = ("python -m pytest -q -p no:cacheprovider tests/"
                                        "test_acceptance.py::ID --durations=0 --durations-min=0")
        report["acceptance"] = {}
    if args.verb:
        report["verb_command"] = ("PYTHONPATH=<checkout>/src python -m heis.cli ARGV, one fresh "
                                  "process; wall seconds, unscaled, and its own ru_maxrss")
        report["verb_argv"] = {verb: VERB_ARGV[verb] for verb in args.verb}
        report["verbs"] = {}
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
    # each run's readings: (seconds,) for a criterion, (seconds, MiB) for a verb
    timed = ([("acceptance", test, lambda *at: (run_test(*at),)) for test in args.test]
             + [("verbs", verb, run_verb) for verb in args.verb])
    for section, name, run in timed:
        readings = {side: [] for side in SIDES}
        for i in range(args.pairs):
            for side in SIDES if i % 2 == 0 else SIDES[::-1]:
                readings[side].append(run(checkouts[side], name))
                print(f"{name} pair {i + 1}/{args.pairs} {side}: {readings[side][-1]}",
                      file=sys.stderr)

            def column(k):
                return {side: [r[k] for r in readings[side]] for side in SIDES}

            report[section][name] = {"pairs": i + 1, **verdict("s", "lower", column(0))}
            if section == "verbs":
                report[section][name]["peak_rss_mib"] = verdict("MiB", "lower", column(1))
            args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
