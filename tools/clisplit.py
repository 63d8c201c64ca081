#!/usr/bin/env python3
"""Split perfbench's cli-session time by the kind of call.

    python3 tools/clisplit.py --seed 4013 [--passes 3] [--units 2000] [--out split.json]

Builds the cli-session pool for the seed, as `perfbench/run.py` does, by
importing `perfbench/workloads.py` (which it leaves unchanged), runs the
pool once untimed, then times each unit's `heis.cli.main` call in this
process for `--passes` passes.  A unit's kind is its verb for a valid call
and `invalid:<verb>` for an invalid input (`invalid:unknown` for an unknown
verb).  Per kind it prints the unit count, the median microseconds of one
call and the kind's share of the total time, largest share first; `--out`
writes the same table as json.  `failed` counts the units whose output the
workload's oracle refused on the untimed pass.  Timings are in process and
unlike perfbench's, so compare shares, not absolute values, with its runs.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _session():
    """perfbench's cli-session workload, on this checkout's `heis`."""
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]  # workloads imports `oracles`
    import workloads

    return workloads.WORKLOADS["cli-session"]


def _kind(unit) -> str:
    from heis import cli

    verb = unit.args[0][0]
    if unit.expect[0] == 0:
        return verb
    return f"invalid:{verb if verb in cli.VERBS else 'unknown'}"


def split(seed: int, units: int, passes: int) -> dict:
    session = _session()
    pool = session.make(seed, units)
    failed = sum(not session.verify(unit, session.run(unit.args)) for unit in pool)
    times = {}
    for _ in range(passes):
        for unit in pool:
            start = time.perf_counter_ns()
            session.run(unit.args)
            times.setdefault(_kind(unit), []).append(time.perf_counter_ns() - start)
    total = sum(map(sum, times.values()))
    kinds = [{"kind": kind, "units": len(ns) // passes,
              "median_us": statistics.median(ns) / 1e3, "share": sum(ns) / total}
             for kind, ns in times.items()]
    kinds.sort(key=lambda row: -row["share"])
    return {"seed": seed, "units": len(pool), "passes": passes, "failed": failed, "kinds": kinds}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--passes", type=int, default=3, help="timed passes over the pool")
    parser.add_argument("--units", type=int, default=2000, help="pool size, perfbench's by default")
    parser.add_argument("--out", type=Path, help="write the table as json")
    args = parser.parse_args(argv)
    if args.passes < 1 or args.units < 1:
        parser.error("--passes and --units must be >= 1")
    result = split(args.seed, args.units, args.passes)
    print(f"cli-session seed={result['seed']} units={result['units']} passes={result['passes']} "
          f"failed={result['failed']}")
    print(f"{'kind':<22} {'units':>6} {'median us':>10} {'share':>7}")
    for row in result["kinds"]:
        print(f"{row['kind']:<22} {row['units']:>6} {row['median_us']:>10.1f} {row['share']:>7.1%}")
    if args.out:
        args.out.write_text(json.dumps(result, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
