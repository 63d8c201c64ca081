"""Checks on the benchmark itself.

    python3 -m pytest -q perfbench

Each test runs `run.py` in a subprocess with a one-second budget.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

import program

program.import_heis()

import workloads  # noqa: E402
from heis import cli  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEED = 7
COUNT_SUFFIXES = ("calls_per_op", "raised_per_op", "validated_per_op", "lmul_per_token",
                  "computed_bytes_per_op")


def bench(workload: str, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(SEED),
         "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300, check=True)
    return json.loads(done.stdout.splitlines()[-1])


@pytest.fixture(scope="module")
def traced_twice():
    return {name: (bench(name, 1), bench(name, 1)) for name in workloads.WORKLOADS}


def test_count_metrics_repeat_for_a_seed(traced_twice):
    for name, (first, second) in traced_twice.items():
        counts = {k: v["value"] for k, v in first["metrics"].items() if k.endswith(COUNT_SUFFIXES)}
        assert counts == {k: second["metrics"][k]["value"] for k in counts}, name


def test_no_unit_fails(traced_twice):
    for name, runs in traced_twice.items():
        for result in runs:
            assert result["correct"] and result["failed"] == 0, name


def test_known_defects_are_reported(traced_twice):
    present = 0
    for _, argv, code in workloads.KNOWN_DEFECTS:
        try:
            present += cli.main(list(argv)) != code
        except Exception:
            present += 1
    for name, runs in traced_twice.items():
        for result in runs:
            assert result["metrics"]["cli.known_defects"]["value"] == present, name


def test_metrics_match_benchmark_json(traced_twice):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    for first, _ in traced_twice.values():
        assert {k: v["unit"] for k, v in first["metrics"].items()} == per_layer
    end_to_end = bench("group-law", 0)
    assert end_to_end["failed"] == 0
    assert ({k: v["unit"] for k, v in end_to_end["metrics"].items()}
            == {m["name"]: m["unit"] for m in spec["end_to_end"]})
    assert all(v["value"] > 0 for v in end_to_end["metrics"].values())
