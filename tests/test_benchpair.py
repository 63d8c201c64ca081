"""tools/benchpair.py: the parent/change comparison that writes BENCH_*.json."""

import importlib.util
import json
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
spec = importlib.util.spec_from_file_location("benchpair", ROOT / "tools" / "benchpair.py")
benchpair = importlib.util.module_from_spec(spec)
spec.loader.exec_module(benchpair)


def argv(tmp_path, pairs):
    return ["--parent", str(ROOT), "--change", str(ROOT), "--workload", "cli-session",
            "--seed", "11", "--pairs", str(pairs), "--out", str(tmp_path / "bench.json")]


@pytest.mark.parametrize("pairs", [0, -1])
def test_no_pairs_is_a_usage_error(tmp_path, pairs, capsys):
    with pytest.raises(SystemExit) as info:
        benchpair.main(argv(tmp_path, pairs))
    assert info.value.code == 2 and "--pairs must be >= 1" in capsys.readouterr().err
    assert not (tmp_path / "bench.json").exists()


def test_each_run_keeps_its_unit_count(tmp_path, monkeypatch):
    counts = iter([100, 200, 300, 400])

    def fake_run(checkout, workload, seed, seconds):
        metrics = {spec["name"]: {"value": 1.0} for spec in
                   json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]}
        return {"attempted": next(counts), "failed": 0, "metrics": metrics}

    monkeypatch.setattr(benchpair, "run_once", fake_run)
    assert benchpair.main(argv(tmp_path, 2)) == 0
    report = json.loads((tmp_path / "bench.json").read_text())["workloads"]["cli-session"]
    # pair 1 runs the parent first, pair 2 the change first
    assert report["attempted_per_run"] == {"parent": [100, 400], "change": [200, 300]}
    assert report["attempted"] == {"parent": 500, "change": 500}
