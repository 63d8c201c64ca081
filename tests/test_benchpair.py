"""tools/benchpair.py: the parent/change comparison that writes BENCH_*.json."""

import importlib.util
import json
import os
import pathlib
import subprocess
import sys
import types

import pytest

from heis import cli

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


THROUGHPUT = {"name": "throughput_ops_s", "unit": "1/s", "better": "higher", "bound": 0.15}
LATENCY = {"name": "latency_p50_us", "unit": "us", "better": "lower", "bound": 0.15}
PARENT = [100.0, 101.0, 99.0, 100.5, 99.5, 100.0, 101.0, 99.0, 100.5, 99.5]  # quartiles 1.0 apart


@pytest.mark.parametrize("spec, change, resolved", [
    (THROUGHPUT, [v + 5 for v in PARENT], True),
    (THROUGHPUT, [v + 5 for v in PARENT[:-1]] + [PARENT[-1]], True),  # 9 wins and a tie
    (THROUGHPUT, [v + 5 for v in PARENT[:-2]] + PARENT[-2:], False),  # 8 wins and 2 ties
    (THROUGHPUT, [v + 0.5 for v in PARENT], False),  # every pair won, inside the parent's IQR
    (THROUGHPUT, [v - 5 for v in PARENT], False),  # a loss
    (LATENCY, [v - 5 for v in PARENT], True),
    (LATENCY, [v + 5 for v in PARENT], False),
], ids=["all-won", "tie", "two-ties", "inside-iqr", "higher-is-worse", "lower-is-better",
        "lower-is-worse"])
def test_gain_resolved(spec, change, resolved):
    got = benchpair.compare(spec, {"parent": PARENT, "change": change})
    assert got["parent_iqr"] == pytest.approx(1.0)
    assert got["gain_resolved"] is resolved


def test_fewer_than_ten_pairs_resolve_no_gain():
    parent = PARENT[:9]
    got = benchpair.compare(THROUGHPUT, {"parent": parent, "change": [v + 5 for v in parent]})
    assert got["change_wins"] == "9/9" and got["gain_resolved"] is False


def test_src_lines_counts_each_checkout(tmp_path, monkeypatch):
    """`src_lines` holds each side's total line count of src/heis/*.py, and
    `src_code_lines` those lines that are not blank, a comment or a docstring."""
    sizes = {"parent": {"a.py": 3, "b.py": 4}, "change": {"a.py": 3, "b.py": 1, "c.py": 2}}
    for side, files in sizes.items():
        package = tmp_path / side / "src" / "heis"
        package.mkdir(parents=True)
        for name, lines in files.items():
            (package / name).write_text("x = 1\n" * lines)
        (package / "notes.txt").write_text("not counted\n" * 5)
    # 10 lines, of which 3 are code: `x = ...`, `def f():` and `return x  # ...`
    (tmp_path / "change" / "src" / "heis" / "d.py").write_text(
        '"""A module docstring\n\nover three lines."""\n'
        "# a comment\n"
        "\n"
        'x = """a string, not a docstring"""\n'
        "def f():\n"
        "    '''One line.'''\n"
        "    # an indented comment\n"
        "    return x  # a comment after code\n")
    (tmp_path / "change" / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    specs = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    monkeypatch.setattr(benchpair, "run_once", lambda *args: {
        "attempted": 1, "failed": 0, "metrics": {s["name"]: {"value": 1.0} for s in specs}})
    out = tmp_path / "bench.json"
    assert benchpair.main(["--parent", str(tmp_path / "parent"), "--change",
                           str(tmp_path / "change"), "--workload", "cli-session", "--seed", "1",
                           "--pairs", "1", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["src_lines"] == {"parent": 7, "change": 16}
    assert report["src_code_lines"] == {"parent": 7, "change": 9}


CRITERION = "test_03_lattice_normal_form_oracle"


def checkouts(tmp_path):
    for side in ("parent", "change"):
        (tmp_path / side).mkdir()
    (tmp_path / "change" / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    return ["--parent", str(tmp_path / "parent"), "--change", str(tmp_path / "change")]


def test_acceptance_pairs_alternate_and_record_call_seconds(tmp_path, monkeypatch):
    """--test alone runs the criterion in a fresh pytest process per side and
    pair, alternating which side goes first, and keeps the call phase only."""
    calls = []

    def fake_run(cmd, cwd, **kwargs):
        calls.append(pathlib.Path(cwd).name)
        assert cmd[1:3] == ["-m", "pytest"] and "--durations=0" in cmd
        node = f"tests/test_acceptance.py::{CRITERION}"
        assert node in cmd
        call = {"parent": 3.0, "change": 2.0}[calls[-1]] + len(calls) / 100
        out = (f".\n{'=' * 10} slowest durations {'=' * 10}\n{call:.2f}s call     {node}\n"
               f"0.50s setup    {node}\n0.00s teardown {node}\n1 passed in 4.00s\n")
        return subprocess.CompletedProcess(cmd, 0, out, "")

    monkeypatch.setattr(benchpair.subprocess, "run", fake_run)
    out = tmp_path / "bench.json"
    assert benchpair.main(checkouts(tmp_path) + ["--test", CRITERION, "--pairs", "10",
                                                 "--out", str(out)]) == 0
    assert calls == ["parent", "change", "change", "parent"] * 5
    report = json.loads(out.read_text())
    assert report["workloads"] == {}
    got = report["acceptance"][CRITERION]
    assert got["pairs"] == 10 and got["unit"] == "s" and got["better"] == "lower"
    assert got["runs"]["parent"][:2] == [3.01, 3.04] and got["runs"]["change"][:2] == [2.02, 2.03]
    assert got["change_wins"] == "10/10" and got["gain_resolved"] is True
    assert "bound" not in got


def test_a_failing_criterion_stops_the_comparison(tmp_path, monkeypatch):
    monkeypatch.setattr(benchpair.subprocess, "run", lambda cmd, **kwargs:
                        subprocess.CompletedProcess(cmd, 1, "F\n1 failed in 1.00s\n", ""))
    with pytest.raises(SystemExit, match="exited 1"):
        benchpair.main(checkouts(tmp_path) + ["--test", CRITERION, "--pairs", "1",
                                              "--out", str(tmp_path / "bench.json")])


@pytest.mark.parametrize("extra, message", [
    ([], "give at least one --workload, --test or --verb"),
    (["--verb", "frobnicate"], "argument --verb: invalid choice: 'frobnicate'"),
    (["--workload", "cli-session"], "--workload needs at least one --seed"),
], ids=["nothing-to-run", "unknown-verb", "workload-without-seed"])
def test_what_to_run_is_a_usage_error_when_missing(tmp_path, extra, message, capsys):
    with pytest.raises(SystemExit) as info:
        benchpair.main(checkouts(tmp_path) + extra + ["--pairs", "1",
                                                      "--out", str(tmp_path / "bench.json")])
    assert info.value.code == 2 and message in capsys.readouterr().err


SIZED_ROWS = {
    "rep-check@2^20": ["rep-check", "--n", "1", "--N", "1048576", "--trials", "1", "--seed", "0"],
    "rep-check@n2-N64": ["rep-check", "--n", "2", "--N", "64", "--trials", "200", "--seed", "0"],
    "siegel-check@n200": ["siegel-check", "--n", "200", "--trials", "4096", "--seed", "0"],
    "siegel-check@n3-1e5": ["siegel-check", "--n", "3", "--trials", "100000", "--seed", "0"],
    "relcheck@n80": ["relcheck", "--n", "80"],
    "eval@n3-2000": ["eval", "--n", "3", " ".join(["b1 a1 b2^2 a2^-1 c b3^-3 a3^4 a1^-2"] * 250)],
}


def test_every_verb_has_a_fixed_argv():
    """A row per verb, in the CLI's order, then the check verbs at sizes
    where their own work outweighs start-up; a row's argv runs its verb."""
    verbs = list(cli.VERBS)
    assert list(benchpair.VERB_ARGV) == verbs + list(SIZED_ROWS)
    assert {row: benchpair.VERB_ARGV[row] for row in SIZED_ROWS} == SIZED_ROWS
    assert all(argv[0] == row.split("@")[0] for row, argv in benchpair.VERB_ARGV.items())


class FakeChild:
    """`subprocess.Popen` for `run_child`: records each child's checkout, and
    `wait4` reaps it with a peak RSS in KiB that depends on the side."""

    def __init__(self, code=0):
        self.calls, self.argv, self.code = [], [], code

    def popen(self, cmd, cwd, env, stdout, stderr):
        self.calls.append(pathlib.Path(cwd).name)
        self.argv.append(cmd[3:])
        assert env["PYTHONPATH"] == str(pathlib.Path(cwd) / "src")
        assert cmd[:3] == [sys.executable, "-m", "heis.cli"] and stdout is subprocess.DEVNULL
        if self.code:
            stderr.write(b"error: bad\n")
        return types.SimpleNamespace(pid=4242, returncode=None, kill=lambda: None)

    def wait4(self, pid, options):
        assert pid == 4242 and options == 0
        kib = {"parent": 200 * 1024, "change": 150 * 1024}[self.calls[-1]]
        return pid, self.code << 8, types.SimpleNamespace(ru_maxrss=kib + len(self.calls))


def fake_children(monkeypatch, code=0):
    child = FakeChild(code)
    monkeypatch.setattr(benchpair.subprocess, "Popen", child.popen)
    monkeypatch.setattr(benchpair.os, "wait4", child.wait4)
    return child


def test_verb_pairs_alternate_fresh_processes_on_each_checkout(tmp_path, monkeypatch):
    """--verb runs `python -m heis.cli` on the row's argv once per side and
    pair, alternating which side goes first, each on its own sources, and
    keeps each child's own peak RSS beside its seconds."""
    child = fake_children(monkeypatch)
    out = tmp_path / "bench.json"
    assert benchpair.main(checkouts(tmp_path) + ["--verb", "mul", "--verb", "rep-check@2^20",
                                                 "--pairs", "3", "--out", str(out)]) == 0
    assert child.calls == ["parent", "change", "change", "parent", "parent", "change"] * 2
    assert child.argv == [benchpair.VERB_ARGV[row] for row in ("mul", "rep-check@2^20")
                          for _ in range(6)]
    report = json.loads(out.read_text())
    assert report["workloads"] == {} and "acceptance" not in report
    assert report["verb_argv"] == {verb: benchpair.VERB_ARGV[verb]
                                   for verb in ("mul", "rep-check@2^20")}
    assert list(report["verbs"]) == ["mul", "rep-check@2^20"]
    for got in report["verbs"].values():
        assert got["pairs"] == 3
        assert got["unit"] == "s" and got["better"] == "lower" and "bound" not in got
        assert {len(runs) for runs in got["runs"].values()} == {3}
        assert set(got["parent"]) == set(got["change"]) == {"median", "q1", "q3"}
        assert {"change_wins", "parent_iqr", "relative_change", "gain_resolved"} <= set(got)
        rss = got["peak_rss_mib"]
        assert rss["unit"] == "MiB" and rss["better"] == "lower" and "bound" not in rss
        assert set(rss) == set(got) - {"pairs", "peak_rss_mib"}
        assert rss["change_wins"] == "3/3"
    # the k-th child read 200 or 150 MiB and k KiB, in the order the children ran
    assert report["verbs"]["mul"]["peak_rss_mib"]["runs"] == {
        "parent": [200 + 1 / 1024, 200 + 4 / 1024, 200 + 5 / 1024],
        "change": [150 + 2 / 1024, 150 + 3 / 1024, 150 + 6 / 1024]}


def test_a_failing_verb_stops_the_comparison(tmp_path, monkeypatch):
    fake_children(monkeypatch, code=3)
    with pytest.raises(SystemExit, match="exited 3:\nerror: bad"):
        benchpair.main(checkouts(tmp_path) + ["--verb", "mul", "--pairs", "1",
                                              "--out", str(tmp_path / "bench.json")])


def test_each_child_reads_its_own_peak_rss():
    """A child that holds a 96 MiB string reads 64 MiB more than one that holds
    32 MiB, and a 32 MiB child reaped after the 96 MiB one reads its own
    figure, not the largest child's so far (RUSAGE_CHILDREN would).

    Linux starts a child's peak from its parent's resident set at the fork,
    so the children are started from a fresh interpreter, not from pytest.
    Both strings sit above that start, so 1 MiB covers the noise."""
    helper = (f"import importlib.util, json, os, sys\n"
              f"spec = importlib.util.spec_from_file_location('b', {str(spec.origin)!r})\n"
              "b = importlib.util.module_from_spec(spec)\n"
              "spec.loader.exec_module(b)\n"
              "print(json.dumps([b.run_child([sys.executable, '-c', f'x = b\"x\" * ({mib} << 20)'], "
              "'.', dict(os.environ))[1] for mib in (32, 96, 32)]))\n")
    proc = subprocess.run([sys.executable, "-c", helper], capture_output=True, text=True,
                          timeout=120, check=True)
    small, large, small_after = json.loads(proc.stdout)
    assert large - small > 64 - 1
    assert abs(small_after - small) < 1


def test_a_child_past_its_timeout_is_killed():
    with pytest.raises(SystemExit, match="exited -9"):
        benchpair.run_child([sys.executable, "-c", "import time; time.sleep(60)"], ROOT,
                            dict(os.environ), timeout=0.5)
