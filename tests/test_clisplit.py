"""tools/clisplit.py: cli-session's time split by the kind of call."""

import importlib.util
import json
import math
import pathlib

from heis import cli

ROOT = pathlib.Path(__file__).resolve().parents[1]
spec = importlib.util.spec_from_file_location("clisplit", ROOT / "tools" / "clisplit.py")
clisplit = importlib.util.module_from_spec(spec)
spec.loader.exec_module(clisplit)


def test_the_split_covers_every_unit_and_its_shares_sum_to_one(tmp_path, capsys):
    # one block of the mix: 36 single-op calls, 9 invalid inputs, 4 check verbs
    out = tmp_path / "split.json"
    assert clisplit.main(["--seed", "11", "--units", "49", "--passes", "2", "--out", str(out)]) == 0
    result = json.loads(out.read_text())
    assert set(result) == {"seed", "units", "passes", "failed", "kinds"}
    assert (result["seed"], result["units"], result["passes"], result["failed"]) == (11, 49, 2, 0)
    rows = result["kinds"]
    assert all(set(row) == {"kind", "units", "median_us", "share"} for row in rows)
    assert sum(row["units"] for row in rows) == 49
    assert math.isclose(sum(row["share"] for row in rows), 1.0)
    assert [row["share"] for row in rows] == sorted((row["share"] for row in rows), reverse=True)
    kinds = {row["kind"] for row in rows}
    assert {"mul", "siegel-act", "rep-check", "siegel-check", "invalid:mul"} <= kinds
    assert all(kind.partition("invalid:")[2] in set(cli.VERBS) | {"unknown"}
               if kind.startswith("invalid:") else kind in cli.VERBS for kind in kinds)
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "cli-session seed=11 units=49 passes=2 failed=0"
    assert [line.split()[0] for line in lines[2:]] == [row["kind"] for row in rows]
