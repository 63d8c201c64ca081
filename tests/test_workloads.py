"""perfbench's own units, run and verified by each workload's oracle.

perfbench refuses a run in which any unit fails its oracle, but its own tests
run only as `python -m pytest perfbench`.  This loads `perfbench/workloads.py`
(which it leaves unchanged) and runs the units that exercise the word parser.
"""

import importlib
import pathlib
import sys

PERFBENCH = str(pathlib.Path(__file__).resolve().parents[1] / "perfbench")
sys.path.insert(0, PERFBENCH)  # workloads imports `oracles` from beside it
try:
    workloads = importlib.import_module("workloads")
finally:
    sys.path.remove(PERFBENCH)

SEED = 11


def _failed(name, count=None):
    """The args of each of the first `count` units of the workload's pool
    (the whole pool by default) whose output its oracle refuses."""
    workload = workloads.WORKLOADS[name]
    pool = workload.make(SEED, workload.pool_size)[:count]
    assert pool
    return [unit.args for unit in pool if not workload.verify(unit, workload.run(unit.args))]


def test_every_lattice_words_unit_passes_its_oracle():
    assert _failed("lattice-words") == []


def test_the_first_cli_session_units_pass_their_oracle():
    assert _failed("cli-session", 200) == []
