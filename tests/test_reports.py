"""Golden reports: the check verbs' stdout, pinned byte for byte.

Each case names an argv of `heis`; its exact stdout is stored in
`tests/golden/<case>.txt`.  The reports print seeded samples and deviations
to three significant digits, so any change to the sampling order, the
operators or the report format shows up here.  The first rep-check cases are
the argv that perfbench's cli-session workload runs; two more run several
blocks of trials, so that the blocks' shared arrays are pinned too.

To regenerate the files after a deliberate change of the reports:

    PYTHONPATH=src python tests/test_reports.py

It prints each line it changes, as `file: 'old line' -> 'new line'`.
"""

import contextlib
import io
import itertools
import pathlib

import pytest

from heis import cli

GOLDEN = pathlib.Path(__file__).with_name("golden")

CASES = {
    **{f"rep-check-n1-N8-seed{s}": ["rep-check", "--n", "1", "--N", "8", "--trials", "20",
                                    "--seed", str(s)] for s in (0, 1, 271828)},
    **{f"rep-check-n2-N4-seed{s}": ["rep-check", "--n", "2", "--N", "4", "--trials", "5",
                                    "--seed", str(s)] for s in (0, 7)},
    "rep-check-n2-N16-seed3": ["rep-check", "--n", "2", "--N", "16", "--trials", "3", "--seed", "3"],
    "rep-check-defaults-seed0": ["rep-check", "--seed", "0"],
    # several blocks: 256, 256 and 88 trials; then two blocks of one trial each
    "rep-check-n2-N16-trials600-seed1": ["rep-check", "--n", "2", "--N", "16", "--trials", "600",
                                         "--seed", "1"],
    "rep-check-n1-N131072-trials2-seed1": ["rep-check", "--n", "1", "--N", "131072",
                                           "--trials", "2", "--seed", "1"],
    **{f"siegel-check-n{n}-seed{s}": ["siegel-check", "--n", str(n), "--trials", "20",
                                      "--seed", str(s)] for n in (1, 2, 3) for s in (0, 5)},
    **{f"relcheck-n{n}": ["relcheck", "--n", str(n)] for n in (1, 2, 3)},
    "commutator-N32": ["commutator", "--N", "32"],
    "commutator-N16": ["commutator", "--N", "16"],
}


def report(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(list(argv))
    return code, out.getvalue()


@pytest.mark.parametrize("case", sorted(CASES))
def test_report_matches_golden(case):
    code, text = report(CASES[case])
    assert code == 0
    assert text == (GOLDEN / f"{case}.txt").read_text()


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for case, argv in CASES.items():
        path = GOLDEN / f"{case}.txt"
        old = path.read_text().splitlines() if path.exists() else []
        text = report(argv)[1]
        for before, after in itertools.zip_longest(old, text.splitlines(), fillvalue=""):
            if before != after:
                print(f"{path.name}: {before!r} -> {after!r}")
        path.write_text(text)
