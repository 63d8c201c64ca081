"""Start-up: importing heis imports no numpy, and neither does a verb that
needs no arrays.  `grid` and `checks` import numpy on their first use of it.

Each case runs in a fresh interpreter, since this test process has numpy.
"""

import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from heis import checks
from test_reports import CASES, GOLDEN

ROOT = pathlib.Path(__file__).resolve().parents[1]
ENV = {**os.environ, "PYTHONPATH": str(ROOT / "src")}


def fresh(*args: str) -> subprocess.CompletedProcess:
    """A fresh interpreter with this checkout's heis on its path, run on args."""
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=ENV,
                          cwd=ROOT, timeout=120)


def test_importing_the_program_imports_no_numpy():
    # the eight modules perfbench times the import of, imported as it does
    proc = fresh("-c", "import sys; sys.path.insert(0, 'perfbench'); import program; "
                       "program.import_heis(); missing = set(program.MODULES) - set(sys.modules); "
                       "print(sorted(missing), 'numpy' in sys.modules)")
    assert proc.stdout == "[] False\n", proc.stderr



def test_importing_the_program_imports_no_dataclasses_or_inspect():
    # the value types are no dataclasses, and nothing else pulls them in
    proc = fresh("-c", "import sys; sys.path.insert(0, 'perfbench'); import program; "
                       "program.import_heis(); print(sorted(m for m in ('dataclasses', 'inspect', "
                       "'numpy') if m in sys.modules))")
    assert proc.stdout == "[]\n", proc.stderr


# (argv, exit code): every verb that needs no arrays, help, and one refusal per exit code
NUMPY_FREE = {
    "mul": (["mul", "--n", "1", "1;2;3", "4;5;6"], 0),
    "inv": (["inv", "--n", "1", "1;2;3"], 0),
    "dilate": (["dilate", "--n", "1", "--r", "2", "1;1;1"], 0),
    "reduce": (["reduce", "--n", "1", "1.5;2.5;3.5"], 0),
    "parse": (["parse", "--n", "2", "a1^2 b2 c^-1"], 0),
    "norm": (["norm", "--n", "2", "b1 a1"], 0),
    "eval": (["eval", "--n", "2", "a1 b1"], 0),
    "siegel-mul": (["siegel-mul", "--n", "1", "1+2i;3", "4-1i;5"], 0),
    "siegel-act": (["siegel-act", "--n", "1", "1+2i;3", "0;10i"], 0),
    "relcheck": (["relcheck", "--n", "2"], 0),
    "help": (["rep-check", "--help"], 0),
    "parse-error": (["parse", "--n", "1", "a1^x"], 2),
    "domain-error": (["mul", "--n", "1", "1,2;3,4;5", "0;0;0"], 3),
    "usage-error": (["rep-check", "--L", "1"], 64),
}


@pytest.mark.parametrize("case", sorted(NUMPY_FREE))
def test_a_verb_without_arrays_imports_no_numpy(case):
    argv, code = NUMPY_FREE[case]
    proc = fresh("-c", "import contextlib, io, sys\n"
                       "from heis import cli\n"
                       "with contextlib.redirect_stdout(io.StringIO()), "
                       "contextlib.redirect_stderr(io.StringIO()):\n"
                       f"    code = cli.main({argv!r})\n"
                       "print(code, 'numpy' in sys.modules)")
    assert proc.stdout == f"{code} False\n", proc.stderr


def loaded_by_main(argv) -> str:
    """The exit code of `cli.main(argv)` in a fresh interpreter, and which of
    argparse, dataclasses and inspect it loaded."""
    return fresh("-c", "import contextlib, io, sys\n"
                       "from heis import cli\n"
                       "with contextlib.redirect_stdout(io.StringIO()), "
                       "contextlib.redirect_stderr(io.StringIO()):\n"
                       f"    code = cli.main({argv!r})\n"
                       "print(code, [m for m in ('argparse', 'dataclasses', 'inspect') "
                       "if m in sys.modules])").stdout


@pytest.mark.parametrize("case", sorted(NUMPY_FREE))
def test_only_help_and_usage_errors_import_argparse(case):
    # plain argv is read without a parser; only help and usage errors build one
    argv, code = NUMPY_FREE[case]
    loaded = ["argparse"] if case in ("help", "usage-error") else []
    assert loaded_by_main(argv) == f"{code} {loaded}\n"


@pytest.mark.parametrize("case", ["rep-check-n1-N8-seed0", "siegel-check-n2-seed5",
                                  "commutator-N16"])
def test_a_verb_with_arrays_prints_its_golden_bytes(case):
    proc = fresh("-m", "heis.cli", *CASES[case])
    assert (proc.returncode, proc.stdout) == (0, (GOLDEN / f"{case}.txt").read_text()), proc.stderr


def test_threads_that_first_use_grid_at_once_all_succeed():
    # the first attribute read imports numpy; the others wait for the whole module
    proc = fresh("-c", """
import sys, threading
from heis import grid

sys.setswitchinterval(1e-6)
barrier, results = threading.Barrier(8), [None] * 8


def first_use(i):
    barrier.wait()
    f = grid.GridFunction(grid.GridSpec(1, 8), [complex(i)] * 8)
    results[i] = grid.apply_T((i,), f).max_abs_diff(f)


threads = [threading.Thread(target=first_use, args=(i,)) for i in range(8)]
for thread in threads:
    thread.start()
for thread in threads:
    thread.join(60)
print(results, any(thread.is_alive() for thread in threads), grid.np is sys.modules["numpy"])
""")
    assert proc.stdout == f"{[0.0] * 8} False True\n", proc.stderr


def test_height_rounding_is_16_eps():
    assert checks.HEIGHT_ROUNDING == 16 * np.finfo(np.float64).eps
