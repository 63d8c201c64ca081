"""Fuzz the CLI with argv drawn from the verb table `cli.VERBS`.

Each example picks a verb, a random subset of its declared options and values
for them and its positionals, drawn from small integers, floats, element
literals, generator words and junk.  Whatever the argv, `main` must return a
documented exit code, let no exception escape and print no traceback.
"""

import contextlib
import io
import os

from hypothesis import given, settings
from hypothesis import strategies as st

from heis import cli

EXIT_CODES = {0, 2, 3, 4, 64}

# Options that set a size are always passed, bounded so that N^n <= 216 and a
# check verb runs at most 3 trials; every other option is passed or not.
SIZE_BOUND = {"--n": 3, "--N": 6, "--trials": 3}


def _mostly(good, bad):
    """`good` four times in five, else `bad`."""
    return st.integers(0, 4).flatmap(lambda k: good if k else bad)


def _not_an_int(text: str) -> bool:
    try:
        int(text)
    except ValueError:
        return True
    return False


# argv entries are C strings: no NUL, and no surrogates beyond what the OS decodes
JUNK = st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters="\x00"),
               max_size=10)
REAL = st.one_of(
    st.integers(-9, 9).map(str),
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.sampled_from(["1e200", "-1e300", "1e160", "5e-324", "-0.0", "inf", "nan", "1..5", ""]),
)
COMPLEX = st.one_of(
    REAL,
    st.builds(lambda a, s, b: f"{a}{s}{b}i", REAL, st.sampled_from("+-"), REAL),
    st.builds(lambda b: f"{b}i", REAL),
    st.sampled_from(["i", "1+2j", "inf+0i", "1e160+0i"]),
)
TOKEN = st.builds(lambda g, j, e: f"{g}{j}{e}", st.sampled_from(["a", "b", "c", ""]),
                  st.sampled_from(["", "1", "2", "3", "4"]),
                  st.sampled_from(["", "^2", "^-3", "^0", "^x"]))


def _literal(metavar: str, dim: int):
    """A literal of the kind `metavar` names, mostly with `dim` components."""
    def vector(component):
        return _mostly(st.lists(component, min_size=dim, max_size=dim),
                       st.lists(component, max_size=4)).map(",".join)

    return {
        "ELEM": st.builds(lambda x, y, t: f"{x};{y};{t}", vector(REAL), vector(REAL), REAL),
        "CELEM": st.builds(lambda z, t: f"{z};{t}", vector(COMPLEX), REAL),
        "POINT": st.builds(lambda w, s: f"{w};{s}", vector(COMPLEX), COMPLEX),
        "WORD": st.lists(TOKEN, max_size=6).map(" ".join),
    }[metavar]


def _option_value(name: str, dim: int):
    if name in SIZE_BOUND:
        good = st.just(str(dim)) if name == "--n" else st.integers(-2, SIZE_BOUND[name]).map(str)
        return _mostly(good, st.one_of(st.integers(-2, SIZE_BOUND[name]).map(str),
                                       st.one_of(REAL, JUNK).filter(_not_an_int)))
    return st.one_of(REAL, st.integers(-3, 10**6).map(str), JUNK)


@st.composite
def argvs(draw):
    verb = draw(st.sampled_from(sorted(cli.VERBS)))
    dim = draw(st.integers(1, SIZE_BOUND["--n"]))
    args = cli.VERBS[verb].args
    options = [name for name, _ in args if name.startswith("-")]
    positionals = [kw["metavar"] for name, kw in args if not name.startswith("-")]
    argv = [verb]
    for name in draw(st.permutations(options)):
        if name in SIZE_BOUND or draw(st.booleans()):
            argv += [name, draw(_option_value(name, dim))]
    if positionals and draw(_mostly(st.just(True), st.just(False))):
        argv.append("--")  # so that a literal may start with '-'
    for metavar in positionals:
        if draw(st.integers(0, 9)):
            kinds = [_literal(m, dim) for m in ("ELEM", "CELEM", "POINT", "WORD")]
            argv.append(draw(_mostly(_literal(metavar, dim), st.one_of(*kinds, JUNK))))
    if not draw(st.integers(0, 9)):
        argv.insert(draw(st.integers(1, len(argv))),
                    draw(st.sampled_from(["--help", "--frob", "--in", "--out"])))
    return argv


@settings(max_examples=400, deadline=None)
@given(argv=argvs(), env_seed=st.sampled_from([None, "0", "7", "-3", "abc", "1.5"]))
def test_every_argv_ends_in_a_documented_exit_code(argv, env_seed):
    saved = os.environ.pop("HEIS_SEED", None)
    if env_seed is not None:
        os.environ["HEIS_SEED"] = env_seed
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(argv))
    finally:
        os.environ.pop("HEIS_SEED", None)
        if saved is not None:
            os.environ["HEIS_SEED"] = saved
    assert code in EXIT_CODES, (argv, code)
    assert "Traceback" not in err.getvalue()
