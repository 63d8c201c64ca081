"""Fuzz the CLI with argv drawn from the verb table `cli.VERBS`.

Each example picks a verb, a random subset of its declared options (each as
`--opt V` or `--opt=V`) and values for them and its positionals, drawn from
small integers, floats (negative ones also in exponent, `inf` and `nan` form),
element literals, generator words (with exponents past the digit limit of
int-to-text conversion among them), junk, and for options `--`, `-` and `-x`.
Whatever the argv, `main` must return a documented exit code, let no
exception escape and print no traceback.  Two more properties make `VERBS` the
whole grammar: a prefix of a declared option is not that option, and
`--opt V` means what `--opt=V` means for every V that float() reads.  A
verb's parser, built once and reused, answers an argv as a fresh one would.
And `cli._read`, which reads plain argv without a parser, either leaves an
argv to argparse or reads it exactly as argparse does.
"""

import contextlib
import io
import os

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from heis import cli

EXIT_CODES = {0, 2, 3, 4, 64}

# Options that set a size are always passed, bounded so that N^n <= 216 and a
# check verb runs at most 3 trials; every other option is passed or not.
# commutator's default grid is small, and its --in excludes --N, so there
# --N is passed or not too.
SIZE_BOUND = {"--n": 3, "--N": 6, "--trials": 3}


def _mostly(good, bad):
    """`good` four times in five, else `bad`."""
    return st.integers(0, 4).flatmap(lambda k: good if k else bad)


def _reads_as(kind: type, text: str) -> bool:
    try:
        kind(text)
    except ValueError:
        return False
    return True


# argv entries are C strings: no NUL, and no surrogates beyond what the OS decodes
JUNK = st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters="\x00"),
               max_size=10)
NEGATIVE = st.one_of(
    st.builds(lambda m, e: f"-{m}e{e}", st.sampled_from(["1", "2.5", ".5", "7"]),
              st.integers(-5, 5)),
    st.sampled_from(["-inf", "-Infinity", "-INF", "-nan", "-1E-3", "-.5", "-1_0"]),
)
REAL = st.one_of(
    st.integers(-9, 9).map(str),
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.sampled_from(["1e200", "-1e300", "1e160", "5e-324", "-0.0", "inf", "nan", "1..5", ""]),
    NEGATIVE,
)
COMPLEX = st.one_of(
    REAL,
    st.builds(lambda a, s, b: f"{a}{s}{b}i", REAL, st.sampled_from("+-"), REAL),
    st.builds(lambda b: f"{b}i", REAL),
    st.sampled_from(["i", "1+2j", "inf+0i", "1e160+0i"]),
)
# int() reads and str() prints at most 4300 digits by default: a 4400-digit
# exponent does not parse, and b1^X a1^X with a 4000-digit X evaluates to a
# central coordinate of 8000 digits, which does not print
TOKEN = st.builds(lambda g, j, e: f"{g}{j}{e}", st.sampled_from(["a", "b", "c", ""]),
                  st.sampled_from(["", "1", "2", "3", "4"]),
                  st.sampled_from(["", "^2", "^-3", "^0", "^x", "^" + "9" * 4000,
                                   "^-" + "9" * 4400]))


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


# values argparse reads as a separator, a positional and an option
DASHED = st.sampled_from(["--", "-", "-x"])


def _option_value(name: str, dim: int):
    if name in SIZE_BOUND:
        good = st.just(str(dim)) if name == "--n" else st.integers(-2, SIZE_BOUND[name]).map(str)
        not_int = st.one_of(REAL, JUNK, DASHED).filter(lambda t: not _reads_as(int, t))
        return _mostly(good, st.one_of(st.integers(-2, SIZE_BOUND[name]).map(str), not_int))
    return _mostly(st.one_of(REAL, st.integers(-3, 10**6).map(str), JUNK), DASHED)


@st.composite
def argvs(draw, verb=None):
    if verb is None:
        verb = draw(st.sampled_from(sorted(cli.VERBS)))
    dim = draw(st.integers(1, SIZE_BOUND["--n"]))
    args = cli.VERBS[verb].args
    options = [name for name, _ in args if name.startswith("-")]
    positionals = [kw["metavar"] for name, kw in args if not name.startswith("-")]
    argv = [verb]
    for name in draw(st.permutations(options)):
        if (name in SIZE_BOUND and verb != "commutator") or draw(st.booleans()):
            value = draw(_option_value(name, dim))
            argv += draw(st.sampled_from([[name, value], [f"{name}={value}"]]))
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


@st.composite
def prefixed_argvs(draw):
    """An argv with a proper prefix of one of the verb's options (or of
    --help), and a value for it, right after the verb."""
    argv = draw(argvs())
    names = [name for name, _ in cli.VERBS[argv[0]].args if name.startswith("-")]
    name = draw(st.sampled_from([n for n in names + ["--help"] if len(n) > 3]))
    prefix = name[:draw(st.integers(3, len(name) - 1))]
    return [argv[0], prefix, draw(_option_value(name, 1))] + argv[1:]


@st.composite
def reader_argvs(draw):
    """An argv of argvs(), half the time as it is, else with one of its verb's
    options repeated (spaced or joined, before any `--`, often with a dashed
    value) or with one or two more `--` anywhere after the verb."""
    argv = draw(argvs())
    options = [name for name, _ in cli.VERBS[argv[0]].args if name.startswith("-")]
    change = draw(st.sampled_from([None, None, "repeat", "--"]))
    if change == "repeat" and options:
        name = draw(st.sampled_from(options))
        value = draw(st.one_of(_option_value(name, 1), DASHED))
        end = argv.index("--") if "--" in argv else len(argv)
        argv[draw(st.integers(1, end)):0] = draw(
            st.sampled_from([[name, value], [f"{name}={value}"]]))
    elif change == "--":
        for _ in range(draw(st.integers(1, 2))):
            argv.insert(draw(st.integers(1, len(argv))), "--")
    return argv


def _run(argv, env_seed=None):
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
    return code, out.getvalue(), err.getvalue()


ENV_SEEDS = st.sampled_from([None, "0", "7", "-3", "abc", "1.5"])


@settings(max_examples=400, deadline=None)
@given(argv=argvs(), env_seed=ENV_SEEDS)
@example(argv=["commutator", "--in=--"], env_seed=None)  # Python 3.11's argparse reads []
@example(argv=["rep-check", "--seed=--", "--trials", "1"], env_seed=None)
@example(argv=["siegel-check", "--n", "1", "--trials", "1", "--seed=--"], env_seed=None)
def test_every_argv_ends_in_a_documented_exit_code(argv, env_seed):
    code, _, err = _run(argv, env_seed)
    assert code in EXIT_CODES, (argv, code)
    assert "Traceback" not in err


@settings(max_examples=150, deadline=None)
@given(argv=prefixed_argvs())
def test_option_prefixes_are_not_options(argv):
    code, out, err = _run(argv)
    # a usage error, unless a literal -h/--help further on printed the help first
    assert code == 64 or (code == 0 and out.startswith(f"usage: heis {argv[0]}")), (argv, code)
    assert "Traceback" not in err


@settings(max_examples=200, deadline=None)
@given(argv=argvs(), env_seed=ENV_SEEDS)
def test_joined_and_spaced_values_exit_alike(argv, env_seed):
    options = {name for name, _ in cli.VERBS[argv[0]].args if name.startswith("-")}
    end = argv.index("--") if "--" in argv else len(argv)
    joined, i = [], 0
    while i < len(argv):
        if i + 1 < end and argv[i] in options and _reads_as(float, argv[i + 1]):
            joined.append(f"{argv[i]}={argv[i + 1]}")
            i += 2
        else:
            joined.append(argv[i])
            i += 1
    spaced_code, spaced_out, _ = _run(argv, env_seed)
    joined_code, joined_out, _ = _run(joined, env_seed)
    assert (spaced_code, spaced_out) == (joined_code, joined_out), (argv, joined)


def _parser_state(verb):
    """What a parse could leave behind in the verb's cached parser."""
    parser = cli._verb_parser(verb)
    return dict(parser._defaults), [vars(action).copy() for action in parser._actions]


@settings(max_examples=150, deadline=None)
@given(data=st.data(), env_seed=ENV_SEEDS, other_env_seed=ENV_SEEDS,
       other_extra=st.sampled_from([None, "--help", "--frob"]))
def test_a_reused_parser_answers_as_a_fresh_one(data, env_seed, other_env_seed, other_extra):
    argv = data.draw(argvs(), label="argv")
    other = data.draw(argvs(argv[0]), label="other")
    if other_extra is not None:  # a help print or a usage error in between
        other.insert(1, other_extra)
    cli._verb_parser.cache_clear()
    fresh = _run(argv, env_seed)
    cli._verb_parser.cache_clear()
    _run(other, other_env_seed)  # builds the parser that argv now reuses
    state = _parser_state(argv[0])
    assert _run(argv, env_seed) == fresh, (argv, other)
    assert _parser_state(argv[0]) == state, argv


def _fields(namespace):
    """A namespace's values with their types: 2 is not 2.0, and nan is nan."""
    return sorted((name, repr(value)) for name, value in vars(namespace).items())


def _argparse_fields(argv):
    """The fields of what argparse alone reads from argv, or None for help
    or a usage error."""
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            return _fields(cli._verb_parser(argv[0]).parse_args(argv[1:]))
    except SystemExit:
        return None


@settings(max_examples=1000, deadline=None)
@given(argv=reader_argvs())
@example(argv=["dilate", "--n", "1", "--r", "2", "1;1;1"])  # 2.0, not 2
@example(argv=["rep-check", "--seed", "-x"])  # argparse reads `-x` as an option
@example(argv=["mul", "--n", "1", "--", "1;2;0", "3;4;0"])
def test_the_reader_reads_as_argparse_does(argv):
    read = cli._read(argv[0], argv[1:])
    if read is not None:
        assert _fields(read) == _argparse_fields(argv), argv


@pytest.mark.parametrize("argv, argparse_fields", [
    # a trailing `--` that no positional takes is an unrecognized argument
    # (cli.main drops a lone one before the reader or argparse sees it)
    (["relcheck", "--n", "1", "--"], None),
    (["rep-check", "--"], None),
    # one a positional takes is dropped
    (["inv", "--n", "1", "x", "--"], [("elem", "'x'"), ("n", "1")]),
    # `--opt=--` is refused as `--opt --` is; Python 3.11's argparse alone reads []
    (["rep-check", "--seed=--"], None),
    # a positional `--` after the first: Python 3.11's argparse alone reads []
    (["mul", "--n", "1", "x", "--", "--"], [("lhs", "'x'"), ("n", "1"), ("rhs", "'--'")]),
])
def test_the_reader_leaves_argparse_quirks_to_argparse(argv, argparse_fields):
    assert cli._read(argv[0], argv[1:]) is None
    assert _argparse_fields(argv) == argparse_fields
