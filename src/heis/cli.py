"""The `heis` command-line front end.

One verb per library operation, stable text grammars, and fixed exit codes:

    0   success, or `heis <verb> --help`
    2   parse error (word or element literal)
    3   domain error (dimension or parameter out of range, unreadable file,
        an input too large for memory)
    4   a property-check verb found a violation
    64  unknown verb / usage error (missing, unknown or ill-typed argument)

Each verb is declared once, in `VERBS`: its parser, its synopsis in `USAGE`
and its dispatch are all built from that entry.  Plain argv (see `_read`) is
read with a table built from `VERBS` once per verb.  Only help, usage errors
and the shapes argparse alone reads build a verb's parser: `_verb_parser`
imports argparse, defines the parser's class and builds it once per verb in
a process, and parsing leaves it unchanged.  A lone trailing `--` is dropped
before either reads argv.
The environment (HEIS_SEED, COLUMNS) is read at call time.
Seeded verbs default their seed from the HEIS_SEED environment variable.
"""

from __future__ import annotations

import functools
import os
import re
import sys
from types import SimpleNamespace
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Tuple, Union

from . import checks, core, errors, grid, lattice, siegel, textio
from .errors import HeisError, LiteralSyntaxError, ParameterError, WordSyntaxError


class Verb(NamedTuple):
    summary: str
    # (flag or positional name, add_argument keywords: a metavar, and of the
    # rest only help, type, required, default and dest, which `_read` reads too)
    args: Tuple[Tuple[str, dict], ...]
    # the verb on its parsed arguments: output text, or a check's (report, ok)
    run: Callable[[Any], Union[str, Tuple[str, bool]]]


DIM = ("--n", dict(type=int, required=True, metavar="N", help="ambient dimension"))
WORD = ("word", dict(metavar="WORD", help="generator word, e.g. 'a1^2 b1 c^-1'"))
TRIALS = ("--trials", dict(type=int, default=100, metavar="TRIALS", help="random trials, >= 1"))
SEED = ("--seed", dict(default=None, metavar="SEED", help="defaults to HEIS_SEED, then 0"))
ELEM, CELEM, POINT = ({"metavar": m} for m in ("ELEM", "CELEM", "POINT"))


def _real(args, text: str) -> core.RealElement:
    return textio.parse_real_element(text, args.n)


def _word(args) -> lattice.Word:
    return lattice.parse_word(args.word, args.n)


def _seed(args) -> int:
    text = os.environ.get("HEIS_SEED", "0") if args.seed is None else args.seed
    try:
        return int(text)
    except ValueError:
        raise ParameterError(errors.digit_limit("seed") if re.fullmatch(INTEGER, text) else
                             f"seed must be a non-negative integer, got {text!r}") from None


def _reduce(args) -> str:
    red = core.coset_reduce(_real(args, args.elem))
    gamma = lattice._element(red.k, red.l, red.m)
    return textio.format_lattice_element(gamma) + "\n" + textio.format_real_element(red.rep)


def _commutator(args) -> Union[str, Tuple[str, bool]]:
    if args.infile is None:
        return checks.commutator_check(32 if args.N is None else args.N)
    if args.N is not None:  # the file fixes the grid
        _verb_parser("commutator").error("argument --in: not allowed with --N")
    with open(args.infile) as fh:
        f = grid.read_grid_function(fh)
    ones = (1.0,) * f.spec.n
    return f"interior defect: {grid.commutator_defect(ones, ones, f):.3e}"


VERBS: Dict[str, Verb] = {
    "mul": Verb("product in the real group", (DIM, ("lhs", ELEM), ("rhs", ELEM)),
                lambda a: textio.format_real_element(core.mul(_real(a, a.lhs), _real(a, a.rhs)))),
    "inv": Verb("corrected inverse (-x, -y, -t + x.y)", (DIM, ("elem", ELEM)),
                lambda a: textio.format_real_element(core.inverse(_real(a, a.elem)))),
    "dilate": Verb("anisotropic dilation (r x, r y, r^2 t) by r > 0",
                   (DIM, ("--r", dict(type=float, required=True, metavar="R")), ("elem", ELEM)),
                   lambda a: textio.format_real_element(
                       core.dilate(core.Dilation(a.r), _real(a, a.elem)))),
    "reduce": Verb("translator into [0,1)^(2n+1), then the coset representative",
                   (DIM, ("elem", ELEM)), _reduce),
    "parse": Verb("parse a generator word, echo its token form", (DIM, WORD),
                  lambda a: str(_word(a))),
    "norm": Verb("rewrite a word to normal form", (DIM, WORD),
                 lambda a: str(lattice.normalize_word(_word(a)))),
    "eval": Verb("evaluate a word to its integer triple", (DIM, WORD),
                 lambda a: textio.format_lattice_element(lattice.evaluate_word(_word(a)))),
    "relcheck": Verb("verify the defining relations exhaustively", (DIM,),
                     lambda a: checks.relation_check(a.n)),
    "rep-check": Verb(
        "grid-operator checks (Weyl relation, homomorphism, kernel)",
        (("--n", dict(type=int, default=1, metavar="N", help="ambient dimension")),
         ("--N", dict(type=int, default=16, metavar="GRID", help="samples per axis")),
         TRIALS, SEED),
        lambda a: checks.rep_check(a.n, a.N, a.trials, _seed(a))),
    "commutator": Verb(
        "difference/multiplication commutator convergence",
        (("--N", dict(type=int, metavar="GRID", help="coarse resolution, default 32")),
         ("--in", dict(dest="infile", metavar="FILE",
                       help="grid-function file: print its interior defect instead "
                            "(its header fixes the grid, so not with --N)"))),
        _commutator),
    "siegel-mul": Verb("product in the complex group", (DIM, ("lhs", CELEM), ("rhs", CELEM)),
                       lambda a: textio.format_complex_element(siegel.cmul(
                           textio.parse_complex_element(a.lhs, a.n),
                           textio.parse_complex_element(a.rhs, a.n)))),
    "siegel-act": Verb("affine action on the upper half-space",
                       (DIM, ("elem", CELEM), ("point", POINT)),
                       lambda a: textio.format_siegel_point(siegel.act(
                           textio.parse_complex_element(a.elem, a.n),
                           textio.parse_siegel_point(a.point, a.n)))),
    "siegel-check": Verb("height invariance, composition, dilation equivariance",
                         (DIM, TRIALS, SEED),
                         lambda a: checks.siegel_check(a.n, a.trials, _seed(a))),
}


def _synopsis(verb: str) -> str:
    words = [verb]
    for name, kw in VERBS[verb].args:
        word = f"{name} {kw['metavar']}" if name.startswith("-") else kw["metavar"]
        words.append(word if kw.get("required", not name.startswith("-")) else f"[{word}]")
    return " ".join(words)


LITERALS = """element literals: `x1,..,xn;y1,..,yn;t` (real), `k;l;m` (integer),
`re+imi,..;t` (complex element), `w1,..,wn;sigma` (half-space point).
A literal that starts with `-` but not with a number (`-1`, `-.5`, `-inf`,
`-nan`) goes after `--`: heis siegel-mul --n 1 -- "-i;0" "1;0"
"""
USAGE = ("usage: heis <verb> [options]      (heis <verb> --help describes one verb)\n\nverbs:\n"
         + "".join(f"  {_synopsis(v)}\n        {VERBS[v].summary}\n" for v in VERBS)
         + "\n" + LITERALS)


# argparse alone takes `-1e-3` or `-inf` for an option; read whatever float()
# reads as a value, as `--r=-1e-3` always is
NEGATIVE_NUMBER = re.compile(r"^-(\d|\.\d|inf|nan)", re.IGNORECASE)
INTEGER = r"\s*[+-]?\d+\s*"  # int() refuses such text only past its digit limit


@functools.cache  # at most one parser per verb in VERBS
def _verb_parser(verb: str):
    import argparse  # only for help, usage errors and the argv shapes `_read` leaves to it

    class Parser(argparse.ArgumentParser):
        # argparse exits 2 on a usage error; here 2 means a literal did not parse
        def error(self, message):  # name int()'s digit limit, not the digits type=int echoes
            message = re.sub(f"(argument \\S+): invalid int value: '{INTEGER}'",
                             lambda match: errors.digit_limit(match[1]), message)
            self.print_usage(sys.stderr)
            self.exit(64, f"error: {message}\n")

        def _get_values(self, action, arg_strings):
            # Python 3.11 reads a value `--` as []: `--opt=--` lacks its value as
            # `--opt --` does, and a positional `--` after the first is the text
            if arg_strings == ["--"]:
                if action.option_strings:
                    raise argparse.ArgumentError(action, "expected one argument")
                return "--"
            return super()._get_values(action, arg_strings)

    # no abbreviations: the options are exactly the ones VERBS declares
    p = Parser(prog=f"heis {verb}", description=VERBS[verb].summary, epilog=LITERALS,
               formatter_class=argparse.RawDescriptionHelpFormatter, allow_abbrev=False)
    p._negative_number_matcher = NEGATIVE_NUMBER  # private argparse attribute; tests pin it
    for name, kw in VERBS[verb].args:
        p.add_argument(name, **kw)
    return p


@functools.cache  # at most one table per verb in VERBS
def _table(verb: str) -> Tuple[frozenset, Tuple[str, ...], tuple]:
    """VERBS[verb]'s options, positionals and (name, dest, type, required, default)s."""
    args = VERBS[verb].args
    return (frozenset(name for name, _ in args if name.startswith("--")),
            tuple(name for name, _ in args if not name.startswith("-")),
            tuple((name, kw.get("dest", name.lstrip("-")), kw.get("type", str),
                   kw.get("required"), kw.get("default")) for name, kw in args))


def _read(verb: str, argv: List[str]) -> Optional[SimpleNamespace]:
    """What `_verb_parser(verb).parse_args(argv)` returns, read straight from
    VERBS, or None unless argv has the plain shape: each declared option at
    most once, as `--opt V` or `--opt=V`, exactly the declared positionals,
    and an optional `--` with a token after it.  argparse reads any other
    argv, and alone prints help and usage errors."""
    end = argv.index("--") if "--" in argv else len(argv)
    if end == len(argv) - 1 or "--" in argv[end + 1:]:
        # `main` drops a lone trailing `--`, but this reader still equals argparse on
        # every argv: Python 3.11 refuses some trailing `--` (`relcheck --n 1 --`)
        return None  # and reads a value `--` as []
    (options, names, fields), given, plain, tokens = _table(verb), {}, [], iter(argv[:end])
    for token in tokens:
        name, eq, value = token.partition("=")
        if name in options and name not in given:
            token = given[name] = value if eq else next(tokens, "--")
        else:
            plain.append(token)
        if token.startswith("-") and not NEGATIVE_NUMBER.match(token):
            return None  # help, an unknown, prefixed or repeated option, or a missing value
    plain += argv[end + 1:]
    if len(plain) != len(names):
        return None
    given.update(zip(names, plain))
    try:
        return SimpleNamespace(**{dest: convert(given[name]) if name in given or required else
                                  default for name, dest, convert, required, default in fields})
    except (KeyError, ValueError):  # a required option missing, or a value its type refuses
        return None


def main(argv: Optional[List[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv[-1:] == ["--"] and argv.count("--") == 1:
        argv.pop()  # marks nothing, so every verb ignores it (argparse refused some)
    if not argv or argv[0] not in VERBS:
        sys.stdout.write(USAGE)
        return 0 if argv[:1] in (["-h"], ["--help"]) else 64
    try:
        args = _read(argv[0], argv[1:]) or _verb_parser(argv[0]).parse_args(argv[1:])
        out = VERBS[argv[0]].run(args)
    except SystemExit as exc:  # argparse is done: help printed (0) or a usage error (64)
        return exc.code
    except (WordSyntaxError, LiteralSyntaxError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (HeisError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except MemoryError:
        print("error: the input is too large for memory", file=sys.stderr)
        return 3
    text, ok = (out + "\n", True) if isinstance(out, str) else out
    sys.stdout.write(text)
    return 0 if ok else 4


if __name__ == "__main__":
    sys.exit(main())
