"""The `heis` command-line front end.

One verb per library operation, stable text grammars, and fixed exit codes:

    0   success
    2   parse error (word or element literal)
    3   domain error (dimension or parameter out of range)
    4   a property-check verb found a violation
    64  unknown verb / usage error

Seeded verbs default their seed from the HEIS_SEED environment variable.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional

from . import checks, core, grid, lattice, siegel, textio
from .errors import (
    DimensionError,
    HeisError,
    LiteralSyntaxError,
    ParameterError,
    WordSyntaxError,
)

VERBS = (
    "mul", "inv", "dilate", "reduce",
    "parse", "norm", "eval", "relcheck",
    "rep-check", "commutator",
    "siegel-mul", "siegel-act", "siegel-check",
)

USAGE = """usage: heis <verb> [options]

verbs:
  mul --n N ELEM ELEM        product in the real group
  inv --n N ELEM             corrected inverse
  dilate --n N --r R ELEM    anisotropic dilation (r x, r y, r^2 t)
  reduce --n N ELEM          coset representative in [0,1)^(2n+1) and its translator
  parse --n N WORD           parse a generator word, echo its token form
  norm --n N WORD            rewrite a word to normal form
  eval --n N WORD            evaluate a word to its integer triple
  relcheck --n N             verify the defining relations exhaustively
  rep-check --n N --N GRID [--L --lam --trials --seed --in FILE --out FILE]
                             grid-operator checks (Weyl relation, homomorphism, kernel)
  commutator --N GRID [--in FILE --out FILE]
                             difference/multiplication commutator convergence
  siegel-mul --n N CELEM CELEM   product in the complex group
  siegel-act --n N CELEM POINT   affine action on the upper half-space
  siegel-check --n N [--trials --seed]
                             height invariance, composition, dilation equivariance

element literals: `x1,..,xn;y1,..,yn;t` (real), `k;l;m` (integer),
`re+imi,..;t` (complex element), `w1,..,wn;sigma` (half-space point).
"""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise LiteralSyntaxError(message)


def _default_seed() -> int:
    return int(os.environ.get("HEIS_SEED", "0"))


def _verb_parser(verb: str) -> _Parser:
    p = _Parser(prog=f"heis {verb}", add_help=True)
    if verb in ("mul", "inv", "dilate", "reduce", "parse", "norm", "eval",
                "relcheck", "siegel-mul", "siegel-act", "siegel-check"):
        p.add_argument("--n", type=int, required=True, help="ambient dimension")
    if verb == "dilate":
        p.add_argument("--r", type=float, required=True, help="dilation factor, r > 0")
    if verb == "rep-check":
        p.add_argument("--n", type=int, default=1, help="ambient dimension")
        p.add_argument("--N", type=int, default=16, help="samples per axis")
        p.add_argument("--L", type=float, default=1.0, help="period length")
        p.add_argument("--lam", type=float, default=1.0, help="modulation scale")
    if verb == "commutator":
        p.add_argument("--N", type=int, default=32, help="coarse resolution")
        p.add_argument("--L", type=float, default=1.0, help="period length")
    if verb in ("rep-check", "siegel-check"):
        p.add_argument("--trials", type=int, default=100)
        p.add_argument("--seed", type=int, default=None,
                       help="defaults to HEIS_SEED, then 0")
    if verb in ("rep-check", "commutator"):
        p.add_argument("--in", dest="infile", default=None,
                       help="grid-function file to check instead of random samples")
        p.add_argument("--out", dest="outfile", default=None,
                       help="write the checked grid function here")
    if verb in ("mul", "siegel-mul"):
        p.add_argument("lhs")
        p.add_argument("rhs")
    if verb in ("inv", "dilate", "reduce"):
        p.add_argument("elem")
    if verb in ("parse", "norm", "eval"):
        p.add_argument("word")
    if verb == "siegel-act":
        p.add_argument("elem")
        p.add_argument("point")
    return p


def _emit_report(text: str, ok: bool) -> int:
    sys.stdout.write(text)
    return 0 if ok else 4


def _run_verb(verb: str, args: argparse.Namespace) -> int:
    if verb == "mul":
        g = textio.parse_real_element(args.lhs, args.n)
        h = textio.parse_real_element(args.rhs, args.n)
        print(textio.format_real_element(core.mul(g, h)))
    elif verb == "inv":
        g = textio.parse_real_element(args.elem, args.n)
        print(textio.format_real_element(core.inverse(g)))
    elif verb == "dilate":
        g = textio.parse_real_element(args.elem, args.n)
        print(textio.format_real_element(core.dilate(core.Dilation(args.r), g)))
    elif verb == "reduce":
        g = textio.parse_real_element(args.elem, args.n)
        red = core.coset_reduce(g)
        gamma = lattice.LatticeElement(red.k, red.l, red.m)
        print(textio.format_lattice_element(gamma))
        print(textio.format_real_element(red.rep))
    elif verb == "parse":
        print(str(lattice.parse_word(args.word, args.n)))
    elif verb == "norm":
        print(str(lattice.normalize_word(lattice.parse_word(args.word, args.n))))
    elif verb == "eval":
        g = lattice.evaluate_word(lattice.parse_word(args.word, args.n))
        print(textio.format_lattice_element(g))
    elif verb == "relcheck":
        return _emit_report(*checks.relation_check(args.n))
    elif verb == "rep-check":
        seed = args.seed if args.seed is not None else _default_seed()
        if args.infile is not None:
            with open(args.infile) as fh:
                f = grid.read_grid_function(fh)
            text, ok = checks.rep_check(f.spec.n, f.spec.N, args.trials, seed,
                                        f.spec.L, f.spec.lam)
            if args.outfile is not None:
                with open(args.outfile, "w") as fh:
                    grid.write_grid_function(f, fh)
            return _emit_report(text, ok)
        text, ok = checks.rep_check(args.n, args.N, args.trials, seed, args.L, args.lam)
        return _emit_report(text, ok)
    elif verb == "commutator":
        if args.infile is not None:
            with open(args.infile) as fh:
                f = grid.read_grid_function(fh)
            ones = (1.0,) * f.spec.n
            defect = grid.commutator_defect(ones, ones, f)
            print(f"interior defect: {defect:.3e}")
            if args.outfile is not None:
                with open(args.outfile, "w") as fh:
                    grid.write_grid_function(f, fh)
            return 0
        return _emit_report(*checks.commutator_check(args.N, L=args.L))
    elif verb == "siegel-mul":
        g = textio.parse_complex_element(args.lhs, args.n)
        h = textio.parse_complex_element(args.rhs, args.n)
        print(textio.format_complex_element(siegel.cmul(g, h)))
    elif verb == "siegel-act":
        g = textio.parse_complex_element(args.elem, args.n)
        p = textio.parse_siegel_point(args.point, args.n)
        print(textio.format_siegel_point(siegel.act(g, p)))
    elif verb == "siegel-check":
        seed = args.seed if args.seed is not None else _default_seed()
        return _emit_report(*checks.siegel_check(args.n, args.trials, seed))
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if not argv or argv[0] in ("-h", "--help"):
        sys.stdout.write(USAGE)
        return 0 if argv else 64
    verb = argv[0]
    if verb not in VERBS:
        sys.stdout.write(USAGE)
        return 64
    try:
        args = _verb_parser(verb).parse_args(argv[1:])
        return _run_verb(verb, args)
    except (WordSyntaxError, LiteralSyntaxError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (DimensionError, ParameterError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except HeisError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
