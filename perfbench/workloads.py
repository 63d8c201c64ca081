"""The benchmark's four workloads.

Each workload generates its units from a seed before any timing, runs one
unit as a sequence of calls into the program's public API (the timed part),
and verifies the unit's outputs against `oracles` afterwards (untimed).
Generation is sequential from one random stream, so the first k units of a
pool are the same whatever the pool size.

Why each workload exists, which layers it stresses and which it bypasses are
set out in README.md next to this file.
"""

from __future__ import annotations

import io
import math
import random
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable, Dict, List, Sequence, Tuple

import numpy as np

from heis import cli, core, grid, lattice, siegel

import oracles

WARMUP_UNITS = 64
EXPONENTS = tuple(e for e in range(-5, 6) if e != 0)
DIL_FACTORS = (0.5, 1.0, 2.0, 10.0)


@dataclass
class Unit:
    """One workload request: program inputs, what the oracle expects of it,
    and the number of word tokens it carries."""

    args: Tuple[Any, ...]
    expect: Any = None
    tokens: int = 0


class Workload:
    name: str
    pool_size: int

    def make(self, seed: int, count: int) -> List[Unit]:
        raise NotImplementedError

    def run(self, args: Tuple[Any, ...]) -> Any:
        raise NotImplementedError

    def verify(self, unit: Unit, out: Any) -> bool:
        raise NotImplementedError


def _rel_dev(a: Sequence[complex], b: Sequence[complex]) -> float:
    scale = max([1.0] + [abs(v) for v in a])
    return max(abs(x - y) for x, y in zip(a, b)) / scale


# --- grid-weyl ----------------------------------------------------------------

class GridWeyl(Workload):
    """One rep-check trial: the Weyl relation both ways, the homomorphism and
    the inverse, at (n, N) cycling over {1, 2} x {4, 8, 16}."""

    name = "grid-weyl"
    pool_size = 1200  # 200 units of each size: short passes, so many samples per unit
    SIZES = tuple((n, N) for n in (1, 2) for N in (4, 8, 16))
    TOL = 1e-12

    def make(self, seed, count):
        rng = np.random.default_rng(seed)
        specs = {size: grid.GridSpec(*size) for size in self.SIZES}
        units = []
        for i in range(count):
            n, N = self.SIZES[i % len(self.SIZES)]

            def vec():
                return tuple(int(v) for v in rng.integers(0, N, size=n))

            p, q, s = vec(), vec(), int(rng.integers(0, N))
            p2, q2, s2 = vec(), vec(), int(rng.integers(0, N))
            shape = (N,) * n
            values = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
            units.append(Unit((specs[(n, N)], p, q, s, p2, q2, s2, values)))
        return units

    def run(self, args):
        spec, p, q, s, p2, q2, s2, values = args
        f = grid.GridFunction(spec, values)
        alpha = grid.weyl_alpha(p, q, spec)
        tf = grid.apply_T(p, f)
        lhs = grid.apply_U(q, tf)
        rhs = grid.apply_T(p, grid.apply_U(q, grid.apply_C(alpha, f)))
        uf = grid.apply_U(q, f)
        lhs2 = grid.apply_T(p, uf)
        rhs2 = grid.apply_C(alpha.conjugate(), grid.apply_U(q, grid.apply_T(p, f)))
        g = grid.QuantizedTriple(p, q, s)
        g2 = grid.QuantizedTriple(p2, q2, s2)
        composed = grid.rep(g, spec)(grid.rep(g2, spec)(f))
        direct = grid.rep(grid.triple_mul(g, g2), spec)(f)
        undone = grid.rep(grid.triple_inverse(g), spec)(grid.rep(g, spec)(f))
        pairs = ((lhs, rhs), (lhs2, rhs2), (composed, direct), (undone, f))
        return f, tf, uf, direct, pairs, tuple(a.max_abs_diff(b) for a, b in pairs)

    def verify(self, unit, out):
        spec, p, q, s, p2, q2, s2, values = unit.args
        f, tf, uf, direct, pairs, devs = out
        N = spec.N
        if not np.array_equal(f.values, values):
            return False
        if not np.array_equal(tf.values, oracles.shifted(values, p)):
            return False
        if oracles.max_abs_diff(uf.values, oracles.modulated(values, q)) > self.TOL:
            return False
        # rep(g g') f = T_P U_Q (exp(2 pi i S / N) f) with (P, Q, S) = (p, q, s)(p', q', s')
        P = [a + b for a, b in zip(p, p2)]
        Q = [a + b for a, b in zip(q, q2)]
        S = s + s2 + sum(a * b for a, b in zip(p2, q))
        want = oracles.shifted(oracles.modulated(np.exp(2j * np.pi * (S % N) / N) * values, Q), P)
        if oracles.max_abs_diff(direct.values, want) > self.TOL:
            return False
        for (a, b), dev in zip(pairs, devs):
            mine = oracles.max_abs_diff(a.values, b.values)
            if mine > self.TOL or abs(dev - mine) > 1e-15:
                return False
        return True


# --- lattice-words ------------------------------------------------------------

def random_tokens(rng: random.Random, n: int, length: int) -> List[oracles.Token]:
    tokens = []
    for _ in range(length):
        kind = rng.choice("abc")
        tokens.append((kind, 0 if kind == "c" else rng.randint(1, n), rng.choice(EXPONENTS)))
    return tokens


def _token_tuples(word) -> Tuple[oracles.Token, ...]:
    return tuple((tok.kind, tok.index, tok.exponent) for tok in word.tokens)


class LatticeWords(Workload):
    """parse -> evaluate -> normalize -> evaluate the normal form for one random
    word, plus a normal-form round trip of one random triple."""

    name = "lattice-words"
    pool_size = 3000
    MAX_TOKENS = 50

    def make(self, seed, count):
        rng = random.Random(seed)
        units = []
        lengths = []
        for i in range(count):
            # Lengths come in shuffled blocks of 0..50 and n cycles, so every
            # seed's pool holds the same amount of work.
            if not lengths:
                lengths = list(range(self.MAX_TOKENS + 1))
                rng.shuffle(lengths)
            n = 1 + i % 3
            tokens = random_tokens(rng, n, lengths.pop())
            triple = (tuple(rng.randint(-100, 100) for _ in range(n)),
                      tuple(rng.randint(-100, 100) for _ in range(n)),
                      rng.randint(-100, 100))
            expect = (tuple(tokens), oracles.evaluate_tokens(tokens, n))
            units.append(Unit((oracles.word_text(tokens), n, triple), expect, tokens=len(tokens)))
        return units

    def run(self, args):
        text, n, (k, l, m) = args
        w = lattice.parse_word(text, n)
        g = lattice.evaluate_word(w)
        nf = lattice.normalize_word(w)
        g_nf = lattice.evaluate_word(nf)
        back = lattice.evaluate_word(lattice.normal_form(lattice.LatticeElement(k, l, m)))
        return w, g, nf, g_nf, back

    def verify(self, unit, out):
        w, g, nf, g_nf, back = out
        tokens, want = unit.expect

        def triple(e):
            return e.k, e.l, e.m

        return (_token_tuples(w) == tokens and triple(g) == want
                and _token_tuples(nf) == oracles.normal_form_tokens(*want)
                and triple(g_nf) == want and triple(back) == unit.args[2])


# --- group-law ----------------------------------------------------------------

def _real_dev(a: core.RealElement, b: core.RealElement) -> float:
    return max(abs(u - v) for u, v in zip(a.x + a.y + (a.t,), b.x + b.y + (b.t,)))


class GroupLaw(Workload):
    """One scalar trial of the real group (associativity, both-sided inverse,
    dilation homomorphism, coset reduction) and of the Siegel action (height
    invariance, composition, dilation equivariance)."""

    name = "group-law"
    pool_size = 4000
    EXACT_EVERY = 4  # units whose mul and act are also checked in exact arithmetic

    def make(self, seed, count):
        rng = np.random.default_rng(seed)
        units = []
        for i in range(count):
            n = 1 + i % 3
            real = [rng.uniform(-10, 10, size=2 * n + 1).tolist() for _ in range(3)]
            real = [(tuple(v[:n]), tuple(v[n:2 * n]), v[2 * n]) for v in real]
            r = float(rng.uniform(0.1, 10.0))

            def cvec():
                v = rng.uniform(-10, 10, size=2 * n).tolist()
                return tuple(complex(v[2 * j], v[2 * j + 1]) for j in range(n))

            celem = [(cvec(), float(rng.uniform(-10, 10))) for _ in range(2)]
            point = (cvec(), complex(*rng.uniform(-10, 10, size=2).tolist()))
            units.append(Unit((*real, r, *celem, point), expect=i % self.EXACT_EVERY == 0))
        return units

    def run(self, args):
        gv, hv, kv, r, cv, cv2, pv = args
        g, h, k = core.RealElement(*gv), core.RealElement(*hv), core.RealElement(*kv)
        gh = core.mul(g, h)
        assoc = (core.mul(gh, k), core.mul(g, core.mul(h, k)))
        ginv = core.inverse(g)
        inverse = (core.mul(g, ginv), core.mul(ginv, g))
        d = core.Dilation(r)
        dilation = (core.dilate(d, gh), core.mul(core.dilate(d, g), core.dilate(d, h)))
        red = core.coset_reduce(g)
        recomposed = core.mul(core.embed_integer(red.k, red.l, red.m), g)

        cg, cg2 = siegel.ComplexElement(*cv), siegel.ComplexElement(*cv2)
        p = siegel.SiegelPoint(*pv)
        moved = siegel.act(cg, p)
        heights = (siegel.height(moved), siegel.height(p))
        composes = siegel.act_compose_check(cg, cg2, p)
        equivariance = []
        for factor in DIL_FACTORS:
            dd = siegel.ComplexDilation(factor)
            equivariance.append((siegel.domain_dilate(dd, siegel.act(cg, p)),
                                 siegel.act(siegel.cdilate(dd, cg), siegel.domain_dilate(dd, p))))
        return gh, assoc, inverse, dilation, red, recomposed, moved, heights, composes, equivariance

    def verify(self, unit, out):
        gh, assoc, inverse, dilation, red, recomposed, moved, heights, composes, equivariance = out
        gv, hv, kv, r, cv, cv2, pv = unit.args
        n = len(gv[0])
        ok = (_real_dev(*assoc) <= 1e-9 and _real_dev(*dilation) <= 1e-9
              and all(max(map(abs, e.x + e.y + (e.t,))) <= 1e-9 for e in inverse)
              and all(0.0 <= c < 1.0 for c in red.rep.x + red.rep.y + (red.rep.t,))
              and _real_dev(recomposed, red.rep) <= 1e-12
              and abs(heights[0] - heights[1]) <= 1e-10 and composes
              and all(_rel_dev(a.w + (a.sigma,), b.w + (b.sigma,)) <= 1e-10 for a, b in equivariance))
        if not ok or not unit.expect:
            return ok
        g, h = oracles.exact_real(*gv), oracles.exact_real(*hv)
        big = max(abs(v) for v in gv[0] + gv[1] + hv[0] + hv[1] + (gv[2], hv[2]))
        if not oracles.real_close((gh.x, gh.y, gh.t), oracles.real_mul(g, h), n * (1 + big) ** 2):
            return False
        elem = (tuple(map(oracles.cpair, cv[0])), Fraction(cv[1]))
        point = (tuple(map(oracles.cpair, pv[0])), oracles.cpair(pv[1]))
        w, sigma = oracles.siegel_act(elem, point)
        big = max([abs(c) for c in cv[0] + pv[0]] + [abs(cv[1]), abs(pv[1])])
        return oracles.complex_close(moved.w + (moved.sigma,), w + (sigma,), 4 * n * (1 + big) ** 2)


# --- cli-session --------------------------------------------------------------

SINGLE_VERBS = ("mul", "inv", "dilate", "reduce", "parse", "norm", "eval",
                "siegel-mul", "siegel-act")
CHECK_VERBS = ("relcheck", "rep-check", "siegel-check", "commutator")
COMMUTATOR_N = 32
LITERAL_BOUND = 10


def _dyadic(rng: random.Random) -> Fraction:
    """A multiple of 1/8 in [-10, 10]: every sum and product the verbs form
    from these is exact in binary64, so expected outputs are exact."""
    return Fraction(rng.randint(-8 * LITERAL_BOUND, 8 * LITERAL_BOUND), 8)


def _num(v: Fraction) -> str:
    return repr(float(v))


def _real_literal(x, y, t) -> str:
    return ",".join(map(_num, x)) + ";" + ",".join(map(_num, y)) + ";" + _num(t)


def _complex_num(c: oracles.CPair) -> str:
    re, im = c
    return f"{_num(re)}{'+' if im >= 0 else '-'}{_num(abs(im))}i"


def _random_real(rng, n) -> oracles.RealTriple:
    return (tuple(_dyadic(rng) for _ in range(n)), tuple(_dyadic(rng) for _ in range(n)),
            _dyadic(rng))


def _random_cvec(rng, n) -> Tuple[oracles.CPair, ...]:
    return tuple((_dyadic(rng), _dyadic(rng)) for _ in range(n))


def _single(rng: random.Random, verb: str):
    """argv and expected stdout of one valid single-operation call."""
    n = rng.randint(1, 3)
    head = [verb, "--n", str(n)]
    if verb == "dilate":
        r = rng.choice((Fraction(1, 4), Fraction(1, 2), Fraction(2), Fraction(3), Fraction(4)))
        head += ["--r", _num(r)]
    head.append("--")  # a literal may start with '-', which argparse would take for an option
    if verb in ("mul", "inv", "dilate", "reduce"):
        g = _random_real(rng, n)
        if verb == "mul":
            h = _random_real(rng, n)
            return head + [_real_literal(*g), _real_literal(*h)], ("real", oracles.real_mul(g, h))
        if verb == "inv":
            return head + [_real_literal(*g)], ("real", oracles.real_inverse(g))
        if verb == "dilate":
            return head + [_real_literal(*g)], ("real", oracles.real_dilate(r, g))
        k, l, m, rep = oracles.coset_reduce(g)
        return head + [_real_literal(*g)], ("reduce", (oracles.lattice_text(k, l, m), rep))
    if verb in ("parse", "norm", "eval"):
        tokens = random_tokens(rng, n, rng.randint(1, 12))
        text = oracles.word_text(tokens)
        if verb == "parse":
            return head + [text], ("text", text + "\n")
        k, l, m = oracles.evaluate_tokens(tokens, n)
        if verb == "norm":
            return head + [text], ("text", oracles.word_text(oracles.normal_form_tokens(k, l, m)) + "\n")
        return head + [text], ("text", oracles.lattice_text(k, l, m) + "\n")
    g = (_random_cvec(rng, n), _dyadic(rng))
    g_text = ",".join(map(_complex_num, g[0])) + ";" + _num(g[1])
    if verb == "siegel-mul":
        h = (_random_cvec(rng, n), _dyadic(rng))
        h_text = ",".join(map(_complex_num, h[0])) + ";" + _num(h[1])
        return head + [g_text, h_text], ("celem", oracles.complex_mul(g, h))
    p = (_random_cvec(rng, n), (_dyadic(rng), _dyadic(rng)))
    p_text = ",".join(map(_complex_num, p[0])) + ";" + _complex_num(p[1])
    return head + [g_text, p_text], ("point", oracles.siegel_act(g, p))


# Invalid-input classes: (name, expected exit code, argv builder).  Each is in
# the mix because it takes a different rejection path through the layers.
INVALID: Tuple[Tuple[str, int, Callable[[random.Random], List[str]]], ...] = (
    # textio: a real literal whose component is not a number
    ("real-literal", 2, lambda rng: ["mul", "--n", "1", rng.choice(["1;x;0", "1..5;0;0", ";0;0"]),
                                     "0;0;0"]),
    # lattice parser: malformed generator syntax
    ("word-syntax", 2, lambda rng: [rng.choice(["parse", "norm", "eval"]), "--n", "2",
                                    rng.choice(["a1^x", "c2", "a", "d1", "a1 b"])]),
    # lattice parser: generator index beyond n
    ("word-index", 2, lambda rng: ["norm", "--n", "1", rng.choice(["b9", "a2", "a1 b3^2"])]),
    # textio: component count disagrees with --n
    ("arity", 3, lambda rng: ["mul", "--n", "1", "1,2;3,4;5", "0;0;0"]),
    # core: Dilation rejects r <= 0
    ("dilation-param", 3, lambda rng: ["dilate", "--n", "1", "--r", rng.choice(["0", "-2"]),
                                       "1;1;1"]),
    # core: RealElement rejects a non-finite component
    ("non-finite", 3, lambda rng: ["inv", "--n", "1", rng.choice(["inf;0;0", "0;nan;0"])]),
    # cli: dispatch rejects an unknown verb before argparse runs
    ("unknown-verb", 64, lambda rng: [rng.choice(["frobnicate", "multiply", "check"])]),
    # textio: a complex literal that is not a number
    ("complex-literal", 2, lambda rng: ["siegel-mul", "--n", "1", "1+xi;0", "0+0i;0"]),
    # core: finite inputs whose product overflows to inf are rejected
    ("mul-overflow", 3, lambda rng: ["mul", "--n", "1", "1e200;1e200;0", "1e200;1e200;0"]),
)

# Inputs the program mishandles today: (name, argv, expected exit code).  They
# are not in the timed mix, on which no unit may fail; every run calls each
# once after timing and reports whether it still misbehaves.
KNOWN_DEFECTS: Tuple[Tuple[str, List[str], int], ...] = (
    # should exit 3 like mul-overflow, but an OverflowError escapes cli.main
    ("reduce-overflow", ["reduce", "--n", "1", "1e200;1e200;0"], 3),
)

# One block of the mix: 36 single-op calls, 9 invalid inputs, 4 check verbs.
BLOCK = ([("single", v) for v in SINGLE_VERBS for _ in range(4)]
         + [("invalid", i) for i in range(len(INVALID))]
         + [("check", v) for v in CHECK_VERBS])


def _check_argv(rng: random.Random, verb: str):
    seed = str(rng.randint(0, 10**6))
    if verb == "relcheck":
        n = 2
        checked = 3 * n + 2 * n * n + n * (n - 1)
        text = f"relcheck: n={n}\nrelations checked: {checked}\ncounterexamples: 0\nresult: PASS\n"
        return ["relcheck", "--n", str(n)], ("text", text)
    if verb == "rep-check":
        header = f"rep-check: n=1 N=8 L=1 lambda=1 trials=20 seed={seed}"
        return (["rep-check", "--n", "1", "--N", "8", "--trials", "20", "--seed", seed],
                ("report", (header, {"max weyl-relation deviation": 1e-12,
                                     "max homomorphism deviation": 1e-12,
                                     "max inverse deviation": 1e-12},
                            {"kernel check": "ok"})))
    if verb == "siegel-check":
        header = f"siegel-check: n=2 trials=20 seed={seed} bound=10"
        return (["siegel-check", "--n", "2", "--trials", "20", "--seed", seed],
                ("report", (header, {"max height-invariance deviation": 1e-10,
                                     "max dilation-equivariance deviation": 1e-10},
                            {"composition-identity failures": "0"})))
    return ["commutator", "--N", str(COMMUTATOR_N)], ("commutator", None)


def _report_fields(lines: Sequence[str]) -> Dict[str, str]:
    fields = {}
    for line in lines:
        label, sep, value = line.partition(": ")
        if sep:
            fields[label] = value
    return fields


class CliSession(Workload):
    """One in-process `heis.cli.main(argv)` call with stdout captured."""

    name = "cli-session"
    pool_size = 2000

    def __init__(self):
        self._defects = None  # the commutator oracle, computed once

    def make(self, seed, count):
        rng = random.Random(seed)
        units = []
        block = []
        for _ in range(count):
            if not block:
                block = list(BLOCK)
                rng.shuffle(block)
            kind, which = block.pop()
            if kind == "single":
                argv, expect = _single(rng, which)
                units.append(Unit((argv,), (0, expect), tokens=_tokens_in(argv)))
            elif kind == "check":
                argv, expect = _check_argv(rng, which)
                units.append(Unit((argv,), (0, expect)))
            else:
                _, code, build = INVALID[which]
                units.append(Unit((build(rng),), (code, None)))
        return units

    def run(self, args):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(list(args[0]))
        return code, out.getvalue()

    def verify(self, unit, out):
        code, stdout = out
        want_code, expect = unit.expect
        if code != want_code:
            return False
        if expect is None:
            return True
        kind, data = expect
        lines = stdout.splitlines()
        if kind == "text":
            return stdout == data
        if kind == "real":
            return len(lines) == 1 and _exact_real(oracles.read_real_line(lines[0]), data)
        if kind == "reduce":
            gamma, rep = data
            return (len(lines) == 2 and lines[0] == gamma
                    and _exact_real(oracles.read_real_line(lines[1]), rep))
        if kind == "celem":
            z, t = data
            zs, ts = stdout.strip().split(";")
            return (_exact_complex([oracles.split_complex(c) for c in zs.split(",")], z)
                    and Fraction(float(ts)) == t)
        if kind == "point":
            w, sigma = data
            ws, ss = stdout.strip().split(";")
            got = [oracles.split_complex(c) for c in ws.split(",")] + [oracles.split_complex(ss)]
            # |z|^2 goes through abs(), which rounds even for dyadic z
            return oracles.complex_close(got, w + (sigma,), 4 * len(w) * (1 + LITERAL_BOUND) ** 2)
        if kind == "report":
            header, bounded, exact = data
            fields = _report_fields(lines[1:])
            return (lines[0] == header and lines[-1] == "result: PASS"
                    and lines[1].startswith("first sample: ")
                    and all(float(fields[k]) <= tol for k, tol in bounded.items())
                    and all(fields[k] == v for k, v in exact.items()))
        return self._verify_commutator(lines)

    def _verify_commutator(self, lines):
        if self._defects is None:
            self._defects = tuple(oracles.commutator_defect(N)
                                  for N in (COMMUTATOR_N, 2 * COMMUTATOR_N))
        coarse, fine = self._defects
        fields = _report_fields(lines[1:])
        ratio = float(fields["defect ratio"])
        return (lines[0] == f"commutator: N={COMMUTATOR_N} L=1 f=sin(2*pi*w/L) mu(w)=w nu=1"
                and math.isclose(float(fields[f"interior defect at N={COMMUTATOR_N}"]), coarse,
                                 rel_tol=1e-2)
                and math.isclose(float(fields[f"interior defect at N={2 * COMMUTATOR_N}"]), fine,
                                 rel_tol=1e-2)
                and math.isclose(ratio, coarse / fine, rel_tol=1e-4)
                and 3.5 <= ratio <= 4.5 and lines[-1] == "result: PASS")


def known_defects_present() -> List[Tuple[str, str]]:
    """Call each known-defect argv once; (name, what happened) for each one the
    program still mishandles."""
    session = WORKLOADS["cli-session"]
    present = []
    for name, argv, code in KNOWN_DEFECTS:
        try:
            got, _ = session.run((argv,))
        except Exception as exc:
            present.append((name, f"{type(exc).__name__} escaped, expected exit {code}"))
            continue
        if got != code:
            present.append((name, f"exit {got}, expected exit {code}"))
    return present


def _tokens_in(argv: Sequence[str]) -> int:
    return len(argv[-1].split()) if argv[0] in ("parse", "norm", "eval") else 0


def _exact_real(got, want: oracles.RealTriple) -> bool:
    gx, gy, gt = got
    wx, wy, wt = want
    return (len(gx) == len(wx) and len(gy) == len(wy)
            and all(Fraction(a) == b for a, b in zip(gx + gy + [gt], wx + wy + (wt,))))


def _exact_complex(got: Sequence[complex], want: Sequence[oracles.CPair]) -> bool:
    return len(got) == len(want) and all(
        Fraction(c.real) == re and Fraction(c.imag) == im for c, (re, im) in zip(got, want))


WORKLOADS: Dict[str, Workload] = {
    wl.name: wl for wl in (GridWeyl(), LatticeWords(), GroupLaw(), CliSession())
}
