"""Reference computations the benchmark checks the program's outputs against.

None of these call into `heis`: each recomputes a result from its definition
(index arithmetic on the grid, a one-pass integer word evaluator, exact
`Fraction` arithmetic for the group laws), so no layer is ever used to check
itself.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import List, Sequence, Tuple

import numpy as np

# --- grid: translation and modulation by index arithmetic --------------------


def shifted(values: np.ndarray, p: Sequence[int]) -> np.ndarray:
    """out[j] = f[j - p mod N] along every axis."""
    N = values.shape[0]
    idx = [(np.arange(N) - int(pa)) % N for pa in p]
    return values[np.ix_(*idx)]


def modulated(values: np.ndarray, q: Sequence[int]) -> np.ndarray:
    """out[j] = exp(2 pi i (q . j mod N) / N) f[j]."""
    N = values.shape[0]
    n = values.ndim
    total = np.zeros(values.shape, dtype=np.int64)
    for axis, qa in enumerate(q):
        shape = [1] * n
        shape[axis] = N
        total = total + (int(qa) * np.arange(N)).reshape(shape)
    return np.exp(2j * np.pi * (total % N) / N) * values


def max_abs_diff(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.max(np.abs(a - b)))


def commutator_defect(N: int) -> float:
    """Interior max of |D(w f) - w D f - f| for f = sin(2 pi w), L = 1.

    D is the central difference (f[j+1] - f[j-1]) / 2h written with explicit
    neighbour indices; one sample at each end is excluded because the
    coordinate w is not periodic.
    """
    h = 1.0 / N
    j = np.arange(N)
    w = j * h
    f = np.sin(2.0 * np.pi * w)
    up, down = (j + 1) % N, (j - 1) % N

    def diff(v):
        return (v[up] - v[down]) / (2.0 * h)

    defect = np.abs(diff(w * f) - w * diff(f) - f)
    return float(np.max(defect[1:N - 1]))


# --- lattice: one-pass word evaluation ---------------------------------------

Token = Tuple[str, int, int]  # (kind, index, exponent); index 0 for 'c'


def evaluate_tokens(tokens: Sequence[Token], n: int) -> Tuple[Tuple[int, ...], Tuple[int, ...], int]:
    """Left-to-right product in one pass: a_j^e adds e l_j to m, c^e adds e."""
    k = [0] * n
    l = [0] * n
    m = 0
    for kind, index, e in tokens:
        if kind == "a":
            k[index - 1] += e
            m += e * l[index - 1]
        elif kind == "b":
            l[index - 1] += e
        else:
            m += e
    return tuple(k), tuple(l), m


def token_text(kind: str, index: int, e: int) -> str:
    name = "c" if kind == "c" else f"{kind}{index}"
    return name if e == 1 else f"{name}^{e}"


def word_text(tokens: Sequence[Token]) -> str:
    return " ".join(token_text(*tok) for tok in tokens)


def normal_form_tokens(k: Sequence[int], l: Sequence[int], m: int) -> Tuple[Token, ...]:
    """a_1^k1 ... a_n^kn b_1^l1 ... b_n^ln c^m without its zero powers."""
    out = [("a", j, e) for j, e in enumerate(k, start=1) if e]
    out += [("b", j, e) for j, e in enumerate(l, start=1) if e]
    return tuple(out + ([("c", 0, m)] if m else []))


def lattice_text(k: Sequence[int], l: Sequence[int], m: int) -> str:
    return ",".join(map(str, k)) + ";" + ",".join(map(str, l)) + ";" + str(m)


# --- exact group laws ---------------------------------------------------------

RealTriple = Tuple[Tuple[Fraction, ...], Tuple[Fraction, ...], Fraction]


def exact_real(x: Sequence[float], y: Sequence[float], t: float) -> RealTriple:
    return tuple(map(Fraction, x)), tuple(map(Fraction, y)), Fraction(t)


def real_mul(g: RealTriple, h: RealTriple) -> RealTriple:
    (x, y, t), (x2, y2, t2) = g, h
    return (tuple(a + b for a, b in zip(x, x2)),
            tuple(a + b for a, b in zip(y, y2)),
            t + t2 + sum(a * b for a, b in zip(x2, y)))


def real_inverse(g: RealTriple) -> RealTriple:
    x, y, t = g
    return tuple(-a for a in x), tuple(-b for b in y), -t + sum(a * b for a, b in zip(x, y))


def real_dilate(r: Fraction, g: RealTriple) -> RealTriple:
    x, y, t = g
    return tuple(r * a for a in x), tuple(r * b for b in y), r * r * t


def coset_reduce(g: RealTriple):
    """(k, l, m, rep) with (k, l, m) g = rep in [0, 1)^(2n+1)."""
    x, y, t = g
    k = tuple(-math.floor(a) for a in x)
    l = tuple(-math.floor(b) for b in y)
    s = t + sum(a * b for a, b in zip(x, l))
    m = -math.floor(s)
    rep = (tuple(a + c for a, c in zip(x, k)), tuple(b + c for b, c in zip(y, l)), s + m)
    return k, l, m, rep


def real_close(out: Tuple[Sequence[float], Sequence[float], float], exact: RealTriple,
               scale: float) -> bool:
    """Every component of a float result within a few roundings of the exact one."""
    tol = 1e-14 * max(1.0, scale)
    got = list(out[0]) + list(out[1]) + [out[2]]
    want = list(exact[0]) + list(exact[1]) + [exact[2]]
    return len(got) == len(want) and all(abs(Fraction(a) - b) <= tol for a, b in zip(got, want))


# Complex numbers as exact (re, im) pairs.
CPair = Tuple[Fraction, Fraction]


def cpair(c: complex) -> CPair:
    return Fraction(c.real), Fraction(c.imag)


def complex_mul(g: Tuple[Sequence[CPair], Fraction], h: Tuple[Sequence[CPair], Fraction]):
    """(z + z', t + t' + 2 Im sum z_j conj(z'_j))."""
    (z, t), (z2, t2) = g, h
    twist = 2 * sum(ai * br - ar * bi for (ar, ai), (br, bi) in zip(z, z2))
    return tuple((ar + br, ai + bi) for (ar, ai), (br, bi) in zip(z, z2)), t + t2 + twist


def siegel_act(g: Tuple[Sequence[CPair], Fraction], p: Tuple[Sequence[CPair], CPair]):
    """(w + z, sigma + t + i |z|^2 + 2 i sum w_j conj(z_j))."""
    (z, t), (w, (sr, si)) = g, p
    cross_re = sum(wr * zr + wi * zi for (wr, wi), (zr, zi) in zip(w, z))
    cross_im = sum(wi * zr - wr * zi for (wr, wi), (zr, zi) in zip(w, z))
    znorm2 = sum(zr * zr + zi * zi for zr, zi in z)
    w_out = tuple((wr + zr, wi + zi) for (wr, wi), (zr, zi) in zip(w, z))
    return w_out, (sr + t - 2 * cross_im, si + znorm2 + 2 * cross_re)


def complex_close(got: Sequence[complex], want: Sequence[CPair], scale: float) -> bool:
    tol = 1e-14 * max(1.0, scale)
    return len(got) == len(want) and all(
        abs(Fraction(c.real) - wr) <= tol and abs(Fraction(c.imag) - wi) <= tol
        for c, (wr, wi) in zip(got, want)
    )


# --- parsing the CLI's printed numbers ---------------------------------------


def split_complex(text: str) -> complex:
    """Read `re+imi` / `re-imi` as printed by the CLI."""
    if not text.endswith("i"):
        raise ValueError(f"not a complex literal: {text!r}")
    body = text[:-1]
    for pos in range(len(body) - 1, 0, -1):
        if body[pos] in "+-" and body[pos - 1] not in "eE":
            return complex(float(body[:pos]), float(body[pos:]))
    raise ValueError(f"not a complex literal: {text!r}")


def read_real_line(line: str) -> Tuple[List[float], List[float], float]:
    xs, ys, t = line.split(";")
    return [float(v) for v in xs.split(",")], [float(v) for v in ys.split(",")], float(t)
