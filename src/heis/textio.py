"""Canonical text forms for elements and points; this is their grammar.

Real element:     `x1,...,xn ; y1,...,yn ; t`
Integer element:  `k1,...,kn ; l1,...,ln ; m`
Complex element:  `z1,...,zn ; t`
Siegel point:     `w1,...,wn ; sigma`

A real is what Python's float() reads (`2`, `-0.5`, `1e-3`, `inf`, `nan`).  A
complex is `a`, `bi`, `a+bi` or `a-bi` for reals a and b, where b may be left
out (`i`, `1-i`); the unit `i` only trails, and `j` is rejected.  Blanks around
a block or a component, and inside a complex, are ignored.  Each parser is the
one check of its text, as `lattice.parse_word` is, and builds its value by
name.  It reports the first fault of: the block count, the x then y components,
the length of x then y, the t or sigma text, then finiteness, as `errors` does.

Reals are printed with 17 significant digits, which round-trips float64
exactly; integers are printed as plain decimals.
"""

from __future__ import annotations

import cmath

from .core import RealElement, _real
from .errors import (DimensionError, LiteralSyntaxError, ParameterError, digit_limit, dimension,
                     finite_scalar, finite_vector)
from .lattice import LatticeElement
from .siegel import ComplexElement, SiegelPoint, _complex, _point


def fmt_real(v: float) -> str:
    return f"{v:.17g}"


def fmt_complex(c: complex) -> str:
    sign = "+" if c.imag >= 0 else "-"
    return f"{fmt_real(c.real)}{sign}{fmt_real(abs(c.imag))}i"


def _split_blocks(text: str, count: int) -> list[str]:
    blocks = [b.strip() for b in text.split(";")]
    if len(blocks) != count:
        raise LiteralSyntaxError(
            f"expected {count} semicolon-separated blocks, got {len(blocks)}"
        )
    return blocks


def _parse_float(tok: str) -> float:
    try:
        return float(tok)
    except ValueError:
        raise LiteralSyntaxError(f"invalid real literal {tok!r}") from None


def _parse_complex(tok: str) -> complex:
    # complex() reads `a+bj`: the one trailing `i` becomes its `j`
    text = tok.replace(" ", "")
    if "j" not in text.lower():
        try:
            return complex(text[:-1] + "j") if text.endswith("i") else complex(float(text))
        except ValueError:
            pass
    raise LiteralSyntaxError(f"invalid complex literal {tok!r}")


def _scalar(n: int, vectors: tuple, text: str, read, name: str):
    """The scalar `name` read from text by `read`, once each vector has length n."""
    size = dimension(n)
    for v in vectors:
        if len(v) != size:
            raise DimensionError(f"expected {size} components, got {len(v)}")
    s = read(text)
    if not cmath.isfinite(sum(map(sum, vectors), s)):  # one sum, as `errors` tests
        finite_vector(sum(vectors, ()), complex)  # complex holds a float or a complex part
        finite_scalar(s, type(s), name)
    return s


def parse_real_element(text: str, n: int) -> RealElement:
    xs, ys, ts = _split_blocks(text, 3)
    x = tuple([_parse_float(c) for c in xs.split(",")])
    y = tuple([_parse_float(c) for c in ys.split(",")])
    return _real(x, y, _scalar(n, (x, y), ts, _parse_float, "t"))


def format_real_element(g: RealElement) -> str:
    return ",".join(map(fmt_real, g.x)) + ";" + ",".join(map(fmt_real, g.y)) + ";" + fmt_real(g.t)


def format_lattice_element(g: LatticeElement) -> str:
    try:
        return ",".join(map(str, g.k)) + ";" + ",".join(map(str, g.l)) + ";" + str(g.m)
    except ValueError:  # str() refuses an int of more digits than the limit
        raise ParameterError(digit_limit("an integer coordinate")) from None


def parse_complex_element(text: str, n: int) -> ComplexElement:
    zs, ts = _split_blocks(text, 2)
    z = tuple([_parse_complex(c) for c in zs.split(",")])
    return _complex(z, _scalar(n, (z,), ts, _parse_float, "t"))


def format_complex_element(g: ComplexElement) -> str:
    return ",".join(fmt_complex(c) for c in g.z) + ";" + fmt_real(g.t)


def parse_siegel_point(text: str, n: int) -> SiegelPoint:
    ws, ss = _split_blocks(text, 2)
    w = tuple([_parse_complex(c) for c in ws.split(",")])
    return _point(w, _scalar(n, (w,), ss, _parse_complex, "sigma"))


def format_siegel_point(p: SiegelPoint) -> str:
    return ",".join(fmt_complex(c) for c in p.w) + ";" + fmt_complex(p.sigma)
