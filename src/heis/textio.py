"""Canonical text forms for elements and points.

Real element:     `x1,...,xn ; y1,...,yn ; t`
Integer element:  `k1,...,kn ; l1,...,ln ; m`
Complex element:  `re1+im1i,...,ren+imni ; t`
Siegel point:     `w1,...,wn ; sigma`      (same complex literal syntax)

Reals are printed with 17 significant digits, which round-trips float64
exactly; integers are printed as plain decimals.
"""

from __future__ import annotations

from typing import Tuple

from .core import RealElement
from .errors import DimensionError, LiteralSyntaxError
from .lattice import LatticeElement
from .siegel import ComplexElement, SiegelPoint


def fmt_real(v: float) -> str:
    return f"{v:.17g}"


def fmt_complex(c: complex) -> str:
    sign = "+" if c.imag >= 0 else "-"
    return f"{fmt_real(c.real)}{sign}{fmt_real(abs(c.imag))}i"


def _split_blocks(text: str, count: int) -> Tuple[str, ...]:
    blocks = [b.strip() for b in text.split(";")]
    if len(blocks) != count:
        raise LiteralSyntaxError(
            f"expected {count} semicolon-separated blocks, got {len(blocks)}"
        )
    return tuple(blocks)


def _parse_float(tok: str) -> float:
    try:
        return float(tok)
    except ValueError:
        raise LiteralSyntaxError(f"invalid real literal {tok!r}") from None


def _parse_complex(tok: str) -> complex:
    # python's complex() accepts `a+bj`; the surface syntax uses `i`
    normalized = tok.strip().replace("i", "j").replace(" ", "")
    try:
        return complex(normalized)
    except ValueError:
        raise LiteralSyntaxError(f"invalid complex literal {tok!r}") from None


def _check_len(parts, n: int) -> None:
    if len(parts) != n:
        raise DimensionError(f"expected {n} components, got {len(parts)}")


def parse_real_element(text: str, n: int) -> RealElement:
    xs, ys, ts = _split_blocks(text, 3)
    x = tuple(_parse_float(c) for c in xs.split(","))
    y = tuple(_parse_float(c) for c in ys.split(","))
    _check_len(x, n)
    _check_len(y, n)
    return RealElement(x, y, _parse_float(ts))


def format_real_element(g: RealElement) -> str:
    return (
        ",".join(fmt_real(c) for c in g.x)
        + ";"
        + ",".join(fmt_real(c) for c in g.y)
        + ";"
        + fmt_real(g.t)
    )


def format_lattice_element(g: LatticeElement) -> str:
    return (
        ",".join(str(c) for c in g.k)
        + ";"
        + ",".join(str(c) for c in g.l)
        + ";"
        + str(g.m)
    )


def parse_complex_element(text: str, n: int) -> ComplexElement:
    zs, ts = _split_blocks(text, 2)
    z = tuple(_parse_complex(c) for c in zs.split(","))
    _check_len(z, n)
    return ComplexElement(z, _parse_float(ts))


def format_complex_element(g: ComplexElement) -> str:
    return ",".join(fmt_complex(c) for c in g.z) + ";" + fmt_real(g.t)


def parse_siegel_point(text: str, n: int) -> SiegelPoint:
    ws, ss = _split_blocks(text, 2)
    w = tuple(_parse_complex(c) for c in ws.split(","))
    _check_len(w, n)
    return SiegelPoint(w, _parse_complex(ss))


def format_siegel_point(p: SiegelPoint) -> str:
    return ",".join(fmt_complex(c) for c in p.w) + ";" + fmt_complex(p.sigma)
