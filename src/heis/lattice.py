"""The integer Heisenberg group H_n(Z): generators, words, and normal forms.

H_n(Z) is the subgroup of H_n(R) with integer entries.  It is generated by
a_1, ..., a_n (unit steps in x), b_1, ..., b_n (unit steps in y) and the
central element c = (0, 0, 1), subject to

    a_i a_j = a_j a_i        b_i b_j = b_j b_i
    a_i c = c a_i            b_j c = c b_j
    a_i b_j = b_j a_i   (i != j)
    b_i a_i = a_i b_i c

Every element (k, l, m) equals the word a_1^k1 ... a_n^kn b_1^l1 ... b_n^ln c^m
and that expression is unique, so normalization proceeds by evaluating a word
to its triple and re-emitting the normal form.  A word is evaluated by one
fold of `core.law` over its tokens' plain components, with no element per token.

Arithmetic uses Python integers throughout, so no overflow is possible.

A word's terms recur (a few generator powers make up most words), so
`parse_word` reads each distinct term once: it splits the text on whitespace
and keeps each term's reading, its token or its first fault, in a cache keyed
by the term's text alone, of the 512 most recently used terms of at most 32
characters.  The check of an index against n and the offset of an error stay
per call, so the tokens and the errors equal those of a per-character scan of
the text.
"""

from __future__ import annotations

import functools
import re
from typing import List, Tuple

from . import _Value
from .core import RealElement, _embed, law, law_inverse
from .errors import (DimensionError, ParameterError, WordSyntaxError, dimension, digit_limit,
                     integer, integers)


class LatticeElement(_Value):
    """An integer triple (k, l, m) in H_n(Z): tuples of ints k, l and an int m."""

    __match_args__ = _fields = ("k", "l", "m")

    def __init__(self, k: Tuple[int, ...], l: Tuple[int, ...], m: int):
        k, l, m = integers(k, "k"), integers(l, "l"), integer(m, "m")
        if len(k) == 0 or len(k) != len(l):
            raise DimensionError("k and l must have equal length n >= 1")
        self.__dict__.update(k=k, l=l, m=m)

    @property
    def n(self) -> int:
        return len(self.k)

    @staticmethod
    def identity(n: int) -> "LatticeElement":
        zeros = _zeros(n)
        return _element(zeros, zeros, 0)


_element = LatticeElement._builder()  # unchecked: takes its fields as `__init__` leaves them


def _zeros(n: int) -> Tuple[int, ...]:
    return (0,) * dimension(n)


def lmul(g: LatticeElement, h: LatticeElement) -> LatticeElement:
    """The H_n(R) group law restricted to integer triples."""
    return _element(*law(g.k, g.l, g.m, h.k, h.l, h.m))


def linverse(g: LatticeElement) -> LatticeElement:
    return _element(*law_inverse(g.k, g.l, g.m))


def embed(g: LatticeElement) -> RealElement:
    """The inclusion H_n(Z) -> H_n(R); a homomorphism by construction."""
    return _embed(g.k, g.l, g.m)


# --- generators -------------------------------------------------------------

def gen_c(n: int) -> LatticeElement:
    zeros = _zeros(n)
    return _element(zeros, zeros, 1)


def token_element(tok: "GeneratorToken", n: int) -> LatticeElement:
    """The triple for a single generator power.

    a_j^e, b_j^e and c^e are just e steps along one coordinate (the central
    correction k' . l vanishes when only one of k, l is nonzero), so the
    closed form avoids |e| group multiplications.
    """
    n = dimension(n)
    if tok.kind != "c" and not 1 <= tok.index <= n:
        raise DimensionError(f"generator index {tok.index} out of range [1, {n}]")
    return _element(*_power(tok, n))


def _power(tok: "GeneratorToken", n: int) -> tuple:
    """The plain components (k, l, m) of a generator power whose index fits n."""
    e = tok.exponent
    zeros = (0,) * n
    if tok.kind == "c":
        return zeros, zeros, e
    step = zeros[:tok.index - 1] + (e,) + zeros[tok.index:]
    return (step, zeros, 0) if tok.kind == "a" else (zeros, step, 0)


# --- words ------------------------------------------------------------------

class GeneratorToken(_Value):
    """A signed generator power: kind 'a'/'b' with index, or central 'c'.
    The index is 1-based, and 0 for 'c'; index and exponent are ints."""

    __match_args__ = _fields = ("kind", "index", "exponent")

    def __init__(self, kind: str, index: int, exponent: int):
        index, exponent = integer(index, "index"), integer(exponent, "exponent")
        if kind == "c":
            if index != 0:
                raise ParameterError(f"the central generator c takes index 0, got {index}")
        elif kind != "a" and kind != "b":
            raise ParameterError(f"generator kind must be 'a', 'b' or 'c', got {kind!r}")
        elif index < 1:
            raise DimensionError(f"generator index {index} out of range [1, n]")
        self.__dict__.update(kind=kind, index=index, exponent=exponent)

    def __str__(self) -> str:
        name = self.kind if self.kind == "c" else f"{self.kind}{self.index}"
        try:
            return name if self.exponent == 1 else f"{name}^{self.exponent}"
        except ValueError:  # str() refuses an int of more digits than the limit
            raise ParameterError(digit_limit("a generator's exponent")) from None


class Word(_Value):
    """An ordered product of generator powers in dimension n: a tuple of
    GeneratorTokens."""

    __match_args__ = _fields = ("n", "tokens")

    def __init__(self, n: int, tokens: Tuple[GeneratorToken, ...]):
        n, tokens = dimension(n), tuple(tokens)
        for tok in tokens:
            if not isinstance(tok, GeneratorToken):
                raise ParameterError(f"a word holds GeneratorTokens, got {tok!r}")
            if tok.index > n:
                raise DimensionError(f"generator index {tok.index} out of range [1, {n}]")
        self.__dict__.update(n=n, tokens=tokens)

    def __str__(self) -> str:
        return " ".join(str(tok) for tok in self.tokens)


_token = GeneratorToken._builder()  # unchecked: takes its fields as `__init__` accepts them
_word = Word._builder()  # unchecked: takes its fields as `__init__` leaves them


_TERM_RE = re.compile(r"([abc])([0-9]*)(?:\^(-?[0-9]+))?")
# A cached term holds at most this many characters, fewer digits than int()
# ever refuses (the limit is 0 or at least 640), so no entry depends on that
# setting; a longer term is read afresh at each use.
_TERM_KEY_MAX = 32


def parse_word(text: str, n: int) -> Word:
    """Parse the surface syntax: space-separated terms `a<j>`, `b<j>`, `c`,
    each optionally followed by `^<int>`.  Exponent-0 terms are dropped.

    Each term is read once through a cache keyed by its text alone: terms of
    at most 32 characters, the 512 most recently used of them (the least
    recently used is dropped first).  The check of the index against n and
    the offset of an error in `text` stay per call, so the tokens, or the
    error type, message and offset, equal those of a per-character scan of
    `text`.
    """
    n = dimension(n)
    tokens: List[GeneratorToken] = []
    terms = text.split()  # splits where str.isspace does
    for term in terms:
        token, index, fault = _term(term) if len(term) <= _TERM_KEY_MAX else _read_term(term)
        if not 1 <= index <= n:
            raise WordSyntaxError(f"index {index} out of range [1, {n}]", _start(text, terms, term))
        if fault is not None:
            message, offset = fault
            raise WordSyntaxError(message, _start(text, terms, term) + offset)
        if token is not None:
            tokens.append(token)
    return _word(n, tuple(tokens))


def _read_term(term: str) -> tuple:
    """One whitespace-free term as (token, index, fault), none of which depends on n.

    token is the GeneratorToken, or None for an exponent of 0 or a fault;
    index is what the caller checks against n: the a/b index, or 1 (in range
    for every n) for c and for a fault found before the index is read; fault
    is the term's first other fault as (message, offset in the term), or None.
    The caller reports a range error before that fault, as a scan would.
    """
    match = _TERM_RE.match(term)
    if match is None:
        return None, 1, (f"expected generator, found {term[0]!r}", 0)
    kind, digits, exp = match.groups()
    if kind == "c":
        if digits:
            return None, 1, ("the central generator c takes no index", 1)
        index, checked = 0, 1
    elif not digits:
        return None, 1, (f"generator {kind!r} requires an index", 0)
    else:
        try:
            index = checked = int(digits)
        except ValueError:  # int() reads at most sys.get_int_max_str_digits() digits
            return None, 1, (digit_limit("index"), 1)
    try:
        exponent = 1 if exp is None else int(exp)
    except ValueError:
        return None, checked, (digit_limit("exponent"), match.start(3))
    end = match.end()
    if end < len(term):
        return None, checked, (f"unexpected character {term[end]!r}", end)
    return (_token(kind, index, exponent) if exponent else None), checked, None


_term = functools.lru_cache(maxsize=512)(_read_term)  # tokens are frozen, so words share them


def _start(text: str, terms: List[str], term: str) -> int:
    """Where `term` starts in `text`.  A term that faults at some n faults at
    each of its occurrences, so the one that raised is its first."""
    i = terms.index(term)
    return len(text) - len(text.split(None, i)[i])  # the rest of text from term i on


def evaluate_word(w: Word) -> LatticeElement:
    """Left-to-right product of the token powers: one fold of the group law
    `core.law` over plain components, from (0, 0, 0), and one element at the end."""
    n = w.n
    k = l = (0,) * n
    m = 0
    for tok in w.tokens:
        k, l, m = law(k, l, m, *_power(tok, n))
    return _element(k, l, m)


def normal_form(g: LatticeElement) -> Word:
    """The unique word a_1^k1 ... a_n^kn b_1^l1 ... b_n^ln c^m, with
    zero-exponent factors omitted; the identity is the empty word."""
    tokens: List[GeneratorToken] = []
    for j, e in enumerate(g.k, start=1):
        if e != 0:
            tokens.append(_token("a", j, e))
    for j, e in enumerate(g.l, start=1):
        if e != 0:
            tokens.append(_token("b", j, e))
    if g.m != 0:
        tokens.append(_token("c", 0, g.m))
    return _word(g.n, tuple(tokens))


def normalize_word(w: Word) -> Word:
    """Rewrite w to normal form (evaluate, then re-emit)."""
    return normal_form(evaluate_word(w))


# --- relation checking ------------------------------------------------------

class RelationReport(_Value):
    """Outcome of exhaustively evaluating the defining relations: how many
    were checked, and a tuple of the counterexamples."""

    __match_args__ = _fields = ("checked", "counterexamples")

    def __init__(self, checked: int, counterexamples: Tuple[str, ...]):
        self.__dict__.update(checked=checked, counterexamples=counterexamples)

    @property
    def ok(self) -> bool:
        return not self.counterexamples


def _relations(n: int):
    """Each defining relation for all index pairs as (label template, i, j, lhs, rhs)."""
    a = [_element(*_power(_token("a", j, 1), n)) for j in range(1, n + 1)]
    b = [_element(*_power(_token("b", j, 1), n)) for j in range(1, n + 1)]
    c = _element(*_power(_token("c", 0, 1), n))
    for i in range(1, n + 1):
        ai, bi = a[i - 1], b[i - 1]
        yield "a{i} c = c a{i}", i, 0, lmul(ai, c), lmul(c, ai)
        yield "b{i} c = c b{i}", i, 0, lmul(bi, c), lmul(c, bi)
        yield "b{i} a{i} = a{i} b{i} c", i, 0, lmul(bi, ai), lmul(lmul(ai, bi), c)
        for j in range(1, n + 1):
            aj, bj = a[j - 1], b[j - 1]
            yield "a{i} a{j} = a{j} a{i}", i, j, lmul(ai, aj), lmul(aj, ai)
            yield "b{i} b{j} = b{j} b{i}", i, j, lmul(bi, bj), lmul(bj, bi)
            if i != j:
                yield "a{i} b{j} = b{j} a{i}", i, j, lmul(ai, bj), lmul(bj, ai)


def check_relations(n: int) -> RelationReport:
    """Compare both sides of each defining relation as it is formed; label only a failure."""
    checked, bad = 0, []
    for checked, (label, i, j, lhs, rhs) in enumerate(_relations(dimension(n)), 1):
        if lhs != rhs:
            bad.append(f"{label.format(i=i, j=j)}: {lhs} != {rhs}")
    return RelationReport(checked, tuple(bad))
