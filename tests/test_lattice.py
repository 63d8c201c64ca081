import operator
import random
import re
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from heis import checks, cli, core, lattice
from heis.errors import DimensionError, ParameterError, WordSyntaxError, digit_limit
from test_law import matmul, matrix, triple as matrix_triple


def triple(k, l, m):
    if not isinstance(k, tuple):
        k, l = (k,), (l,)
    return lattice.LatticeElement(k, l, m)


def triples(n, bound=100):
    entry = st.integers(min_value=-bound, max_value=bound)
    vec = st.tuples(*([entry] * n))
    return st.builds(lattice.LatticeElement, vec, vec, entry)


class TestParse:
    def test_empty_is_identity(self):
        w = lattice.parse_word("", 1)
        assert w.tokens == ()
        assert lattice.evaluate_word(w) == lattice.LatticeElement.identity(1)

    def test_tokenization(self):
        w = lattice.parse_word("a1^2 b1 c^-1", 1)
        assert [(t.kind, t.index, t.exponent) for t in w.tokens] == [
            ("a", 1, 2),
            ("b", 1, 1),
            ("c", 0, -1),
        ]

    def test_index_out_of_range(self):
        with pytest.raises(WordSyntaxError):
            lattice.parse_word("b3", 2)

    def test_syntax_error_offset(self):
        with pytest.raises(WordSyntaxError) as exc:
            lattice.parse_word("a1 ?b2", 2)
        assert exc.value.offset == 3

    def test_indexed_c_rejected(self):
        with pytest.raises(WordSyntaxError):
            lattice.parse_word("c2", 2)

    def test_roundtrip_printing(self):
        text = "a1^2 b1 c^-1"
        assert str(lattice.parse_word(text, 1)) == text

    @pytest.mark.parametrize("text, name, offset", [
        ("a1 c^-{}", "exponent", 5),
        ("b1^{} a1", "exponent", 3),
        ("c a{}", "index", 3),
    ])
    def test_literal_past_the_digit_limit_is_a_syntax_error(self, text, name, offset):
        """int() converts at most sys.get_int_max_str_digits() digits; a longer
        literal is refused where it starts, and one at the limit is read."""
        limit = sys.get_int_max_str_digits()
        message = f"^{name} has more than {limit} digits, the most Python converts"
        with pytest.raises(WordSyntaxError, match=f"{message} \\(at offset {offset}\\)$") as exc:
            lattice.parse_word(text.format("0" * limit + "1"), 1)
        assert exc.value.offset == offset
        assert lattice.parse_word(text.format("0" * (limit - 1) + "1"), 1).tokens

    def test_printing_past_the_digit_limit_is_a_parameter_error(self):
        limit = sys.get_int_max_str_digits()
        big = lattice.GeneratorToken("c", 0, 10**limit)
        with pytest.raises(ParameterError, match=f"^a generator's exponent has more than {limit} "
                                                 f"digits, the most Python converts$"):
            str(big)
        assert str(lattice.GeneratorToken("c", 0, 10**limit - 1)) == "c^" + "9" * limit


# --- the term cache ------------------------------------------------------------
# The reference reads a word one character at a time, as the parser did before
# it read each distinct term once.

_SCAN_RE = re.compile(r"([abc])([0-9]*)(\^(-?[0-9]+))?")


def _scan_int(digits, name, offset):
    try:
        return int(digits)
    except ValueError:
        raise WordSyntaxError(digit_limit(name), offset) from None


def _scan(text, n):
    """(kind, index, exponent) of each term with a nonzero exponent."""
    tokens = []
    pos = 0
    while pos < len(text):
        if text[pos].isspace():
            pos += 1
            continue
        match = _SCAN_RE.match(text, pos)
        if match is None:
            raise WordSyntaxError(f"expected generator, found {text[pos]!r}", pos)
        kind, digits, _, exp = match.groups()
        if kind == "c":
            if digits:
                raise WordSyntaxError("the central generator c takes no index", pos + 1)
            index = 0
        else:
            if not digits:
                raise WordSyntaxError(f"generator {kind!r} requires an index", pos)
            index = _scan_int(digits, "index", match.start(2))
            if not 1 <= index <= n:
                raise WordSyntaxError(f"index {index} out of range [1, {n}]", pos)
        exponent = 1 if exp is None else _scan_int(exp, "exponent", match.start(4))
        end = match.end()
        if end < len(text) and not text[end].isspace():
            raise WordSyntaxError(f"unexpected character {text[end]!r}", end)
        if exponent != 0:
            tokens.append((kind, index, exponent))
        pos = end
    return tokens


def _tokens(text, n):
    return [(t.kind, t.index, t.exponent) for t in lattice.parse_word(text, n).tokens]


def _outcome(read, text, n):
    try:
        return read(text, n)
    except WordSyntaxError as exc:
        return type(exc), str(exc), exc.offset


# Terms are built from a kind, an index, an exponent and a tail, each of
# which may be malformed; "\x1c" and "\x85" are whitespace to str.isspace,
# "\u200b" is not.  LONG has more digits than int() reads.
LONG = "0" * sys.get_int_max_str_digits() + "1"
TERMS = st.builds("{}{}{}{}".format,
                  st.sampled_from(["a", "b", "c", "a", "b", "c", "x", "1", "-", "\u200b"]),
                  st.sampled_from(["", "0", "1", "2", "3", "12", "1", "2", LONG]),
                  st.sampled_from(["", "", "^0", "^-3", "^12", "^", "^-", "^x", "^" + LONG]),
                  st.sampled_from(["", "", "", "", "x", "c", "^", "\u200b", "1"]))
SPACES = st.sampled_from([" ", " ", "\t", "\x1c", "\x85", "  "])


class TestTermCache:
    @settings(max_examples=1500, deadline=None)
    @given(pieces=st.lists(st.one_of(TERMS, SPACES), max_size=12),
           n=st.integers(1, 3))
    def test_the_parser_reads_as_a_per_character_scan(self, pieces, n):
        text = "".join(pieces)
        assert _outcome(_tokens, text, n) == _outcome(_scan, text, n), (text, n)

    @pytest.mark.parametrize("text, n, message, offset", [
        ("b2^-3c", 1, "index 2 out of range [1, 1]", 0),
        ("b2^-3c", 2, "unexpected character 'c'", 5),
        ("a1 b0", 2, "index 0 out of range [1, 2]", 3),
        ("c a1^0 a3^0", 2, "index 3 out of range [1, 2]", 7),
        ("a1 a2x a2x", 1, "index 2 out of range [1, 1]", 3),
        ("a1 a2x a2x", 2, "unexpected character 'x'", 5),
        ("\x85c\x1cc2", 1, "the central generator c takes no index", 4),
        ("a12 b2 12", 12, "expected generator, found '1'", 7),  # "12" is in "a12" too
    ])
    def test_a_fault_is_reported_where_a_scan_finds_it(self, text, n, message, offset):
        with pytest.raises(WordSyntaxError) as exc:
            lattice.parse_word(text, n)
        assert str(exc.value) == f"{message} (at offset {offset})"
        assert exc.value.offset == offset

    def test_a_term_read_at_a_larger_n_is_checked_again_at_each_n(self):
        for text in ("a3", "b3^0", "a3^-7"):
            lattice.parse_word(text, 3)
            with pytest.raises(WordSyntaxError, match=r"^index 3 out of range \[1, 1\]"):
                lattice.parse_word(text, 1)

    def test_the_cache_is_bounded_in_entries_and_key_length(self):
        cache = lattice._term
        for e in range(1, 3 * 512):
            lattice.parse_word(f"a1^{e} c^-{e}", 1)
            assert cache.cache_info().currsize <= 512
        cache.cache_clear()
        long_term = "c^" + "1" * (lattice._TERM_KEY_MAX - 1)  # 33 characters
        assert len(lattice.parse_word(f"a1 {long_term} {long_term}", 1).tokens) == 3
        assert cache.cache_info().currsize == 1  # a1 alone is kept
        assert len(lattice.parse_word(long_term[:-1], 1).tokens) == 1
        assert cache.cache_info().currsize == 2  # a 32-character term is kept
        cache.cache_clear()
        # the kept keys are the split terms: a1, b1^2 and c, a1 read once
        assert len(lattice.parse_word("a1\x85b1^2\tc\x1ca1", 1).tokens) == 4
        assert cache.cache_info()[:2] == (1, 3) and cache.cache_info().currsize == 3


class TestEvaluate:
    def test_normal_form_word(self):
        w = lattice.parse_word("a1^2 b1^3 c^5", 1)
        assert lattice.evaluate_word(w) == triple(2, 3, 5)

    def test_b_then_a_picks_up_center(self):
        assert lattice.evaluate_word(lattice.parse_word("b1 a1", 1)) == triple(1, 1, 1)

    def test_a_then_b_does_not(self):
        assert lattice.evaluate_word(lattice.parse_word("a1 b1", 1)) == triple(1, 1, 0)

    def test_noncommutativity_witness(self):
        ab = lattice.evaluate_word(lattice.parse_word("a1 b1", 1))
        ba = lattice.evaluate_word(lattice.parse_word("b1 a1", 1))
        assert ab != ba
        assert lattice.lmul(ab, lattice.gen_c(1)) == ba

    def test_big_exponents_use_python_ints(self):
        w = lattice.parse_word("a1^1000000000000 b1^1000000000000", 1)
        g = lattice.evaluate_word(w)
        assert lattice.lmul(g, g).m == 10**24


class TestNormalForm:
    def test_identity_empty(self):
        assert str(lattice.normal_form(lattice.LatticeElement.identity(1))) == ""

    def test_displayed_form(self):
        assert str(lattice.normal_form(triple(2, 3, 5))) == "a1^2 b1^3 c^5"

    def test_zero_exponents_omitted(self):
        g = lattice.LatticeElement((1, 0), (0, -2), 7)
        assert str(lattice.normal_form(g)) == "a1 b2^-2 c^7"
        assert lattice.evaluate_word(lattice.normal_form(g)) == g

    @given(triples(3))
    @settings(max_examples=300)
    def test_roundtrip(self, g):
        assert lattice.evaluate_word(lattice.normal_form(g)) == g

    def test_injective_on_distinct_triples(self):
        seen = {}
        for g in (triple(1, 2, 3), triple(1, 2, 4), triple(2, 1, 3), triple(0, 0, 0)):
            key = str(lattice.normal_form(g))
            assert key not in seen
            seen[key] = g


class TestNormalize:
    def test_swap_relation(self):
        assert str(lattice.normalize_word(lattice.parse_word("b1 a1", 1))) == "a1 b1 c"

    def test_cancellation(self):
        assert str(lattice.normalize_word(lattice.parse_word("a1 a1^-1", 1))) == ""

    def test_cross_index_already_normal(self):
        assert str(lattice.normalize_word(lattice.parse_word("a1 b2", 2))) == "a1 b2"

    def test_random_word_oracle(self):
        rng = random.Random(7)
        for _ in range(300):
            n = rng.randint(1, 3)
            tokens = []
            for _ in range(rng.randint(0, 50)):
                kind = rng.choice("abc")
                idx = 0 if kind == "c" else rng.randint(1, n)
                exp = rng.choice([e for e in range(-5, 6) if e != 0])
                tokens.append(lattice.GeneratorToken(kind, idx, exp))
            w = lattice.Word(n, tuple(tokens))
            nw = lattice.normalize_word(w)
            assert lattice.evaluate_word(nw) == lattice.evaluate_word(w)

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 3), st.lists(st.tuples(st.sampled_from("abc"), st.integers(1, 3),
                                                 st.integers(-2**80, 2**80).filter(bool)),
                                       max_size=40))
    @example(1, [])
    @example(2, [("b", 2, 2**70), ("a", 2, -2**65 - 1), ("c", 1, 3**50), ("a", 1, 2**64)])
    def test_evaluation_matches_the_matrix_product(self, n, terms):
        """evaluate_word against an independent oracle: the exact product of
        the tokens' unitriangular integer matrices, as tests/test_law.py
        builds them, from the empty word to exponents beyond 2^64."""
        zeros = (0,) * n
        product, tokens = matrix(zeros, zeros, 0), []
        for kind, index, e in terms:
            index = 0 if kind == "c" else (index - 1) % n + 1
            step = tuple(e if j == index else 0 for j in range(1, n + 1))
            factor = {"a": (step, zeros, 0), "b": (zeros, step, 0), "c": (zeros, zeros, e)}[kind]
            product = matmul(product, matrix(*factor))
            tokens.append(lattice.GeneratorToken(kind, index, e))
        g = lattice.evaluate_word(lattice.Word(n, tokens))
        assert (g.k, g.l, g.m) == matrix_triple(product)

    def test_words_are_evaluated_without_lmul(self, monkeypatch):
        """Evaluation and normalization fold the law over plain components:
        no lmul per token, whichever form the fold takes."""
        def refuse(g, h):
            raise AssertionError("lmul called")

        monkeypatch.setattr(lattice, "lmul", refuse)
        w = lattice.parse_word("b1 a1 b2^2 a2^-1 c a1^3", 2)
        assert lattice.evaluate_word(w) == lattice.LatticeElement((4, -1), (1, 2), 3)
        assert str(lattice.normalize_word(w)) == "a1^4 a2^-1 b1 b2^2 c^3"
        assert lattice.evaluate_word(lattice.parse_word("", 2)) == lattice.LatticeElement.identity(2)


class TestRelations:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_all_relations_hold(self, n):
        report = lattice.check_relations(n)
        assert report.ok
        assert report.counterexamples == ()

    def test_counts_cover_pairs(self):
        # n=2: 3 per-index relations x2, plus a/b commutations over all pairs
        report = lattice.check_relations(2)
        assert report.checked == 2 * 3 + 2 * (2 * 2) + 2

    def test_rejects_bad_dimension(self):
        with pytest.raises(DimensionError):
            lattice.check_relations(0)

    def test_the_check_keeps_no_relation_after_comparing_it(self):
        """Each relation is compared as it is formed, so memory does not grow
        with the n^2 relations: the tracemalloc peak at n = 64 stays under 1 MiB."""
        tracemalloc.start()
        try:
            report = lattice.check_relations(64)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.ok and report.checked == 3 * 64 + 2 * 64 * 64 + 64 * 63
        assert peak < 2**20

    def test_a_law_without_its_central_term_fails(self, monkeypatch, capsys):
        """Dropping x' . y from the law breaks exactly b_i a_i = a_i b_i c: the
        report names each broken relation and the verb exits 4."""
        monkeypatch.setattr(lattice, "law", lambda x, y, t, x2, y2, t2: (
            tuple(map(operator.add, x, x2)), tuple(map(operator.add, y, y2)), t + t2))
        text, ok = checks.relation_check(2)
        assert not ok
        assert [line for line in text.splitlines() if line.startswith("counterexample")] == [
            f"counterexample: b{i} a{i} = a{i} b{i} c: LatticeElement(k={k}, l={k}, m=0) != "
            f"LatticeElement(k={k}, l={k}, m=1)" for i, k in ((1, (1, 0)), (2, (0, 1)))
        ] + ["counterexamples: 2"]
        assert text.endswith("result: FAIL\n")
        assert cli.main(["relcheck", "--n", "2"]) == 4
        assert capsys.readouterr().out == text

    @pytest.mark.parametrize("n, shown", [(True, 1), (np.int64(2), 2), (3, 3)])
    def test_the_header_prints_the_dimension_checked(self, n, shown):
        """The header names the int dimension that was checked, not the
        argument as given: True checks n = 1."""
        text, ok = checks.relation_check(n)
        assert ok and text.startswith(f"relcheck: n={shown}\nrelations checked: ")


class TestEmbed:
    @given(triples(2, bound=50), triples(2, bound=50))
    @settings(max_examples=200)
    def test_inclusion_homomorphism(self, g, h):
        lhs = lattice.embed(lattice.lmul(g, h))
        rhs = core.mul(lattice.embed(g), lattice.embed(h))
        assert lhs == rhs

    @given(triples(2, bound=50))
    @settings(max_examples=100)
    def test_inverse_consistent(self, g):
        assert lattice.embed(lattice.linverse(g)) == core.inverse(lattice.embed(g))


class TestInputContract:
    """The public constructors take integers only: never truncate, never read text."""

    @pytest.mark.parametrize("k, l, m", [((2.7,), (1,), 0), (("3",), (1,), 0), ((1,), (2.0,), 0),
                                         ((1,), (1,), 2.5), ((1,), (1,), None)])
    def test_lattice_element_refuses_non_integers(self, k, l, m):
        """Each case has one bad field, and the message names it."""
        with pytest.raises(ParameterError) as info:
            lattice.LatticeElement(k, l, m)
        assert str(info.value) in (f"k must have integers as components, got {k!r}",
                                   f"l must have integers as components, got {l!r}",
                                   f"m must be an integer, got {m!r}")

    def test_lattice_element_takes_numpy_integers_as_ints(self):
        g = lattice.LatticeElement(tuple(np.array([3, -4], dtype=np.int32)),
                                   (np.int64(5), 6), np.int64(7))
        assert g == lattice.LatticeElement((3, -4), (5, 6), 7)
        assert {type(c) for c in g.k + g.l + (g.m,)} == {int}

    def test_lattice_element_keeps_its_dimension_message(self):
        with pytest.raises(DimensionError, match="^k and l must have equal length n >= 1$"):
            lattice.LatticeElement((1, 2), (3,), 0)

    @pytest.mark.parametrize("kind, index, exponent, error", [
        ("a", 1, 2.5, ParameterError),
        ("c", 0, 2.5, ParameterError),
        ("b", 1.0, 1, ParameterError),
        ("a", "1", 1, ParameterError),
        ("z", 1, 2, ParameterError),
        ("C", 0, 1, ParameterError),
        ("c", 1, 2, ParameterError),
        ("a", 0, 1, DimensionError),
        ("b", -2, 1, DimensionError),
    ])
    def test_token_refuses(self, kind, index, exponent, error):
        with pytest.raises(error):
            lattice.GeneratorToken(kind, index, exponent)

    def test_token_takes_numpy_integers_as_ints(self):
        tok = lattice.GeneratorToken("a", np.int64(2), np.int32(-3))
        assert tok == lattice.GeneratorToken("a", 2, -3)
        assert type(tok.index) is int and type(tok.exponent) is int
        assert lattice.token_element(tok, 2) == lattice.LatticeElement((0, -3), (0, 0), 0)

    @pytest.mark.parametrize("n, tokens, error", [
        (0, (), DimensionError),
        (-1, (), DimensionError),
        (1.5, (), ParameterError),
        (1, (lattice.GeneratorToken("a", 2, 1),), DimensionError),
        (2, (lattice.GeneratorToken("c", 0, 1), lattice.GeneratorToken("b", 3, 1)), DimensionError),
        (1, ("a1",), ParameterError),
        (1, (("a", 1, 1),), ParameterError),
    ])
    def test_word_refuses(self, n, tokens, error):
        with pytest.raises(error):
            lattice.Word(n, tokens)

    def test_word_holds_a_tuple(self):
        tokens = [lattice.GeneratorToken("b", 1, 2), lattice.GeneratorToken("a", 1, 1)]
        w = lattice.Word(np.int64(1), tokens)
        assert w.tokens == tuple(tokens) and type(w.n) is int
        assert lattice.evaluate_word(w) == lattice.LatticeElement((1,), (2,), 2)
