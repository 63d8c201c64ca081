"""The value types behave as the frozen dataclasses they were: the same repr,
equality and hash on the field tuple, no assignment or deletion, positional
`match` on the fields, and copies and pickles equal to the original.

Each repr below is the string the dataclass-era types printed.
"""

import copy
import dataclasses
import pickle

import pytest

from heis import _Value, core, grid, lattice, siegel

# name: (a fresh value, its repr, a value of the same type that differs in one field)
CASES = {
    "RealElement": (lambda: core.RealElement((1, -0.0), (2.5, 3), -1e-300),
                    "RealElement(x=(1.0, -0.0), y=(2.5, 3.0), t=-1e-300)",
                    core.RealElement((1, -0.0), (2.5, 4), -1e-300)),
    "Dilation": (lambda: core.Dilation(2), "Dilation(r=2.0)", core.Dilation(3)),
    "CosetReduction": (lambda: core.coset_reduce(core.RealElement((1.5,), (-2.25,), 7.125)),
                       "CosetReduction(k=(-1,), l=(3,), m=-11, "
                       "rep=RealElement(x=(0.5,), y=(0.75,), t=0.625))",
                       core.coset_reduce(core.RealElement((1.5,), (-2.25,), 8.125))),
    "LatticeElement": (lambda: lattice.LatticeElement((1, -2), (3, 4), 5),
                       "LatticeElement(k=(1, -2), l=(3, 4), m=5)",
                       lattice.LatticeElement((1, -2), (3, 4), 6)),
    "GeneratorToken": (lambda: lattice.GeneratorToken("a", 2, -3),
                       "GeneratorToken(kind='a', index=2, exponent=-3)",
                       lattice.GeneratorToken("b", 2, -3)),
    "Word": (lambda: lattice.parse_word("a1^2 c^-1", 2),
             "Word(n=2, tokens=(GeneratorToken(kind='a', index=1, exponent=2), "
             "GeneratorToken(kind='c', index=0, exponent=-1)))",
             lattice.parse_word("a1^2 c^-1", 3)),
    "RelationReport": (lambda: lattice.check_relations(1),
                       "RelationReport(checked=5, counterexamples=())",
                       lattice.RelationReport(5, ("b1 a1 = a1 b1 c",))),
    "GridSpec": (lambda: grid.GridSpec(2, 8), "GridSpec(n=2, N=8)", grid.GridSpec(2, 16)),
    "ComplexElement": (lambda: siegel.ComplexElement((1 + 2j, -0.0j), 3),
                       "ComplexElement(z=((1+2j), (-0-0j)), t=3.0)",
                       siegel.ComplexElement((1 + 2j, -0.0j), 4)),
    "SiegelPoint": (lambda: siegel.SiegelPoint((1j,), 2 + 3j),
                    "SiegelPoint(w=(1j,), sigma=(2+3j))",
                    siegel.SiegelPoint((1j,), 2 + 4j)),
}


def positional(value):
    """The fields of `value`, captured by a class pattern with positional
    sub-patterns."""
    match value:
        case core.RealElement(x, y, t):
            return x, y, t
        case core.Dilation(r):
            return (r,)
        case core.CosetReduction(k, l, m, rep):
            return k, l, m, rep
        case lattice.LatticeElement(k, l, m):
            return k, l, m
        case lattice.GeneratorToken(kind, index, exponent):
            return kind, index, exponent
        case lattice.Word(n, tokens):
            return n, tokens
        case lattice.RelationReport(checked, counterexamples):
            return checked, counterexamples
        case grid.GridSpec(n, N):
            return n, N
        case siegel.ComplexElement(z, t):
            return z, t
        case siegel.SiegelPoint(w, sigma):
            return w, sigma
    raise AssertionError(f"no case matched {value!r}")


def field_tuple(value):
    return tuple(getattr(value, name) for name in type(value).__match_args__)


def test_every_value_type_has_a_case():
    assert {case().__class__.__name__ for case, _, _ in CASES.values()} == set(CASES)
    assert {cls.__name__ for cls in _Value.__subclasses__()} == set(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_repr_is_the_dataclass_repr(name):
    make, text, _ = CASES[name]
    assert repr(make()) == text


@pytest.mark.parametrize("name", sorted(CASES))
def test_equality_and_hash_are_on_the_field_tuple(name):
    make, _, other = CASES[name]
    a, b = make(), make()
    assert a is not b
    assert a == b and not a != b
    assert hash(a) == hash(b) == hash(field_tuple(a))
    assert a != other and not a == other
    assert field_tuple(a) != field_tuple(other)
    assert hash(other) == hash(field_tuple(other))
    assert a.__eq__(field_tuple(a)) is NotImplemented
    assert a != field_tuple(a)


def test_values_of_different_types_are_unequal():
    g = core.RealElement((1.0,), (2.0,), 3.0)
    red = core.CosetReduction((1.0,), (2.0,), 3.0, None)
    assert field_tuple(g) == field_tuple(red)[:3]
    assert (g == red) is False and (red == g) is False
    assert g != red
    dilation, report = core.Dilation(5), lattice.RelationReport(5, ())
    assert dilation != report and dilation != (5.0,)
    # one field tuple, two types: still unequal
    assert siegel.ComplexElement((1j,), 2.0) != siegel._point((1j,), 2.0)


@pytest.mark.parametrize("name", sorted(CASES))
def test_fields_can_be_neither_set_nor_deleted(name):
    value = CASES[name][0]()
    before = repr(value)
    for field in type(value).__match_args__:
        with pytest.raises(dataclasses.FrozenInstanceError, match=f"^cannot assign to field '{field}'$"):
            setattr(value, field, None)
        with pytest.raises(dataclasses.FrozenInstanceError, match=f"^cannot delete field '{field}'$"):
            delattr(value, field)
    with pytest.raises(dataclasses.FrozenInstanceError, match="^cannot assign to field 'extra'$"):
        value.extra = 1
    assert repr(value) == before


@pytest.mark.parametrize("name", sorted(CASES))
def test_match_reads_the_fields_by_position(name):
    value = CASES[name][0]()
    assert positional(value) == field_tuple(value)


@pytest.mark.parametrize("name", sorted(CASES))
def test_copies_and_pickles_equal_the_original(name):
    value = CASES[name][0]()
    for clone in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
        assert type(clone) is type(value)
        assert clone == value and hash(clone) == hash(value) and repr(clone) == repr(value)
        assert list(vars(clone)) == list(type(value).__match_args__)
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(clone, type(value).__match_args__[0], None)


def test_the_dict_holds_the_fields_in_order():
    # equality and hash read __dict__, so it holds the fields in order and no more,
    # whether a constructor or an unchecked builder wrote it
    g, h = core.RealElement((1.0,), (2.0,), 3.0), core.RealElement((0.5,), (4.0,), 1.0)
    a = lattice.LatticeElement((1,), (2,), 3)
    cg = siegel.ComplexElement((1j,), 2.0)
    p = siegel.SiegelPoint((0j,), 3j)
    word = lattice.parse_word("a1 b1^2 c", 1)
    values = [make() for make, _, _ in CASES.values()] + [other for _, _, other in CASES.values()]
    values += [core.mul(g, h), core.inverse(g), core.RealElement.identity(2), core.embed_integer(
        (1,), (2,), 3), lattice.lmul(a, a), lattice.evaluate_word(word), lattice.normal_form(a),
        lattice.normalize_word(word), *word.tokens, siegel.cmul(cg, cg), siegel.act(cg, p),
        siegel.domain_dilate(core.Dilation(2), p)]
    for value in values:
        assert list(vars(value)) == list(type(value).__match_args__), value
        assert hash(value) == hash(field_tuple(value)), value
