"""The validation boundary.

Public constructors, the public functions that take a dimension, and the text
parsers validate, each input kind through its one validator in `errors`;
every operation output is built without re-running the validating
constructor, by its type's unchecked builder (core._real, lattice._element,
siegel._complex, ...), through errors.finite_triple or errors.finite_pair
where a float result may overflow.
These tests pin both halves: every public entry point that takes a dimension n
refuses a bad one the same way, every integer input takes integers only, text
is never read as a number, an operation's output is exactly what the
validating constructor would have built from its fields, no validation runs
while operations compute, and the one check the trusted path keeps, the
float-overflow test, still names the operation.
"""

import ast
import dataclasses
import inspect
import io
import math
import operator
import pathlib
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heis import checks, core, errors, grid, lattice, siegel, textio
from heis.errors import DimensionError, LiteralSyntaxError, ParameterError, WordSyntaxError

VALIDATING = (core.RealElement, lattice.LatticeElement, siegel.ComplexElement, siegel.SiegelPoint,
              lattice.Word)
OUTPUT_TYPES = VALIDATING + (core.CosetReduction,)
# a Word's components are its tokens, and a CosetReduction's rep is a RealElement
COMPONENT_TYPES = (float, int, complex, lattice.GeneratorToken, core.RealElement)


def operations(n, rng):
    """(name, thunk) for every operation, on validated random operands."""

    def real():
        return core.RealElement(*(tuple(rng.uniform(-10, 10) for _ in range(n)) for _ in range(2)),
                                rng.uniform(-10, 10))

    def integer():
        return lattice.LatticeElement(*(tuple(rng.randint(-50, 50) for _ in range(n)) for _ in range(2)),
                                      rng.randint(-50, 50))

    def cvec():
        return tuple(complex(rng.uniform(-10, 10), rng.uniform(-10, 10)) for _ in range(n))

    g, h = real(), real()
    a, b = integer(), integer()
    cg, ch = siegel.ComplexElement(cvec(), rng.uniform(-10, 10)), siegel.ComplexElement(cvec(), 0.5)
    p = siegel.SiegelPoint(cvec(), complex(rng.uniform(-10, 10), rng.uniform(-10, 10)))
    d = core.Dilation(rng.uniform(0.1, 10))
    j = rng.randint(1, n)
    w = lattice.Word(n, tuple(lattice.GeneratorToken(kind, 0 if kind == "c" else rng.randint(1, n),
                                                     rng.choice([-7, -1, 1, 2, 30]))
                              for kind in rng.choices("abc", k=rng.randint(0, 8))))
    text = str(w)
    return (
        ("core.mul", lambda: core.mul(g, h)),
        ("core.inverse", lambda: core.inverse(g)),
        ("core.naive_inverse", lambda: core.naive_inverse(g)),
        ("core.dilate", lambda: core.dilate(d, g)),
        ("core.coset_reduce", lambda: core.coset_reduce(g)),
        ("core.embed_integer", lambda: core.embed_integer(a.k, a.l, a.m)),
        ("lattice.embed", lambda: lattice.embed(a)),
        ("RealElement.identity", lambda: core.RealElement.identity(n)),
        ("lattice.lmul", lambda: lattice.lmul(a, b)),
        ("lattice.linverse", lambda: lattice.linverse(a)),
        ("lattice.token_element a", lambda: lattice.token_element(lattice.GeneratorToken("a", j, -3), n)),
        ("lattice.token_element b", lambda: lattice.token_element(lattice.GeneratorToken("b", j, 4), n)),
        ("lattice.token_element c", lambda: lattice.token_element(lattice.GeneratorToken("c", 0, 5), n)),
        ("lattice.gen_c", lambda: lattice.gen_c(n)),
        ("LatticeElement.identity", lambda: lattice.LatticeElement.identity(n)),
        ("lattice.parse_word", lambda: lattice.parse_word(text, n)),
        ("lattice.evaluate_word", lambda: lattice.evaluate_word(w)),
        ("lattice.normal_form", lambda: lattice.normal_form(a)),
        ("lattice.normalize_word", lambda: lattice.normalize_word(w)),
        ("siegel.cmul", lambda: siegel.cmul(cg, ch)),
        ("siegel.cinverse", lambda: siegel.cinverse(cg)),
        ("siegel.act", lambda: siegel.act(cg, p)),
        ("siegel.cdilate", lambda: siegel.cdilate(d, cg)),
        ("siegel.domain_dilate", lambda: siegel.domain_dilate(d, p)),
        ("ComplexElement.identity", lambda: siegel.ComplexElement.identity(n)),
    )


def fields(obj):
    return tuple(getattr(obj, name) for name in type(obj).__match_args__)


def components(obj):
    for value in fields(obj):
        yield from value if type(value) is tuple else (value,)


@pytest.fixture
def validations(monkeypatch):
    """Counts the validating runs of the validating types: their own `__init__`."""
    count = [0]
    for cls in VALIDATING:
        def counted(self, *args, _check=cls.__init__, **kwargs):
            count[0] += 1
            _check(self, *args, **kwargs)
        monkeypatch.setattr(cls, "__init__", counted)
    return count


@pytest.mark.parametrize("n", [1, 2, 3])
def test_operations_do_not_revalidate(n, validations):
    rng = random.Random(n)
    for _ in range(20):
        validations[0] = 0
        ops = operations(n, rng)
        # the operands: two RealElements, LatticeElements and ComplexElements, one
        # SiegelPoint and one Word
        assert validations[0] == 8
        validations[0] = 0
        for name, op in ops:
            op()
            assert validations[0] == 0, name


def assert_rebuilt(out, name):
    """`out` is what its type's constructor builds from its fields, down to
    the type of every component, and so is each token or element it holds;
    like a constructed value, it refuses assignment to a field."""
    rebuilt = type(out)(*fields(out))
    assert out == rebuilt and hash(out) == hash(rebuilt), name
    assert repr(out) == repr(rebuilt), name  # tells -0.0 from 0.0
    assert [type(v) for v in fields(out)] == [type(v) for v in fields(rebuilt)], name
    assert [type(c) for c in components(out)] == [type(c) for c in components(rebuilt)], name
    for part in components(out):
        if isinstance(part, (lattice.GeneratorToken, core.RealElement)):
            assert_rebuilt(part, name)
    field = type(out).__match_args__[0]
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(out, field, getattr(out, field))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_outputs_are_what_the_validating_constructor_builds(n):
    rng = random.Random(10 + n)
    for _ in range(20):
        for name, op in operations(n, rng):
            out = op()
            assert type(out) in OUTPUT_TYPES, name
            assert all(type(c) in COMPONENT_TYPES for c in components(out)), name
            assert_rebuilt(out, name)


def _real(x, y, t):
    return core.RealElement((x,), (y,), t)


def _real2(x, t=0.0):
    return core.RealElement(x, (0.0, 0.0), t)


HUGE = core.Dilation(1e200)
OVERFLOWS = [
    pytest.param("product", lambda: core.mul(_real(1e200, 1e200, 0), _real(1e200, 1e200, 0)), id="mul"),
    pytest.param("inverse", lambda: core.inverse(_real(1e200, 1e200, 0)), id="inverse"),
    pytest.param("dilation", lambda: core.dilate(HUGE, _real(1, 1, 1)), id="dilate"),
    pytest.param("product", lambda: siegel.cmul(siegel.ComplexElement((1e300 + 1e300j,), 0),
                                                siegel.ComplexElement((1e300 - 1e300j,), 0)), id="cmul"),
    pytest.param("action", lambda: siegel.act(siegel.ComplexElement((1e160,), 0),
                                              siegel.SiegelPoint((0j,), 1j)), id="act"),
    pytest.param("composition", lambda: siegel.act_compose_check(
        siegel.ComplexElement((1e160,), 0), siegel.ComplexElement.identity(1),
        siegel.SiegelPoint((0j,), 1j)), id="act_compose_check"),
    pytest.param("composition", lambda: siegel.act_compose_check(
        siegel.ComplexElement((1e300 + 1e300j,), 0), siegel.ComplexElement((1e300 - 1e300j,), 0),
        siegel.SiegelPoint((0j,), 1j)), id="act_compose_check-product"),
    pytest.param("dilation", lambda: siegel.cdilate(HUGE, siegel.ComplexElement((1j,), 1)), id="cdilate"),
    pytest.param("dilation", lambda: siegel.domain_dilate(HUGE, siegel.SiegelPoint((1j,), 1j)),
                 id="domain_dilate"),
    # components inf and -inf sum to nan; a lone inf beside large finite parts sums to inf
    pytest.param("product", lambda: core.mul(_real2((1e308, -1e308)), _real2((1e308, -1e308))),
                 id="mul-inf-minus-inf"),
    pytest.param("product", lambda: core.mul(_real2((1e308, -1e308)), _real2((1e308, -1e307))),
                 id="mul-lone-inf"),
    pytest.param("product", lambda: core.mul(_real2((-1e308, 1e308)), _real2((-1e307, 1e308))),
                 id="mul-lone-inf-last"),
    pytest.param("product", lambda: siegel.cmul(siegel.ComplexElement((1e308, -1e308), 0.0),
                                                siegel.ComplexElement((1e308, -1e308), 0.0)),
                 id="cmul-inf-minus-inf"),
    pytest.param("dilation", lambda: siegel.domain_dilate(core.Dilation(2.0),
                                                          siegel.SiegelPoint((1e308, -1e308), 1j)),
                 id="domain_dilate-inf-minus-inf"),
]


@pytest.mark.parametrize("operation, call", OVERFLOWS)
def test_overflow_names_the_operation(operation, call):
    """Finite operands, an output that overflows: the trusted path's one test."""
    with pytest.raises(ParameterError, match=f"^{operation} overflows the float range$"):
        call()


@pytest.mark.parametrize("call", [
    lambda: core.mul(_real2((5e307, 5e307)), _real2((5e307, 5e307))),
    lambda: core.mul(_real2((1e308, 0.0), 5e307), _real2((0.0, 1e308), 5e307)),
    # cdot = -1e308j + 1e308j is exact, so sigma stays 1j + 2j
    lambda: siegel.act(siegel.ComplexElement((1j, -1j), 0.0),
                       siegel.SiegelPoint((1e308, 1e308), 1j)),
    lambda: siegel.cmul(siegel.ComplexElement((1e308j, 1e308j), 0.0),
                        siegel.ComplexElement((1e307j, 1e307j), 0.0)),
    lambda: core.dilate(core.Dilation(1.0), _real2((1e308, 1e308), 1e308)),
    lambda: siegel.domain_dilate(core.Dilation(1.0), siegel.SiegelPoint((1e308, 1e308j), 1e308j)),
], ids=["mul-x", "mul-x-t", "act", "cmul", "dilate", "domain_dilate"])
def test_finite_components_with_an_overflowing_sum_are_accepted(call):
    """The output's one-sum test overflows, but every component is finite:
    the output stands, equal to what the validating constructor builds."""
    out = call()
    # the sum that errors.finite_triple or errors.finite_pair tests, in its order
    total = sum(out.x, sum(out.y, out.t)) if type(out) is core.RealElement else sum(*fields(out))
    assert not np.isfinite(total)
    assert all(map(np.isfinite, components(out)))
    rebuilt = type(out)(*fields(out))
    assert out == rebuilt and repr(out) == repr(rebuilt)


@pytest.mark.parametrize("k, l", [((1, 2), (3,)), ((), ())])
def test_embedding_keeps_its_dimension_check(k, l):
    # embed_integer takes raw sequences, so it checks what the constructor would have
    with pytest.raises(DimensionError):
        core.embed_integer(k, l, 0)


@pytest.mark.parametrize("call", [
    lambda: core.embed_integer((10**400,), (0,), 0),
    lambda: core.embed_integer((0,), (0,), -10**400),
    lambda: lattice.embed(lattice.LatticeElement((0,), (10**400,), 0)),
], ids=["embed_integer-k", "embed_integer-m", "lattice.embed"])
def test_embedding_overflow_is_a_parameter_error(call):
    with pytest.raises(ParameterError, match="^embedding overflows the float range$"):
        call()


# --- one validator per input kind ---------------------------------------------

DIMENSION_MODULES = (core, lattice, grid, siegel, textio, checks)
# a valid value for every other parameter without a default of an entry point
# that takes n; a new entry point with a new parameter name must add it here
VALID_ARGUMENTS = {"tok": lattice.GeneratorToken("a", 1, 1), "tokens": (), "N": 4,
                   "trials": 1, "seed": 0}
VALID_TEXT = {"heis.lattice.parse_word": "a1", "heis.textio.parse_real_element": "1;2;3",
              "heis.textio.parse_complex_element": "1+2i;3",
              "heis.textio.parse_siegel_point": "1;2i"}
KNOWN_DIMENSION_ENTRY_POINTS = {
    "heis.core.RealElement.identity", "heis.lattice.LatticeElement.identity",
    "heis.lattice.gen_c", "heis.lattice.token_element", "heis.lattice.Word",
    "heis.lattice.parse_word", "heis.lattice.check_relations", "heis.grid.GridSpec",
    "heis.siegel.ComplexElement.identity", "heis.checks.rep_check",
    "heis.checks.siegel_check", "heis.checks.relation_check",
} | set(VALID_TEXT)


def dimension_entry_points():
    """(qualified name, callable) for every public function, class and static
    or class method defined in the library's modules that takes an `n`."""
    for module in DIMENSION_MODULES:
        for name, obj in vars(module).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            found = [(name, obj)]
            if inspect.isclass(obj):
                found += [(f"{name}.{attr}", getattr(obj, attr))
                          for attr, member in vars(obj).items()
                          if not attr.startswith("_")
                          and isinstance(member, (staticmethod, classmethod))]
            for label, fn in found:
                if callable(fn) and "n" in inspect.signature(fn).parameters:
                    yield f"{module.__name__}.{label}", fn


def test_every_dimension_entry_point_refuses_a_bad_n():
    """n = 1.5 and n = "2" are parameter errors and n = 0 a dimension error,
    never a TypeError, at every public entry point that takes n."""
    seen = set()
    for qualname, fn in dimension_entry_points():
        seen.add(qualname)
        params = inspect.signature(fn).parameters
        others = {name: VALID_TEXT[qualname] if name == "text" else VALID_ARGUMENTS[name]
                  for name, param in params.items()
                  if name != "n" and param.default is inspect.Parameter.empty}
        for bad, error in [(1.5, ParameterError), ("2", ParameterError), (0, DimensionError)]:
            with pytest.raises(error) as info:
                fn(n=bad, **others)
            assert type(info.value) is error, (qualname, bad)
            if error is DimensionError:
                assert str(info.value) == "n must be >= 1", qualname
            else:
                assert str(info.value) == f"n must be an integer, got {bad!r}", (qualname, bad)
    assert KNOWN_DIMENSION_ENTRY_POINTS <= seen


SPEC = grid.GridSpec(1, 4)
F = grid.GridFunction(SPEC, [1, 2j, 3, 4j])
VECTOR_FIELDS = {"k", "l", "p", "q"}  # given here as 1-vectors
INTEGER_INPUTS = {
    # id: (field, the call given the field's value, what the call keeps of it)
    "GridSpec-N": ("N", lambda v: grid.GridSpec(1, v), operator.attrgetter("N")),
    **{f"{name}-{field}": (field, build, operator.attrgetter(field))
       for name, cls in [("LatticeElement", lattice.LatticeElement),
                         ("QuantizedTriple", grid.QuantizedTriple)]
       for field, build in [("k", lambda v, c=cls: c(v, (0,), 0)),
                            ("l", lambda v, c=cls: c((0,), v, 0)),
                            ("m", lambda v, c=cls: c((0,), (0,), v))]},
    "GeneratorToken-index": ("index", lambda v: lattice.GeneratorToken("a", v, 1),
                             operator.attrgetter("index")),
    "GeneratorToken-exponent": ("exponent", lambda v: lattice.GeneratorToken("a", 1, v),
                                operator.attrgetter("exponent")),
    "apply_T-p": ("p", lambda v: grid.apply_T(v, F), lambda out: out.values.tobytes()),
    "apply_U-q": ("q", lambda v: grid.apply_U(v, F), lambda out: out.values.tobytes()),
    "weyl_alpha-p": ("p", lambda v: grid.weyl_alpha(v, (1,), SPEC), complex),
    "weyl_alpha-q": ("q", lambda v: grid.weyl_alpha((1,), v, SPEC), complex),
    "embed_integer-k": ("k", lambda v: core.embed_integer(v, (0,), 0), repr),
    "embed_integer-l": ("l", lambda v: core.embed_integer((0,), v, 0), repr),
    "embed_integer-m": ("m", lambda v: core.embed_integer((0,), (0,), v), repr),
    "rep_check-trials": ("trials", lambda v: checks.rep_check(1, 4, v, 0), tuple),
    "rep_check-seed": ("seed", lambda v: checks.rep_check(1, 4, 1, v), tuple),
    "siegel_check-trials": ("trials", lambda v: checks.siegel_check(1, v, 0), tuple),
    "siegel_check-seed": ("seed", lambda v: checks.siegel_check(1, 1, v), tuple),
}


def types(kept):
    return tuple(map(type, kept)) if type(kept) is tuple else type(kept)


@pytest.mark.parametrize("field, call, kept", INTEGER_INPUTS.values(), ids=INTEGER_INPUTS)
def test_every_integer_input_takes_integers_only(field, call, kept):
    """Every integer input goes through `errors.integer` or `errors.integers`:
    numpy integers are taken and kept as ints, and a float, text or None is a
    parameter error that names the field, never a TypeError, never read."""
    vector = field in VECTOR_FIELDS
    as_input = (lambda v: (v,)) if vector else (lambda v: v)
    want = kept(call(as_input(2)))
    for good in (np.int64(2), np.int32(2), np.uint8(2)):
        got = kept(call(as_input(good)))
        assert got == want
        assert types(got) == types(want)  # kept as ints, not numpy integers
    for bad in (2.0, "2", None):
        with pytest.raises(ParameterError) as info:
            call(as_input(bad))
        assert str(info.value) == (f"{field} must have integers as components, got {(bad,)!r}"
                                   if vector else f"{field} must be an integer, got {bad!r}")


def test_operator_index_is_called_only_in_errors():
    """`errors.integer` and `errors.integers` are the one integer check."""
    found = []
    for path in sorted(pathlib.Path(errors.__file__).parent.glob("*.py")):
        if path.name == "errors.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if (isinstance(node, ast.Attribute) and node.attr == "index"
                    and isinstance(node.value, ast.Name) and node.value.id == "operator"):
                found.append(f"{path.name}:{node.lineno}")
            elif isinstance(node, ast.ImportFrom) and node.module == "operator":
                found += [f"{path.name}:{node.lineno}" for a in node.names if a.name == "index"]
    assert found == []


def test_outputs_are_built_by_name():
    """Every output builder writes its fields by name: no module calls the
    generic `trusted_output` or reads a class's `__match_args__`."""
    found = []
    for path in sorted(pathlib.Path(errors.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if (isinstance(node, ast.Name) and node.id == "trusted_output"
                    or isinstance(node, ast.Attribute)
                    and node.attr in ("trusted_output", "__match_args__")
                    or isinstance(node, ast.alias) and node.name == "trusted_output"):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def test_validators():
    assert errors.dimension(np.int64(3)) == 3 and type(errors.dimension(np.int64(3))) is int
    assert errors.finite_vector((x for x in (1, np.float32(0.5))), float) == (1.0, 0.5)
    assert errors.finite_vector([2, 1j], complex) == (2 + 0j, 1j)
    # components whose sum overflows are finite
    assert errors.finite_vector((1e308, 1e308), float) == (1e308, 1e308)
    assert errors.finite_vector((1e308j, 1e308 + 1e308j), complex) == (1e308j, 1e308 + 1e308j)
    with pytest.raises(DimensionError, match="^vectors must have length n >= 1$"):
        errors.finite_vector((), float)
    for bad in [(math.inf,), (0.0, math.nan), (math.inf, -math.inf), (math.inf, -1e308)]:
        with pytest.raises(ParameterError, match="^vector components must be finite$"):
            errors.finite_vector(bad, float)
    with pytest.raises(ParameterError, match="^vector components must be finite$"):
        errors.finite_vector((complex(1, math.inf), complex(1, -math.inf)), complex)
    for bad in [1.0, (None,), (1j,)]:
        with pytest.raises(ParameterError, match="^vector components must be numbers"):
            errors.finite_vector(bad, float)


def test_scalar_validator():
    assert errors.finite_scalar(np.float32(0.5), float, "t") == 0.5
    assert type(errors.finite_scalar(np.int64(2), float, "t")) is float
    assert errors.finite_scalar(2, complex, "sigma") == 2 + 0j
    assert type(errors.finite_scalar(True, complex, "sigma")) is complex
    assert errors.finite_scalar(1e-300, float, "r", positive=True) == 1e-300


@pytest.mark.parametrize("build, field, want", [
    (lambda v: core.RealElement((1.0,), (1.0,), v), "t", float),
    (lambda v: siegel.ComplexElement((1j,), v), "t", float),
    (lambda v: siegel.SiegelPoint((1j,), v), "sigma", complex),
    (lambda v: core.Dilation(v), "r", float),
], ids=["RealElement.t", "ComplexElement.t", "SiegelPoint.sigma", "Dilation.r"])
def test_scalar_fields_take_numbers_only(build, field, want):
    """A scalar field holds the converted number; text and other non-numbers
    are parameter errors, never read and never a bare TypeError."""
    for good in (2, 2.0, np.float64(2.0), np.int32(2)):
        value = getattr(build(good), field)
        assert type(value) is want and value == 2
    for bad in ("2", b"2", None, [2.0], np.str_("2")):
        with pytest.raises(ParameterError, match=r" must be a number, got "):
            build(bad)
    if want is float:
        with pytest.raises(ParameterError, match=r"^\S.* must be a number, got 1j$"):
            build(1j)


@pytest.mark.parametrize("call, message", [
    (lambda: core.RealElement((1.0,), (1.0,), math.inf), "t must be finite, got inf"),
    (lambda: siegel.ComplexElement((1j,), math.nan), "t must be finite, got nan"),
    (lambda: siegel.SiegelPoint((1j,), complex(0, math.inf)), "sigma must be finite, got infj"),
    (lambda: core.Dilation(0), "dilation parameter must be positive and finite, got 0.0"),
    (lambda: core.Dilation(-math.inf), "dilation parameter must be positive and finite, got -inf"),
    (lambda: core.Dilation(math.nan), "dilation parameter must be positive and finite, got nan"),
], ids=["RealElement.t", "ComplexElement.t", "SiegelPoint.sigma", "Dilation-0", "Dilation--inf",
        "Dilation-nan"])
def test_scalar_fields_must_be_finite(call, message):
    with pytest.raises(ParameterError, match=f"^{message}$"):
        call()


def test_apply_C_takes_finite_unimodular_numbers_only():
    """alpha goes through the scalar validator before its unit-modulus test:
    NaN passes `abs(abs(alpha) - 1) > 1e-12`, since comparisons with NaN are
    false, and text would be read by complex()."""
    f = grid.GridFunction(grid.GridSpec(1, 2), [1.0, 2.0])
    assert np.array_equal(grid.apply_C(np.complex64(1j), f).values, [1j, 2j])
    for bad, message in [(math.nan, "be finite, got (nan+0j)"),
                         (complex(math.inf, 0), "be finite, got (inf+0j)"),
                         ("1j", "be a number, got '1j'"), (b"1", "be a number, got b'1'"),
                         (None, "be a number, got None"), ([1], "be a number, got [1]"),
                         (2, "have unit modulus, got |alpha| = 2.0")]:
        with pytest.raises(ParameterError) as info:
            grid.apply_C(bad, f)
        assert str(info.value) == f"alpha must {message}"


@pytest.mark.parametrize("values", [
    ["1", "2"], [b"1", b"2"], np.array(["1", "2"]), [np.str_("1"), np.str_("2")],
    {1: 2}, [1j, object()], [1, None], [[1], [2, 3]],
], ids=["str", "bytes", "str-array", "np.str_", "dict", "object", "None", "ragged"])
def test_grid_samples_are_numbers_only(values):
    """Text is never read as a sample, and a non-number is a parameter error,
    not a bare TypeError."""
    with pytest.raises(ParameterError,
                       match="^grid samples must (be numbers, got|form a regular array$)"):
        grid.GridFunction(grid.GridSpec(1, 2), values)


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=["nan", "+inf", "-inf"])
@pytest.mark.parametrize("part", ["real", "imag"])
def test_grid_samples_must_be_finite(n, bad, part):
    """A NaN or an infinity in either part of the first, a middle or the last
    sample is refused by name; the same samples without it are taken."""
    spec = grid.GridSpec(n, 4)
    size = spec.N**n
    for at in (0, size // 2, size - 1):
        values = np.full(size, 1.0 + 2.0j)
        grid.GridFunction(spec, values.reshape(spec.shape))
        values[at] = complex(bad, 2.0) if part == "real" else complex(1.0, bad)
        with pytest.raises(ParameterError, match="^grid samples must be finite$"):
            grid.GridFunction(spec, values.reshape(spec.shape))


def test_grid_samples_take_every_numeric_kind_and_copy_once():
    spec = grid.GridSpec(2, 2)
    for values in ([True, False, True, False], np.arange(4, dtype=np.uint8),
                   np.arange(4, dtype=np.float32).reshape(2, 2), [1, 2.5, 3j, 4]):
        f = grid.GridFunction(spec, values)
        assert f.values.dtype == np.complex128 and f.values.shape == (2, 2)
        assert np.array_equal(f.values.ravel(), np.asarray(values).ravel())
    source = np.arange(4.0) + 0j
    f = grid.GridFunction(spec, source)
    assert f.values.base is None and not np.shares_memory(f.values, source)
    assert f.values.flags.c_contiguous and not f.values.flags.writeable
    assert grid.GridFunction(spec, source.reshape(2, 2).T).values.flags.c_contiguous


@pytest.mark.parametrize("call, message", [
    (lambda: checks.rep_check(1, 4, 1.5, 0), "trials must be an integer, got 1.5"),
    (lambda: checks.siegel_check(1, "2", 0), "trials must be an integer, got '2'"),
    (lambda: checks.siegel_check(1, 2, 1.5), "seed must be an integer, got 1.5"),
    (lambda: checks.rep_check(1, 4, 1, "0"), "seed must be an integer, got '0'"),
    (lambda: checks.siegel_check(1, 0, 0), "trials must be >= 1, got 0"),
    (lambda: checks.rep_check(1, 4, 1, -1), "seed must be a non-negative integer, got -1"),
], ids=["rep_check-trials", "siegel_check-trials", "siegel_check-seed", "rep_check-seed",
        "no-trials", "negative-seed"])
def test_check_runs_take_integer_trials_and_seeds(call, message):
    with pytest.raises(ParameterError, match=f"^{message}$"):
        call()


def test_check_runs_take_numpy_integers():
    text, ok = checks.siegel_check(np.int64(1), np.int32(2), np.uint8(3))
    assert ok and text.startswith("siegel-check: n=1 trials=2 seed=3 bound=10\n")


def _f(n=1):
    spec = grid.GridSpec(n, 8)
    return grid.GridFunction(spec, np.linspace(0, 1, 8**n).reshape(spec.shape))


@pytest.mark.parametrize("call", [
    lambda: core.RealElement(("1",), (0.0,), 0),
    lambda: core.RealElement((0.0,), (b"1",), 0),
    lambda: core.RealElement("12", "34", 0),
    lambda: siegel.ComplexElement(("1+2j",), 0),
    lambda: siegel.SiegelPoint((1j, "2"), 1j),
    lambda: grid.coordinate_multiply(("0.5",), _f()),
    lambda: grid.directional_difference((b"1",), _f()),
    lambda: grid.commutator_defect(("1",), ("1e0",), _f()),
    lambda: grid.commutator_defect((1.0,), ("1e0",), _f()),
], ids=["RealElement-x", "RealElement-y-bytes", "RealElement-strings", "ComplexElement",
        "SiegelPoint", "coordinate_multiply", "directional_difference", "commutator_defect-nu",
        "commutator_defect-u"])
def test_text_components_are_refused(call):
    """Text is parsed by `textio`, never read as a number by a constructor."""
    with pytest.raises(ParameterError, match="^vector components must be numbers"):
        call()


@pytest.mark.parametrize("call", [
    lambda: grid.commutator_defect((math.inf,), (1.0,), _f()),
    lambda: grid.commutator_defect((1.0,), (math.nan,), _f()),
    lambda: grid.coordinate_multiply((math.inf, 0.0), _f(2)),
    lambda: grid.directional_difference((math.nan,), _f()),
], ids=["commutator_defect-nu", "commutator_defect-u", "coordinate_multiply",
        "directional_difference"])
def test_grid_weights_must_be_finite(call):
    """A non-finite weight is the caller's bad input, not a bad sample."""
    with pytest.raises(ParameterError, match="^vector components must be finite$"):
        call()


@pytest.mark.parametrize("n, N", [(1, 8), (2, 4), (2, 16)])
def test_rep_operator_trusts_what_rep_validated(n, N, monkeypatch):
    """Applying a `rep` operator runs no vector check, no public grid
    function and no validating constructor, and gives the bytes of
    T_p(U_q(C_alpha f))."""
    spec = grid.GridSpec(n, N)
    rng = np.random.default_rng(N)
    shape = spec.shape
    fs = [grid.GridFunction(spec, rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
          for _ in range(3)]
    triples = [grid.QuantizedTriple(*(tuple(rng.integers(-2 * N, 2 * N, n)) for _ in range(2)),
                                    int(rng.integers(-2 * N, 2 * N))) for _ in range(5)]
    triples.append(grid.QuantizedTriple((0,) * n, (0,) * n, 0))
    # exp(2 pi i m / N) from the root table rep reads: weyl_alpha at p = 1, q = m
    alphas = [grid.weyl_alpha((1,), (g.m,), grid.GridSpec(1, N)) for g in triples]
    expected = [[grid.apply_T(g.k, grid.apply_U(g.l, grid.apply_C(alpha, f))).values for f in fs]
                for g, alpha in zip(triples, alphas)]
    ops = [grid.rep(g, spec) for g in triples]

    calls = []
    names = ["_check_vec"] + [name for name, obj in vars(grid).items()
                              if inspect.isfunction(obj) and not name.startswith("_")
                              and obj.__module__ == grid.__name__]
    for name in names:
        def counted(*args, _fn=getattr(grid, name), _name=name, **kwargs):
            calls.append(_name)
            return _fn(*args, **kwargs)
        monkeypatch.setattr(grid, name, counted)
    init = grid.GridFunction.__init__

    def counted_init(self, *args):
        calls.append("GridFunction")
        init(self, *args)
    monkeypatch.setattr(grid.GridFunction, "__init__", counted_init)
    assert {"_check_vec", "apply_T", "apply_U", "apply_C"} <= set(names)

    for op, want in zip(ops, expected):
        for f, values in zip(fs, want):
            out = op(f)
            assert np.array_equal(out.values, values) and not out.values.flags.writeable
    assert calls == []


def _f4():
    return grid.GridFunction(grid.GridSpec(1, 4), [0, 1, 2, 3])


# raises of the public boundary that no other test reaches, with their exact messages
PUBLIC_ERRORS = {
    "RealElement-lengths": (lambda: core.RealElement((1.0,), (1.0, 2.0), 0), DimensionError,
                            "x has length 1 but y has length 2"),
    "GridFunction-shape": (lambda: grid.GridFunction(grid.GridSpec(1, 4), [[1, 2], [3, 4]]),
                           DimensionError, "values have shape (2, 2), expected (4,)"),
    "max_abs_diff-grids": (lambda: _f4().max_abs_diff(grid.GridFunction(grid.GridSpec(1, 8),
                                                                        range(8))),
                           DimensionError, "grid functions live on different grids"),
    "apply_T-scalar": (lambda: grid.apply_T(3, _f4()), DimensionError,
                       "p must be an n-vector of length 1, got shape ()"),
    "rep-dimension": (lambda: grid.rep(lattice.LatticeElement((1, 2), (0, 0), 0),
                                       grid.GridSpec(1, 4)),
                      DimensionError, "triple has dimension 2, grid has 1"),
    "dense_matrix-size": (lambda: grid.dense_matrix(lambda f: f, grid.GridSpec(1, 512)),
                          ParameterError, "dense materialization limited to 256 points, got 512"),
    "read_grid_function-fields": (lambda: grid.read_grid_function(io.StringIO("1 4\n1 2 3\n")),
                                  ParameterError,
                                  "malformed grid function file: expected `re im`, got '1 2 3'"),
    "token_element-index": (lambda: lattice.token_element(lattice.GeneratorToken("a", 3, 1), 2),
                            DimensionError, "generator index 3 out of range [1, 2]"),
    "parse_word-character": (lambda: lattice.parse_word("a1x", 1), WordSyntaxError,
                             "unexpected character 'x' (at offset 2)"),
    "act-dimensions": (lambda: siegel.act(siegel.ComplexElement((1j,), 0),
                                          siegel.SiegelPoint((1j, 2j), 5j)),
                       DimensionError, "dimension mismatch: 1 vs 2"),
    "act_compose_check-dimensions": (lambda: siegel.act_compose_check(
        siegel.ComplexElement((1j,), 0), siegel.ComplexElement((1j, 1), 0),
        siegel.SiegelPoint((1j,), 5j)), DimensionError, "dimension mismatch: 1 vs 2 vs 1"),
}


@pytest.mark.parametrize("call, error, message", PUBLIC_ERRORS.values(), ids=PUBLIC_ERRORS)
def test_public_errors_keep_their_type_and_message(call, error, message):
    with pytest.raises(error) as info:
        call()
    assert type(info.value) is error and str(info.value) == message


# --- the literal parsers ------------------------------------------------------
# Each parser is the one check of literal text.  The reference reads it as the
# grammar says, one component at a time with textio's component readers, and
# leaves dimensions and finiteness to the validating constructor.

def _blocks(text, count):
    blocks = [b.strip() for b in text.split(";")]
    if len(blocks) != count:
        raise LiteralSyntaxError(f"expected {count} semicolon-separated blocks, got {len(blocks)}")
    return blocks


def _sized(parts, n):
    size = errors.dimension(n)
    if len(parts) != size:
        raise DimensionError(f"expected {size} components, got {len(parts)}")
    return parts


def _reference_real(text, n):
    xs, ys, ts = _blocks(text, 3)
    x = tuple(textio._parse_float(c) for c in xs.split(","))
    y = tuple(textio._parse_float(c) for c in ys.split(","))
    return core.RealElement(_sized(x, n), _sized(y, n), textio._parse_float(ts))


def _reference_complex(text, n):
    zs, ts = _blocks(text, 2)
    z = _sized(tuple(textio._parse_complex(c) for c in zs.split(",")), n)
    return siegel.ComplexElement(z, textio._parse_float(ts))


def _reference_point(text, n):
    ws, ss = _blocks(text, 2)
    w = _sized(tuple(textio._parse_complex(c) for c in ws.split(",")), n)
    return siegel.SiegelPoint(w, textio._parse_complex(ss))


PARSERS = {"real": (textio.parse_real_element, _reference_real),
           "complex": (textio.parse_complex_element, _reference_complex),
           "point": (textio.parse_siegel_point, _reference_point)}


def _bits(value):
    """A number's type and bits (-0.0 is not 0.0), or a value's type and its fields' bits."""
    if type(value) is float:
        return float, value.hex()
    if type(value) is complex:
        return complex, value.real.hex(), value.imag.hex()
    if type(value) is tuple:
        return tuple(map(_bits, value))
    return type(value), tuple(_bits(getattr(value, f)) for f in type(value).__match_args__)


def _outcome(parse, text, n):
    try:
        return _bits(parse(text, n))
    except errors.HeisError as exc:
        return type(exc), str(exc)


def _mostly(good, bad):
    """`good` seven times in eight, else `bad`."""
    return st.integers(0, 7).flatmap(lambda k: good if k else bad)


REAL_TEXT = _mostly(
    st.one_of(st.sampled_from(["1", "-2.5", " 3 ", "-0.0", "0", "1e308", "-1e308", "5e-324"]),
              st.floats(allow_nan=False, allow_infinity=False).map(repr)),
    st.one_of(st.sampled_from(["1e999", "-1e999", "inf", "-inf", "nan", "", " ", "x", "1..5",
                               "1_0", "i", "1j", "2i", "0x1"]),
              st.text("0123456789.e+-ijnaf ", max_size=5)),
)
COMPLEX_TEXT = st.one_of(
    REAL_TEXT,
    _mostly(
        st.one_of(st.sampled_from(["i", "-i", "+i", "1+i", "1-i", "2i", "1 - 2 i", "-0.0-0.0i"]),
                  st.builds(lambda a, b: f"{a}{'' if b.startswith('-') else '+'}{b}i",
                            st.floats().map(repr), st.floats().map(repr))),
        st.sampled_from(["1e999i", "nan+1i", "1+infi", "1j", "1+2j", "J", "1+2I", "i1", "1+i+i",
                         "ii", "1+ i", "1 + 2 i", "-0.0-nani"])),
)
DIMENSIONS = _mostly(st.integers(1, 3), st.sampled_from([0, -1, True, 1.5, "2", np.int64(2)]))


@st.composite
def literals(draw, vectors, component, scalar):
    """(text, n): `vectors` blocks of components then a scalar block, most
    often with n components each, now and then with a block more or fewer."""
    n = draw(DIMENSIONS)
    size = n if type(n) is int and n > 0 else 2

    def vector():
        count = size if draw(st.integers(0, 5)) else draw(st.integers(1, 4))
        return ",".join(draw(st.lists(component, min_size=count, max_size=count)))

    blocks = [vector() for _ in range(vectors)] + [draw(scalar)]
    if not draw(st.integers(0, 7)):
        blocks.pop(draw(st.integers(0, vectors)))
    elif not draw(st.integers(0, 7)):
        blocks.insert(draw(st.integers(0, vectors + 1)), vector())
    return ";".join(blocks), n


LITERALS = {"real": literals(2, REAL_TEXT, REAL_TEXT),
            "complex": literals(1, COMPLEX_TEXT, REAL_TEXT),
            "point": literals(1, COMPLEX_TEXT, COMPLEX_TEXT)}


@settings(max_examples=600, deadline=None)
@given(kind=st.sampled_from(sorted(PARSERS)), data=st.data())
def test_the_literal_parsers_read_as_the_reference_does(kind, data):
    """Each parser gives the value, bit for bit, or the error type and
    message that the reference gives on the same text and n."""
    parse, reference = PARSERS[kind]
    text, n = data.draw(LITERALS[kind], "literal")
    assert _outcome(parse, text, n) == _outcome(reference, text, n), (text, n)


# the order in which a literal's faults are reported: the block count, the x
# components then the y components, the length of x then y, the t or sigma
# text, the finiteness of x, then y, then t
PRECEDENCE = [
    (textio.parse_real_element, "1,2;3", 1, LiteralSyntaxError,
     "expected 3 semicolon-separated blocks, got 2"),
    (textio.parse_real_element, "x,1,2;y;z", 1, LiteralSyntaxError, "invalid real literal 'x'"),
    (textio.parse_real_element, "1,2,inf;y;z", 1, LiteralSyntaxError, "invalid real literal 'y'"),
    (textio.parse_real_element, "1;2;3", 0, DimensionError, "n must be >= 1"),
    (textio.parse_real_element, "1;x;3", 1.5, LiteralSyntaxError, "invalid real literal 'x'"),
    (textio.parse_real_element, "1,2;3;x", 1, DimensionError, "expected 1 components, got 2"),
    (textio.parse_real_element, "1;3,4,5;x", 2, DimensionError, "expected 2 components, got 1"),
    (textio.parse_real_element, "1;3,4;x", 1, DimensionError, "expected 1 components, got 2"),
    (textio.parse_real_element, "inf;nan;x", 1, LiteralSyntaxError, "invalid real literal 'x'"),
    (textio.parse_real_element, "inf;nan;nan", 1, ParameterError,
     "vector components must be finite"),
    (textio.parse_real_element, "-inf;2;3", 1, ParameterError, "vector components must be finite"),
    (textio.parse_real_element, "1;-inf;nan", 1, ParameterError,
     "vector components must be finite"),
    (textio.parse_real_element, "1;2;1e999", 1, ParameterError, "t must be finite, got inf"),
    (textio.parse_complex_element, "1j;x", 1, LiteralSyntaxError, "invalid complex literal '1j'"),
    (textio.parse_complex_element, "1,2i;x", 1, DimensionError, "expected 1 components, got 2"),
    (textio.parse_complex_element, "infi;x", 1, LiteralSyntaxError, "invalid real literal 'x'"),
    (textio.parse_complex_element, "1+infi;nan", 1, ParameterError,
     "vector components must be finite"),
    (textio.parse_complex_element, "1;nan", 1, ParameterError, "t must be finite, got nan"),
    (textio.parse_complex_element, "1;2i", 1, LiteralSyntaxError, "invalid real literal '2i'"),
    (textio.parse_siegel_point, "1;2;3", 1, LiteralSyntaxError,
     "expected 2 semicolon-separated blocks, got 3"),
    (textio.parse_siegel_point, "1,x;y", 3, LiteralSyntaxError, "invalid complex literal 'x'"),
    (textio.parse_siegel_point, "1,2;y", 3, DimensionError, "expected 3 components, got 2"),
    (textio.parse_siegel_point, "nan;y", 1, LiteralSyntaxError, "invalid complex literal 'y'"),
    (textio.parse_siegel_point, "nan;infi", 1, ParameterError, "vector components must be finite"),
    (textio.parse_siegel_point, "1;infi", 1, ParameterError, "sigma must be finite, got infj"),
    (textio.parse_siegel_point, "1;nan+1i", 1, ParameterError,
     "sigma must be finite, got (nan+1j)"),
]


@pytest.mark.parametrize("parse, text, n, error, message", PRECEDENCE,
                         ids=[f"{p.__name__}-{text}" for p, text, *_ in PRECEDENCE])
def test_a_literal_reports_its_first_fault(parse, text, n, error, message):
    with pytest.raises(error) as info:
        parse(text, n)
    assert type(info.value) is error and str(info.value) == message


@pytest.mark.parametrize("parse, text, n, want", [
    (textio.parse_real_element, " -0.0 , 1e308 ; 0 ,-0.0; -0.0 ", 2,
     core.RealElement((-0.0, 1e308), (0.0, -0.0), -0.0)),
    (textio.parse_real_element, "1e308,1e308;0,0;0", np.int64(2),
     core.RealElement((1e308, 1e308), (0.0, 0.0), 0.0)),
    (textio.parse_complex_element, "-0.0-0.0i, 1 - i ; -0.0", 2,
     siegel.ComplexElement((complex(-0.0, -0.0), 1 - 1j), -0.0)),
    (textio.parse_siegel_point, "i;-0.0", True, siegel.SiegelPoint((1j,), complex(-0.0))),
], ids=["real-signed-zeros", "real-overflowing-sum", "complex", "point"])
def test_a_literal_reads_to_its_exact_value(parse, text, n, want):
    assert _bits(parse(text, n)) == _bits(want)
