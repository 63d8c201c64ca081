"""The validation boundary.

Public constructors and the text parsers validate; every operation output is
built without re-running `__post_init__` (errors.trusted_output /
errors.finite_output).  These tests pin both halves: an operation's output is
exactly what the validating constructor would have built from its fields, no
validation runs while operations compute, and the one check the trusted path
keeps, the float-overflow test, still names the operation.
"""

import random

import pytest

from heis import core, lattice, siegel
from heis.errors import DimensionError, ParameterError

VALIDATING = (core.RealElement, lattice.LatticeElement, siegel.ComplexElement, siegel.SiegelPoint)
COMPONENT_TYPES = (float, int, complex)


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
    return (
        ("core.mul", lambda: core.mul(g, h)),
        ("core.inverse", lambda: core.inverse(g)),
        ("core.naive_inverse", lambda: core.naive_inverse(g)),
        ("core.dilate", lambda: core.dilate(d, g)),
        ("core.coset_reduce", lambda: core.coset_reduce(g).rep),
        ("core.embed_integer", lambda: core.embed_integer(a.k, a.l, a.m)),
        ("RealElement.identity", lambda: core.RealElement.identity(n)),
        ("lattice.lmul", lambda: lattice.lmul(a, b)),
        ("lattice.linverse", lambda: lattice.linverse(a)),
        ("lattice.token_element a", lambda: lattice.token_element(lattice.GeneratorToken("a", j, -3), n)),
        ("lattice.token_element b", lambda: lattice.token_element(lattice.GeneratorToken("b", j, 4), n)),
        ("lattice.token_element c", lambda: lattice.token_element(lattice.GeneratorToken("c", 0, 5), n)),
        ("lattice.gen_c", lambda: lattice.gen_c(n)),
        ("LatticeElement.identity", lambda: lattice.LatticeElement.identity(n)),
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
    """Counts the `__post_init__` runs of the validating types."""
    count = [0]
    for cls in VALIDATING:
        def counted(self, _check=cls.__post_init__):
            count[0] += 1
            _check(self)
        monkeypatch.setattr(cls, "__post_init__", counted)
    return count


@pytest.mark.parametrize("n", [1, 2, 3])
def test_operations_do_not_revalidate(n, validations):
    rng = random.Random(n)
    for _ in range(20):
        ops = operations(n, rng)
        validations[0] = 0
        for name, op in ops:
            op()
            assert validations[0] == 0, name


@pytest.mark.parametrize("n", [1, 2, 3])
def test_outputs_are_what_the_validating_constructor_builds(n):
    rng = random.Random(10 + n)
    for _ in range(20):
        for name, op in operations(n, rng):
            out = op()
            assert type(out) in VALIDATING, name
            rebuilt = type(out)(*fields(out))
            assert out == rebuilt and hash(out) == hash(rebuilt), name
            assert repr(out) == repr(rebuilt), name  # tells -0.0 from 0.0
            assert [type(v) for v in fields(out)] == [type(v) for v in fields(rebuilt)], name
            got = [type(c) for c in components(out)]
            assert got == [type(c) for c in components(rebuilt)], name
            assert all(t in COMPONENT_TYPES for t in got), name


def _real(x, y, t):
    return core.RealElement((x,), (y,), t)


HUGE = core.Dilation(1e200)
OVERFLOWS = [
    pytest.param("product", lambda: core.mul(_real(1e200, 1e200, 0), _real(1e200, 1e200, 0)), id="mul"),
    pytest.param("inverse", lambda: core.inverse(_real(1e200, 1e200, 0)), id="inverse"),
    pytest.param("dilation", lambda: core.dilate(HUGE, _real(1, 1, 1)), id="dilate"),
    pytest.param("product", lambda: siegel.cmul(siegel.ComplexElement((1e300 + 1e300j,), 0),
                                                siegel.ComplexElement((1e300 - 1e300j,), 0)), id="cmul"),
    pytest.param("action", lambda: siegel.act(siegel.ComplexElement((1e160,), 0),
                                              siegel.SiegelPoint((0j,), 1j)), id="act"),
    pytest.param("dilation", lambda: siegel.cdilate(HUGE, siegel.ComplexElement((1j,), 1)), id="cdilate"),
    pytest.param("dilation", lambda: siegel.domain_dilate(HUGE, siegel.SiegelPoint((1j,), 1j)),
                 id="domain_dilate"),
]


@pytest.mark.parametrize("operation, call", OVERFLOWS)
def test_overflow_names_the_operation(operation, call):
    """Finite operands, an output that overflows: the trusted path's one test."""
    with pytest.raises(ParameterError, match=f"^{operation} overflows the float range$"):
        call()


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
