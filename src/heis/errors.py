"""Exception hierarchy shared across the library and the CLI, the validators
of the public boundary, and the overflow tests of operation outputs.

Validation happens once, at the public boundary: the public constructors
(`RealElement(...)`, `LatticeElement(...)`, `GridSpec(...)`, ...), the public
functions that take a dimension, and the `textio` parsers.  Each input kind
has one validator here, and no other code repeats its test:

- `integer(v, name)` and `integers(v, name)`: one integer (a grid size N,
  a seed) or a vector of integers (a lattice triple's k, a grid shift p);
- `dimension(n)`: an ambient dimension, an integer n >= 1;
- `finite_vector(v, convert)`: a non-empty vector of finite numbers;
- `finite_scalar(v, convert, name)`: one finite number, such as a central
  coordinate, a dilation parameter or an operator's scalar.

What the library computed, or a parser checked, skips those checks: each
value type has one unchecked builder beside it (`core._real`,
`lattice._element`, ..., `GridFunction._wrap`) that writes every field by
name into the instance (a frozen `heis._Value` forbids attribute assignment
only).  `heis._Value._builder` makes each of them from the type's fields,
but `_wrap`, which also freezes its array.  So a value has two ways in;
`CosetReduction` and `RelationReport` have only a constructor, which checks
nothing.  The groups are closed under their operations, so a float overflow
is the one way such an output can be invalid: `finite_triple` ((x, y, t)
outputs) and `finite_pair` ((vector, scalar) outputs) keep that one test,
then call the builder they are given.
They, `finite_vector` and the `textio` parsers (which check text once and
build by name, as `lattice.parse_word` does) first test one sum, finite only
if every term is (inf - inf is nan), and test each part only if it is not.
"""

import cmath
import operator
import sys


class HeisError(Exception):
    """Base class for all library errors."""


class DimensionError(HeisError):
    """Operands live in different ambient dimensions, or a dimension is invalid."""


class ParameterError(HeisError):
    """A numeric parameter is out of its admissible range (e.g. dilation r <= 0)."""


class WordSyntaxError(HeisError):
    """A generator word failed to parse.

    Carries the byte offset of the first offending character.
    """

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset


class LiteralSyntaxError(HeisError):
    """An element/point text literal failed to parse."""


def digit_limit(what: str) -> str:
    """The error text for an integer `what` of more digits than int() reads or
    str() prints: both convert at most sys.get_int_max_str_digits() digits."""
    return f"{what} has more than {sys.get_int_max_str_digits()} digits, the most Python converts"


def integer(v, name: str) -> int:
    """v as an int.  An integer type is accepted (numpy ones too), anything
    else is refused, never truncated and never read from text; `name` names
    the field in the error."""
    try:
        return operator.index(v)
    except TypeError:
        raise ParameterError(f"{name} must be an integer, got {v!r}") from None


def integers(v, name: str) -> tuple:
    """v as a tuple of ints, each component accepted as by `integer`."""
    try:
        return tuple(map(operator.index, v))
    except TypeError:
        raise ParameterError(f"{name} must have integers as components, got {v!r}") from None


def dimension(n) -> int:
    """n as an int >= 1: the one check of an ambient dimension."""
    n = integer(n, "n")
    if n < 1:
        raise DimensionError("n must be >= 1")
    return n


_TEXT = (str, bytes, bytearray)
_PLAIN = frozenset((int, float, complex))  # a vector of only these holds no text


def finite_vector(v, convert) -> tuple:
    """v as a non-empty tuple of finite numbers, each converted by `convert`
    (`float` or `complex`).  Text is refused, not read: parsing is the
    `textio` parsers' job."""
    try:
        out = tuple(v)
        kinds = set(map(type, out))
        if len(kinds) != 1 or convert not in kinds:  # a tuple all of `convert`'s type is kept
            if not _PLAIN.issuperset(kinds) and any(issubclass(k, _TEXT) for k in kinds):
                raise TypeError  # text is refused like any other non-number
            out = tuple(map(convert, out))
    except (TypeError, ValueError):
        raise ParameterError(f"vector components must be numbers, got {v!r}") from None
    if not out:
        raise DimensionError("vectors must have length n >= 1")
    if not cmath.isfinite(sum(out)) and not all(map(cmath.isfinite, out)):
        raise ParameterError("vector components must be finite")
    return out


def finite_scalar(v, convert, name: str, *, positive: bool = False):
    """v converted by `convert` (`float` or `complex`): a finite number, and
    a positive one if `positive`.  Text is refused, not read, as by
    `finite_vector`; `name` names the field in the errors."""
    try:
        if type(v) not in _PLAIN and isinstance(v, _TEXT):
            raise TypeError  # text is refused like any other non-number
        out = convert(v)
    except (TypeError, ValueError):
        raise ParameterError(f"{name} must be a number, got {v!r}") from None
    if not cmath.isfinite(out) or (positive and not out > 0):
        raise ParameterError(f"{name} must be {'positive and ' if positive else ''}finite, "
                             f"got {out}")
    return out


def finite_triple(build, operation: str, x: tuple, y: tuple, t: float):
    """`build(x, y, t)`: the `RealElement` output by `operation` on finite
    operands.  A non-finite part can only be an overflow."""
    if not cmath.isfinite(sum(x, sum(y, t))) and not all(map(cmath.isfinite, (*x, *y, t))):
        raise ParameterError(f"{operation} overflows the float range")
    return build(x, y, t)


def finite_pair(build, operation: str, v: tuple, s):
    """`finite_triple` for a (vector, scalar) output: `ComplexElement` or `SiegelPoint`."""
    if not cmath.isfinite(sum(v, s)) and not (all(map(cmath.isfinite, v)) and cmath.isfinite(s)):
        raise ParameterError(f"{operation} overflows the float range")
    return build(v, s)
