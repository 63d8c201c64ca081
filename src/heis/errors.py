"""Exception hierarchy shared across the library and the CLI, and the one
constructor of operation outputs.

Validation happens once, at the public boundary: the public constructors
(`RealElement(...)`, `LatticeElement(...)`, ...) and the `textio` parsers.
Operation outputs are built by `trusted_output`, which skips those checks.
The groups are closed under their operations, so a float overflow is the one
way such an output can be invalid, and `finite_output` keeps that one test.
"""

import cmath


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


def trusted_output(cls, *parts):
    """The dataclass `cls` with fields `parts`, built without `__post_init__`.

    Only for the outputs of operations on validated operands: each part must
    already have the type and form the validating constructor would give it.
    """
    obj = object.__new__(cls)
    # a frozen dataclass forbids attribute assignment, not its instance dict
    vars(obj).update(zip(cls.__match_args__, parts))
    return obj


def finite_output(cls, operation: str, *parts):
    """`trusted_output(cls, *parts)` for the output of an operation on finite
    operands, where a non-finite component can only be a float overflow: the
    error says so."""
    isfinite = cmath.isfinite
    for part in parts:
        if not (all(map(isfinite, part)) if type(part) is tuple else isfinite(part)):
            raise ParameterError(f"{operation} overflows the float range")
    return trusted_output(cls, *parts)
