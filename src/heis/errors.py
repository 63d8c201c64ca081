"""Exception hierarchy shared across the library and the CLI."""


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


def finite_output(cls, operation: str, *parts):
    """`cls(*parts)` for the output of an operation on finite operands, where a
    non-finite component can only be a float overflow: the error says so."""
    try:
        return cls(*parts)
    except ParameterError:
        raise ParameterError(f"{operation} overflows the float range") from None
