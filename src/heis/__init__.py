"""Real, integer, and complex Heisenberg groups, a finite clock-and-shift
operator representation, and the affine action on the Siegel upper half-space.

The value types (`core.RealElement`, `lattice.LatticeElement`, `grid.GridSpec`,
`grid.GridFunction`, ...) are frozen values on `_Value`, which also makes each
type's unchecked builder from its fields (`_Value._builder`), and importing
heis imports neither `dataclasses` nor numpy (`_Numpy`)."""

__version__ = "0.1.0"


class _Value:
    """A frozen value whose fields, named once in its class as
    `__match_args__ = _fields = (...)`, are exactly its `__dict__`, written in
    that order by its `__init__` or by the unchecked builder `_builder` makes.
    It behaves as `@dataclass(frozen=True)` does: equality and hash on the
    field tuple, the repr `Name(f=v, ...)`, and `FrozenInstanceError` on
    assignment or deletion."""

    __slots__ = ()  # each subclass adds its own __dict__, as a dataclass's class does
    _fields = ()

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.__dict__ == other.__dict__  # just the fields: as their tuples compare
        return NotImplemented

    def __hash__(self):
        return hash(tuple(self.__dict__.values()))

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({fields})"

    @classmethod
    def _builder(cls):
        """The unchecked builder of `cls`: a function of its fields, in order,
        that writes each by name into a new instance's `__dict__` and checks
        nothing.  Its code is written out for the field count, as a
        dataclass's `__init__` is: a loop over the names takes twice as long
        a build.  Field names are public, so none is one of its own `_` names."""
        names = ", ".join(cls._fields)
        slots = ", ".join(f"_dict[{name!r}]" for name in cls._fields)
        namespace = {"_new": object.__new__, "_cls": cls}
        exec(f"def build({names}):\n _obj = _new(_cls)\n _dict = _obj.__dict__\n"
             f" {slots} = {names}\n return _obj\n", namespace)
        return namespace["build"]

    def __setattr__(self, name, value):
        from dataclasses import FrozenInstanceError  # only on this error path

        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        from dataclasses import FrozenInstanceError

        raise FrozenInstanceError(f"cannot delete field {name!r}")


class _Numpy:
    """numpy, imported on first use: a module's global `np` until the first
    attribute read, which imports numpy and rebinds that global to it, so
    importing heis imports no numpy and every later read is numpy's own."""

    def __init__(self, module_globals: dict):
        self._globals = module_globals

    def __getattr__(self, name: str):
        import numpy  # the import lock makes a concurrent first read wait for the whole module

        self._globals["np"] = numpy
        return getattr(numpy, name)
