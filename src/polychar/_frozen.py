"""The base of the package's immutable value classes.

It does what ``dataclasses.dataclass(frozen=True)`` did for them without
importing ``dataclasses`` (and with it ``inspect``), whose import and
per-class code generation took longer than the rest of the package's import.
A subclass names its fields once, in ``_fields``, also its ``__slots__``.
The one constructor, `Frozen.__init__`, fills them by position and then by
keyword, each exactly once, and raises TypeError on a wrong set of fields:
one missing, an extra value, an unknown keyword, or a field given both
ways.  A subclass that validates its fields (`AlgebraId`) ends its own
``__init__`` with ``super().__init__(...)``.  A value then compares and
hashes as the tuple of its fields (an unhashable field makes it
unhashable), shows the dataclass repr, pickles and copies by its
constructor, and refuses attribute assignment and deletion with
AttributeError.
"""


class Frozen:
    __slots__ = ()
    _fields: tuple = ()

    def __init__(self, *values, **named):
        fields = self._fields
        if named:
            values += tuple([named.pop(name) for name in fields[len(values):] if name in named])
        if named or len(values) != len(fields):
            raise TypeError(f"{type(self).__name__} takes the fields {', '.join(fields)}")
        for name, value in zip(fields, values):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        body = ", ".join([f"{name}={getattr(self, name)!r}" for name in self._fields])
        return f"{type(self).__qualname__}({body})"

    def __reduce__(self):
        return type(self), self._values()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
