"""Bases of the library's value types, written without ``dataclasses``.

A subclass names its fields in ``_fields`` and sets them in its own
``__init__``.  ``Record`` compares two instances of one class by their field
tuples, prints them as ``Name(field=value, ...)`` and is unhashable, as a
mutable dataclass is.  ``Frozen`` adds the hash of the field tuple and
refuses attribute assignment, as a frozen dataclass does; its ``__init__``
sets the fields with ``set_field`` (``object.__setattr__``), or all of them
at once with ``assign``.
"""

set_field = object.__setattr__


class Record:
    __slots__ = ()
    _fields = ()

    def _key(self):
        return tuple(getattr(self, f) for f in self._fields)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key() == other._key()
        return NotImplemented

    __hash__ = None

    def __repr__(self):
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{self.__class__.__qualname__}({fields})"


class Frozen(Record):
    __slots__ = ()

    def __hash__(self):
        return hash(self._key())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


def assign(obj, values):
    """Set each field of ``obj`` to its entry in ``values`` (an
    ``__init__``'s ``locals()``), past a frozen ``__setattr__``."""
    for f in obj._fields:
        set_field(obj, f, values[f])
