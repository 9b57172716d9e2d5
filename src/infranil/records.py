"""The base of the package's immutable value types that are not NamedTuples.

A `dataclass(frozen=True)` compiles its generated methods with `exec` when
the class is created, on every import of the package.  `Record` writes
those methods once, over the names in `_fields`: a subclass sets its
fields in its own `__init__` (by `_set_fields`, or a slot descriptor's
`__set__` where construction is hot) and gets dataclass-style behaviour
with no code generated at import time:

  * assigning or deleting an attribute raises AttributeError;
  * equality compares the fields, and only between instances of one class;
  * the hash is the hash of the tuple of the fields;
  * the repr is `Name(field=value, ...)`;
  * `copy`, `deepcopy` and `pickle` rebuild an instance by calling the
    class on its fields (`__reduce__`), so every subclass constructor takes
    exactly `_fields`, in order.  Their default of restoring slot state by
    `setattr` would hit the refusal above.

A subclass may write faster versions of these for its own fields; one that
writes `__eq__` must write `__hash__` too.  `functools.cached_property`
still works on a subclass with an instance `__dict__`: it stores into the
`__dict__` directly, not through `__setattr__`.
"""

from __future__ import annotations


class Record:
    __slots__ = ()
    _fields = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable: cannot assign {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable: cannot delete {name!r}")

    def _set_fields(self, *values):
        """Set the fields, in `_fields` order, past `__setattr__`."""
        for name, value in zip(self._fields, values):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __reduce__(self):
        return type(self), self._values()

    def __repr__(self):
        args = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({args})"
