"""The base of the immutable records that keep derived state.

Most records in obscon are ``typing.NamedTuple`` classes. A ``Record``
subclass is a plain class instead, for records that keep state derived from
their fields: a cache, or a ``functools.cached_property`` (which needs an
instance ``__dict__``). It compares, hashes and prints by the fields named
in ``_fields`` alone, as the tuple of their values, and refuses attribute
assignment and deletion; its ``__init__`` sets its attributes with
``_set``, and copy and pickle rebuild it through ``__init__``.
"""

from __future__ import annotations


class Record:
    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _set(self, **values) -> None:
        for name, value in values.items():
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), self._values()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
