"""Immutable value types without the `dataclasses` machinery.

A value type subclasses `Frozen`, lists its fields in `_fields` in
constructor order, and sets them in a hand-written `__init__` with
`_init` (or `object.__setattr__`, on the hot ones). `Frozen` then gives
it what a frozen dataclass had: equality and a hash over the fields,
the dataclass repr, assignment that raises, copy and pickle through
the constructor, and `replace(**changes)`. Slots that are not fields
(derived indexes and caches) take no part in any of these.

Creating such a class costs a plain class statement, where a dataclass
generates and compiles its methods at import.
"""

from __future__ import annotations

_set = object.__setattr__


class Frozen:
    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _init(self, *values) -> None:
        for name, value in zip(self._fields, values):
            _set(self, name, value)

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({fields})"

    def __reduce__(self):
        return self.__class__, self._values()

    def replace(self, **changes):
        """A copy with the named fields changed, built (and checked) anew."""
        values = {name: getattr(self, name) for name in self._fields}
        values.update(changes)
        return self.__class__(**values)
