"""Immutable value types without the `dataclasses` machinery.

A value type subclasses `Frozen` and lists its fields in `_fields` in
constructor order. `Frozen.__init__` binds its arguments to those
fields by position and by name, as a dataclass constructor would, so a
type that only stores its fields defines no `__init__`; a type with
checks runs them and then calls `super().__init__`. `Frozen` also gives
what a frozen dataclass had: equality and a hash over the fields, the
dataclass repr, assignment that raises, copy and pickle through the
constructor, and `replace(**changes)`. Slots that are not fields
(derived indexes and caches) take no part in any of these.

The types built per packet or per routing message keep a hand-written
`__init__` that sets each slot with `_set` (`object.__setattr__`):
generic binding costs about half as much again per object, which is
noise for the hundreds of schedule entries of a run but not for its
thousands of packets.

Creating such a class costs a plain class statement, where a dataclass
generates and compiles its methods at import.
"""

from __future__ import annotations

_set = object.__setattr__


class Frozen:
    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init__(self, *args, **kwargs) -> None:
        fields, name = self._fields, self.__class__.__qualname__
        if len(args) > len(fields):
            raise TypeError(f"{name}() takes {len(fields)} arguments but {len(args)} were given")
        for field, value in zip(fields, args):
            _set(self, field, value)
        for field in fields[len(args):]:
            if field not in kwargs:
                raise TypeError(f"{name}() missing argument {field!r}")
            _set(self, field, kwargs.pop(field))
        for field in kwargs:
            problem = "got multiple values for" if field in fields else "got an unexpected keyword"
            raise TypeError(f"{name}() {problem} argument {field!r}")

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
