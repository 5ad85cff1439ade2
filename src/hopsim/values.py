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

The types a run builds over and over keep a hand-written `__init__`
that sets each slot with `_set` (`object.__setattr__`), since generic
binding costs about half as much again per object: `RouteMessage` once
per sender of each routing wave layer, and `FlowRule` and `Packet` a
few times per window. A `Packet` is built once per header a flow table
rewrites, not once per packet, since the table's memo hands back the
header it built for each header it was given.

Creating such a class costs a plain class statement, where a dataclass
generates and compiles its methods at import.

`left_sum` is the one float sum whose result reaches a trace or a report,
and `parse_decimal` the one reading of a whole number (an ASN, a count)
that a config or a topology file writes.
"""

from __future__ import annotations

import operator
from collections.abc import Iterable
from functools import reduce

_set = object.__setattr__


def left_sum(values: Iterable[float]) -> float:
    """The floats in `values` added left to right, starting from 0.0.

    This is what built-in `sum` computed up to Python 3.11. From 3.12 on
    it compensates float rounding, so its last digit can differ, and the
    bytes of a trace or report would differ between interpreters.
    """
    return reduce(operator.add, values, 0.0)


def parse_decimal(raw: str, what: str) -> int:
    """`raw` as a `what`, written in ASCII decimal digits and nothing else:
    `int` would also take a sign, `_` separators, spaces and other
    scripts' digits. A refusal names `what` and says if `raw` is negative."""
    if raw.isascii() and raw.isdigit():
        return int(raw)
    kind = "negative" if raw[:1] == "-" and raw[1:].isascii() and raw[1:].isdigit() else "bad"
    raise ValueError(f"{kind} {what} {raw!r}: ASCII decimal digits only")


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
