"""Bases of the records: the `__slots__` records, whose fields are read in
the hot loop, and the `typing.NamedTuple`s whose constructor checks.

A `__slots__` record lists its fields in `_fields`, in constructor order.
Equality compares them between records of the same class, and the repr is
`Name(field=value, ...)`.  `Record` is mutable and unhashable;
`FrozenRecord` refuses assignment after its constructor has set the fields
with `object.__setattr__`, and hashes, copies and pickles by its fields.

`Checked`, listed before a NamedTuple base, makes `_make`, and so
`_replace`, build through the class's own constructor and its checks.
"""

from __future__ import annotations

from collections.abc import Iterable


class Record:
    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _astuple(self) -> tuple:
        return tuple(getattr(self, field) for field in self._fields)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._astuple() == other._astuple()
        return NotImplemented

    __hash__ = None  # mutable, so unhashable

    def __repr__(self) -> str:
        fields = ", ".join(f"{field}={getattr(self, field)!r}" for field in self._fields)
        return f"{type(self).__name__}({fields})"


class FrozenRecord(Record):
    __slots__ = ()

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __hash__(self) -> int:
        return hash(self._astuple())

    def __reduce__(self) -> tuple[type, tuple]:
        return type(self), self._astuple()


class Checked:
    __slots__ = ()

    @classmethod
    def _make(cls, iterable: Iterable) -> Checked:
        return cls(*iterable)
