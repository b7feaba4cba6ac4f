"""Frozen value records, the base of every record type in the package.

A subclass names its fields in ``__slots__`` and may validate or normalise
them in ``__post_init__``, where it sets a field with
``object.__setattr__``.  Instances compare and hash by type and field
values, print as ``Name(field=value, ...)``, refuse assignment and deletion,
and pickle and copy by calling the constructor again.  This stands in for
frozen ``dataclasses``, whose import (it pulls in ``inspect``) and generated
methods took most of the package's import time, which every command pays.
"""

from __future__ import annotations


class Record:
    __slots__ = ()

    def __init__(self, *args, **kwargs):
        fields = self.__slots__
        values = dict(zip(fields, args), **kwargs)
        if len(args) + len(kwargs) != len(fields) or values.keys() != set(fields):
            raise TypeError(f"{type(self).__name__} takes the fields {', '.join(fields)}")
        for name in fields:
            object.__setattr__(self, name, values[name])
        self.__post_init__()

    def __post_init__(self):
        pass

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), self._values()
