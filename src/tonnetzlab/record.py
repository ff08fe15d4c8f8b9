"""Immutable value records.

Every record type in the package is a ``typing.NamedTuple`` decorated with
``record``: its fields are read-only, and construction, equality and hashing
go by value at tuple speed. A bare named tuple would also compare equal to
any tuple of the same values, another record type's included, so ``record``
makes an instance equal only to instances of its own class. A class may
define ``__eq__`` and ``__hash__`` itself (``ChordSymbol`` leaves its display
text out), and a ``_check`` method that validates each new instance, raising
``ValueError``. ``_replace`` and ``_make`` skip ``_check``.
"""

from __future__ import annotations

from typing import TypeVar

_R = TypeVar("_R", bound=type)


def _same_type_eq(self, other) -> bool:
    # not NotImplemented: Python would then ask tuple's __eq__ of the other side
    return type(other) is type(self) and tuple.__eq__(self, other)


def _run_check(self, *args, **kwargs) -> None:
    self._check()


def record(cls: _R) -> _R:
    """Give a NamedTuple class same-type equality and its ``_check`` on construction."""
    if "__eq__" not in vars(cls):
        cls.__eq__ = _same_type_eq
    cls.__ne__ = object.__ne__  # the negation of __eq__, not tuple's own
    if "_check" in vars(cls):
        cls.__init__ = _run_check
    return cls
