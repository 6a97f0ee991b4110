"""Shared domain types: the value-type base and samples.

A sample is one (score, target, weight) row. ``monocal.problem`` builds
calibration problems and solver blocks from samples; ``monocal.staircase``
holds the fitted step function.

This module owns rows and knows no loss formula (`monocal.losses` builds on
it). `Sample` is the one validation point for input values, `_valid_rows`
its column form: construction rejects bad values, so every sample that
exists is valid and no code checks again. Imports run one way: ``errors`` ←
``core`` ← ``staircase`` and ``losses`` ← ``online``, and ``losses`` ←
``problem`` ← the offline and anytime solvers ← ``cli``.

Everything here is immutable after construction and safe to share across
threads; the operations are pure functions.
"""

from __future__ import annotations

import math
from operator import attrgetter
from typing import Any

from .errors import InvalidValue, InvalidWeight

__all__ = ["Sample"]

# Each value type's ``__init__`` sets its fields through this, as a frozen
# dataclass's does.
_set = object.__setattr__


class _DataclassFields:
    """``__dataclass_fields__`` of a ``_Frozen`` class, built on first read.

    Only then is ``dataclasses`` imported: the fields come from a dataclass
    declared like the class (its annotations and ``__init__`` defaults) and
    are cached on the class, so ``dataclasses.fields``, ``replace`` and
    ``is_dataclass`` see it as a dataclass.
    """

    def __get__(self, instance, cls):
        import dataclasses
        import inspect

        cls = next(c for c in cls.__mro__ if _Frozen in c.__bases__)  # the declaring class
        params = inspect.signature(cls).parameters

        def declared(name):
            if name not in params:
                return dataclasses.field(init=False, repr=False, compare=False)
            default = params[name].default
            if default is params[name].empty:
                default = dataclasses.MISSING
            return dataclasses.field(default=default)

        shadow = dataclasses.make_dataclass(cls.__name__, [
            (name, cls.__annotations__[name], declared(name)) for name in cls._fields
        ], frozen=True)
        cls.__dataclass_fields__ = fields = shadow.__dataclass_fields__
        return fields


class _Frozen:
    """Base of the value types: what ``@dataclass(frozen=True)`` would generate.

    Loading ``dataclasses`` costs a command a large share of its start-up
    (it imports ``inspect``), so each subclass declares its fields as a
    dataclass does, as annotations in order (and in ``__slots__`` if it has
    them), and writes its ``__init__``: set every field with ``_set``, then
    call ``__post_init__`` if it has one. ``_hidden`` fields are neither init
    arguments nor compared nor shown. From these the base gives the
    dataclass's ``repr``, ``__match_args__``, frozen ``FrozenInstanceError``,
    pickling, ``copy.replace``, and ``==`` and ``hash`` on one tuple of the
    compared fields (``__match_args__``); ``dataclasses`` is imported only
    for an error or a ``dataclasses`` call.

    ``problem._from_columns`` builds many instances of a slotted subclass at
    once, without ``__init__`` or ``__post_init__``: its caller checks the
    type's rule on the columns first, so every instance that exists is still
    valid and equal to the one ``__init__`` would build.
    """

    __slots__ = ()
    _hidden: tuple[str, ...] = ()
    __dataclass_fields__ = _DataclassFields()

    def __init_subclass__(cls) -> None:
        # As with a dataclass, a subclass of a value type keeps its fields.
        if _Frozen in cls.__bases__:
            cls._fields = tuple(cls.__annotations__)
            cls.__match_args__ = tuple(name for name in cls._fields if name not in cls._hidden)
            # The tuple of compared fields: ``attrgetter`` of two or more names
            # returns a tuple, and every value type compares two or more.
            cls._key = attrgetter(*cls.__match_args__)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._key(self) == self._key(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __repr__(self) -> str:
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__match_args__)
        return f"{self.__class__.__qualname__}({shown})"

    def __setattr__(self, name: str, value: object) -> None:
        from dataclasses import FrozenInstanceError

        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        from dataclasses import FrozenInstanceError

        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __getstate__(self) -> list:
        return [getattr(self, name) for name in self._fields]

    def __setstate__(self, state: list) -> None:
        for name, value in zip(self._fields, state):
            _set(self, name, value)

    def __replace__(self, **changes: object) -> _Frozen:
        from dataclasses import replace

        return replace(self, **changes)


class Sample(_Frozen):
    """One (score, loss) observation; construction rejects invalid values.

    ``score`` may be +-inf but not NaN, ``target`` must be finite (else
    ``InvalidValue``) and ``weight`` positive and finite (else
    ``InvalidWeight``). For the built-in families ``target`` is the regression
    target (or the binary label for log loss, possibly fractional after
    equal-score merging). Custom families may carry an opaque per-sample loss
    handle in ``payload``.
    """

    __slots__ = ("score", "target", "weight", "payload")
    score: float
    target: float
    weight: float
    payload: Any

    def __init__(self, score: float, target: float = 0.0, weight: float = 1.0,
                 payload: Any = None) -> None:
        _set(self, "score", score)
        _set(self, "target", target)
        _set(self, "weight", weight)
        _set(self, "payload", payload)
        self.__post_init__()

    def __post_init__(self) -> None:
        if math.isnan(self.score):
            raise InvalidValue("sample score is NaN")
        if not math.isfinite(self.target):
            raise InvalidValue(f"sample target must be finite, got {self.target!r}")
        if not 0.0 < self.weight < math.inf:
            raise InvalidWeight(f"sample weight must be positive and finite, got {self.weight!r}")


def _valid_rows(scores: list[float], targets: list[float], weights: list[float]) -> bool:
    """Whether ``Sample`` accepts every row of these nonempty columns; builds no sample."""
    return not (any(map(math.isnan, scores)) or not all(map(math.isfinite, targets))
                or not all(map(math.isfinite, weights)) or not min(weights) > 0.0)
