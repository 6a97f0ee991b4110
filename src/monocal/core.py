"""Shared domain types: samples, blocks, the staircase transform, input normalization.

A calibration problem is three score-sorted columns (scores, targets,
weights) with no repeated score, plus a loss family. Solvers partition the
rows into contiguous blocks with one fitted value each; the resulting
transform is a right-continuous nondecreasing step function (`Staircase`)
with strictly increasing step values.

This module owns rows and knows no loss formula (`monocal.losses` builds on
it). `Sample` is the one validation point for input values, `_valid_rows`
its column form: construction rejects bad values, so every sample that
exists is valid and no code checks again.

Everything here is immutable after construction and safe to share across
threads; the operations are pure functions.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from collections import deque
from functools import cached_property, partial
from itertools import chain, compress, islice, pairwise, repeat
from operator import attrgetter, itemgetter, le, lt, ne
from typing import TYPE_CHECKING, Any, Iterable, Sequence

from .errors import CalibrationError, EmptyProblem, InvalidValue, InvalidWeight, NotMonotone

if TYPE_CHECKING:
    from .losses import LossFamily

__all__ = [
    "Sample",
    "Problem",
    "Block",
    "Staircase",
    "normalize",
    "evaluate",
    "blocks_to_staircase",
]

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

    ``_from_columns`` builds many instances of a slotted subclass at once,
    without ``__init__`` or ``__post_init__``: its caller checks the type's
    rule on the columns first, so every instance that exists is still valid
    and equal to the one ``__init__`` would build.
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


def _from_columns(cls: type[_Frozen], *columns: Sequence) -> tuple:
    """Instances of the slotted value type ``cls``, one per row of its field columns.

    No Python frame runs per instance: ``cls.__new__`` is mapped over the
    row count, then each field's slot descriptor over its column. Nothing is
    checked; the caller checks the type's rule on the columns.
    """
    objects = tuple(map(cls.__new__, repeat(cls, len(columns[0]))))
    for name, column in zip(cls._fields, columns):
        deque(map(getattr(cls, name).__set__, objects, column), 0)
    return objects


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


def _columns_of(samples: Sequence[Sample]) -> list[list[float]]:
    return [[s.score for s in samples], [s.target for s in samples], [s.weight for s in samples]]


class Problem(_Frozen):
    """Score-sorted ``scores``, ``targets`` and ``weights`` columns, no score repeated.

    ``normalize`` builds one from any rows; ``Problem(...)`` takes rows
    already in that form and raises ``InvalidValue`` unless their scores
    strictly increase.

    ``samples`` is the same rows as a tuple of ``Sample`` objects: the given
    ones or, for a problem built from columns, ones built on first read. The
    built-in families' solvers read the columns. ``loss_offset`` is the
    constant dropped when equal-score samples were merged into composites;
    adding it back makes any loss computed on the normalized samples equal
    the loss on the raw input.
    """

    _hidden = ("scores", "targets", "weights")
    samples: tuple[Sample, ...]
    family: LossFamily
    loss_offset: float
    scores: tuple[float, ...]
    targets: tuple[float, ...]
    weights: tuple[float, ...]

    def __init__(self, samples: Sequence[Sample], family: LossFamily,
                 loss_offset: float = 0.0) -> None:
        samples = tuple(samples)
        columns = _columns_of(samples)
        if not all(map(lt, columns[0], islice(columns[0], 1, None))):
            raise InvalidValue("scores must strictly increase; normalize sorts and folds ties")
        _fill(self, [*columns, samples], family, loss_offset)

    # Threads racing on the first read may each build equal samples.
    @cached_property
    def samples(self) -> tuple[Sample, ...]:
        return tuple(map(Sample, self.scores, self.targets, self.weights))


def _fill(problem: Problem, columns: Sequence[Sequence], family: LossFamily,
          loss_offset: float) -> Problem:
    """Set ``problem``'s fields from ``[scores, targets, weights]`` and, if a fourth, its samples."""
    if len(columns) > 3:
        _set(problem, "samples", tuple(columns[3]))
    _set(problem, "family", family)
    _set(problem, "loss_offset", loss_offset)
    for name, column in zip(Problem._hidden, columns):
        _set(problem, name, tuple(column))
    return problem


class Block(_Frozen):
    """Contiguous sample range [first, last] sharing one fitted value.

    ``minimizer`` is the argmin of the block's summed loss and ``aux`` the
    family's auxiliary merge parameter (the weight sum for the built-ins).
    """

    __slots__ = ("first", "last", "minimizer", "aux")
    first: int
    last: int
    minimizer: float
    aux: float

    def __init__(self, first: int, last: int, minimizer: float, aux: float) -> None:
        _set(self, "first", first)
        _set(self, "last", last)
        _set(self, "minimizer", minimizer)
        _set(self, "aux", aux)
        self.__post_init__()

    def __post_init__(self) -> None:
        if self.first > self.last:
            raise InvalidValue(f"block range [{self.first}, {self.last}] is empty")


def evaluate(staircase: Staircase, x: float) -> float:
    """Value of the step function at ``x``; clamps beyond the outer steps."""
    if math.isnan(x):
        raise InvalidValue("cannot evaluate a staircase at NaN")
    return staircase.values[bisect_right(staircase.breakpoints, x)]


def _steps_at(staircase: Staircase, xs: list[float]) -> list[int]:
    """``evaluate``'s rule on a column: the index into ``values`` of each x.

    Runs no Python frame per x. A NaN raises ``evaluate``'s own error, at the
    first NaN.
    """
    for x in filter(math.isnan, xs):
        evaluate(staircase, x)
    return list(map(partial(bisect_right, staircase.breakpoints), xs))


class Staircase(_Frozen):
    """Right-continuous nondecreasing step function.

    ``values`` are finite and strictly increasing; ``breakpoints`` are
    finite, strictly increasing and one shorter than ``values``. At a
    breakpoint the step to the right applies.
    """

    breakpoints: tuple[float, ...]
    values: tuple[float, ...]

    def __init__(self, breakpoints: tuple[float, ...], values: tuple[float, ...]) -> None:
        _set(self, "breakpoints", breakpoints)
        _set(self, "values", values)
        self.__post_init__()

    def __post_init__(self) -> None:
        if not self.values:
            raise EmptyProblem("a staircase needs at least one value")
        if len(self.breakpoints) != len(self.values) - 1:
            raise InvalidValue(
                f"{len(self.breakpoints)} breakpoints do not fit "
                f"{len(self.values)} values"
            )
        for name, seq in (("step values", self.values), ("breakpoints", self.breakpoints)):
            # Finite ends of a strictly increasing sequence bound every entry.
            if seq and not (math.isfinite(seq[0]) and math.isfinite(seq[-1])):
                raise InvalidValue(f"{name} must be finite ({seq[0]!r}, {seq[-1]!r})")
            for a, b in pairwise(seq):
                if not a < b:
                    raise InvalidValue(f"{name} must strictly increase ({a!r} !< {b!r})")

    @property
    def step_count(self) -> int:
        return len(self.values)

    __call__ = evaluate


def normalize(raw_samples: Iterable[Sample], family: LossFamily) -> Problem:
    """Sort samples by score and merge equal scores into composite samples.

    Equal scores must map to the same calibrated value, so ties are folded
    into one composite per score via the family's tie rule; the additive
    constant this drops from the objective is kept in ``Problem.loss_offset``.
    A family without ``combine_ties`` raises ``InvalidConfig`` at the first
    repeated score; a tie merge that fails re-raises its error class with a
    ``ties at score X:`` prefix. The sort is stable, and a sample without a
    tie is kept as the same object. Idempotent: normalizing a normalized
    problem's samples changes nothing.
    """
    samples = tuple(raw_samples)
    return _normalize([*_columns_of(samples), samples], family)


def _normalize(columns: Sequence[Sequence], family: LossFamily) -> Problem:
    """``normalize`` on the ``[scores, targets, weights]`` columns of valid samples.

    A fourth column, the same rows as ``Sample``s, is sorted, folded and kept
    with the rest, and the tie rule reads it; without it the tie rule builds
    the tied rows alone. Each run of equal scores folds into its first row.
    """
    scores = columns[0]
    n = len(scores)
    if not n:
        raise EmptyProblem("cannot calibrate zero samples")
    if not all(map(le, scores, islice(scores, 1, None))):
        # Stable, as sorting the samples by score is; n > 1, so take returns tuples.
        take = itemgetter(*sorted(range(n), key=scores.__getitem__))
        columns = list(columns)
        for i in range(len(columns)):
            columns[i] = take(columns[i])  # the input column can go before the next
        scores = columns[0]
    offset = 0.0
    if not all(map(lt, scores, islice(scores, 1, None))):
        family.require("combine_ties")
        starts = [0, *compress(range(1, n), map(ne, islice(scores, 1, None), scores))]
        columns = list(map(list, columns))
        for start, end in pairwise([*starts, n]):
            if end - start == 1:
                continue
            if len(columns) > 3:
                run = columns[3][start:end]
            else:
                run = list(map(Sample, *(column[start:end] for column in columns)))
            merged = run[0]
            for member in run[1:]:
                try:
                    merged, dropped = family.combine_ties(merged, member)
                except CalibrationError as exc:
                    # The tie has no row of its own to report; name its score.
                    raise type(exc)(f"ties at score {member.score!r}: {exc}") from exc
                offset += dropped
            for column, value in zip(columns, (merged.score, merged.target, merged.weight, merged)):
                column[start] = value
        columns = [list(map(column.__getitem__, starts)) for column in columns]
    return _fill(object.__new__(Problem), columns, family, offset)


def _boundary(scores: Sequence[float], i: int) -> float:
    """Breakpoint between ``scores[i - 1]`` and ``scores[i]``, by ``blocks_to_staircase``'s rule."""
    left_score = scores[i - 1]
    right_score = scores[i]
    # left < bp <= right keeps each score on its own block's value.
    if left_score == -math.inf:
        return 0.0 if right_score == math.inf else right_score
    if right_score == math.inf:
        return math.nextafter(left_score, math.inf)
    mid = 0.5 * left_score + 0.5 * right_score
    return mid if mid > left_score else right_score


class _Sized:
    """``iterator`` with the length ``tuple`` should allocate for it.

    ``tuple`` of an object sizes its result by the object's length hint and
    takes the items from ``iter`` of it. A bare iterator has no hint, so
    ``tuple`` grows its array a quarter at a time, and up to that quarter is
    allocated beyond the result before the last resize.
    """

    __slots__ = ("_iterator", "_size")

    def __init__(self, iterator: Iterable, size: int) -> None:
        self._iterator = iterator
        self._size = size

    def __iter__(self):
        return self._iterator

    def __length_hint__(self) -> int:
        return self._size


def _partition_staircase(
    scores: Sequence[float], firsts: Iterable[int], ys: Sequence[float]
) -> Staircase:
    """Staircase of a partition given as parallel lists, the stack's own shape.

    Block ``k`` starts at sample ``firsts[k]`` and ends where block ``k + 1``
    starts (the last block at the last score); ``ys[k]`` is its minimizer.
    The rules are ``blocks_to_staircase``'s. ``firsts`` may be any iterable:
    it is read once, front to back. ``ys`` is read more than once.

    The staircase's tuples are built from iterator chains over the given
    lists, with one ``_boundary`` call per breakpoint: no list or string per
    block is held beside them. The values come first, so the breakpoints'
    tuple is allocated once at its known length.
    """
    if not ys:
        raise EmptyProblem("no blocks to materialize")
    if any(map(lt, islice(ys, 1, None), ys)):
        a, b = next((a, b) for a, b in pairwise(ys) if b < a)
        raise NotMonotone(
            f"block minimizers decrease ({a!r} -> {b!r}); solver output is inconsistent"
        )
    # A block starts a step where its minimizer differs from the one before.
    # != rather than >: a NaN minimizer keeps its own step, so Staircase's
    # finite rule rejects it.
    values = tuple(compress(ys, chain((True,), map(ne, islice(ys, 1, None), ys))))
    cuts = compress(islice(firsts, 1, None), map(ne, islice(ys, 1, None), ys))
    breakpoints = tuple(_Sized(map(_boundary, repeat(scores), cuts), len(values) - 1))
    return Staircase(breakpoints, values)


def blocks_to_staircase(blocks: Sequence[Block], scores: Sequence[float]) -> Staircase:
    """Materialize solver blocks as a staircase over the given sample scores.

    ``blocks`` partition the samples in order, as every solver's do.
    Adjacent blocks with equal minimizers are collapsed so the value
    sequence is strictly increasing. Each breakpoint ``bp`` lies between
    the scores ``left < right`` astride the block boundary, with
    ``left < bp <= right``: the midpoint, or ``right`` when the midpoint
    rounds onto ``left``. A ``+inf`` right score gives the float just above
    ``left``, a ``-inf`` left score gives ``right``, and ``(-inf, +inf)``
    gives 0.
    """
    return _partition_staircase(scores, map(attrgetter("first"), blocks),
                                [b.minimizer for b in blocks])
