"""The staircase transform: the fitted step function and how a partition becomes one.

A solver's partition (block starts and minimizers, or ``Block``s) becomes a
right-continuous nondecreasing step function (``Staircase``) with strictly
increasing step values, one breakpoint between each pair of adjacent steps.
``evaluate`` is the one rule for reading it at a score, ``_steps_at`` that
rule on a column.

It builds on ``monocal.core`` and knows no loss. Only the commands and
library calls that materialize or read a staircase load it: ``monocal
stream`` pushes rows and prints step values without it, and
``OnlineState.current()`` imports it on its first call.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from functools import partial
from itertools import chain, compress, islice, pairwise, repeat
from operator import attrgetter, lt, ne
from typing import TYPE_CHECKING, Iterable, Sequence

from .core import _Frozen, _set
from .errors import EmptyProblem, InvalidValue, NotMonotone

if TYPE_CHECKING:
    from .problem import Block

__all__ = ["Staircase", "evaluate", "blocks_to_staircase"]


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
            # The order test runs in C; only a failure walks the pairs, to name one.
            if not all(map(lt, seq, islice(seq, 1, None))):
                a, b = next((a, b) for a, b in pairwise(seq) if not a < b)
                raise InvalidValue(f"{name} must strictly increase ({a!r} !< {b!r})")

    @property
    def step_count(self) -> int:
        return len(self.values)

    __call__ = evaluate


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
