"""The problem layer: calibration problems, blocks, and the loss rules that read them.

A calibration problem is three score-sorted columns (scores, targets,
weights) with no repeated score, plus a loss family. ``normalize`` builds
one from any rows, folding ties by the family's rule. Solvers partition the
rows into contiguous blocks with one fitted value each; ``monocal.staircase``
turns a partition into the fitted step function.

Besides the types, this module holds every rule that reads a problem:
each sample's merge inputs (``_sample_groups``), a partition's total loss
(``_partition_loss``, ``blocks_loss``), the check of its targets against
the family's domain (``_check_targets``), the bracket around a
weighted-mean family's minimizers (``_minimizer_bracket``) and the anytime
derivative probe (``_derivative_probe``). Each rule looks up the family
parts it uses in the built-ins' table of column forms
(``losses._column_form``): a built-in part reads the target and weight
columns, with its per-row term where it has one, and any other part is
called per ``Sample``.
``_stack_blocks`` is the one code that builds a ``Block`` from the stack's
lists.

Imports run ``losses`` ← ``problem`` ← offline and anytime solvers: the
online path (``monocal stream``) and ``apply`` load none of this module, and
``OnlineState.blocks()`` imports it on its first call.
"""

from __future__ import annotations

import math
from collections import deque
from functools import cached_property, partial
from itertools import chain, compress, islice, pairwise, repeat
from operator import gt, itemgetter, le, lt, ne, sub
from typing import Callable, Iterable, Sequence

from .core import Sample, _Frozen, _set
from .errors import CalibrationError, EmptyProblem, InvalidValue
from .losses import (
    MERGE_RULES, DerivativeOracle, LossFamily, _checked, _column_form, _target_domain,
    _target_error,
)

__all__ = [
    "Problem",
    "Block",
    "normalize",
    "blocks_loss",
]


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


def _columns_of(samples: Sequence[Sample]) -> list[list[float]]:
    return [[s.score for s in samples], [s.target for s in samples], [s.weight for s in samples]]


class Problem(_Frozen):
    """Score-sorted ``scores``, ``targets`` and ``weights`` columns, no score repeated.

    ``normalize`` builds one from any rows; ``Problem(...)`` takes rows
    already in that form and raises ``InvalidValue`` unless their scores
    strictly increase. Both raise ``InvalidLabel`` for a target outside the
    family's domain (log loss's is [0, 1]), naming its score.

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
        _check_targets(family, columns[0], columns[1])
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


def _stack_blocks(
    firsts: list[int], ys: list[float], auxs: list[float], n: int
) -> tuple[Block, ...]:
    """Blocks of a stack over ``n`` samples; each ends before the next begins.

    They are built in bulk (``_from_columns``) once ``Block``'s rule,
    ``first <= last``, holds on the columns.
    """
    lasts = [first - 1 for first in firsts[1:]]
    lasts.append(n - 1)
    if any(map(gt, firsts, lasts)):
        # An empty range: build one at a time, so Block's own check raises.
        return tuple(map(Block, firsts, lasts, ys, auxs))
    return _from_columns(Block, firsts, lasts, ys, auxs)


def normalize(raw_samples: Iterable[Sample], family: LossFamily) -> Problem:
    """Sort samples by score and merge equal scores into composite samples.

    Equal scores must map to the same calibrated value, so ties are folded
    into one composite per score via the family's tie rule; the additive
    constant this drops from the objective is kept in ``Problem.loss_offset``.
    A target outside the family's domain raises ``InvalidLabel`` before any
    tie is folded. A family without ``combine_ties`` raises
    ``InvalidConfig`` at the first repeated score; a tie merge that fails
    re-raises its error class with a ``ties at score X:`` prefix. The sort
    is stable, and a sample without a tie is kept as the same object.
    Idempotent: normalizing a normalized problem's samples changes nothing.
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
    _check_targets(family, scores, columns[1])
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


def _check_targets(family: LossFamily, scores: Sequence[float], targets: Sequence[float]) -> None:
    """Raise ``losses._target_error`` for the first target outside ``family``'s domain.

    The columns are checked with no Python call per row.
    """
    domain = _target_domain(family)
    if domain is None:
        return
    lower, upper = domain
    if not (lower <= min(targets, default=lower) and max(targets, default=upper) <= upper):
        score, target = next((s, t) for s, t in zip(scores, targets) if not lower <= t <= upper)
        raise _target_error(family, score, target)


def _minimizer_bracket(problem: Problem) -> tuple[float, float]:
    """``(upper, lower)`` around every group minimizer of a nonempty ``problem``.

    Valid for a family that pools by weighted mean, as both built-ins do:
    every group minimizer is a weighted mean of targets, so the target range
    brackets it. Nothing narrower does: each single-sample group starts at
    its own target.
    """
    lower, upper = min(problem.targets), max(problem.targets)
    if lower == upper:
        # One target value. Widen by one float toward zero: upward could
        # leave [0, 1] for log loss or overflow at the largest float.
        near = math.nextafter(lower, 0.0) if lower else math.nextafter(0.0, 1.0)
        lower, upper = sorted((lower, near))
    return upper, lower


def _sample_groups(problem: Problem) -> Iterable[tuple[int, float, float]]:
    """``(index, minimizer, aux)`` per sample; a built-in part reads its column."""
    family = problem.family
    family.require(*MERGE_RULES)
    columns = []
    for part in (family.minimizer_of, family.init_aux):
        column = _column_form(part)
        columns.append(getattr(problem, column) if column else map(part, problem.samples))
    return zip(range(len(problem.scores)), *columns)


def _partition_loss(problem: Problem, firsts: Sequence[int], ys: Sequence[float]) -> float:
    """Total loss of a partition given as in ``staircase._partition_staircase``, offset included.

    Each sample's term takes its block's value: ``ys`` itself when every
    block holds one sample, else each ``ys[k]`` repeated over its block. The
    built-ins' terms (and tie offsets) are nonnegative on their domain, so
    an exact sum past the float range is ``inf``; a custom family's terms
    may have either sign, so ``math.fsum``'s ``OverflowError`` reaches its
    caller.
    """
    n = len(problem.scores)
    if len(ys) == n:
        values = ys
    else:
        values = chain.from_iterable(map(repeat, ys, map(sub, [*firsts[1:], n], firsts)))
    loss = problem.family.loss
    form = _column_form(loss)
    if form is None:
        return math.fsum(chain((problem.loss_offset,), map(loss, problem.samples, values)))
    try:
        return math.fsum(chain((problem.loss_offset,),
                               map(form[0], values, problem.targets, problem.weights)))
    except OverflowError:  # "intermediate overflow in fsum"
        return math.inf


def blocks_loss(problem: Problem, blocks: Sequence[Block]) -> float:
    """Total loss of a block partition, including the tie-merge offset."""
    return _partition_loss(problem, [b.first for b in blocks], [b.minimizer for b in blocks])


def _derivative_probe(problem: Problem) -> Callable[[int, int, float], float]:
    """``(first, last, z)`` to the checked ``neg_derivative_at`` of ``problem``'s samples.

    A built-in derivative sums its term (``losses._column_form``) over the
    target and weight columns and builds no ``Sample``; any other goes
    through a ``DerivativeOracle``.
    """
    family = problem.family
    family.require("neg_derivative")
    term = _column_form(family.neg_derivative)
    if term is None:
        return partial(_checked, DerivativeOracle(problem.samples, family).neg_derivative_at)
    ts, ws = problem.targets, problem.weights

    def total(first: int, last: int, z: float) -> float:
        end = last + 1
        return math.fsum(map(term, repeat(z), ts[first:end], ws[first:end]))

    def probe(first: int, last: int, z: float) -> float:
        if first == last:
            # One term is its own sum, except that fsum sets the sign of a
            # zero and _checked names a NaN, so those two go through both.
            d = term(z, ts[first], ws[first])
            if d and d == d:
                return d
        return _checked(total, first, last, z)

    return probe
