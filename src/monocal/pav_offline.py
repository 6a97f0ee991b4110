"""Offline solvers: pass-based group merging and the single-sweep stack variant.

Both return the same partition: maximal runs of adjacent groups whose
minimizers fail to strictly increase are merged (the violation test is
``y_i >= y_{i+1}``, exact comparison, so equal minimizers merge too) until
the block minimizers strictly increase. ``fit_stack`` is the production
solver (one left-to-right sweep, linear time for O(1) merge rules);
``fit_direct`` is the pass-structured reference kept for differential
testing and pass-trace inspection.

A direct pass is one left-to-right fold over the pass's input groups: a
group whose minimizer is at most its left input neighbour's is merged into
the last output block, otherwise it starts a new one. Violations are tested
between input groups, not against the merged block, so a pass joins exactly
the maximal violating runs of its input; passes repeat until one joins
nothing.

The stack solvers pool through one of two loops, and ``_pooler`` is the one
place that picks: ``_pool_means``, the built-in kernel, when
``losses._pools_by_weighted_mean`` recognises the family's merge rules as
the built-ins' own functions (by identity); else ``_pool``, the generic
loop, which calls the family's ``merge``. On the built-ins both leave the
same lists, bit for bit. The kernel is one loop with the top block in
locals: each turn pools the top leftward, then takes groups until one
violates the top and pools that one in. ``fit_stack`` drives its loop with
every sample in one call, and the streaming solver (``monocal.online``)
drives it with one group per arrival. ``fit_direct``, the reference
solver, always calls the family's ``merge``. A direct pass reads and writes
the stack's lists too. ``Block``s are built from them only for a returned
result, all at once (``_stack_blocks``). Pooling knows no loss:
``monocal.losses`` gives each sample's merge inputs (``_sample_groups``),
says which families pool by weighted mean, and gives a partition's total
loss.
"""

from __future__ import annotations

from operator import gt
from typing import Callable, Iterable, Iterator

from .core import Block, Problem, _Frozen, _from_columns, _set
from .losses import LossFamily, _partition_loss, _pools_by_weighted_mean, _sample_groups

__all__ = ["FitReport", "fit_direct", "fit_stack", "direct_passes"]


class FitReport(_Frozen):
    """Fit outcome: final blocks plus merge accounting.

    ``merge_count`` is N - S (samples minus stairs) by definition. ``passes``
    counts joining passes and is set by the direct solver only.
    """

    blocks: tuple[Block, ...]
    merge_count: int
    total_loss: float
    passes: int | None

    def __init__(self, blocks: tuple[Block, ...], merge_count: int, total_loss: float,
                 passes: int | None = None) -> None:
        _set(self, "blocks", blocks)
        _set(self, "merge_count", merge_count)
        _set(self, "total_loss", total_loss)
        _set(self, "passes", passes)


def _pool(
    firsts: list[int],
    ys: list[float],
    auxs: list[float],
    groups: Iterable[tuple[int, float, float]],
    merge,
) -> None:
    """Push ``(first, y, aux)`` groups onto the stack, pooling each leftward.

    The stack is three parallel lists, one entry per block: its first sample
    index, minimizer and auxiliary value. A pushed group merges with the top
    block while the top's minimizer is ``>=`` its own, so the stack
    minimizers strictly increase after every push.
    """
    for first, y, aux in groups:
        while ys and ys[-1] >= y:
            y, aux = merge(ys.pop(), auxs.pop(), y, aux)
            first = firsts.pop()
        firsts.append(first)
        ys.append(y)
        auxs.append(aux)


def _pool_means(
    firsts: list[int],
    ys: list[float],
    lams: list[float],
    groups: Iterable[tuple[int, float, float]],
    merge,
) -> None:
    """``_pool`` with the built-ins' merge, the weighted mean, computed inline.

    The arithmetic is ``weighted_square_merge``'s, ``(lam_i*y_i + lam_j*y_j) /
    (lam_i + lam_j)`` with the stack side as ``i``, so the lists end bit for
    bit as ``_pool`` leaves them. Its weight checks are left out: a
    ``Sample``'s weight is positive, and so is a sum of such weights. The top
    block lives in locals from the first group on: each turn pools it
    leftward (the one place that pops), then takes groups until one violates
    it and pools that one in. It takes ``merge`` only to share ``_pool``'s
    signature, and never calls it.
    """
    groups = iter(groups)
    for top_first, top_y, top_lam in groups:
        break
    else:
        return
    while True:
        while ys and ys[-1] >= top_y:
            lam = lams.pop()
            lam_sum = lam + top_lam
            top_y = (lam * ys.pop() + top_lam * top_y) / lam_sum
            top_lam = lam_sum
            top_first = firsts.pop()
        for first, y, lam in groups:
            if top_y >= y:
                break
            firsts.append(top_first)
            ys.append(top_y)
            lams.append(top_lam)
            top_first, top_y, top_lam = first, y, lam
        else:
            break
        lam_sum = top_lam + lam
        top_y = (top_lam * top_y + lam * y) / lam_sum
        top_lam = lam_sum
    firsts.append(top_first)
    ys.append(top_y)
    lams.append(top_lam)


def _pooler(family: LossFamily) -> Callable[..., None]:
    """The stack loop for ``family``: ``_pool_means`` if its merge rules are the built-ins' own.

    Both loops are called as ``loop(firsts, ys, auxs, groups, family.merge)``.
    """
    return _pool_means if _pools_by_weighted_mean(family) else _pool


def _stack_blocks(
    firsts: list[int], ys: list[float], auxs: list[float], n: int
) -> tuple[Block, ...]:
    """Blocks of a stack over ``n`` samples; each ends before the next begins.

    They are built in bulk (``core._from_columns``) once ``Block``'s rule,
    ``first <= last``, holds on the columns.
    """
    lasts = [first - 1 for first in firsts[1:]]
    lasts.append(n - 1)
    if any(map(gt, firsts, lasts)):
        # An empty range: build one at a time, so Block's own check raises.
        return tuple(map(Block, firsts, lasts, ys, auxs))
    return _from_columns(Block, firsts, lasts, ys, auxs)


def _report(problem: Problem, firsts: list[int], ys: list[float], auxs: list[float],
            passes: int | None = None) -> FitReport:
    """The ``FitReport`` of a solver's lists; the fit's ``Block``s are built here."""
    n = len(problem.scores)
    return FitReport(
        blocks=_stack_blocks(firsts, ys, auxs, n),
        merge_count=n - len(ys),
        total_loss=_partition_loss(problem, firsts, ys),
        passes=passes,
    )


def _join_pass(
    groups: Iterable[tuple[int, float, float]], merge
) -> tuple[list[int], list[float], list[float]]:
    """One simultaneous pass: fold every maximal run of violating pairs."""
    firsts, ys, auxs = stack = [], [], []
    prev = None
    for first, y, aux in groups:
        if ys and prev >= y:
            ys[-1], auxs[-1] = merge(ys[-1], auxs[-1], y, aux)
        else:
            firsts.append(first)
            ys.append(y)
            auxs.append(aux)
        prev = y
    return stack


def _passes(problem: Problem) -> Iterator[tuple[tuple[list[int], list[float], list[float]], bool]]:
    """Yield ``(the stack's lists, joined)`` after each pass, up to the first that joins nothing."""
    merge = problem.family.merge
    groups, size = _sample_groups(problem), len(problem.scores)
    while True:
        stack = _join_pass(groups, merge)
        joined = len(stack[1]) < size
        yield stack, joined
        if not joined:
            return
        groups, size = zip(*stack), len(stack[1])


def direct_passes(problem: Problem) -> Iterator[tuple[Block, ...]]:
    """Yield the group state after each joining pass of the direct solver."""
    n = len(problem.scores)
    for (firsts, ys, auxs), joined in _passes(problem):
        if joined:
            yield _stack_blocks(firsts, ys, auxs, n)


def _fit_direct(problem: Problem) -> tuple[list[int], list[float], list[float], int]:
    """The direct passes on lists: ``(firsts, ys, auxs, passes)``, no ``Block``."""
    for passes, ((firsts, ys, auxs), _) in enumerate(_passes(problem)):
        pass  # keep the last pass's lists; it joined nothing and every one before it did
    return firsts, ys, auxs, passes


def fit_direct(problem: Problem) -> FitReport:
    """Pass-based solver: rebuild the violation set and join until none remain."""
    return _report(problem, *_fit_direct(problem))


def _fit_stack(problem: Problem) -> tuple[list[int], list[float], list[float]]:
    """The stack sweep on lists: ``(firsts, ys, auxs)``, no ``Block``."""
    groups = _sample_groups(problem)
    firsts: list[int] = []
    ys: list[float] = []
    auxs: list[float] = []
    family = problem.family
    _pooler(family)(firsts, ys, auxs, groups, family.merge)
    return firsts, ys, auxs


def fit_stack(problem: Problem) -> FitReport:
    """Single left-to-right sweep keeping a stack of merged blocks."""
    return _report(problem, *_fit_stack(problem))
