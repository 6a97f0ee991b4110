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

The stack kernel (``_pool``) is the one pooling loop of the merge solvers:
``fit_stack`` drives it with every sample in one call, and the streaming
solver (``monocal.online``) drives it with one group per arrival.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import pairwise
from typing import Iterable, Iterator

from .core import Block, Problem, _partition_loss, blocks_loss
from .losses import MERGE_RULES, _target, _weight

__all__ = ["FitReport", "fit_direct", "fit_stack", "direct_passes"]


@dataclass(frozen=True)
class FitReport:
    """Fit outcome: final blocks plus merge accounting.

    ``merge_count`` always equals N - S (samples minus stairs). ``passes``
    counts joining passes and is set by the direct solver only.
    """

    blocks: tuple[Block, ...]
    merge_count: int
    total_loss: float
    passes: int | None = None


def _pool(
    firsts: list[int],
    ys: list[float],
    auxs: list[float],
    groups: Iterable[tuple[int, float, float]],
    merge,
) -> int:
    """Push ``(first, y, aux)`` groups onto the stack, pooling each leftward.

    The stack is three parallel lists, one entry per block: its first sample
    index, minimizer and auxiliary value. A pushed group merges with the top
    block while the top's minimizer is ``>=`` its own, so the stack
    minimizers strictly increase after every push. Returns the merge count.
    """
    merges = 0
    for first, y, aux in groups:
        while ys and ys[-1] >= y:
            y, aux = merge(ys.pop(), auxs.pop(), y, aux)
            first = firsts.pop()
            merges += 1
        firsts.append(first)
        ys.append(y)
        auxs.append(aux)
    return merges


def _stack_blocks(
    firsts: list[int], ys: list[float], auxs: list[float], n: int
) -> tuple[Block, ...]:
    """Blocks of a stack over ``n`` samples; each ends before the next begins."""
    lasts = [first - 1 for first in firsts[1:]]
    lasts.append(n - 1)
    return tuple(map(Block, firsts, lasts, ys, auxs))


def _sample_groups(problem: Problem) -> Iterable[tuple[int, float, float]]:
    """``(index, minimizer, aux)`` per sample; the built-ins' are the target and weight columns."""
    family = problem.family
    family.require(*MERGE_RULES)
    if family.minimizer_of is _target and family.init_aux is _weight:
        ys, auxs = problem.targets, problem.weights
    else:
        samples = problem.samples
        ys, auxs = map(family.minimizer_of, samples), map(family.init_aux, samples)
    return zip(range(len(problem.scores)), ys, auxs)


def _single_sample_groups(problem: Problem) -> list[Block]:
    return [Block(i, i, y, aux) for i, y, aux in _sample_groups(problem)]


def _join_pass(groups: list[Block], merge) -> list[Block]:
    """One simultaneous pass: fold every maximal run of violating pairs."""
    out = groups[:1]
    for prev, group in pairwise(groups):
        if prev.minimizer >= group.minimizer:
            top = out[-1]
            y, aux = merge(top.minimizer, top.aux, group.minimizer, group.aux)
            out[-1] = Block(top.first, group.last, y, aux)
        else:
            out.append(group)
    return out


def _passes(groups: list[Block], merge) -> Iterator[list[Block]]:
    """Yield the groups after each joining pass until a pass joins nothing."""
    while len(joined := _join_pass(groups, merge)) < len(groups):
        yield joined
        groups = joined


def direct_passes(problem: Problem) -> Iterator[tuple[Block, ...]]:
    """Yield the group state after each joining pass of the direct solver."""
    yield from map(tuple, _passes(_single_sample_groups(problem), problem.family.merge))


def fit_direct(problem: Problem) -> FitReport:
    """Pass-based solver: rebuild the violation set and join until none remain."""
    blocks = _single_sample_groups(problem)
    passes = 0
    for passes, blocks in enumerate(_passes(blocks, problem.family.merge), start=1):
        pass  # keep the last pass's groups and its number
    return FitReport(
        blocks=tuple(blocks),
        merge_count=len(problem.scores) - len(blocks),
        total_loss=blocks_loss(problem, blocks),
        passes=passes,
    )


def _fit_stack(problem: Problem) -> tuple[list[int], list[float], list[float], int]:
    """The stack sweep on lists: ``(firsts, ys, auxs, merges)``, no ``Block``."""
    groups = _sample_groups(problem)
    firsts: list[int] = []
    ys: list[float] = []
    auxs: list[float] = []
    merges = _pool(firsts, ys, auxs, groups, problem.family.merge)
    return firsts, ys, auxs, merges


def fit_stack(problem: Problem) -> FitReport:
    """Single left-to-right sweep keeping a stack of merged blocks."""
    firsts, ys, auxs, merges = _fit_stack(problem)
    return FitReport(
        blocks=_stack_blocks(firsts, ys, auxs, len(problem.scores)),
        merge_count=merges,
        total_loss=_partition_loss(problem, firsts, ys),
    )
