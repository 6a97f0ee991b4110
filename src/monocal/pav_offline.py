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

``fit_stack`` drives the stack loop that ``losses._pooler`` picks for the
family (the streaming solver drives it too) with every sample in one call.
``fit_direct``, the reference solver, always calls the family's ``merge``.
A direct pass reads and writes the stack's lists too. ``Block``s are built
from them only for a returned result, all at once
(``problem._stack_blocks``). ``monocal.problem`` gives each sample's merge
inputs (``_sample_groups``) and a partition's total loss.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from .core import _Frozen, _set
from .errors import InvalidWeight
from .losses import _pooler
from .problem import Block, Problem, _partition_loss, _sample_groups, _stack_blocks

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
    """One simultaneous pass: fold every maximal run of violating pairs.

    A merge's ``InvalidWeight`` gets the ``first`` index of the group it
    merged in, as the stack kernel's does.
    """
    firsts, ys, auxs = stack = [], [], []
    prev = None
    try:
        for first, y, aux in groups:
            if ys and prev >= y:
                ys[-1], auxs[-1] = merge(ys[-1], auxs[-1], y, aux)
            else:
                firsts.append(first)
                ys.append(y)
                auxs.append(aux)
            prev = y
    except InvalidWeight as exc:
        exc.first = first
        raise
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
