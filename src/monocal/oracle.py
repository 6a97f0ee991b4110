"""Brute-force references for verification: exhaustive partition search, grid argmin.

These are independent witnesses for the solvers and deliberately share no
minimizer logic with them: weighted-square group means come from prefix
sums recomputed per range, other families get derivative-free interval
shrinking or a plain grid scan over the loss itself. Exponential in the
sample count; intended for tests and spot checks only.
"""

from __future__ import annotations

import math
from typing import Callable

from .core import _Frozen, _set
from .errors import InvalidConfig, TooLarge
from .losses import WEIGHTED_SQUARE
from .problem import Problem

__all__ = ["OracleResult", "brute_force_fit", "grid_minimize"]

_MAX_SAMPLES = 20

# Bracket shrink factor for the derivative-free minimizer (golden section).
_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


class OracleResult(_Frozen):
    """Best feasible partition found by exhaustive search.

    ``best_values`` holds the fitted value of every sample (nondecreasing).
    When requested, ``near_optimal_values`` lists the per-sample values of
    every feasible partition whose loss is within the given slack of the
    best, the best included.
    """

    best_loss: float
    best_values: tuple[float, ...]
    n_partitions_checked: int
    near_optimal_values: tuple[tuple[float, ...], ...] | None

    def __init__(self, best_loss: float, best_values: tuple[float, ...],
                 n_partitions_checked: int,
                 near_optimal_values: tuple[tuple[float, ...], ...] | None = None) -> None:
        _set(self, "best_loss", best_loss)
        _set(self, "best_values", best_values)
        _set(self, "n_partitions_checked", n_partitions_checked)
        _set(self, "near_optimal_values", near_optimal_values)


def grid_minimize(loss: Callable[[float], float], lo: float, hi: float, steps: int) -> float:
    """Argmin of ``loss`` over the uniform grid lo + i*(hi-lo)/steps, i = 0..steps."""
    assert lo < hi and steps >= 2
    span = hi - lo
    best_z = lo
    best = loss(lo)
    for i in range(1, steps + 1):
        z = lo + span * i / steps
        v = loss(z)
        if v < best:
            best = v
            best_z = z
    return best_z


def _shrink_minimize(
    loss: Callable[[float], float], lo: float, hi: float, tol: float = 1e-9
) -> float:
    """Golden-section bracket shrinking; assumes ``loss`` strictly convex."""
    a, b = lo, hi
    c = b - _GOLDEN * (b - a)
    d = a + _GOLDEN * (b - a)
    fc, fd = loss(c), loss(d)
    while b - a > tol:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - _GOLDEN * (b - a)
            fc = loss(c)
        else:
            a, c, fc = c, d, fd
            d = a + _GOLDEN * (b - a)
            fd = loss(d)
    return 0.5 * (a + b)


def _square_range_tables(problem: Problem) -> tuple[list[list[float]], list[list[float]]]:
    # Prefix sums of w, w*y, w*y*y give each range's weighted mean and the
    # loss at it in O(1), recomputed from scratch (no merge-rule folding).
    samples = problem.samples
    n = len(samples)
    pw = [0.0] * (n + 1)
    pwy = [0.0] * (n + 1)
    pwyy = [0.0] * (n + 1)
    for i, s in enumerate(samples):
        pw[i + 1] = pw[i] + s.weight
        pwy[i + 1] = pwy[i] + s.weight * s.target
        pwyy[i + 1] = pwyy[i] + s.weight * s.target * s.target
    minimizers = [[0.0] * n for _ in range(n)]
    losses = [[0.0] * n for _ in range(n)]
    for a in range(n):
        for b in range(a, n):
            w = pw[b + 1] - pw[a]
            wy = pwy[b + 1] - pwy[a]
            wyy = pwyy[b + 1] - pwyy[a]
            minimizers[a][b] = wy / w
            losses[a][b] = max(0.0, wyy - wy * wy / w)
    return minimizers, losses


def _generic_range_tables(
    problem: Problem, bounds: tuple[float, float], steps: int | None
) -> tuple[list[list[float]], list[list[float]]]:
    samples = problem.samples
    family = problem.family
    n = len(samples)
    lo, hi = bounds
    minimizers = [[0.0] * n for _ in range(n)]
    losses = [[0.0] * n for _ in range(n)]
    if steps is not None:
        # Grid path: per-sample loss curves once, range curves by accumulation.
        span = hi - lo
        zs = [lo + span * i / steps for i in range(steps + 1)]
        per_sample = [[family.loss(s, z) for z in zs] for s in samples]
        for a in range(n):
            curve = [0.0] * len(zs)
            for b in range(a, n):
                row = per_sample[b]
                curve = [acc + v for acc, v in zip(curve, row)]
                k = min(range(len(zs)), key=curve.__getitem__)
                minimizers[a][b] = zs[k]
                losses[a][b] = curve[k]
    else:
        for a in range(n):
            for b in range(a, n):
                members = samples[a : b + 1]
                range_loss = lambda z, ms=members: math.fsum(family.loss(s, z) for s in ms)
                z = _shrink_minimize(range_loss, lo, hi)
                minimizers[a][b] = z
                losses[a][b] = range_loss(z)
    return minimizers, losses


def brute_force_fit(
    problem: Problem,
    bounds: tuple[float, float] | None = None,
    steps: int | None = None,
    strict: bool = False,
    collect_within: float | None = None,
) -> OracleResult:
    """Enumerate every contiguous partition and keep the monotone-feasible optimum.

    Feasible means nondecreasing group minimizers (strictly increasing with
    ``strict=True``). Weighted-square problems use closed-form range means;
    any other family needs explicit minimizer ``bounds``, searched either by
    interval shrinking (default, 1e-9 bracket) or on a uniform grid of
    ``steps`` intervals.
    """
    n = len(problem.samples)
    if n > _MAX_SAMPLES:
        raise TooLarge(
            f"{n} samples means 2^{n - 1} partitions; the oracle caps at {_MAX_SAMPLES}"
        )
    if problem.family == WEIGHTED_SQUARE:
        minimizers, losses = _square_range_tables(problem)
    elif bounds is not None:
        minimizers, losses = _generic_range_tables(problem, bounds, steps)
    else:
        raise InvalidConfig("non-square families need explicit minimizer bounds")

    best_loss = math.inf
    best_values: tuple[float, ...] = ()
    candidates: list[tuple[float, tuple[float, ...]]] = []
    n_checked = 0
    for mask in range(1 << (n - 1)):
        n_checked += 1
        start = 0
        prev = -math.inf
        feasible = True
        total = problem.loss_offset
        values: list[float] = []
        for cut in range(n):
            if cut < n - 1 and not (mask >> cut) & 1:
                continue
            z = minimizers[start][cut]
            if (z <= prev) if strict else (z < prev):
                feasible = False
                break
            total += losses[start][cut]
            values.extend([z] * (cut - start + 1))
            prev = z
            start = cut + 1
        if not feasible:
            continue
        if collect_within is not None:
            candidates.append((total, tuple(values)))
        if total < best_loss:
            best_loss = total
            best_values = tuple(values)

    near = None
    if collect_within is not None:
        near = tuple(v for loss, v in candidates if loss <= best_loss + collect_within)
    return OracleResult(best_loss, best_values, n_checked, near)
