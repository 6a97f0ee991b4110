"""The stack's pooling loops, shared by the offline stack solver and the streaming one.

The stack is three parallel lists, one entry per block: its first sample
index, minimizer and auxiliary value. ``_pooler`` is the one place that
picks a loop for a family: ``_pool_means``, the built-in kernel, when
``losses._pools_by_weighted_mean`` recognises the family's merge rules as
the built-ins' own functions (by identity); else ``_pool``, the generic
loop, which calls the family's ``merge``. On the built-ins both leave the
same lists, bit for bit. The kernel is one loop with the top block in
locals: each turn pools the top leftward, then takes groups until one
violates the top and pools that one in. ``pav_offline.fit_stack`` drives
its loop with every sample in one call, and ``monocal.online`` drives it
with one group per arrival. ``Block``s are built from the lists only for a
returned result, all at once, by ``problem._stack_blocks``.

Pooling knows no loss formula, no problem and no staircase, so ``monocal
stream`` loads neither the problem layer, the offline solvers nor the
staircase transform.
"""

from __future__ import annotations

from typing import Callable, Iterable

from .losses import LossFamily, _pools_by_weighted_mean

__all__: list[str] = []


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
