"""Streaming solver for samples arriving in ascending score order.

Each arrival becomes a new top block, which is then merged leftward while it
violates monotonicity, so the stack is the optimal partition of everything
seen so far after every push (it matches the offline stack solver on each
prefix). The pooling is the stack loop that ``losses._pooler`` picks for
the family, the same one ``fit_stack`` drives: the built-in kernel
(``_pool_means``) when the family's merge rules are the built-ins' own
functions, else the generic loop (``_pool``) calling its ``merge``. This
module adds the order check and the fold of a repeated score into the top
block. It loads neither the problem layer, the offline solvers nor the
staircase transform: ``blocks()``, the one method that builds ``Block``s,
imports ``monocal.problem``, and ``current()``, the one that builds a
``Staircase``, imports ``monocal.staircase``, each on its first call.
Out-of-order arrivals are rejected: general unordered updates can force a
full refit per sample, so the honest contract is an explicit error and the
offline path.

A push changes only the top step: it pops zero or more steps (the tie fold
and the pooling both pop) and appends exactly one, and every step below the
new top keeps the exact value the previous push left. A reader of ``values``
after each push, such as ``monocal stream``, therefore needs only ``top`` and
the new step count.

Single-writer state: ``push`` mutates; reading a quiescent state from other
threads is safe.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

from .core import Sample
from .errors import CalibrationError, EmptyProblem, OutOfOrder
from .losses import MERGE_RULES, LossFamily, _pooler, _target_domain, _target_error

if TYPE_CHECKING:
    from .problem import Block
    from .staircase import Staircase

__all__ = ["OnlineState"]


class OnlineState:
    """Incrementally maintained optimal staircase for an ordered stream.

    Each ``push`` leaves ``values[:-1]`` equal to the first
    ``step_count - 1`` values before it; only the top step is new.
    ``cumulative_merges`` is ``n_seen - step_count`` by definition.
    """

    def __init__(self, family: LossFamily) -> None:
        family.require(*MERGE_RULES)
        self._family = family
        self._domain = _target_domain(family)
        self._pool = _pooler(family)
        self._scores: list[float] = []
        self._firsts: list[int] = []
        self._ys: list[float] = []
        self._lams: list[float] = []

    @property
    def n_seen(self) -> int:
        return len(self._scores)

    @property
    def step_count(self) -> int:
        return len(self._ys)

    @property
    def cumulative_merges(self) -> int:
        return len(self._scores) - len(self._ys)

    @property
    def values(self) -> tuple[float, ...]:
        """Step values; equal to ``current().values`` whenever that succeeds.

        They strictly increase unless a merge overflowed to a non-finite
        value, which ``current()`` rejects.
        """
        return tuple(self._ys)

    @property
    def top(self) -> float:
        """Value of the top step, the one step the last push changed."""
        if not self._ys:
            raise EmptyProblem("no samples pushed yet")
        return self._ys[-1]

    @property
    def last_score(self) -> float:
        return self._scores[-1] if self._scores else -math.inf

    def push(self, sample: Sample) -> None:
        """Absorb one arrival; merges leftward until monotone again.

        A target outside the family's loss domain raises ``InvalidLabel``
        and an out-of-order score ``OutOfOrder``; both leave the state as it
        was. An error in the tie fold or the pool, such as the
        ``InvalidWeight`` of a pooled weight past the float range, leaves the
        state unusable: every later ``push``, ``values``, ``top``,
        ``blocks()`` or ``current()`` raises a ``CalibrationError`` naming it.
        """
        family, domain = self._family, self._domain
        if domain is not None and not domain[0] <= sample.target <= domain[1]:
            raise _target_error(family, sample.score, sample.target)
        self._push(sample.score, family.minimizer_of(sample), family.init_aux(sample))

    def _push(self, score: float, y: float, aux: float) -> None:
        """``push`` of a sample at ``score`` with minimizer ``y`` and auxiliary value ``aux``.

        For the built-ins these are the sample's score, target and weight, so
        a reader of valid columns (``monocal stream``) builds no ``Sample``.
        The target is not checked here: the caller has checked it, as
        ``stream``'s 0/1 label rule does.
        """
        scores = self._scores
        if scores and score < scores[-1]:
            raise OutOfOrder(
                f"score {score!r} arrived after {scores[-1]!r}; "
                "sort the data and use an offline solver instead"
            )
        merge = self._family.merge
        first = len(scores)
        try:
            if scores and score == scores[-1]:
                # Same score, same mapping: fold into the top block before any
                # violation checks.
                y, aux = merge(self._ys.pop(), self._lams.pop(), y, aux)
                first = self._firsts.pop()
            scores.append(score)
            self._pool(self._firsts, self._ys, self._lams, ((first, y, aux),), merge)
        except BaseException as exc:
            # The fold and the pool pop before they append, so a failure can
            # leave the lists out of step. Retire them, and the domain that
            # push reads first, rather than check a flag on every push.
            failed = _Failed(f"{type(exc).__name__}: {exc}")
            self._scores = self._firsts = self._ys = self._lams = self._domain = failed
            raise

    def blocks(self) -> tuple[Block, ...]:
        from .problem import _stack_blocks

        return _stack_blocks(self._firsts, self._ys, self._lams, len(self._scores))

    def current(self) -> Staircase:
        """Materialize the optimal staircase for the samples seen so far."""
        from .staircase import _partition_staircase

        if not self._ys:
            raise EmptyProblem("no samples pushed yet")
        return _partition_staircase(self._scores, self._firsts, self._ys)


class _Failed:
    """Stands in for a state's lists and loss domain after a failed push.

    Every use of it, as a truth value, a length, an iterable or by index,
    raises a ``CalibrationError`` naming the failure, so a state that a
    failed pool left out of step never returns values. It keeps the
    failure's text, not the exception: the exception's traceback holds the
    state, and the cycle would keep the frames of the failed call alive.
    """

    __slots__ = ("_failure",)

    def __init__(self, failure: str) -> None:
        self._failure = failure

    def _refuse(self, *_: object) -> None:
        raise CalibrationError(f"OnlineState is unusable after a failed push: {self._failure}")

    __bool__ = __len__ = __iter__ = __getitem__ = _refuse
