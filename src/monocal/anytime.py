"""Anytime solver: per-group bisection on minimizers via a derivative oracle.

For losses whose group minimizers are costly to compute exactly, every group
keeps a bracket [lower, upper] around its minimizer. Each round makes two
passes over the groups. The first probes the bracket midpoint, evaluates the
negative derivative of the group's summed loss there, and joins adjacent
groups whose derivative signs cross downward while their brackets coincide.
The second halves every bracket on the probed side and notes the widest
bracket that can still shrink. Stopping is the caller's choice: after any
round the rounded bracket midpoints are a valid answer (see
``AnytimeResult`` for the error bound).

Between rounds the state is a plain list of mutable
``[first, last, upper, lower, probe, neg_deriv]`` entries. ``_fit_anytime``
keeps it for the whole run and ends, as the merge solvers do, in the stack's
``firsts`` list and one value per group; ``anytime_run`` wraps it and builds
one ``AnytimeGroup`` per final group, once, for ``AnytimeResult.groups``.
``iterate`` is the public one-round view of the same round, from groups to
groups. A run stops when no bracket that can still shrink is wider than
``delta``. A bracket whose next probe rounds onto one of its ends is as
narrow as floats allow: another round could settle it on that end, which is
already its midpoint, but never move its value, so it does not hold the run
open.

Groups start bound-synchronized, so brackets only ever diverge between
groups whose fitted values are already correctly ordered; a pair that must
eventually join keeps identical brackets until its signs cross and the join
fires. With no finite initial bounds, probing follows a doubling pattern
(0, +-1, then geometric growth) until a sign flip produces a finite bracket.

Joining on a downward sign crossing is exactly the monotonicity-violation
test of the merge solvers, evaluated through derivatives: the left minimizer
sits at or above the probe while the right sits at or below it.
"""

from __future__ import annotations

import math
from functools import partial
from typing import Callable, Sequence

from .core import _Frozen, _set
from .errors import EmptyProblem, InvalidConfig, NoWidth, Unbounded
from .losses import DerivativeOracle, _checked
from .problem import Problem, _derivative_probe, _partition_loss
from .staircase import Staircase, _partition_staircase

__all__ = [
    "AnytimeGroup",
    "AnytimeConfig",
    "AnytimeResult",
    "probe_point",
    "anytime_init",
    "iterate",
    "anytime_run",
]


class AnytimeGroup(_Frozen):
    """Bisection state for one contiguous sample group.

    ``probe`` is the point where ``neg_deriv`` was last evaluated (None
    before the first round). A group settles when a probe hits its minimizer
    exactly (zero derivative collapses both bounds onto the probe).
    """

    __slots__ = ("first", "last", "upper", "lower", "probe", "neg_deriv")
    first: int
    last: int
    upper: float
    lower: float
    probe: float | None
    neg_deriv: float | None

    def __init__(self, first: int, last: int, upper: float, lower: float,
                 probe: float | None = None, neg_deriv: float | None = None) -> None:
        _set(self, "first", first)
        _set(self, "last", last)
        _set(self, "upper", upper)
        _set(self, "lower", lower)
        _set(self, "probe", probe)
        _set(self, "neg_deriv", neg_deriv)

    @property
    def settled(self) -> bool:
        return self.upper == self.lower

    @property
    def width(self) -> float:
        return self.upper - self.lower


class AnytimeConfig(_Frozen):
    """Initial bracket, target width, and round cap.

    Infinite bounds (the default) engage the doubling probe pattern until
    each group finds a finite bracket on its own. ``delta`` must be positive
    and finite: no bracket is ever wider than an infinite one, so such a run
    would stop before its first round.
    """

    init_upper: float
    init_lower: float
    delta: float
    max_iters: int

    def __init__(self, init_upper: float = math.inf, init_lower: float = -math.inf,
                 delta: float = 1e-6, max_iters: int = 256) -> None:
        _set(self, "init_upper", init_upper)
        _set(self, "init_lower", init_lower)
        _set(self, "delta", delta)
        _set(self, "max_iters", max_iters)
        self.__post_init__()

    def __post_init__(self) -> None:
        if not 0.0 < self.delta < math.inf:
            raise InvalidConfig(f"delta must be positive and finite, got {self.delta!r}")
        if not self.init_upper > self.init_lower:
            raise InvalidConfig(
                f"need init_upper > init_lower, got "
                f"({self.init_upper!r}, {self.init_lower!r})"
            )
        if self.max_iters < 0:
            raise InvalidConfig(f"max_iters must be >= 0, got {self.max_iters!r}")


class AnytimeResult(_Frozen):
    """Staircase read off the final brackets, plus convergence diagnostics.

    Fitted values are bracket midpoints ``0.5 * upper + 0.5 * lower``, rounded
    once, so each is within ``width_bound / 2`` plus half an ulp of the value
    (``math.ulp(value) / 2``) of its group's exact minimizer. ``groups``
    exposes the per-block brackets.
    Exact steps whose values lie inside one final bracket get one midpoint,
    so they collapse into one step: rows ``(1, 0.1), (2, 0.1000001)`` with
    bracket ``[0, 2]`` and ``delta=1e-6`` give one step at
    ``0.09999990463256836``, where ``fit_stack`` gives two.
    ``total_loss`` is the loss of the midpoint fit by the rule
    ``FitReport.total_loss`` uses (``blocks_loss``, tie-merge offset included).
    """

    staircase: Staircase
    width_bound: float
    iters: int
    groups: tuple[AnytimeGroup, ...]
    total_loss: float

    def __init__(self, staircase: Staircase, width_bound: float, iters: int,
                 groups: tuple[AnytimeGroup, ...], total_loss: float) -> None:
        _set(self, "staircase", staircase)
        _set(self, "width_bound", width_bound)
        _set(self, "iters", iters)
        _set(self, "groups", groups)
        _set(self, "total_loss", total_loss)


def probe_point(upper: float, lower: float) -> float:
    """Next evaluation point for a bracket: midpoint, or the doubling pattern.

    Finite brackets probe their midpoint. Half-infinite brackets probe 0
    first, then +-1, then double away from zero until a sign flip closes the
    bracket; a fully infinite bracket starts at 0.
    """
    if not upper > lower:
        raise NoWidth(f"bracket has no width: ({upper!r}, {lower!r})")
    if upper == math.inf:
        if lower == -math.inf:
            return 0.0
        if lower < 0.0:
            return 0.0
        if lower < 1.0:
            return 1.0
        return 2.0 * lower
    if lower == -math.inf:
        if upper > 0.0:
            return 0.0
        if upper > -1.0:
            return -1.0
        return 2.0 * upper
    return 0.5 * upper + 0.5 * lower


def _entries(problem: Problem, config: AnytimeConfig) -> list[list]:
    """Round state: one ``[first, last, upper, lower, probe, neg_deriv]`` per sample."""
    if not problem.scores:
        raise EmptyProblem("cannot calibrate zero samples")
    upper, lower = config.init_upper, config.init_lower
    return [[i, i, upper, lower, None, None] for i in range(len(problem.scores))]


def anytime_init(problem: Problem, config: AnytimeConfig) -> list[AnytimeGroup]:
    """One group per sample, all sharing the configured bounds."""
    return [AnytimeGroup(*e) for e in _entries(problem, config)]


def _round(entries: list[list], derivative: Callable[[int, int, float], float]
           ) -> tuple[list[list], float]:
    """One round on the list state: probe and join in one pass, then halve.

    ``derivative(first, last, z)`` returns a number or raises
    ``OracleFailure`` (see ``losses._checked``). Updates ``entries`` in place
    and returns the joined entries with the widest bracket that can still
    shrink: a bracket whose next probe rounds onto one of its ends is as
    narrow as floats allow, so it does not count.
    """
    inf = math.inf
    # A join keeps the left entry (its first and probe), sums the
    # derivatives and re-tests leftward, so chains of three or more groups
    # collapse within the round.
    stack: list[list] = []
    push = stack.append
    for e in entries:
        upper, lower = e[2], e[3]
        if upper != lower:
            if 0.0 < upper - lower < inf:  # probe_point's finite case, inline
                probe = 0.5 * upper + 0.5 * lower
            else:
                probe = probe_point(upper, lower)
            e[4], e[5] = probe, derivative(e[0], e[1], probe)
        while stack:
            left = stack[-1]
            if left[2] != e[2] or left[3] != e[3] or not left[5] >= 0.0 >= e[5]:
                break
            stack.pop()
            left[1], left[5] = e[1], left[5] + e[5]
            if left[5] != left[5]:  # +inf and -inf: the joined group's own sum names the cause
                left[5] = derivative(left[0], left[1], left[4])
            e = left
        push(e)

    widest = 0.0
    for e in stack:
        upper, lower = e[2], e[3]
        if upper == lower:
            continue
        probe, d = e[4], e[5]
        if d >= 0.0:
            e[3] = lower = probe
        if d <= 0.0:
            e[2] = upper = probe
        width = upper - lower
        if width > widest and lower < probe_point(upper, lower) < upper:
            widest = width
    return stack, widest


def iterate(groups: Sequence[AnytimeGroup], oracle: DerivativeOracle) -> list[AnytimeGroup]:
    """One full round: probe and join in one pass, then halve.

    Pure transformation; the input list is not modified. Probes within a
    round are independent of one another.
    """
    entries = [[g.first, g.last, g.upper, g.lower, g.probe, g.neg_deriv] for g in groups]
    derivative = partial(_checked, oracle.neg_derivative_at)
    return [AnytimeGroup(*e) for e in _round(entries, derivative)[0]]


def _fit_anytime(problem: Problem, config: AnytimeConfig
                 ) -> tuple[list[int], list[float], float, int, list[list]]:
    """``anytime_run``'s rounds on the list state: ``(firsts, mids, width_bound, iters, entries)``.

    ``firsts`` and ``mids`` are the partition in ``staircase._partition_staircase``'s
    shape, each group's value its bracket midpoint; ``entries`` is the final
    round state, which only ``anytime_run`` turns into groups.
    """
    entries = _entries(problem, config)
    derivative = _derivative_probe(problem)
    iters = 0
    widest = config.init_upper - config.init_lower
    while iters < config.max_iters and widest > config.delta:
        entries, widest = _round(entries, derivative)
        iters += 1
    width_bound = max(upper - lower for _, _, upper, lower, _, _ in entries)
    if any(math.isinf(e[2]) or math.isinf(e[3]) for e in entries):
        raise Unbounded(f"no finite bracket after {iters} rounds; "
                        "the loss appears to have no finite minimizer")
    firsts = [e[0] for e in entries]
    mids = [0.5 * upper + 0.5 * lower for _, _, upper, lower, _, _ in entries]
    return firsts, mids, width_bound, iters, entries


def anytime_run(problem: Problem, config: AnytimeConfig) -> AnytimeResult:
    """Iterate rounds until no bracket that can still shrink is over ``delta``.

    Stops early at ``max_iters``; if any bracket end is still infinite at
    that point the loss has no finite minimizer to find and the run fails. A
    finite bracket wider than the float range gives ``width_bound == inf``.
    """
    firsts, mids, width_bound, iters, entries = _fit_anytime(problem, config)
    staircase = _partition_staircase(problem.scores, firsts, mids)
    groups = tuple(AnytimeGroup(*e) for e in entries)
    total_loss = _partition_loss(problem, firsts, mids)
    return AnytimeResult(staircase, width_bound, iters, groups, total_loss)
