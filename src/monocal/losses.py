"""Loss families: per-sample minimizers, pairwise merge rules, derivative oracles.

A ``LossFamily`` is one value holding the parts a strictly convex loss can
supply. ``loss`` is always required, for reporting. The merge solvers
(``fit_stack``, ``fit_direct``, ``OnlineState``) need ``MERGE_RULES``:
``minimizer_of``, ``init_aux`` and ``merge`` (the pairwise update producing a
joined group's minimizer and auxiliary value in O(1)). The anytime solver
needs ``neg_derivative`` (per-sample -l'(z), strictly decreasing in z).
``normalize`` needs ``combine_ties`` only when a score repeats. Each of these
entry points calls ``LossFamily.require`` before it uses a part. A family that
supplies both sides can be cross-validated: the z where the summed negative
derivative crosses zero is the merge-rule minimizer.

It owns every loss formula: the 0/1 label set, the built-ins' parts and
their per-row terms (``_square_term``, ``_log_term`` and the derivative
terms), the stack loops that pool groups by a family's merge rules and the
group derivative of a sample sequence (``DerivativeOracle``). One
table, read through ``_column_form``, maps each built-in part to its column
form: the column a merge part reads, or the per-row term a loss or
derivative sums over the columns. A loss's entry also holds the interval
its targets must lie in (log loss's [0, 1]), which the problem layer and
``OnlineState.push`` check. This module knows no ``Problem``: the
rules that read a problem's columns (its merge inputs, total loss,
minimizer bracket and derivative probe) live in ``monocal.problem``, which
looks up each part it uses in that table and calls any other part per
``Sample``. Rows (``monocal.core``) hold no loss knowledge, and
``monocal stream`` loads this module without the problem layer.

The stack is three parallel lists, one entry per block: its first sample
index, minimizer and auxiliary value. ``_pooler`` is the one place that
picks a stack loop for a family: ``_pool_means``, the built-in kernel, which
computes ``weighted_square_merge``'s mean inline, when the family's merge
rules are the built-ins' own functions (by identity); else ``_pool``, the
generic loop, which calls the family's ``merge``. On the built-ins both
leave the same lists, bit for bit. ``pav_offline.fit_stack`` drives its
loop with every sample in one call, and ``monocal.online`` drives it with
one group per arrival. ``Block``s are built from the lists only for a
returned result, all at once, by ``problem._stack_blocks``.
"""

from __future__ import annotations

import math
from typing import Any, Callable, Iterable, Sequence

from .core import Sample, _Frozen, _set
from .errors import InvalidConfig, InvalidLabel, InvalidWeight, OracleFailure

__all__ = [
    "LossFamily",
    "MERGE_RULES",
    "weighted_square_merge",
    "check_label",
    "DerivativeOracle",
    "WEIGHTED_SQUARE",
    "LOG_LOSS",
]

MERGE_RULES = ("minimizer_of", "init_aux", "merge")


class LossFamily(_Frozen):
    """A strictly convex loss: ``loss`` plus the parts its solvers need.

    The module docstring says which entry point needs which part.
    ``combine_ties`` returns the composite sample and the loss constant the
    composite drops. All callables receive the Sample (use ``payload`` for
    per-sample loss handles); ``merge`` takes (y_i, aux_i, y_j, aux_j).
    """

    name: str
    loss: Callable[[Sample, float], float]
    minimizer_of: Callable[[Sample], float] | None
    init_aux: Callable[[Sample], float] | None
    merge: Callable[[float, float, float, float], tuple[float, float]] | None
    neg_derivative: Callable[[Sample, float], float] | None
    combine_ties: Callable[[Sample, Sample], tuple[Sample, float]] | None

    def __init__(
        self,
        name: str,
        loss: Callable[[Sample, float], float],
        minimizer_of: Callable[[Sample], float] | None = None,
        init_aux: Callable[[Sample], float] | None = None,
        merge: Callable[[float, float, float, float], tuple[float, float]] | None = None,
        neg_derivative: Callable[[Sample, float], float] | None = None,
        combine_ties: Callable[[Sample, Sample], tuple[Sample, float]] | None = None,
    ) -> None:
        _set(self, "name", name)
        _set(self, "loss", loss)
        _set(self, "minimizer_of", minimizer_of)
        _set(self, "init_aux", init_aux)
        _set(self, "merge", merge)
        _set(self, "neg_derivative", neg_derivative)
        _set(self, "combine_ties", combine_ties)

    def require(self, *rules: str) -> None:
        """Raise ``InvalidConfig`` naming each of ``rules`` this family lacks."""
        missing = [rule for rule in rules if getattr(self, rule) is None]
        if missing:
            raise InvalidConfig(f"family {self.name!r} has no {', '.join(missing)}")


def weighted_square_merge(
    y_i: float, lam_i: float, y_j: float, lam_j: float
) -> tuple[float, float]:
    """Join two weighted-square groups: weighted mean and summed weight.

    A summed weight past the float range raises ``InvalidWeight``: the mean
    would divide by ``inf``.
    """
    if not lam_i > 0:
        raise InvalidWeight(f"group weight must be positive, got {lam_i!r}")
    if not lam_j > 0:
        raise InvalidWeight(f"group weight must be positive, got {lam_j!r}")
    lam = lam_i + lam_j
    if lam == math.inf:
        raise _weight_overflow(lam_i, lam_j)
    return (lam_i * y_i + lam_j * y_j) / lam, lam


def _weight_overflow(lam_i: float, lam_j: float, first: int | None = None) -> InvalidWeight:
    """The error for two positive group weights whose sum is not finite.

    Its ``first`` is the first sample index of the group being pooled in,
    where the caller knows it; ``monocal fit`` names that sample's score.
    """
    exc = InvalidWeight(f"summed group weight is not finite: {lam_i!r} + {lam_j!r}")
    exc.first = first
    return exc


def _pool(
    firsts: list[int],
    ys: list[float],
    auxs: list[float],
    groups: Iterable[tuple[int, float, float]],
    merge,
) -> None:
    """Push ``(first, y, aux)`` groups onto the stack, pooling each leftward.

    A pushed group merges with the top block while the top's minimizer is
    ``>=`` its own, so the stack minimizers strictly increase after every
    push.
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
    bit as ``_pool`` leaves them, and a sum of weights past the float range
    raises the merge's ``InvalidWeight``. Its positivity checks are left out:
    a ``Sample``'s weight is positive, and so is a sum of such weights. The top
    block lives in locals from the first group on: each turn pools it
    leftward (the one place that pops), then takes groups until one violates
    it and pools that one in. It takes ``merge`` only to share ``_pool``'s
    signature, and never calls it.
    """
    inf = math.inf
    groups = iter(groups)
    for top_first, top_y, top_lam in groups:
        break
    else:
        return
    while True:
        while ys and ys[-1] >= top_y:
            lam = lams.pop()
            lam_sum = lam + top_lam
            if lam_sum == inf:
                raise _weight_overflow(lam, top_lam, top_first)
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
        if lam_sum == inf:
            raise _weight_overflow(top_lam, lam, first)
        top_y = (top_lam * top_y + lam * y) / lam_sum
        top_lam = lam_sum
    firsts.append(top_first)
    ys.append(top_y)
    lams.append(top_lam)


def _pooler(family: LossFamily) -> Callable[..., None]:
    """The stack loop for ``family``: ``_pool_means`` if its merge rules are the built-ins' own.

    The built-ins' own rules are ``_target``, ``_weight`` and
    ``weighted_square_merge``, recognised by identity. Both loops are called
    as ``loop(firsts, ys, auxs, groups, family.merge)``.
    """
    if (family.minimizer_of is _target and family.init_aux is _weight
            and family.merge is weighted_square_merge):
        return _pool_means
    return _pool


def _tie_mean(a: Sample, b: Sample) -> Sample:
    """One composite at ``a``'s score: weighted target mean, summed weight."""
    y, lam = weighted_square_merge(a.target, a.weight, b.target, b.weight)
    return Sample(a.score, y, lam)


# Each built-in loss formula is one function of (z, target, weight), which
# the problem layer maps over a problem's columns (see ``_COLUMN_FORMS``);
# the family's ``loss`` applies it to one Sample. So do the derivatives.
def _square_term(z: float, t: float, w: float) -> float:
    d = z - t
    return w * d * d


def _square_loss(sample: Sample, z: float) -> float:
    return _square_term(z, sample.target, sample.weight)


def _square_derivative_term(z: float, t: float, w: float) -> float:
    return -2.0 * w * (z - t)


def _square_neg_derivative(sample: Sample, z: float) -> float:
    return _square_derivative_term(z, sample.target, sample.weight)


def _square_combine_ties(a: Sample, b: Sample) -> tuple[Sample, float]:
    mean = _tie_mean(a, b)
    y = mean.target
    # Constant dropped by replacing two squares with one around their mean.
    return mean, a.weight * (a.target - y) ** 2 + b.weight * (b.target - y) ** 2


# Fitted log-loss values legitimately reach 0 and 1; the clamp applies only
# when reporting the loss, never to fitted values.
_REPORT_CLAMP = 1e-12


def _log_term(z: float, t: float, w: float) -> float:
    z = min(max(z, _REPORT_CLAMP), 1.0 - _REPORT_CLAMP)
    out = 0.0
    if t != 0.0:
        out -= w * t * math.log(z)
    if t != 1.0:
        out -= w * (1.0 - t) * math.log1p(-z)
    return out


def _log_loss(sample: Sample, z: float) -> float:
    return _log_term(z, sample.target, sample.weight)


def _log_derivative_term(z: float, t: float, w: float) -> float:
    # Domain is [0, 1]; the endpoints return the one-sided limits so a
    # bracket pinned at 0 or 1 still reads the right sign.
    d = 0.0
    if t != 0.0:
        d += w * t / z if z != 0.0 else math.inf
    if t != 1.0:
        d -= w * (1.0 - t) / (1.0 - z) if z != 1.0 else math.inf
    return d


def _log_neg_derivative(sample: Sample, z: float) -> float:
    return _log_derivative_term(z, sample.target, sample.weight)


def _log_combine_ties(a: Sample, b: Sample) -> tuple[Sample, float]:
    # The loss is linear in the label, so the composite drops nothing.
    return _tie_mean(a, b), 0.0


# The binary labels; -0.0 is 0.0 here, as in every float comparison.
_LABELS = frozenset((0.0, 1.0))


def check_label(sample: Sample) -> Sample:
    """Return ``sample`` if its target is a 0/1 label, else raise ``InvalidLabel``."""
    if sample.target not in _LABELS:
        raise InvalidLabel(f"binary label must be 0 or 1, got {sample.target!r}")
    return sample


# Both built-ins start each group at its target with its weight and join
# groups by weighted mean, so they share the merge data and the tie mean.
# They are module functions, so a pickled or deep-copied family keeps them.
def _target(sample: Sample) -> float:
    return sample.target


def _weight(sample: Sample) -> float:
    return sample.weight


# Each built-in part's column form: the column a merge part reads, the
# (z, target, weight) term a derivative maps over the columns, or a loss's
# term and the closed interval its targets lie in (None: any finite target).
# The problem layer looks up each part it uses, and a miss takes the Sample
# path. Keyed by identity: an object that compares equal to a part is not
# it. The parts live as long as this module, so no other object has their ids.
_COLUMN_FORMS = {id(part): form for part, form in (
    (_target, "targets"), (_weight, "weights"),
    (_square_loss, (_square_term, None)), (_log_loss, (_log_term, (0.0, 1.0))),
    (_square_neg_derivative, _square_derivative_term), (_log_neg_derivative, _log_derivative_term),
)}


def _column_form(part: object) -> Any:
    """``part``'s entry in ``_COLUMN_FORMS`` if it is a built-in part, else None."""
    return _COLUMN_FORMS.get(id(part))


def _target_domain(family: LossFamily) -> tuple[float, float] | None:
    """``(lower, upper)`` that ``family``'s targets lie in, or None for any finite target.

    Only a built-in loss has a domain: log loss's is [0, 1].
    """
    form = _column_form(family.loss)
    return form[1] if form else None


def _target_error(family: LossFamily, score: float, target: float) -> InvalidLabel:
    """The error for a ``target`` at ``score`` outside ``family``'s domain."""
    lower, upper = _target_domain(family)
    return InvalidLabel(f"family {family.name!r} takes targets in [{lower:g}, {upper:g}], "
                        f"got {target!r} at score {score!r}")


# w * (z - y)^2 per sample; group minimizer is the weighted mean.
WEIGHTED_SQUARE = LossFamily(
    name="square",
    loss=_square_loss,
    minimizer_of=_target,
    init_aux=_weight,
    merge=weighted_square_merge,
    neg_derivative=_square_neg_derivative,
    combine_ties=_square_combine_ties,
)

# -w * (b*log z + (1-b)*log(1-z)) per sample. ``target`` holds the label, a
# soft label or a tie mean: any value in [0, 1], which every library entry
# checks (``check_label`` is the stricter 0/1 rule). Group minimizers are
# weighted target means, so fitted values land in [0, 1].
LOG_LOSS = LossFamily(
    name="logloss",
    loss=_log_loss,
    minimizer_of=_target,
    init_aux=_weight,
    merge=weighted_square_merge,
    neg_derivative=_log_neg_derivative,
    combine_ties=_log_combine_ties,
)


class DerivativeOracle:
    """Negative derivative of a contiguous group's summed loss.

    Binds a family's per-sample derivative to a fixed sample sequence so
    groups can be probed by index range. ``anytime_run`` probes a custom
    family through one; it probes the built-ins from the problem's target
    and weight columns instead (``problem._derivative_probe``), to the same
    bits.
    """

    def __init__(self, samples: Sequence[Sample], family: LossFamily) -> None:
        family.require("neg_derivative")
        self._samples = tuple(samples)
        self._neg_derivative = family.neg_derivative

    def neg_derivative_at(self, first: int, last: int, z: float) -> float:
        f = self._neg_derivative
        return math.fsum([f(s, z) for s in self._samples[first:last + 1]])


def _checked(derivative: Callable[[int, int, float], float],
             first: int, last: int, z: float) -> float:
    """``derivative(first, last, z)`` for samples [first, last], or ``OracleFailure``."""
    try:
        d = derivative(first, last, z)
    except (ValueError, OverflowError) as exc:
        # math.fsum's errors: terms of +inf and -inf, or an exact sum past the float range.
        raise OracleFailure(f"derivative oracle failed at z={z!r} "
                            f"for samples [{first}, {last}]: {exc}") from exc
    if d != d:  # NaN
        raise OracleFailure(f"derivative oracle returned NaN at z={z!r} "
                            f"for samples [{first}, {last}]")
    return d
