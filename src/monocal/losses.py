"""Loss families: per-sample minimizers, pairwise merge rules, derivative oracles.

A family object is duck-typed. The merge solvers need ``minimizer_of``,
``init_aux`` and ``merge`` (the pairwise update producing a joined group's
minimizer and auxiliary value in O(1)); the anytime solver needs
``neg_derivative`` (per-sample -l'(z), strictly decreasing in z). ``loss``
is always required for reporting. A family that implements both sides can be
cross-validated: the z where the summed negative derivative crosses zero is
the merge-rule minimizer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Sequence

from .core import Sample
from .errors import InvalidConfig, InvalidLabel, InvalidWeight

__all__ = [
    "weighted_square_merge",
    "logloss_reduce",
    "weighted_square_neg_derivative",
    "WeightedSquareLoss",
    "BinaryLogLoss",
    "CustomLossFamily",
    "DerivativeOracle",
    "WEIGHTED_SQUARE",
    "LOG_LOSS",
    "supports_merge",
    "supports_derivative",
]


def weighted_square_merge(
    y_i: float, lam_i: float, y_j: float, lam_j: float
) -> tuple[float, float]:
    """Join two weighted-square groups: weighted mean and summed weight."""
    if not lam_i > 0:
        raise InvalidWeight(f"group weight must be positive, got {lam_i!r}")
    if not lam_j > 0:
        raise InvalidWeight(f"group weight must be positive, got {lam_j!r}")
    lam = lam_i + lam_j
    return (lam_i * y_i + lam_j * y_j) / lam, lam


def weighted_square_neg_derivative(samples: Iterable[Sample], z: float) -> float:
    """-d/dz of the summed weighted square loss: -sum 2*w*(z - y)."""
    return math.fsum(-2.0 * s.weight * (z - s.target) for s in samples)


class WeightedSquareLoss:
    """w * (z - y)^2 per sample; group minimizer is the weighted mean."""

    name = "square"

    def loss(self, sample: Sample, z: float) -> float:
        d = z - sample.target
        return sample.weight * d * d

    def minimizer_of(self, sample: Sample) -> float:
        return sample.target

    def init_aux(self, sample: Sample) -> float:
        return sample.weight

    merge = staticmethod(weighted_square_merge)

    def neg_derivative(self, sample: Sample, z: float) -> float:
        return -2.0 * sample.weight * (z - sample.target)

    def combine_ties(self, a: Sample, b: Sample) -> tuple[Sample, float]:
        y, lam = weighted_square_merge(a.target, a.weight, b.target, b.weight)
        # Constant dropped by replacing two squares with one around their mean.
        dropped = a.weight * (a.target - y) ** 2 + b.weight * (b.target - y) ** 2
        return Sample(a.score, y, lam), dropped


# Fitted log-loss values legitimately reach 0 and 1; the clamp applies only
# when reporting the loss, never to fitted values.
_REPORT_CLAMP = 1e-12


class BinaryLogLoss:
    """-w * (b*log z + (1-b)*log(1-z)) per sample.

    ``target`` holds the label (fractional after tie merging). Group
    minimizers are weighted label means, so the merge rule is shared with the
    weighted square family and fitted values land in [0, 1] automatically.
    """

    name = "logloss"

    def loss(self, sample: Sample, z: float) -> float:
        z = min(max(z, _REPORT_CLAMP), 1.0 - _REPORT_CLAMP)
        t, w = sample.target, sample.weight
        out = 0.0
        if t != 0.0:
            out -= w * t * math.log(z)
        if t != 1.0:
            out -= w * (1.0 - t) * math.log1p(-z)
        return out

    def minimizer_of(self, sample: Sample) -> float:
        return sample.target

    def init_aux(self, sample: Sample) -> float:
        return sample.weight

    merge = staticmethod(weighted_square_merge)

    def neg_derivative(self, sample: Sample, z: float) -> float:
        # Domain is [0, 1]; the endpoints return the one-sided limits so a
        # bracket pinned at 0 or 1 still reads the right sign.
        t, w = sample.target, sample.weight
        d = 0.0
        if t != 0.0:
            d += w * t / z if z != 0.0 else math.inf
        if t != 1.0:
            d -= w * (1.0 - t) / (1.0 - z) if z != 1.0 else math.inf
        return d

    def combine_ties(self, a: Sample, b: Sample) -> tuple[Sample, float]:
        y, lam = weighted_square_merge(a.target, a.weight, b.target, b.weight)
        # The loss is linear in the label, so the composite drops nothing.
        return Sample(a.score, y, lam), 0.0

    def check_label(self, sample: Sample) -> Sample:
        """Return ``sample`` if its target is a 0/1 label, else raise ``InvalidLabel``."""
        if sample.target not in (0.0, 1.0):
            raise InvalidLabel(f"binary label must be 0 or 1, got {sample.target!r}")
        return sample


WEIGHTED_SQUARE = WeightedSquareLoss()
LOG_LOSS = BinaryLogLoss()


def logloss_reduce(samples: Iterable[Sample]) -> list[Sample]:
    """Map binary log-loss samples to weighted-square samples.

    With initial minimizer = label and auxiliary = weight, the log-loss fit
    has the same merge dynamics as weighted square, so the reduced samples
    fit identically under either family. Each label goes through
    ``BinaryLogLoss.check_label``.
    """
    return [
        Sample(score=s.score, target=float(s.target), weight=s.weight)
        for s in map(LOG_LOSS.check_label, samples)
    ]


@dataclass(frozen=True)
class CustomLossFamily:
    """User-defined strictly convex loss family.

    Supply ``minimizer_of``/``init_aux``/``merge`` for the merge solvers,
    ``neg_derivative`` for the anytime solver, or both to enable
    cross-validation. ``combine_ties`` is only needed when inputs can repeat
    scores. All callables receive the Sample (use ``payload`` for per-sample
    loss handles); ``merge`` takes (y_i, aux_i, y_j, aux_j).
    """

    name: str
    loss: Callable[[Sample, float], float]
    minimizer_of: Callable[[Sample], float] | None = None
    init_aux: Callable[[Sample], float] | None = None
    merge: Callable[[float, float, float, float], tuple[float, float]] | None = None
    neg_derivative: Callable[[Sample, float], float] | None = None
    combine_ties: Callable[[Sample, Sample], tuple[Sample, float]] | None = None


def supports_merge(family: Any) -> bool:
    return all(
        getattr(family, attr, None) is not None
        for attr in ("minimizer_of", "init_aux", "merge")
    )


def supports_derivative(family: Any) -> bool:
    return getattr(family, "neg_derivative", None) is not None


class DerivativeOracle:
    """Negative derivative of a contiguous group's summed loss.

    Binds a family's per-sample derivative to a fixed sample sequence so the
    anytime solver can probe groups by index range.
    """

    def __init__(self, samples: Sequence[Sample], family: Any) -> None:
        if not supports_derivative(family):
            raise InvalidConfig(
                f"family {getattr(family, 'name', family)!r} has no derivative oracle"
            )
        self._samples = samples
        self._neg_derivative = family.neg_derivative

    def neg_derivative_at(self, first: int, last: int, z: float) -> float:
        f = self._neg_derivative
        samples = self._samples
        return math.fsum(f(samples[i], z) for i in range(first, last + 1))
