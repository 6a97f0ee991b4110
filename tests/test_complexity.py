"""The stack solvers' linear merge counts, checked by counting calls; no clock is read.

Each pool joins two blocks into one, so a sweep over n samples that ends
with S steps makes exactly n - S merges, however the input is built. A
family that wraps ``merge`` is a custom family, so the solvers call it on
their generic loop (``pav_offline._pool``); its ``minimizer_of`` and
``init_aux`` stay the built-ins', so the groups still come from the columns.
"""

import dataclasses
import random

import pytest

from monocal import OnlineState, Sample, WEIGHTED_SQUARE, fit_stack, normalize
from monocal.losses import weighted_square_merge


def _counting_family():
    calls = [0]

    def merge(y_i, lam_i, y_j, lam_j):
        calls[0] += 1
        return weighted_square_merge(y_i, lam_i, y_j, lam_j)

    return dataclasses.replace(WEIGHTED_SQUARE, name="counted", merge=merge), calls


def _targets(shape: str, n: int) -> list[float]:
    if shape == "decreasing":
        return [float(n - i) for i in range(n)]
    if shape == "sawtooth":
        return [float(i % 10) for i in range(n)]
    if shape == "rising-then-drop":
        return [*map(float, range(n - 1)), -1e6]
    assert shape == "random-weighted"
    rng = random.Random(n)
    return [rng.uniform(0.0, 100.0) for _ in range(n)]


def _samples(shape: str, n: int) -> list[Sample]:
    rng = random.Random(f"{shape}/{n}")
    return [Sample(float(i), t, 3.0 * (1.0 - rng.random()))
            for i, t in enumerate(_targets(shape, n))]


SHAPES = ("decreasing", "sawtooth", "rising-then-drop")


@pytest.mark.parametrize("n", [1, 1000, 5000])
@pytest.mark.parametrize("shape", SHAPES)
def test_fit_stack_merges_once_per_lost_step(shape, n):
    family, calls = _counting_family()
    report = fit_stack(normalize(_samples(shape, n), family))
    steps = len(report.blocks)
    assert calls[0] == n - steps == report.merge_count
    if n > 1:
        assert calls[0] > 0


@pytest.mark.parametrize("shape", [*SHAPES, "random-weighted"])
def test_online_merges_once_per_lost_step_after_every_push(shape):
    family, calls = _counting_family()
    state = OnlineState(family)
    for sample in _samples(shape, 2000):
        state.push(sample)
        assert calls[0] == state.n_seen - state.step_count == state.cumulative_merges
    assert calls[0] > 0
