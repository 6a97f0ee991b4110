import math
import random

import pytest

from monocal import (
    OnlineState,
    Problem,
    Sample,
    WEIGHTED_SQUARE,
    fit_stack,
    normalize,
)
from monocal.errors import EmptyProblem, InvalidConfig, OutOfOrder
from monocal.losses import LossFamily

from conftest import golden_samples, make_square_instance


def test_golden_trace():
    state = OnlineState(WEIGHTED_SQUARE)
    seen = {}
    for sample in golden_samples():
        state.push(sample)
        seen[state.n_seen] = state.current().values
    assert seen[3] == (38.0,)
    assert seen[8] == (32.0, 58.5)
    assert seen[9] == (32.0, 47.0)
    assert seen[15] == (32.0, 47.0, 55.0, 69.0)
    assert state.cumulative_merges == 15 - 4


def test_single_push_gives_constant():
    state = OnlineState(WEIGHTED_SQUARE)
    state.push(Sample(1.0, 44.0))
    assert state.current().values == (44.0,)
    assert state.cumulative_merges == 0


def test_every_prefix_matches_offline_fit():
    rng = random.Random(41)
    for _ in range(30):
        problem = make_square_instance(rng, rng.randint(1, 15))
        state = OnlineState(WEIGHTED_SQUARE)
        for k, sample in enumerate(problem.samples, start=1):
            state.push(sample)
            prefix = Problem(problem.samples[:k], WEIGHTED_SQUARE)
            offline = fit_stack(prefix)
            # Blocks compare by range, minimizer and aux.
            assert state.blocks() == offline.blocks
            assert state.cumulative_merges == offline.merge_count


def _contract_stream(rng: random.Random) -> list[Sample]:
    """Ordered stream built to break the top-only-change contract.

    Scores repeat (tie folds), step to the adjacent float, or start at -inf;
    targets mix rounding-prone decimals with wide uniform values.
    """
    score = -math.inf if rng.random() < 0.1 else rng.uniform(-10.0, 10.0)
    samples = []
    for i in range(rng.randint(1, 40)):
        r = rng.random()
        if i and r < 0.3:
            pass  # repeated score
        elif i and r < 0.5:
            score = math.nextafter(score, math.inf)
        elif i:
            score = rng.uniform(-10.0, 10.0) if score == -math.inf else score + rng.random()
        if rng.random() < 0.6:
            target = rng.choice((0.1, 0.2, 0.3, 1 / 3, 0.7))
        else:
            target = rng.uniform(-1e12, 1e12)
        samples.append(Sample(score, target, 3.0 * (1.0 - rng.random())))
    return samples


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 3: a repeated score folds into the whole top block, "
    "after that block pooled earlier scores",
)
def test_a_tie_after_a_pool_matches_the_offline_fit():
    samples = [Sample(1.0, 5.0), Sample(2.0, 0.0), Sample(2.0, 100.0)]
    state = OnlineState(WEIGHTED_SQUARE)
    for sample in samples:
        state.push(sample)
    offline = fit_stack(normalize(samples, WEIGHTED_SQUARE))
    assert tuple(b.minimizer for b in offline.blocks) == (5.0, 50.0)
    assert state.values == (5.0, 50.0)


def test_push_changes_only_the_top_step():
    # `monocal stream` re-renders only the top value after each push, so it
    # relies on this contract. A fix of the online tie fold (ROADMAP item 3)
    # can restore popped steps on a repeated score; that fix must keep the
    # contract or give `stream` the index of the first changed step.
    rng = random.Random(44)
    for _ in range(3000):
        state = OnlineState(WEIGHTED_SQUARE)
        before: tuple[float, ...] = ()
        for sample in _contract_stream(rng):
            state.push(sample)
            values = state.values
            assert values == state.current().values
            assert state.top == values[-1]
            assert values[:-1] == before[: len(values) - 1]
            before = values


def test_out_of_order_rejected():
    state = OnlineState(WEIGHTED_SQUARE)
    state.push(Sample(2.0, 1.0))
    with pytest.raises(OutOfOrder):
        state.push(Sample(1.0, 5.0))


def test_equal_score_merges_into_top_block():
    state = OnlineState(WEIGHTED_SQUARE)
    state.push(Sample(1.0, 2.0))
    state.push(Sample(2.0, 10.0))
    state.push(Sample(2.0, 20.0))  # same score, larger target: still merges
    assert state.step_count == 2
    assert state.cumulative_merges == 1
    assert state.current().values == (2.0, 15.0)
    # matches the offline fit of the tie-merged problem
    problem = normalize(
        [Sample(1.0, 2.0), Sample(2.0, 10.0), Sample(2.0, 20.0)], WEIGHTED_SQUARE
    )
    offline = fit_stack(problem)
    assert [b.minimizer for b in offline.blocks] == [2.0, 15.0]


def test_tie_then_violation_cascades():
    state = OnlineState(WEIGHTED_SQUARE)
    state.push(Sample(1.0, 10.0))
    state.push(Sample(2.0, 30.0))
    state.push(Sample(2.0, -20.0))  # tie makes the top block (5, 2), violating 10
    assert state.step_count == 1
    assert state.current().values == ((10.0 + 30.0 - 20.0) / 3.0,)
    assert state.cumulative_merges == 2


def test_push_above_top_minimizer_never_merges():
    rng = random.Random(42)
    state = OnlineState(WEIGHTED_SQUARE)
    state.push(Sample(0.0, 0.0))
    top = 0.0
    for i in range(1, 30):
        target = top + rng.uniform(0.01, 5.0)
        before = state.cumulative_merges
        state.push(Sample(float(i), target))
        assert state.cumulative_merges == before
        top = target
    assert state.step_count == 30


def test_merge_accounting_includes_ties():
    rng = random.Random(43)
    state = OnlineState(WEIGHTED_SQUARE)
    n = 0
    score = 0.0
    for _ in range(200):
        if rng.random() < 0.2 and n:
            pass  # keep the same score: tie arrival
        else:
            score += rng.random()
        state.push(Sample(score, rng.uniform(0, 100)))
        n += 1
        assert state.cumulative_merges == n - state.step_count


def test_current_before_any_push_raises():
    with pytest.raises(EmptyProblem):
        OnlineState(WEIGHTED_SQUARE).current()
    with pytest.raises(EmptyProblem):
        OnlineState(WEIGHTED_SQUARE).top


def test_family_without_merge_rule_rejected():
    family = LossFamily(name="opaque", loss=lambda s, z: (z - s.target) ** 2)
    with pytest.raises(InvalidConfig):
        OnlineState(family)


def test_last_score_tracks_stream():
    state = OnlineState(WEIGHTED_SQUARE)
    state.push(Sample(1.5, 0.0))
    state.push(Sample(2.5, 1.0))
    assert state.last_score == 2.5
    assert state.n_seen == 2
