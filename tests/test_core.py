import dataclasses
import math
import random
import sys
import tracemalloc

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from monocal import (
    Block,
    LOG_LOSS,
    Problem,
    Sample,
    Staircase,
    WEIGHTED_SQUARE,
    blocks_loss,
    blocks_to_staircase,
    evaluate,
    fit_stack,
    normalize,
)
from monocal.errors import (
    EmptyProblem,
    InvalidLabel,
    InvalidValue,
    InvalidWeight,
    NotMonotone,
)
from monocal.core import _normalize, _partition_staircase, _steps_at, _valid_rows
from monocal.losses import _LABELS, check_label
from monocal.oracle import brute_force_fit


class TestNormalize:
    def test_sorts_by_score(self):
        raw = [Sample(3.0, 30.0), Sample(1.0, 10.0), Sample(2.0, 20.0)]
        problem = normalize(raw, WEIGHTED_SQUARE)
        assert [s.score for s in problem.samples] == [1.0, 2.0, 3.0]
        assert [s.target for s in problem.samples] == [10.0, 20.0, 30.0]

    def test_merges_equal_scores(self):
        raw = [Sample(1.0, 10.0), Sample(1.0, 30.0), Sample(2.0, 7.0)]
        problem = normalize(raw, WEIGHTED_SQUARE)
        assert len(problem.samples) == 2
        merged, other = problem.samples
        assert (merged.score, merged.target, merged.weight) == (1.0, 20.0, 2.0)
        assert (other.score, other.target, other.weight) == (2.0, 7.0, 1.0)

    def test_tie_merge_preserves_fit_and_loss_of_raw_input(self):
        # Fitting the merged problem must reproduce the optimum of the
        # original three-sample instance. By hand: the unconstrained group
        # minimizers (20, 7) violate monotonicity, so everything pools to
        # (10 + 30 + 7) / 3 = 47/3 with raw loss
        # (47/3-10)^2 + (47/3-30)^2 + (47/3-7)^2 = 2814/9.
        raw = [Sample(1.0, 10.0), Sample(1.0, 30.0), Sample(2.0, 7.0)]
        problem = normalize(raw, WEIGHTED_SQUARE)
        report = fit_stack(problem)
        assert len(report.blocks) == 1
        assert report.blocks[0].minimizer == pytest.approx(47.0 / 3.0, abs=1e-12)
        assert report.total_loss == pytest.approx(2814.0 / 9.0, abs=1e-9)
        oracle = brute_force_fit(problem)
        assert oracle.best_loss == pytest.approx(report.total_loss, abs=1e-9)
        staircase = blocks_to_staircase(report.blocks, [s.score for s in problem.samples])
        for score in (1.0, 2.0):
            assert evaluate(staircase, score) == pytest.approx(47.0 / 3.0, abs=1e-12)

    def test_failed_tie_merge_names_the_score(self):
        tie = Sample(1.0, 1e300, 1e10)
        message = "^ties at score 1.0: sample target must be finite, got inf$"
        with pytest.raises(InvalidValue, match=message):
            normalize([Sample(0.0), tie, tie], WEIGHTED_SQUARE)

    def test_custom_tie_rule_folds_in_input_order(self):
        # A tie rule that depends on order: payloads concatenate left to right.
        family = dataclasses.replace(
            WEIGHTED_SQUARE,
            name="concat",
            combine_ties=lambda a, b: (
                Sample(a.score, a.target, a.weight + b.weight, a.payload + b.payload), 0.5),
        )
        raw = [Sample(2.0, 0.0, payload=("a",)), Sample(1.0, 0.0, payload=("b",)),
               Sample(2.0, 0.0, payload=("c",)), Sample(3.0, 0.0, payload=("d",)),
               Sample(2.0, 0.0, payload=("e",))]
        problem = normalize(raw, family)
        assert [s.payload for s in problem.samples] == [("b",), ("a", "c", "e"), ("d",)]
        assert problem.samples[0] is raw[1] and problem.samples[2] is raw[3]
        assert problem.weights == (1.0, 3.0, 1.0) and problem.loss_offset == 1.0

    def test_single_sample(self):
        problem = normalize([Sample(5.0, 42.0)], WEIGHTED_SQUARE)
        assert len(problem.samples) == 1
        assert problem.loss_offset == 0.0

    def test_empty_raises(self):
        with pytest.raises(EmptyProblem):
            normalize([], WEIGHTED_SQUARE)

    # Sample validates itself, so no invalid sample can reach normalize.
    @pytest.mark.parametrize("weight", [0.0, -1.0, float("nan"), float("inf")])
    def test_bad_weight_raises(self, weight):
        with pytest.raises(InvalidWeight, match="weight"):
            Sample(1.0, 2.0, weight)
        with pytest.raises(InvalidWeight, match="weight"):
            dataclasses.replace(Sample(1.0, 2.0), weight=weight)

    def test_nan_score_raises(self):
        with pytest.raises(InvalidValue, match="score is NaN"):
            Sample(float("nan"), 2.0)
        with pytest.raises(InvalidValue, match="score is NaN"):
            dataclasses.replace(Sample(1.0, 2.0), score=float("nan"))

    def test_nan_target_raises(self):
        for target in (float("nan"), math.inf, -math.inf):
            with pytest.raises(InvalidValue, match="target must be finite"):
                Sample(1.0, target)
            with pytest.raises(InvalidValue, match="target must be finite"):
                dataclasses.replace(Sample(1.0, 2.0), target=target)

    def test_infinite_scores_allowed(self):
        problem = normalize(
            [Sample(math.inf, 2.0), Sample(-math.inf, 1.0), Sample(0.0, 5.0)],
            WEIGHTED_SQUARE,
        )
        assert [s.score for s in problem.samples] == [-math.inf, 0.0, math.inf]

    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=4),  # coarse scores force ties
                st.floats(min_value=-50, max_value=50),
                st.floats(min_value=0.1, max_value=5),
            ),
            min_size=1,
            max_size=12,
        )
    )
    @settings(max_examples=60)
    def test_idempotent(self, rows):
        raw = [Sample(float(s), t, w) for s, t, w in rows]
        once = normalize(raw, WEIGHTED_SQUARE)
        twice = normalize(once.samples, WEIGHTED_SQUARE)
        assert twice.samples == once.samples
        assert twice.loss_offset == 0.0


class TestProblemColumns:
    def test_problem_of_samples_keeps_them(self):
        samples = (Sample(1.0, 10.0, 2.0), Sample(2.0, 30.0))
        problem = Problem(samples, WEIGHTED_SQUARE, 0.5)
        assert (problem.scores, problem.targets, problem.weights) == (
            (1.0, 2.0), (10.0, 30.0), (2.0, 1.0))
        assert problem.samples == samples and problem.samples[0] is samples[0]
        assert problem.loss_offset == 0.5

    @pytest.mark.parametrize("scores", [(2.0, 1.0), (1.0, 1.0), (0.0, -0.0), (1.0, 3.0, 2.0)],
                             ids=["descending", "repeated", "signed-zeros", "one-out-of-order"])
    def test_problem_needs_strictly_increasing_scores(self, scores):
        # Out of order, a score would evaluate to another block's value; repeated,
        # one score would get two fitted values.
        samples = [Sample(score, 5.0 * i) for i, score in enumerate(scores)]
        with pytest.raises(InvalidValue, match="scores must strictly increase"):
            Problem(samples, WEIGHTED_SQUARE)
        problem = normalize(samples, WEIGHTED_SQUARE)
        with pytest.raises(InvalidValue, match="scores must strictly increase"):
            dataclasses.replace(problem, samples=tuple(samples))
        report = fit_stack(problem)
        staircase = blocks_to_staircase(report.blocks, problem.scores)
        for block in report.blocks:
            for score in problem.scores[block.first:block.last + 1]:
                assert evaluate(staircase, score) == block.minimizer

    def test_replace_keeps_samples_and_columns(self):
        problem = normalize([Sample(2.0, 1.0), Sample(1.0, 3.0)], WEIGHTED_SQUARE)
        other = dataclasses.replace(problem, family=LOG_LOSS)
        assert other.family is LOG_LOSS and other.samples is problem.samples
        assert (other.scores, other.targets, other.weights) == ((1.0, 2.0), (3.0, 1.0), (1.0, 1.0))
        columns = [[2.0, 1.0], [1.0, 3.0], [1.0, 1.0]]
        lazy = dataclasses.replace(_normalize(columns, WEIGHTED_SQUARE), loss_offset=2.0)
        assert lazy.scores == (1.0, 2.0) and lazy.loss_offset == 2.0
        assert tuple(lazy.samples) == problem.samples

    def test_column_problem_builds_its_samples_once(self):
        columns = [[3.0, 1.0, 1.0], [0.0, 1.0, 0.0], [1.0, 2.0, 1.0]]
        problem = _normalize(columns, LOG_LOSS)
        assert problem.scores == (1.0, 3.0)
        assert problem.targets == (2.0 / 3.0, 0.0) and problem.weights == (3.0, 1.0)
        first = problem.samples[0]
        assert problem.samples[0] is first and next(iter(problem.samples)) is first
        raw = [Sample(*row) for row in zip(*columns)]
        assert tuple(problem.samples) == normalize(raw, LOG_LOSS).samples
        assert len(problem.samples) == 2


EDGE_FLOATS = st.sampled_from([
    math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, -5e-324, 1e308, -1e308,
    1.0, -1.0, 0.5, -2.5,
])


@settings(max_examples=300, derandomize=True, deadline=None)
@given(EDGE_FLOATS, EDGE_FLOATS, EDGE_FLOATS)
def test_column_rules_accept_exactly_what_their_owners_accept(score, target, weight):
    # Sample's rule on columns, in core, against Sample itself.
    try:
        Sample(score, target, weight)
    except (InvalidValue, InvalidWeight):
        builds = False
    else:
        builds = True
    assert _valid_rows([score], [target], [weight]) is builds
    # The label set, in losses, against check_label.
    try:
        check_label(Sample(0.0, target))
    except (InvalidLabel, InvalidValue):  # no Sample holds a non-finite target
        labelled = False
    else:
        labelled = True
    assert _LABELS.issuperset([target]) is labelled


class TestEvaluate:
    STAIRCASE = Staircase((4.5, 9.5, 14.5), (32.0, 47.0, 55.0, 69.0))

    def test_interior_score(self):
        assert evaluate(self.STAIRCASE, 7.0) == 47.0

    def test_clamps_at_extremes(self):
        assert evaluate(self.STAIRCASE, -math.inf) == 32.0
        assert evaluate(self.STAIRCASE, math.inf) == 69.0

    def test_right_continuous_at_breakpoint(self):
        assert evaluate(self.STAIRCASE, 4.5) == 47.0

    def test_single_step_is_constant(self):
        constant = Staircase((), (3.25,))
        for x in (-math.inf, -7.0, 0.0, 1e300, math.inf):
            assert evaluate(constant, x) == 3.25

    def test_nan_raises(self):
        with pytest.raises(InvalidValue):
            evaluate(self.STAIRCASE, float("nan"))

    def test_nondecreasing_on_random_grid(self):
        rng = random.Random(11)
        for _ in range(50):
            n_steps = rng.randint(1, 8)
            values = sorted(rng.uniform(-100, 100) for _ in range(n_steps))
            while any(b <= a for a, b in zip(values, values[1:])):
                values = sorted(rng.uniform(-100, 100) for _ in range(n_steps))
            breaks = sorted(rng.uniform(-10, 10) for _ in range(n_steps - 1))
            if len(set(breaks)) != len(breaks):
                continue
            staircase = Staircase(tuple(breaks), tuple(values))
            xs = sorted(rng.uniform(-20, 20) for _ in range(30))
            ys = [evaluate(staircase, x) for x in xs]
            assert all(a <= b for a, b in zip(ys, ys[1:]))


@st.composite
def staircases_and_scores(draw):
    """A staircase with step values 0, 1, ... and scores on and next to its breakpoints."""
    breakpoints = sorted(draw(st.lists(
        st.floats(allow_nan=False, allow_infinity=False), max_size=6, unique=True)))
    staircase = Staircase(tuple(breakpoints), tuple(map(float, range(len(breakpoints) + 1))))
    near = [y for b in breakpoints
            for y in (math.nextafter(b, -math.inf), b, math.nextafter(b, math.inf))]
    edges = [0.0, -0.0, math.inf, -math.inf, sys.float_info.max, -sys.float_info.max]
    scores = draw(st.lists(
        st.sampled_from(near + edges) | st.floats(allow_nan=False), max_size=40))
    return staircase, near + edges + scores


@settings(max_examples=300, derandomize=True, deadline=None)
@given(staircases_and_scores())
@example((Staircase((), (3.25,)), [-math.inf, -0.0, 0.0, 1e300, math.inf]))
@example((Staircase((-0.0,), (1.0, 2.0)), [-0.0, 0.0, -5e-324, 5e-324]))
def test_steps_at_is_evaluate_on_a_column(case):
    staircase, scores = case
    steps = _steps_at(staircase, scores)
    assert [staircase.values[i] for i in steps] == [evaluate(staircase, x) for x in scores]


@settings(max_examples=100, derandomize=True, deadline=None)
@given(staircases_and_scores(), st.data())
def test_steps_at_raises_evaluates_nan_error(case, data):
    staircase, scores = case
    scores.insert(data.draw(st.integers(0, len(scores))), math.nan)
    with pytest.raises(InvalidValue) as want:
        evaluate(staircase, math.nan)
    with pytest.raises(InvalidValue) as got:
        _steps_at(staircase, scores)
    assert str(got.value) == str(want.value)


class TestStaircaseInvariants:
    def test_values_must_strictly_increase(self):
        with pytest.raises(InvalidValue):
            Staircase((1.0,), (2.0, 2.0))

    def test_breakpoints_must_strictly_increase(self):
        with pytest.raises(InvalidValue):
            Staircase((1.0, 1.0), (1.0, 2.0, 3.0))

    def test_length_mismatch(self):
        with pytest.raises(InvalidValue):
            Staircase((1.0, 2.0), (1.0, 2.0))

    def test_empty(self):
        with pytest.raises(EmptyProblem):
            Staircase((), ())


class TestBlocksToStaircase:
    def test_golden_breakpoints(self):
        blocks = [
            Block(0, 3, 32.0, 4.0),
            Block(4, 8, 47.0, 5.0),
            Block(9, 13, 55.0, 5.0),
            Block(14, 14, 69.0, 1.0),
        ]
        scores = [float(i + 1) for i in range(15)]
        staircase = blocks_to_staircase(blocks, scores)
        assert staircase.breakpoints == (4.5, 9.5, 14.5)
        assert staircase.values == (32.0, 47.0, 55.0, 69.0)

    def test_equal_minimizers_collapse(self):
        blocks = [Block(0, 0, 5.0, 1.0), Block(1, 1, 5.0, 1.0)]
        staircase = blocks_to_staircase(blocks, [1.0, 2.0])
        assert staircase.values == (5.0,)
        assert staircase.breakpoints == ()
        # Equal runs at the start, in the middle and at the end; each step
        # sits between the last score of one run and the first of the next.
        spans = [(0, 1, 1.0), (2, 2, 1.0), (3, 4, 2.0), (5, 5, 3.0), (6, 7, 3.0),
                 (8, 8, 3.0), (9, 10, 4.0), (11, 11, 5.0), (12, 13, 5.0)]
        blocks = [Block(first, last, y, 1.0) for first, last, y in spans]
        scores = [float(i) for i in range(14)]
        staircase = blocks_to_staircase(blocks, scores)
        assert staircase.values == (1.0, 2.0, 3.0, 4.0, 5.0)
        assert staircase.breakpoints == (2.5, 4.5, 8.5, 10.5)
        for first, last, y in spans:
            assert [staircase(x) for x in scores[first : last + 1]] == [y] * (last - first + 1)
        staircase = blocks_to_staircase([Block(i, i, 7.0, 1.0) for i in range(5)], scores[:5])
        assert (staircase.values, staircase.breakpoints) == ((7.0,), ())

    @pytest.mark.parametrize("position", [0, 1, 2])
    def test_nan_minimizer_is_not_collapsed(self, position):
        # An overflowed pool gives a NaN minimizer; it must reach Staircase's
        # finite rule instead of folding into a neighbouring step.
        values = [1.0, 2.0, 3.0]
        values[position] = math.nan
        blocks = [Block(i, i, y, 1.0) for i, y in enumerate(values)]
        with pytest.raises(InvalidValue):
            blocks_to_staircase(blocks, [0.0, 1.0, 2.0])

    def test_singleton_blocks_keep_all_steps(self):
        blocks = [Block(i, i, float(i), 1.0) for i in range(6)]
        staircase = blocks_to_staircase(blocks, [float(i) for i in range(6)])
        assert staircase.step_count == 6

    def test_decreasing_minimizers_raise(self):
        blocks = [Block(0, 0, 5.0, 1.0), Block(1, 1, 4.0, 1.0)]
        with pytest.raises(NotMonotone):
            blocks_to_staircase(blocks, [1.0, 2.0])

    def test_infinite_boundary_falls_back_to_finite_neighbor(self):
        blocks = [Block(0, 0, 1.0, 1.0), Block(1, 1, 2.0, 1.0), Block(2, 2, 3.0, 1.0)]
        staircase = blocks_to_staircase(blocks, [-math.inf, 0.0, 10.0])
        assert staircase.breakpoints == (0.0, 5.0)
        staircase = blocks_to_staircase(blocks, [0.0, 10.0, math.inf])
        assert staircase.breakpoints == (5.0, math.nextafter(10.0, math.inf))

    def test_finite_score_between_infinities_is_degenerate(self):
        blocks = [Block(0, 0, 1.0, 1.0), Block(1, 1, 2.0, 1.0), Block(2, 2, 3.0, 1.0)]
        scores = [-math.inf, 0.0, math.inf]
        staircase = blocks_to_staircase(blocks, scores)
        assert [evaluate(staircase, x) for x in scores] == [1.0, 2.0, 3.0]

    def test_two_infinite_scores_only(self):
        blocks = [Block(0, 0, 1.0, 1.0), Block(1, 1, 2.0, 1.0)]
        staircase = blocks_to_staircase(blocks, [-math.inf, math.inf])
        assert staircase.breakpoints == (0.0,)

    def test_empty_raises(self):
        with pytest.raises(EmptyProblem):
            blocks_to_staircase([], [])

    def test_block_with_no_samples_raises(self):
        with pytest.raises(InvalidValue, match=r"block range \[2, 1\] is empty"):
            Block(2, 1, 0.0, 1.0)

    def test_roundtrip_block_minimizers_at_observed_scores(self):
        rng = random.Random(23)
        for _ in range(40):
            n = rng.randint(1, 15)
            scores = [i + rng.random() for i in range(n)]
            # Adjacent-float chains put the midpoint on the left score, and
            # infinite end scores have no finite neighbor outside.
            if n > 1 and rng.random() < 0.5:
                for i in range(1, n):
                    scores[i] = math.nextafter(scores[i - 1], math.inf)
            if rng.random() < 0.3:
                scores[0] = -math.inf
            if n > 1 and rng.random() < 0.3:
                scores[-1] = math.inf
            # random contiguous partition with strictly increasing minimizers
            cuts = sorted(rng.sample(range(1, n), rng.randint(0, n - 1))) if n > 1 else []
            bounds = [0, *cuts, n]
            base = rng.uniform(-100, 0)
            blocks = []
            for first, nxt in zip(bounds, bounds[1:]):
                base += rng.uniform(0.5, 10.0)
                blocks.append(Block(first, nxt - 1, base, 1.0))
            staircase = blocks_to_staircase(blocks, scores)
            for block in blocks:
                for i in range(block.first, block.last + 1):
                    assert evaluate(staircase, scores[i]) == block.minimizer

    def test_partition_holds_nothing_per_block_beside_the_staircase(self):
        # 50,000 one-sample blocks, one step each. tracemalloc counts every
        # allocation, so the bound holds on any machine: the peak may pass
        # what the returned staircase holds (its two tuples and its new
        # breakpoint floats) by a small constant only. A list of one pointer
        # per block would be 400,000 bytes.
        n = 50_000
        scores = tuple(float(i) for i in range(n))
        firsts = list(range(n))
        ys = [i / 3 for i in range(n)]
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            staircase = _partition_staircase(scores, firsts, ys)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert staircase.step_count == n
        assert staircase.breakpoints[:2] == (0.5, 1.5)
        assert peak - start <= held - start + 64 * 1024

    def test_blocks_hold_one_list_beside_the_staircase(self):
        # The minimizers are read more than once, so they become one list of
        # 8-byte pointers; the firsts are read once and need none. Two such
        # lists would exceed the bound of 10 bytes per block.
        n = 50_000
        scores = tuple(float(i) for i in range(n))
        blocks = [Block(i, i, i / 3, 1.0) for i in range(n)]
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            staircase = blocks_to_staircase(blocks, scores)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert staircase.step_count == n
        assert staircase.breakpoints[:2] == (0.5, 1.5)
        assert peak - held <= 10 * n


def test_blocks_loss_matches_hand_sum(golden_problem):
    report = fit_stack(golden_problem)
    assert blocks_loss(golden_problem, report.blocks) == pytest.approx(13000.0, abs=1e-9)
