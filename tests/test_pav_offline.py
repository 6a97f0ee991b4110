import dataclasses
import math
import random
import struct

import pytest

from monocal import (
    LOG_LOSS,
    Block,
    FitReport,
    LossFamily,
    OnlineState,
    Problem,
    Sample,
    WEIGHTED_SQUARE,
    direct_passes,
    fit_direct,
    fit_stack,
    normalize,
)
from monocal.errors import InvalidValue, InvalidWeight
from monocal.losses import _pool, _pool_means, _pooler, weighted_square_merge
from monocal.oracle import brute_force_fit
from monocal.problem import _stack_blocks

from conftest import GOLDEN_SIZES, GOLDEN_VALUES, make_square_instance


class TestGoldenInstance:
    def test_both_solvers_reach_the_known_staircase(self, golden_problem):
        for solver in (fit_direct, fit_stack):
            report = solver(golden_problem)
            assert tuple(b.minimizer for b in report.blocks) == GOLDEN_VALUES
            assert tuple(b.last - b.first + 1 for b in report.blocks) == GOLDEN_SIZES
            assert report.merge_count == 15 - 4

    def test_direct_needs_two_passes(self, golden_problem):
        assert fit_direct(golden_problem).passes == 2

    def test_first_pass_groups(self, golden_problem):
        first = next(direct_passes(golden_problem))
        assert tuple(b.minimizer for b in first) == (44.0, 28.0, 65.0, 35.0, 58.0, 53.0, 69.0)
        assert tuple(b.aux for b in first) == (1.0, 3.0, 2.0, 3.0, 2.0, 3.0, 1.0)

    def test_total_loss(self, golden_problem):
        assert fit_stack(golden_problem).total_loss == pytest.approx(13000.0, abs=1e-9)

    def test_blocks_are_built_only_for_the_result(self, golden_problem, built_blocks):
        # The passes run on lists; a Block is built only for what is returned.
        report = fit_direct(golden_problem)
        assert built_blocks == list(report.blocks)
        built_blocks.clear()
        passes = list(direct_passes(golden_problem))
        assert built_blocks == [block for state in passes for block in state]


class TestSmallCases:
    def test_sorted_targets_need_no_passes(self):
        problem = normalize(
            [Sample(float(i), float(i * 2)) for i in range(6)], WEIGHTED_SQUARE
        )
        report = fit_direct(problem)
        assert report.passes == 0
        assert report.merge_count == 0
        assert len(report.blocks) == 6
        assert list(direct_passes(problem)) == []

    def test_decreasing_targets_pool_to_one_block(self):
        problem = normalize(
            [Sample(1.0, 3.0), Sample(2.0, 2.0), Sample(3.0, 1.0)], WEIGHTED_SQUARE
        )
        report = fit_stack(problem)
        assert len(report.blocks) == 1
        assert report.blocks[0].minimizer == 2.0
        oracle = brute_force_fit(problem)
        assert oracle.best_loss == pytest.approx(report.total_loss, abs=1e-12)
        assert oracle.best_values == (2.0, 2.0, 2.0)

    def test_single_sample(self):
        problem = normalize([Sample(0.0, 7.0)], WEIGHTED_SQUARE)
        report = fit_stack(problem)
        assert report.merge_count == 0
        assert len(report.blocks) == 1
        assert report.blocks[0].minimizer == 7.0

    def test_equal_minimizers_merge(self):
        # The violation test is >=, so plateaus pool.
        problem = normalize(
            [Sample(1.0, 5.0), Sample(2.0, 5.0), Sample(3.0, 9.0)], WEIGHTED_SQUARE
        )
        report = fit_stack(problem)
        assert [b.minimizer for b in report.blocks] == [5.0, 9.0]
        assert report.merge_count == 1

    def test_empty_problem(self):
        # Built by hand: normalize refuses zero samples.
        problem = Problem((), WEIGHTED_SQUARE)
        assert fit_direct(problem) == FitReport((), 0, 0.0, passes=0)
        assert fit_stack(problem) == FitReport((), 0, 0.0)
        assert list(direct_passes(problem)) == []

    def test_direct_reads_each_sample_once(self):
        calls = {"minimizer_of": 0, "init_aux": 0}

        def counted(rule):
            def call(sample):
                calls[rule] += 1
                return getattr(WEIGHTED_SQUARE, rule)(sample)

            return call

        family = dataclasses.replace(
            WEIGHTED_SQUARE, name="counted", **{rule: counted(rule) for rule in calls}
        )
        rng = random.Random(107)
        problem = make_square_instance(rng, 50)
        problem = dataclasses.replace(problem, family=family)
        assert fit_direct(problem).passes > 0
        assert calls == {"minimizer_of": 50, "init_aux": 50}


class TestRandomInstances:
    def test_matches_brute_force_on_200_instances(self):
        rng = random.Random(101)
        for _ in range(200):
            problem = make_square_instance(rng, rng.randint(2, 12))
            report = fit_stack(problem)
            oracle = brute_force_fit(problem)
            assert report.total_loss - oracle.best_loss <= 1e-9
            fitted = []
            for block in report.blocks:
                fitted.extend([block.minimizer] * (block.last - block.first + 1))
            for got, want in zip(fitted, oracle.best_values):
                assert abs(got - want) <= 1e-9

    def test_direct_and_stack_agree(self):
        rng = random.Random(102)
        for _ in range(150):
            problem = make_square_instance(rng, rng.randint(1, 40))
            direct = fit_direct(problem)
            stack = fit_stack(problem)
            assert [(b.first, b.last) for b in direct.blocks] == [
                (b.first, b.last) for b in stack.blocks
            ]
            for a, b in zip(direct.blocks, stack.blocks):
                assert abs(a.minimizer - b.minimizer) <= 1e-12 * max(1.0, abs(a.minimizer))
            assert direct.merge_count == stack.merge_count

    def test_direct_fit_is_its_last_pass(self):
        # Integer targets make plateaus, so equal minimizers join too.
        rng = random.Random(108)
        for _ in range(150):
            n = rng.randint(1, 40)
            samples = [Sample(i + rng.random(), float(rng.randint(0, 5))) for i in range(n)]
            problem = rng.choice([normalize(samples, WEIGHTED_SQUARE),
                                  make_square_instance(rng, n)])
            passes = list(direct_passes(problem))
            report = fit_direct(problem)
            singles = tuple(
                Block(i, i, s.target, s.weight) for i, s in enumerate(problem.samples)
            )
            assert report.blocks == (passes[-1] if passes else singles)
            assert report.passes == len(passes)

    def test_output_minimizers_strictly_increase(self):
        rng = random.Random(103)
        for _ in range(100):
            problem = make_square_instance(rng, rng.randint(1, 30))
            blocks = fit_stack(problem).blocks
            for a, b in zip(blocks, blocks[1:]):
                assert a.minimizer < b.minimizer

    def test_merge_count_law(self):
        rng = random.Random(104)
        for _ in range(100):
            n = rng.randint(1, 30)
            problem = make_square_instance(rng, n)
            for report in (fit_stack(problem), fit_direct(problem)):
                assert report.merge_count == n - len(report.blocks)
                assert report.merge_count <= n - 1

    def test_block_minimizers_are_weighted_means(self):
        # Recompute each block's weighted mean from scratch.
        rng = random.Random(105)
        for _ in range(60):
            problem = make_square_instance(rng, rng.randint(1, 25))
            for block in fit_stack(problem).blocks:
                members = problem.samples[block.first : block.last + 1]
                mean = math.fsum(s.weight * s.target for s in members) / math.fsum(
                    s.weight for s in members
                )
                assert abs(block.minimizer - mean) <= 1e-12 * max(1.0, abs(mean))
                assert abs(block.aux - math.fsum(s.weight for s in members)) <= 1e-12 * block.aux

    def test_unique_optimum(self):
        # Every partition within 1e-9 of optimal induces the same fitted
        # values, and restricting to strictly increasing minimizers does not
        # change the optimum.
        rng = random.Random(106)
        for _ in range(40):
            problem = make_square_instance(rng, rng.randint(2, 9))
            report = fit_stack(problem)
            fitted = []
            for block in report.blocks:
                fitted.extend([block.minimizer] * (block.last - block.first + 1))
            relaxed = brute_force_fit(problem, collect_within=1e-9)
            strict = brute_force_fit(problem, strict=True)
            assert strict.best_loss == pytest.approx(relaxed.best_loss, abs=1e-12)
            assert strict.best_values == relaxed.best_values
            for values in relaxed.near_optimal_values:
                for got, want in zip(values, fitted):
                    assert abs(got - want) <= 1e-9


class TestStackBlocks:
    @pytest.mark.parametrize("firsts, empty", [([0, 2, 1], (2, 0)), ([0, 0], (0, -1)),
                                               ([1, 3], (3, 2))],
                             ids=["unsorted", "repeated", "past-the-end"])
    def test_an_empty_range_raises_blocks_own_error(self, firsts, empty):
        with pytest.raises(InvalidValue) as constructed:
            Block(*empty, 0.0, 1.0)
        with pytest.raises(InvalidValue) as bulk:
            _stack_blocks(firsts, [0.0] * len(firsts), [1.0] * len(firsts), 3)
        assert str(bulk.value) == str(constructed.value) == "block range [%d, %d] is empty" % empty


class TestTotalLoss:
    def test_an_exact_sum_past_the_float_range_is_inf(self):
        # Each term is 1e300 * 1e4 ** 2 = 1e308; their sum is not a float.
        problem = normalize([Sample(1.0, 1e4, 1e300), Sample(2.0, -1e4, 1e300)], WEIGHTED_SQUARE)
        for solver in (fit_stack, fit_direct):
            report = solver(problem)
            assert [b.minimizer for b in report.blocks] == [0.0]
            assert report.total_loss == math.inf


class TestKnownDefects:
    @pytest.mark.xfail(
        strict=True,
        reason="ROADMAP item 2: merge-order rounding leaves fit_stack at 0.29999999999999993 "
        "and fit_direct at 0.3, 0.30000000000000004",
    )
    def test_rounding_prone_targets_give_one_partition(self):
        targets = [0.1, 0.3, 0.7, 0.2, 0.2, 1 / 3, 0.1, 0.3, 1 / 3, 1 / 3, 0.2, 0.7]
        problem = normalize([Sample(float(i), t) for i, t in enumerate(targets)], WEIGHTED_SQUARE)
        stack, direct = fit_stack(problem), fit_direct(problem)
        assert [(b.first, b.last) for b in stack.blocks] == [(b.first, b.last) for b in direct.blocks]

    @pytest.mark.xfail(
        strict=True,
        reason="ROADMAP item 2: w * y overflows in the pairwise merge, so the mean is nan",
    )
    def test_a_finite_input_gives_a_finite_fit(self):
        problem = normalize([Sample(1.0, 1e300, 1e10), Sample(2.0, -1e300, 1e10)],
                            WEIGHTED_SQUARE)
        assert [b.minimizer for b in fit_stack(problem).blocks] == [0.0]


def _bit_keys(xs):
    """Each float's bits, with every NaN as one key."""
    return ["nan" if x != x else struct.pack("<d", x) for x in xs]


def _kernel_inputs(rng: random.Random, shape: str) -> list[tuple[float, float]]:
    """``(target, weight)`` rows of one shape; targets and weights as ``Sample`` accepts them."""
    n = rng.randint(1, 60)

    def weight():
        return 3.0 * (1.0 - rng.random())

    if shape == "random-weighted":
        return [(rng.uniform(0.0, 100.0), weight()) for _ in range(n)]
    if shape == "increasing":
        return [(i / 3, weight()) for i in range(n)]
    if shape == "decreasing":
        return [(-i / 3, weight()) for i in range(n)]
    if shape == "sawtooth":
        period = rng.randint(2, 7)
        return [(float(period - i % period), weight()) for i in range(n)]
    if shape == "adjacent-floats":
        chain = [rng.uniform(-1.0, 1.0)]
        for _ in range(n - 1):
            chain.append(math.nextafter(chain[-1], rng.choice([-math.inf, math.inf])))
        return [(t, rng.choice([1.0, weight()])) for t in chain]
    if shape == "rounding-prone":
        return [(rng.choice([0.1, 0.2, 0.3, 1 / 3, 0.7]), rng.choice([0.1, 1.0, 3.0]))
                for _ in range(n)]
    assert shape == "overflow"
    return [(1e300, 1e10), (-1e300, 1e10)]


def _both_loops(stack, calls):
    """The lists the generic loop and the kernel leave after the same calls on ``stack``."""
    ends = []
    for pool in (_pool, _pool_means):
        lists = tuple(list(column) for column in stack)
        for groups in calls:
            pool(*lists, groups, weighted_square_merge)
        ends.append(tuple(_bit_keys(column) for column in lists))
    return ends


class TestBuiltinKernel:
    """``_pool_means`` leaves the lists that ``_pool`` with ``weighted_square_merge`` leaves."""

    SHAPES = ("random-weighted", "increasing", "decreasing", "sawtooth", "adjacent-floats",
              "rounding-prone", "overflow")

    @pytest.mark.parametrize("shape", SHAPES)
    def test_matches_the_generic_loop_bit_for_bit(self, shape):
        rng = random.Random(f"kernel/{shape}")
        for _ in range(1 if shape == "overflow" else 200):
            rows = _kernel_inputs(rng, shape)
            groups = [(i, t, w) for i, (t, w) in enumerate(rows)]
            below = rng.randint(0, 3)
            base = [(-below + k, -1e3 + k, 1.0) for k in range(below)]
            stack = tuple(map(list, zip(*base))) if base else ([], [], [])
            cuts = sorted(rng.sample(range(1, len(groups)), min(3, len(groups) - 1)))
            for calls in (
                [groups],  # every group in one call, as fit_stack drives it
                [(group,) for group in groups],  # one group per call, as OnlineState does
                [groups[a:b] for a, b in zip([0, *cuts], [*cuts, len(groups)])],
            ):
                generic, kernel = _both_loops(stack, calls)
                assert kernel == generic

    def test_overflow_pair_is_the_same_nan(self):
        for calls in ([[(0, 1e300, 1e10), (1, -1e300, 1e10)]],
                      [[(0, 1e300, 1e10)], [(1, -1e300, 1e10)]]):
            generic, kernel = _both_loops(([], [], []), calls)
            assert kernel == generic == ([struct.pack("<d", 0.0)], ["nan"],
                                         [struct.pack("<d", 2e10)])

    def test_solvers_take_the_kernel_for_the_builtins_only(self):
        assert _pooler(WEIGHTED_SQUARE) is _pooler(LOG_LOSS) is _pool_means
        custom = dataclasses.replace(WEIGHTED_SQUARE, name="custom",
                                     merge=lambda *args: weighted_square_merge(*args))
        assert _pooler(custom) is _pool

    def test_a_custom_aux_keeps_the_merge_checks(self):
        # The merge is the built-ins' own, the init_aux is not: the merge's
        # weight checks must still run, so a zero aux raises.
        def aux(sample):
            return 0.0 if sample.score == 2.0 else sample.weight

        family = LossFamily("zero-aux", loss=WEIGHTED_SQUARE.loss,
                            minimizer_of=WEIGHTED_SQUARE.minimizer_of, init_aux=aux,
                            merge=weighted_square_merge)
        samples = [Sample(1.0, 5.0), Sample(2.0, 3.0), Sample(3.0, 9.0)]
        with pytest.raises(InvalidWeight, match="got 0.0"):
            fit_stack(normalize(samples, family))
        state = OnlineState(family)
        state.push(samples[0])
        with pytest.raises(InvalidWeight, match="got 0.0"):
            state.push(samples[1])


# Two weights of 1e308 sum past the float range. The weighted mean would be
# 1e308 / inf = 0.0, where the optimum is 0.5.
OVERFLOW_ROWS = [Sample(0.0, 1.0, 1e308), Sample(1.0, 0.0, 1e308)]
OVERFLOW = r"summed group weight is not finite: 1e\+308 \+ 1e\+308$"


class TestWeightOverflow:
    """A pooled weight past the float range raises ``InvalidWeight`` at every merge entry."""

    @pytest.mark.parametrize("family", [WEIGHTED_SQUARE, LOG_LOSS], ids=["square", "logloss"])
    @pytest.mark.parametrize("solver", [fit_stack, fit_direct])
    def test_offline_solvers_raise(self, solver, family):
        with pytest.raises(InvalidWeight, match="^" + OVERFLOW) as caught:
            solver(normalize(OVERFLOW_ROWS, family))
        # The index of the group being pooled in, which fit names by its score.
        assert caught.value.first == 1

    @pytest.mark.parametrize("family", [WEIGHTED_SQUARE, LOG_LOSS], ids=["square", "logloss"])
    @pytest.mark.parametrize("score", [1.0, 0.0], ids=["pool", "tie"])
    def test_online_push_raises(self, family, score):
        # The second arrival pools into the top block, or folds into it as a tie.
        state = OnlineState(family)
        state.push(OVERFLOW_ROWS[0])
        with pytest.raises(InvalidWeight, match="^" + OVERFLOW):
            state.push(dataclasses.replace(OVERFLOW_ROWS[1], score=score))

    def test_the_tie_fold_raises_naming_the_score(self):
        ties = [Sample(0.0, 1.0, 1e308), Sample(0.0, 0.0, 1e308)]
        for family in (WEIGHTED_SQUARE, LOG_LOSS):
            with pytest.raises(InvalidWeight, match="^ties at score 0.0: " + OVERFLOW):
                normalize(ties, family)

    def test_both_stack_loops_raise_at_both_sums(self):
        # One call pools the new group into the top (the kernel's second sum);
        # one group per call pools the top into the stack (its first).
        groups = [(0, 1.0, 1e308), (1, 0.0, 1e308)]
        for pool in (_pool, _pool_means):
            for calls in ([groups], [groups[:1], groups[1:]]):
                lists = ([], [], [])
                with pytest.raises(InvalidWeight, match="^" + OVERFLOW) as caught:
                    for chunk in calls:
                        pool(*lists, chunk, weighted_square_merge)
                if pool is _pool_means:
                    # The kernel names the group it pooled in, for fit's message.
                    assert caught.value.first == 1
