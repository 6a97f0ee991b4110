import math
import random
from fractions import Fraction

import pytest

from monocal import (
    AnytimeConfig,
    Block,
    blocks_loss,
    blocks_to_staircase,
    AnytimeGroup,
    Problem,
    Sample,
    WEIGHTED_SQUARE,
    LOG_LOSS,
    anytime_init,
    anytime_run,
    fit_stack,
    check_label,
    normalize,
    probe_point,
)
from monocal import anytime
from monocal.anytime import iterate
from monocal.errors import (
    EmptyProblem,
    InvalidConfig,
    NoWidth,
    OracleFailure,
    Unbounded,
)
from monocal.losses import DerivativeOracle, LossFamily
from monocal.oracle import brute_force_fit

from conftest import GOLDEN_SIZES, GOLDEN_TARGETS, GOLDEN_VALUES, make_square_instance


class TestProbePoint:
    def test_finite_midpoint(self):
        assert probe_point(10.0, 2.0) == 6.0

    def test_doubling_pattern(self):
        assert probe_point(math.inf, -math.inf) == 0.0
        assert probe_point(math.inf, 0.0) == 1.0
        assert probe_point(math.inf, 1.0) == 2.0
        assert probe_point(math.inf, 4.0) == 8.0
        assert probe_point(0.0, -math.inf) == -1.0
        assert probe_point(-1.0, -math.inf) == -2.0
        assert probe_point(-8.0, -math.inf) == -16.0
        # A half-infinite bracket that holds 0 probes 0 first.
        assert probe_point(math.inf, -5.0) == 0.0
        assert probe_point(5.0, -math.inf) == 0.0

    def test_no_width(self):
        with pytest.raises(NoWidth):
            probe_point(1.0, 1.0)
        with pytest.raises(NoWidth):
            probe_point(1.0, 2.0)


class TestConfigAndInit:
    def test_init_one_group_per_sample(self):
        problem = normalize([Sample(float(i), float(i)) for i in range(3)], WEIGHTED_SQUARE)
        groups = anytime_init(problem, AnytimeConfig(init_upper=128.0, init_lower=0.0))
        assert len(groups) == 3
        assert all((g.upper, g.lower) == (128.0, 0.0) for g in groups)
        assert [(g.first, g.last) for g in groups] == [(0, 0), (1, 1), (2, 2)]

    def test_infinite_bounds_allowed(self):
        problem = normalize([Sample(0.0, 1.0)], WEIGHTED_SQUARE)
        groups = anytime_init(problem, AnytimeConfig())
        assert groups[0].width == math.inf

    def test_empty_problem(self):
        with pytest.raises(EmptyProblem):
            anytime_init(Problem((), WEIGHTED_SQUARE), AnytimeConfig())

    # An infinite delta would stop every run before its first round.
    @pytest.mark.parametrize("delta", [0.0, -1.0, math.inf, math.nan, -math.inf])
    def test_bad_delta(self, delta):
        with pytest.raises(InvalidConfig) as error:
            AnytimeConfig(delta=delta)
        assert str(error.value) == f"delta must be positive and finite, got {delta!r}"

    def test_inverted_bounds(self):
        with pytest.raises(InvalidConfig):
            AnytimeConfig(init_upper=0.0, init_lower=1.0)

    def test_negative_max_iters(self):
        with pytest.raises(InvalidConfig, match="max_iters must be >= 0, got -1"):
            AnytimeConfig(max_iters=-1)


class TestIterate:
    def test_single_group_halves_toward_minimizer(self):
        targets = (44.0, 52.0, 18.0, 14.0)  # pooled minimizer 32
        samples = tuple(Sample(float(i + 1), t) for i, t in enumerate(targets))
        oracle = DerivativeOracle(samples, WEIGHTED_SQUARE)
        groups = [AnytimeGroup(0, 3, 128.0, 0.0)]
        groups = iterate(groups, oracle)
        g = groups[0]
        assert g.probe == 64.0
        assert g.neg_deriv == -256.0
        assert (g.upper, g.lower) == (64.0, 0.0)
        # 32 is reachable by halving from (128, 0), so the very next probe
        # hits the minimizer exactly and the group settles there.
        groups = iterate(groups, oracle)
        assert groups[0].settled
        assert groups[0].upper == 32.0

    def test_width_halves_when_minimizer_is_not_dyadic(self):
        samples = (Sample(1.0, 32.1),)
        oracle = DerivativeOracle(samples, WEIGHTED_SQUARE)
        groups = [AnytimeGroup(0, 0, 128.0, 0.0)]
        for k in range(1, 26):
            groups = iterate(groups, oracle)
            assert groups[0].width == 128.0 * 2.0 ** -k
        g = groups[0]
        assert 0.5 * (g.upper + g.lower) == pytest.approx(32.1, abs=1e-5)

    def test_adjacent_groups_join_on_sign_crossing(self):
        samples = (Sample(1.0, 52.0), Sample(2.0, 18.0))
        oracle = DerivativeOracle(samples, WEIGHTED_SQUARE)
        groups = [AnytimeGroup(0, 0, 128.0, 0.0), AnytimeGroup(1, 1, 128.0, 0.0)]
        groups = iterate(groups, oracle)
        # both derivatives negative at 64: no join yet, both uppers drop
        assert len(groups) == 2
        assert [(g.upper, g.lower) for g in groups] == [(64.0, 0.0), (64.0, 0.0)]
        groups = iterate(groups, oracle)
        # at 32 the signs cross downward: joined, bracket keeps the midpoint 35
        assert len(groups) == 1
        g = groups[0]
        assert (g.first, g.last) == (0, 1)
        assert g.neg_deriv == 40.0 - 28.0
        assert g.lower <= 35.0 <= g.upper

    def test_settled_group_untouched(self):
        samples = (Sample(1.0, 5.0),)
        oracle = DerivativeOracle(samples, WEIGHTED_SQUARE)
        settled = AnytimeGroup(0, 0, 5.0, 5.0, probe=5.0, neg_deriv=0.0)
        assert iterate([settled], oracle) == [settled]

    def test_join_retests_leftward_within_the_round(self):
        # At 64 the derivatives are 12, 72, -128: the first pair does not cross,
        # the second joins to -56, and the re-test joins the chain into one.
        samples = tuple(Sample(float(i + 1), t) for i, t in enumerate((70.0, 100.0, 0.0)))
        oracle = DerivativeOracle(samples, WEIGHTED_SQUARE)
        groups = [AnytimeGroup(i, i, 128.0, 0.0) for i in range(3)]
        before = list(groups)
        assert iterate(groups, oracle) == [AnytimeGroup(0, 2, 64.0, 0.0, 64.0, -44.0)]
        assert groups == before  # the input list is left unchanged

    def test_settled_neighbours_join(self):
        samples = (Sample(1.0, 5.0), Sample(2.0, 5.0))
        oracle = DerivativeOracle(samples, WEIGHTED_SQUARE)
        groups = [AnytimeGroup(i, i, 5.0, 5.0, probe=5.0, neg_deriv=0.0) for i in range(2)]
        assert iterate(groups, oracle) == [AnytimeGroup(0, 1, 5.0, 5.0, 5.0, 0.0)]

    def test_exact_zero_settles(self):
        samples = (Sample(1.0, 32.0),)
        oracle = DerivativeOracle(samples, WEIGHTED_SQUARE)
        groups = [AnytimeGroup(0, 0, 64.0, 0.0)]
        groups = iterate(groups, oracle)
        assert groups[0].settled
        assert groups[0].upper == 32.0

    def test_nan_derivative_raises(self):
        family = LossFamily(
            name="broken",
            loss=lambda s, z: 0.0,
            neg_derivative=lambda s, z: float("nan"),
        )
        oracle = DerivativeOracle((Sample(0.0, 0.0),), family)
        with pytest.raises(OracleFailure):
            iterate([AnytimeGroup(0, 0, 1.0, 0.0)], oracle)

    def test_derivatives_that_overflow_raise(self):
        # At probe 0 the two derivatives are +inf and -inf, which fsum cannot add.
        problem = normalize([Sample(1.0, 1e308), Sample(2.0, -1e308)], WEIGHTED_SQUARE)
        config = AnytimeConfig(init_upper=1e308, init_lower=-1e308)
        message = r"^derivative oracle failed at z=0\.0 for samples \[0, 1\]: -inf \+ inf in fsum$"
        with pytest.raises(OracleFailure, match=message):
            anytime_run(problem, config)
        # The stack solver fits the same rows.
        assert [b.minimizer for b in fit_stack(problem).blocks] == [0.0]

    def test_exact_sum_past_float_range_raises(self):
        family = LossFamily(name="huge", loss=lambda s, z: 0.0,
                            neg_derivative=lambda s, z: 1e308)
        oracle = DerivativeOracle((Sample(0.0, 0.0), Sample(1.0, 0.0)), family)
        with pytest.raises(OracleFailure, match=r"for samples \[0, 1\]: intermediate overflow"):
            iterate([AnytimeGroup(0, 1, 1.0, 0.0)], oracle)

    def test_join_of_opposite_infinite_derivatives_raises_the_sum_failure(self):
        # One round joins the +inf and -inf groups; their sum is NaN, so the
        # joined group is summed as one, and fsum names the cause.
        problem = normalize([Sample(1.0, 1e308), Sample(2.0, -1e308)], WEIGHTED_SQUARE)
        config = AnytimeConfig(init_upper=1e308, init_lower=-1e308, max_iters=1)
        message = r"^derivative oracle failed at z=0\.0 for samples \[0, 1\]: -inf \+ inf in fsum$"
        with pytest.raises(OracleFailure, match=message):
            anytime_run(problem, config)
        oracle = DerivativeOracle(problem.samples, WEIGHTED_SQUARE)
        with pytest.raises(OracleFailure, match=message):
            iterate(anytime_init(problem, config), oracle)

    def test_finite_bracket_wider_than_floats_is_not_unbounded(self):
        problem = normalize([Sample(1.0, 1e308), Sample(2.0, -1e308)], WEIGHTED_SQUARE)
        config = AnytimeConfig(init_upper=1e308, init_lower=-1e308, max_iters=0)
        result = anytime_run(problem, config)
        assert result.width_bound == math.inf and result.iters == 0
        assert result.staircase.values == (0.0,)


def _run_rounds(problem, config, rounds):
    oracle = DerivativeOracle(problem.samples, problem.family)
    groups = anytime_init(problem, config)
    for _ in range(rounds):
        groups = iterate(groups, oracle)
        yield groups


class TestRoundInvariants:
    BOUNDS = AnytimeConfig(init_upper=128.0, init_lower=0.0, delta=1e-9, max_iters=64)

    def test_width_law_and_lattice(self):
        rng = random.Random(77)
        for _ in range(25):
            problem = make_square_instance(rng, rng.randint(2, 12))
            oracle = DerivativeOracle(problem.samples, problem.family)
            for k, groups in enumerate(_run_rounds(problem, self.BOUNDS, 20), start=1):
                delta_k = 128.0 * 2.0 ** -k
                for a, b in zip(groups, groups[1:]):
                    assert a.upper <= b.upper and a.lower <= b.lower
                    same = (a.upper, a.lower) == (b.upper, b.lower)
                    assert same or b.upper >= b.lower >= a.upper
                    if same and not a.settled and not b.settled:
                        assert (a.neg_deriv > 0) == (b.neg_deriv > 0)
                for g in groups:
                    # every upper bound sits on the round's dyadic grid
                    steps = (g.upper - 0.0) / delta_k
                    assert steps == round(steps) and 1 <= steps <= 2**k
                    if g.settled:
                        assert g.neg_deriv == 0.0
                        continue
                    assert g.width == delta_k
                    assert g.neg_deriv != 0.0
                    # sign pattern: even grid position -> minimizer above
                    assert (g.neg_deriv > 0) == (round(steps) % 2 == 0)
                    # stored derivative matches a fresh oracle call (exact for
                    # unjoined groups, 1e-9 after joins)
                    fresh = oracle.neg_derivative_at(g.first, g.last, g.probe)
                    assert abs(g.neg_deriv - fresh) <= 1e-9 * max(1.0, abs(fresh))


class TestAnytimeRun:
    def test_golden_instance(self, golden_problem):
        config = AnytimeConfig(init_upper=128.0, init_lower=0.0, delta=1e-6, max_iters=64)
        result = anytime_run(golden_problem, config)
        assert tuple(g.last - g.first + 1 for g in result.groups) == GOLDEN_SIZES
        assert result.iters <= 27
        assert result.width_bound <= 1e-6
        for got, want in zip(result.staircase.values, GOLDEN_VALUES):
            assert abs(got - want) <= 5e-7

    def test_builds_no_block(self, golden_problem, built_blocks):
        config = AnytimeConfig(init_upper=128.0, init_lower=0.0)
        assert len(anytime_run(golden_problem, config).groups) == len(GOLDEN_SIZES)
        assert built_blocks == []

    def test_total_loss_is_blocks_loss_of_midpoints(self):
        # Paired scores tie, so the loss includes a nonzero tie-merge offset.
        samples = [Sample(float(i // 2), float(t)) for i, t in enumerate(GOLDEN_TARGETS)]
        problem = normalize(samples, WEIGHTED_SQUARE)
        assert problem.loss_offset > 0.0
        result = anytime_run(problem, AnytimeConfig(delta=1e-9))
        midpoints = [
            Block(g.first, g.last, 0.5 * g.upper + 0.5 * g.lower, g.width)
            for g in result.groups
        ]
        assert result.total_loss == blocks_loss(problem, midpoints)
        assert result.total_loss == pytest.approx(fit_stack(problem).total_loss, rel=1e-12)

    def test_constant_targets_collapse_to_one_group(self):
        rng = random.Random(9)
        samples = [Sample(float(i), 50.0, 0.5 + rng.random()) for i in range(6)]
        problem = normalize(samples, WEIGHTED_SQUARE)
        result = anytime_run(problem, AnytimeConfig(init_upper=128.0, init_lower=0.0, delta=1e-6))
        assert len(result.groups) == 1
        assert result.staircase.values == (50.0,)
        assert result.width_bound == 0.0

    def test_logloss_derivative_path_matches_reduction(self):
        # The two label-1 samples tie exactly: the merge solvers pool them
        # (>= rule) while the bisection keeps two bound-synchronized groups
        # with identical values, so agreement is on the staircase.
        raw = [Sample(0.2, 0.0), Sample(0.5, 1.0), Sample(0.9, 1.0)]
        problem = normalize(map(check_label, raw), LOG_LOSS)
        scores = [s.score for s in problem.samples]
        reduction = fit_stack(problem)
        expected = blocks_to_staircase(reduction.blocks, scores)
        result = anytime_run(
            problem, AnytimeConfig(init_upper=1.0, init_lower=0.0, delta=1e-8, max_iters=64)
        )
        assert expected.values == (0.0, 1.0)
        assert result.staircase.step_count == 2
        for got, want in zip(result.staircase.values, expected.values):
            assert abs(got - want) <= 1e-8

    def test_partition_matches_stack_when_delta_small(self):
        rng = random.Random(17)
        for _ in range(20):
            problem = make_square_instance(rng, rng.randint(2, 12))
            result = anytime_run(
                problem,
                AnytimeConfig(init_upper=200.0, init_lower=-200.0, delta=1e-8, max_iters=64),
            )
            stack = fit_stack(problem)
            assert [(g.first, g.last) for g in result.groups] == [
                (b.first, b.last) for b in stack.blocks
            ]
            for g, b in zip(result.groups, stack.blocks):
                assert abs(0.5 * (g.upper + g.lower) - b.minimizer) <= 5e-9

    def test_steps_inside_one_final_bracket_collapse(self):
        # The README and AnytimeResult example: two exact steps, one midpoint.
        problem = normalize([Sample(1.0, 0.1), Sample(2.0, 0.1000001)], WEIGHTED_SQUARE)
        result = anytime_run(problem, AnytimeConfig(init_upper=2.0, init_lower=0.0, delta=1e-6))
        assert result.staircase.values == (0.09999990463256836,)
        assert blocks_to_staircase(fit_stack(problem).blocks, problem.scores).values == (
            0.1, 0.1000001)
        for exact in (0.1, 0.1000001):
            assert abs(result.staircase.values[0] - exact) <= result.width_bound / 2

    def test_doubling_trick_finds_bounds_then_converges(self):
        rng = random.Random(19)
        for _ in range(15):
            samples = [
                Sample(i + rng.random(), rng.uniform(-1000, 1000), 0.5 + rng.random())
                for i in range(rng.randint(2, 10))
            ]
            problem = normalize(samples, WEIGHTED_SQUARE)
            oracle = DerivativeOracle(problem.samples, problem.family)
            groups = anytime_init(problem, AnytimeConfig(delta=1e-8, max_iters=128))
            rounds_to_finite = None
            for k in range(1, 13):
                groups = iterate(groups, oracle)
                if all(not math.isinf(g.width) for g in groups):
                    rounds_to_finite = k
                    break
            assert rounds_to_finite is not None and rounds_to_finite <= 12
            result = anytime_run(problem, AnytimeConfig(delta=1e-8, max_iters=128))
            stack = fit_stack(problem)
            assert [(g.first, g.last) for g in result.groups] == [
                (b.first, b.last) for b in stack.blocks
            ]
            for v, b in zip(result.staircase.values, stack.blocks):
                assert abs(v - b.minimizer) <= 5e-9

    def test_max_iters_cap_returns_wide_result(self):
        problem = normalize([Sample(1.0, 3.0), Sample(2.0, 97.0)], WEIGHTED_SQUARE)
        config = AnytimeConfig(init_upper=128.0, init_lower=0.0, delta=1e-30, max_iters=5)
        result = anytime_run(problem, config)
        assert result.iters == 5
        assert result.width_bound == 128.0 * 2.0**-5

    def test_per_sample_power_loss_matches_brute_force(self):
        # The paper's general setting: each sample carries its own strictly
        # convex loss w * |z - y|^p, with its exponent p > 1 in ``payload``.
        def neg_derivative(s, z):
            d = z - s.target
            return -s.weight * s.payload * math.copysign(abs(d) ** (s.payload - 1.0), d)

        family = LossFamily(
            name="power",
            loss=lambda s, z: s.weight * abs(z - s.target) ** s.payload,
            neg_derivative=neg_derivative,
        )
        rng = random.Random(61)
        for _ in range(5):
            raw = [
                Sample(i + rng.random(), i + rng.uniform(0.0, 4.0), 0.5 + rng.random(),
                       payload=rng.uniform(1.2, 3.0))
                for i in range(7)
            ]
            problem = normalize(raw, family)
            result = anytime_run(problem, AnytimeConfig(10.0, 0.0, delta=1e-6))
            best = brute_force_fit(problem, bounds=(0.0, 10.0)).best_values
            assert result.width_bound <= 1e-6
            for g in result.groups:
                for i in range(g.first, g.last + 1):
                    assert abs(0.5 * (g.upper + g.lower) - best[i]) <= result.width_bound

    def test_unbounded_loss_raises(self):
        # Derivative never changes sign: no finite bracket exists.
        family = LossFamily(
            name="drift",
            loss=lambda s, z: z,
            neg_derivative=lambda s, z: -1.0,
        )
        problem = Problem((Sample(0.0, 0.0),), family)
        with pytest.raises(Unbounded):
            anytime_run(problem, AnytimeConfig(delta=1e-6, max_iters=40))

    def test_family_without_derivative_rejected(self):
        family = LossFamily(name="plain", loss=lambda s, z: (z - s.target) ** 2)
        problem = Problem((Sample(0.0, 0.0),), family)
        with pytest.raises(InvalidConfig):
            anytime_run(problem, AnytimeConfig())


def _can_shrink(g):
    """Whether another round can narrow ``g``: its next probe lies strictly inside."""
    return g.upper != g.lower and g.lower < probe_point(g.upper, g.lower) < g.upper


def _target_bracket(problem, **kwargs):
    targets = [s.target for s in problem.samples]
    return AnytimeConfig(init_upper=max(targets), init_lower=min(targets), **kwargs)


def _lock_step_instance(kind):
    rng = random.Random(f"lock-step-{kind}")
    # delta is the smallest float, so only the float grid stops the run.
    settings = {"delta": math.ulp(0.0), "max_iters": 4096}
    if kind == "random-weighted":
        problem = make_square_instance(rng, 40)
        return problem, _target_bracket(problem, **settings)
    if kind == "ties-logloss":
        raw = [Sample(round(rng.random(), 1), float(rng.random() < 0.5)) for _ in range(80)]
        problem = normalize(map(check_label, raw), LOG_LOSS)
        return problem, AnytimeConfig(init_upper=1.0, init_lower=0.0, **settings)
    if kind == "doubling":
        samples = [Sample(i + rng.random(), rng.uniform(-1000, 1000), 0.5 + rng.random())
                   for i in range(30)]
        return normalize(samples, WEIGHTED_SQUARE), AnytimeConfig(**settings)
    samples = [Sample(i + rng.random(), rng.uniform(1e10, 2e10)) for i in range(30)]
    problem = normalize(samples, WEIGHTED_SQUARE)
    return problem, _target_bracket(problem, **settings)


class TestListRound:
    @pytest.mark.parametrize("kind", ["random-weighted", "ties-logloss", "doubling", "1e10"])
    def test_iterate_and_run_in_lock_step(self, kind):
        problem, config = _lock_step_instance(kind)
        oracle = DerivativeOracle(problem.samples, problem.family)
        groups = anytime_init(problem, config)
        rounds = 0
        while any(_can_shrink(g) for g in groups):
            groups = iterate(groups, oracle)
            rounds += 1
        result = anytime_run(problem, config)
        assert 0 < result.iters == rounds < config.max_iters
        assert result.groups == tuple(groups)

    def test_run_builds_each_group_once(self, monkeypatch):
        built = []

        def counting(*fields):
            built.append(AnytimeGroup(*fields))
            return built[-1]

        monkeypatch.setattr(anytime, "AnytimeGroup", counting)
        problem = make_square_instance(random.Random(5), 60)
        result = anytime_run(problem, _target_bracket(problem, delta=1e-9))
        assert result.iters > 20
        assert len(built) == len(result.groups)
        assert tuple(built) == result.groups

    def test_one_float_brackets_stop_the_run(self):
        # At 1e10 the float spacing (1.9e-6) is wider than delta. A bracket one
        # float wide cannot shrink, so it no longer keeps the run going to
        # max_iters (256 rounds); its true width still shows in width_bound.
        rng = random.Random(0)
        samples = [Sample(i + rng.random(), rng.uniform(1e10, 2e10)) for i in range(50)]
        problem = normalize(samples, WEIGHTED_SQUARE)
        config = _target_bracket(problem, delta=1e-6)
        result = anytime_run(problem, config)
        assert result.iters == 53
        assert result.iters <= math.ceil(math.log2((config.init_upper - config.init_lower) / 1e-6))
        assert result.width_bound == math.ulp(1e10)
        assert not any(_can_shrink(g) for g in result.groups)
        stack = fit_stack(problem)
        scores = [s.score for s in problem.samples]
        want = blocks_to_staircase(stack.blocks, scores)
        for score in scores:
            got = result.staircase(score)
            # The stack value is itself a rounded mean: a few ulps of slack.
            assert abs(got - want(score)) <= result.width_bound / 2 + 4 * math.ulp(got)

    def test_one_float_initial_bracket_runs_one_round(self):
        target = 10000000000.000002  # one float above 1e10
        problem = normalize([Sample(0.0, target)], WEIGHTED_SQUARE)
        config = AnytimeConfig(init_upper=target, init_lower=1e10, delta=1e-6)
        result = anytime_run(problem, config)
        assert result.iters == 1
        assert result.width_bound == math.ulp(1e10) > config.delta
        # The midpoint rounds onto the lower end: one ulp off, the full bound.
        assert result.staircase.values == (1e10,)
        assert target - 1e10 == result.width_bound / 2 + math.ulp(1e10) / 2


class TestErrorBound:
    def test_rounded_midpoint_misses_half_width(self):
        # The bracket [0.3 - ulp, 0.3] rounds its midpoint onto the lower end,
        # a whole width from the minimizer: the ulp term of the bound is needed.
        problem = normalize([Sample(0.0, 0.3)], WEIGHTED_SQUARE)
        result = anytime_run(problem, AnytimeConfig(0.3, math.nextafter(0.3, 0.0)))
        [value] = result.staircase.values
        assert value == 0.29999999999999993
        assert result.width_bound == 5.551115123125783e-17
        assert 0.3 - value > result.width_bound / 2
        assert 0.3 - value <= result.width_bound / 2 + math.ulp(value) / 2

    @pytest.mark.parametrize("seed", range(6))
    def test_values_within_half_width_plus_half_ulp(self, seed):
        # Integer targets in [32, 64) and power-of-two weights keep every
        # oracle term exact at every probe, so each bracket holds its group's
        # exact minimizer and the run can go down to the float grid. Distinct
        # exact block means differ by far more than an ulp, so fit_stack's
        # partition is the exact one and Fraction gives its exact values.
        rng = random.Random(seed)
        samples = [
            Sample(i + rng.random(), float(rng.randrange(32, 64)), rng.choice((0.5, 1.0, 2.0)))
            for i in range(rng.randint(2, 14))
        ]
        problem = normalize(samples, WEIGHTED_SQUARE)
        for delta in (1e-3, 1e-9, math.ulp(0.0)):
            result = anytime_run(problem, _target_bracket(problem, delta=delta))
            for block in fit_stack(problem).blocks:
                members = problem.samples[block.first:block.last + 1]
                exact = (sum(Fraction(s.weight) * Fraction(s.target) for s in members)
                         / sum(Fraction(s.weight) for s in members))
                for s in members:
                    value = result.staircase(s.score)
                    bound = Fraction(result.width_bound) / 2 + Fraction(math.ulp(value)) / 2
                    assert abs(Fraction(value) - exact) <= bound
