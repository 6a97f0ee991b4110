"""Acceptance gate: every shipped behavior checked at its fixed tolerance.

Each test prints one ``criterion NN PASS/FAIL`` line (visible with ``-s``);
run standalone via ``pytest tests/test_acceptance.py -v -s``.
"""

import math
import random
import time
from contextlib import contextmanager
from functools import lru_cache
from pathlib import Path

import pytest

from monocal import (
    AnytimeConfig,
    OnlineState,
    Problem,
    Sample,
    WEIGHTED_SQUARE,
    LOG_LOSS,
    anytime_init,
    anytime_run,
    direct_passes,
    fit_direct,
    fit_stack,
    check_label,
    normalize,
)
from monocal.anytime import iterate
from monocal.losses import DerivativeOracle
from monocal.oracle import brute_force_fit

from conftest import (
    GOLDEN_SIZES,
    GOLDEN_VALUES,
    golden_samples,
    make_square_instance,
)


@contextmanager
def criterion(number: int, name: str):
    try:
        yield
    except BaseException:
        print(f"criterion {number:2d} FAIL  {name}")
        raise
    print(f"criterion {number:2d} PASS  {name}")


@lru_cache(maxsize=1)
def random_square_instances() -> tuple[Problem, ...]:
    rng = random.Random(20240)
    return tuple(make_square_instance(rng, rng.randint(2, 12)) for _ in range(500))


def expand(blocks) -> list[float]:
    values = []
    for b in blocks:
        values.extend([b.minimizer] * (b.last - b.first + 1))
    return values


def best_of(n_runs, fn):
    best = math.inf
    for _ in range(n_runs):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def test_c01_golden_offline_fit(golden_problem):
    with criterion(1, "golden offline fit, both solvers, < 1 ms"):
        for solver in (fit_direct, fit_stack):
            report = solver(golden_problem)
            assert tuple(b.minimizer for b in report.blocks) == GOLDEN_VALUES
            assert tuple(b.last - b.first + 1 for b in report.blocks) == GOLDEN_SIZES
            solver(golden_problem)  # warm up before timing
            assert best_of(5, lambda: solver(golden_problem)) < 1e-3


def test_c02_golden_pass_trace(golden_problem):
    with criterion(2, "golden first-pass trace of the direct solver"):
        first = next(direct_passes(golden_problem))
        assert tuple(b.minimizer for b in first) == (44.0, 28.0, 65.0, 35.0, 58.0, 53.0, 69.0)
        assert tuple(b.aux for b in first) == (1.0, 3.0, 2.0, 3.0, 2.0, 3.0, 1.0)


def test_c03_golden_online_trace():
    with criterion(3, "golden online trace at arrivals 3, 8, 9, 15"):
        state = OnlineState(WEIGHTED_SQUARE)
        expected = {
            3: (38.0,),
            8: (32.0, 58.5),
            9: (32.0, 47.0),
            15: GOLDEN_VALUES,
        }
        for sample in golden_samples():
            state.push(sample)
            if state.n_seen in expected:
                assert state.current().values == expected[state.n_seen]
        assert state.cumulative_merges == 11 == state.n_seen - state.step_count


def test_c04_brute_force_optimality_and_uniqueness():
    with criterion(4, "brute-force optimality on 500 random instances, < 60 s"):
        started = time.perf_counter()
        instances = random_square_instances()
        assert len(instances) >= 500
        for problem in instances:
            report = fit_stack(problem)
            oracle = brute_force_fit(problem)
            assert report.total_loss - oracle.best_loss <= 1e-9
            for got, want in zip(expand(report.blocks), oracle.best_values):
                assert abs(got - want) <= 1e-9
        assert time.perf_counter() - started < 60.0


def test_c05_solver_agreement():
    with criterion(5, "four solvers agree on partitions; anytime within 5e-9"):
        config = AnytimeConfig(init_upper=200.0, init_lower=-200.0, delta=1e-8, max_iters=64)
        for problem in random_square_instances():
            stack = fit_stack(problem)
            partition = [(b.first, b.last) for b in stack.blocks]
            direct = fit_direct(problem)
            assert [(b.first, b.last) for b in direct.blocks] == partition

            state = OnlineState(WEIGHTED_SQUARE)
            for k, sample in enumerate(problem.samples, start=1):
                state.push(sample)
                prefix = fit_stack(Problem(problem.samples[:k], WEIGHTED_SQUARE))
                assert [(b.first, b.last) for b in state.blocks()] == [
                    (b.first, b.last) for b in prefix.blocks
                ]
            assert [(b.first, b.last) for b in state.blocks()] == partition

            result = anytime_run(problem, config)
            assert [(g.first, g.last) for g in result.groups] == partition
            for g, b in zip(result.groups, stack.blocks):
                assert abs(0.5 * (g.upper + g.lower) - b.minimizer) <= 5e-9


def test_c06_merge_count_law():
    with criterion(6, "merge counts equal N - S offline and online"):
        for problem in random_square_instances():
            n = len(problem.samples)
            for report in (fit_stack(problem), fit_direct(problem)):
                assert report.merge_count == n - len(report.blocks)
            state = OnlineState(WEIGHTED_SQUARE)
            for sample in problem.samples:
                state.push(sample)
            assert state.cumulative_merges == n - state.step_count
        # the golden stream, for good measure
        state = OnlineState(WEIGHTED_SQUARE)
        for sample in golden_samples():
            state.push(sample)
        assert state.cumulative_merges == 15 - 4


def test_c07_width_law_lattice_and_signs():
    with criterion(7, "width law, bound lattice, and sign pattern over 20 rounds"):
        rng = random.Random(20247)
        span = 128.0
        for _ in range(100):
            problem = make_square_instance(rng, rng.randint(2, 12))
            oracle = DerivativeOracle(problem.samples, problem.family)
            groups = anytime_init(
                problem, AnytimeConfig(init_upper=span, init_lower=0.0, delta=1e-12, max_iters=64)
            )
            for k in range(1, 21):
                groups = iterate(groups, oracle)
                delta_k = span * 2.0**-k
                for a, b in zip(groups, groups[1:]):
                    assert a.upper <= b.upper and a.lower <= b.lower
                for g in groups:
                    steps = g.upper / delta_k
                    assert steps == round(steps) and 1 <= steps <= 2**k
                    if g.settled:
                        assert g.neg_deriv == 0.0
                        continue
                    assert g.width == delta_k
                    assert (g.neg_deriv > 0) == (round(steps) % 2 == 0)


def test_c08_doubling_trick():
    with criterion(8, "auto bounds finite within 12 rounds, then full agreement"):
        rng = random.Random(20248)
        for _ in range(50):
            samples = [
                Sample(i + rng.random(), rng.uniform(-1000, 1000), 3.0 * (1.0 - rng.random()))
                for i in range(rng.randint(2, 12))
            ]
            problem = normalize(samples, WEIGHTED_SQUARE)
            oracle = DerivativeOracle(problem.samples, problem.family)
            groups = anytime_init(problem, AnytimeConfig(delta=1e-8, max_iters=128))
            for _ in range(12):
                groups = iterate(groups, oracle)
                if all(not math.isinf(g.width) for g in groups):
                    break
            assert all(not math.isinf(g.width) for g in groups)

            stack = fit_stack(problem)
            result = anytime_run(problem, AnytimeConfig(delta=1e-8, max_iters=128))
            assert [(g.first, g.last) for g in result.groups] == [
                (b.first, b.last) for b in stack.blocks
            ]
            for g, b in zip(result.groups, stack.blocks):
                assert abs(0.5 * (g.upper + g.lower) - b.minimizer) <= 5e-9


def test_c09_logloss_reduction_vs_derivative_path():
    with criterion(9, "log-loss reduction and derivative paths agree; grid oracle concurs"):
        rng = random.Random(20249)
        config = AnytimeConfig(init_upper=1.0, init_lower=0.0, delta=1e-8, max_iters=64)
        for _ in range(200):
            n = rng.randint(2, 12)
            raw = [
                Sample(i + rng.random(), float(rng.randint(0, 1)), 0.5 + 1.5 * rng.random())
                for i in range(n)
            ]
            problem = normalize(map(check_label, raw), LOG_LOSS)
            reduction = fit_stack(problem)
            reduced_values = expand(reduction.blocks)

            result = anytime_run(problem, config)
            anytime_values = []
            for g in result.groups:
                anytime_values.extend([0.5 * (g.upper + g.lower)] * (g.last - g.first + 1))
            for got, want in zip(anytime_values, reduced_values):
                assert abs(got - want) <= 1e-6

            # Grid-based partition oracle: 1e-3 resolution bounds its loss
            # error well below 1e-3 and its argmin error below 5e-3.
            grid = brute_force_fit(problem, bounds=(0.0, 1.0), steps=1000)
            assert abs(grid.best_loss - reduction.total_loss) <= 1e-3
            for got, want in zip(grid.best_values, reduced_values):
                assert abs(got - want) <= 5e-3


def test_c10_scaling_smoke():
    with criterion(10, "linear-trend runtime growth and the 27-round width schedule"):
        rng = random.Random(202410)
        problems = {}
        for n in (10**5, 10**6):
            samples = [Sample(float(i), rng.uniform(0, 100)) for i in range(n)]
            problems[n] = normalize(samples, WEIGHTED_SQUARE)
        small = best_of(3, lambda: fit_stack(problems[10**5]))
        large = best_of(3, lambda: fit_stack(problems[10**6]))
        assert large / small <= 15.0

        problem = make_square_instance(rng, 10)
        result = anytime_run(
            problem, AnytimeConfig(init_upper=128.0, init_lower=0.0, delta=1e-6, max_iters=64)
        )
        assert result.iters == 27 == math.ceil(math.log2(128.0 / 1e-6))


def test_c11_property_suites_standalone():
    with criterion(11, "module property suites exist; derivative checks at 1e-6"):
        here = Path(__file__).parent
        for name in (
            "test_core.py",
            "test_losses.py",
            "test_pav_offline.py",
            "test_online.py",
            "test_anytime.py",
            "test_oracle.py",
            "test_cli.py",
        ):
            assert (here / name).is_file(), f"missing property suite {name}"
        rng = random.Random(202411)
        for family, z_range in ((WEIGHTED_SQUARE, (-20.0, 120.0)), (LOG_LOSS, (0.05, 0.95))):
            for _ in range(25):
                if family is LOG_LOSS:
                    group = [Sample(rng.random(), float(rng.randint(0, 1)), 0.5 + rng.random())
                             for _ in range(4)]
                else:
                    group = [Sample(float(i), rng.uniform(0, 100), 0.5 + rng.random())
                             for i in range(4)]
                oracle = DerivativeOracle(group, family)
                z = rng.uniform(*z_range)
                h = 1e-6 * max(1.0, abs(z))
                loss = lambda v: math.fsum(family.loss(s, v) for s in group)
                fd = -(loss(z + h) - loss(z - h)) / (2 * h)
                exact = oracle.neg_derivative_at(0, 3, z)
                assert fd == pytest.approx(exact, rel=1e-6, abs=1e-6)
