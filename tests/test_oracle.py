import random

import pytest

from monocal import (
    LOG_LOSS,
    Sample,
    WEIGHTED_SQUARE,
    fit_stack,
    check_label,
    normalize,
)
from monocal.errors import InvalidConfig, TooLarge
from monocal.oracle import brute_force_fit, grid_minimize

from conftest import make_square_instance


class TestBruteForce:
    def test_golden_instance(self, golden_problem):
        result = brute_force_fit(golden_problem)
        expected = (32.0,) * 4 + (47.0,) * 5 + (55.0,) * 5 + (69.0,)
        assert result.n_partitions_checked == 2**14
        assert result.best_values == pytest.approx(expected, abs=1e-9)
        assert result.best_loss == pytest.approx(13000.0, abs=1e-6)

    def test_single_sample(self):
        problem = normalize([Sample(0.0, 3.5)], WEIGHTED_SQUARE)
        result = brute_force_fit(problem)
        assert result.n_partitions_checked == 1
        assert result.best_values == (3.5,)
        assert result.best_loss == 0.0

    def test_two_decreasing_targets_pool(self):
        # Split partition has loss 0 but is infeasible (5 > 3); pooling at
        # the mean 4 costs 1 + 1 = 2.
        problem = normalize([Sample(0.0, 5.0), Sample(1.0, 3.0)], WEIGHTED_SQUARE)
        result = brute_force_fit(problem)
        assert result.best_values == (4.0, 4.0)
        assert result.best_loss == pytest.approx(2.0, abs=1e-12)

    def test_too_large(self):
        problem = normalize(
            [Sample(float(i), float(i)) for i in range(21)], WEIGHTED_SQUARE
        )
        with pytest.raises(TooLarge):
            brute_force_fit(problem)

    def test_nondecreasing_values(self):
        rng = random.Random(55)
        for _ in range(30):
            problem = make_square_instance(rng, rng.randint(1, 10))
            values = brute_force_fit(problem).best_values
            assert all(a <= b for a, b in zip(values, values[1:]))

    def test_strict_filter_same_optimum(self):
        rng = random.Random(56)
        for _ in range(30):
            problem = make_square_instance(rng, rng.randint(2, 10))
            relaxed = brute_force_fit(problem)
            strict = brute_force_fit(problem, strict=True)
            assert strict.best_loss == pytest.approx(relaxed.best_loss, abs=1e-12)
            assert strict.best_values == relaxed.best_values

    def test_generic_family_needs_bounds(self):
        problem = normalize(map(check_label, [Sample(0.5, 1.0)]), LOG_LOSS)
        with pytest.raises(InvalidConfig):
            brute_force_fit(problem)

    def test_shrink_path_matches_logloss_fit(self):
        rng = random.Random(57)
        for _ in range(10):
            raw = [
                Sample(i + rng.random(), float(rng.randint(0, 1)), 0.5 + rng.random())
                for i in range(rng.randint(2, 8))
            ]
            problem = normalize(map(check_label, raw), LOG_LOSS)
            report = fit_stack(problem)
            fitted = []
            for block in report.blocks:
                fitted.extend([block.minimizer] * (block.last - block.first + 1))
            result = brute_force_fit(problem, bounds=(0.0, 1.0))
            for got, want in zip(result.best_values, fitted):
                assert abs(got - want) <= 1e-6
            assert result.best_loss <= report.total_loss + 1e-6

    def test_grid_path_matches_shrink_path(self):
        rng = random.Random(58)
        raw = [
            Sample(i + rng.random(), float(rng.randint(0, 1)), 0.5 + rng.random())
            for i in range(6)
        ]
        problem = normalize(map(check_label, raw), LOG_LOSS)
        shrunk = brute_force_fit(problem, bounds=(0.0, 1.0))
        gridded = brute_force_fit(problem, bounds=(0.0, 1.0), steps=2000)
        for got, want in zip(gridded.best_values, shrunk.best_values):
            assert abs(got - want) <= 1e-3
        assert abs(gridded.best_loss - shrunk.best_loss) <= 1e-4


class TestGridMinimize:
    def test_square_loss_argmin(self):
        z = grid_minimize(lambda v: (v - 32.0) ** 2, 0.0, 128.0, 10**6)
        assert abs(z - 32.0) <= 1.3e-4

    def test_golden_second_block_group(self):
        targets = (93.0, 37.0, 96.0, 8.0, 1.0)
        loss = lambda v: sum((v - t) ** 2 for t in targets)
        z = grid_minimize(loss, 0.0, 128.0, 128000)
        assert abs(z - 47.0) <= 1e-3

    def test_logloss_symmetric_labels(self):
        group = [Sample(0.5, 0.0), Sample(0.5, 1.0)]
        loss = lambda v: sum(LOG_LOSS.loss(s, v) for s in group)
        z = grid_minimize(loss, 0.0, 1.0, 1000)
        assert abs(z - 0.5) <= 1e-3

    def test_endpoint_minimum(self):
        z = grid_minimize(lambda v: -v, 0.0, 1.0, 100)
        assert z == 1.0


def test_oracle_confirms_solver_on_random_instances():
    rng = random.Random(59)
    for _ in range(100):
        problem = make_square_instance(rng, rng.randint(2, 12))
        report = fit_stack(problem)
        oracle = brute_force_fit(problem)
        assert abs(report.total_loss - oracle.best_loss) <= 1e-9
