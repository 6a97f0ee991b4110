import random

import pytest

from monocal import Problem, Sample, WEIGHTED_SQUARE, normalize, problem

# 15-sample reference instance used by the golden tests: unit weights,
# scores 1..15, square loss. The optimal staircase is [32, 47, 55, 69]
# with block sizes (4, 5, 5, 1).
GOLDEN_TARGETS = (44, 52, 18, 14, 93, 37, 96, 8, 1, 95, 21, 77, 46, 36, 69)
GOLDEN_VALUES = (32.0, 47.0, 55.0, 69.0)
GOLDEN_SIZES = (4, 5, 5, 1)
GOLDEN_BREAKPOINTS = (4.5, 9.5, 14.5)


def golden_samples() -> list[Sample]:
    return [Sample(float(i + 1), float(t)) for i, t in enumerate(GOLDEN_TARGETS)]


@pytest.fixture(scope="session")
def golden_problem() -> Problem:
    return normalize(golden_samples(), WEIGHTED_SQUARE)


@pytest.fixture
def built_blocks(monkeypatch) -> list:
    """Every ``Block`` built while the test runs, one at a time or in bulk.

    ``Block(...)`` runs ``__post_init__``. A solver's result is built in bulk,
    with no ``__init__``, by ``problem._stack_blocks`` (the one code that
    builds a ``Block`` from the stack's lists) through
    ``problem._from_columns``.
    """
    built = []
    post_init = problem.Block.__post_init__
    from_columns = problem._from_columns

    def counting(block):
        built.append(block)
        post_init(block)

    def counting_bulk(cls, *columns):
        objects = from_columns(cls, *columns)
        built.extend(objects)
        return objects

    monkeypatch.setattr(problem.Block, "__post_init__", counting)
    monkeypatch.setattr(problem, "_from_columns", counting_bulk)
    return built


def make_square_instance(
    rng: random.Random,
    n: int,
    target_lo: float = 0.0,
    target_hi: float = 100.0,
    unit_weights: bool = False,
) -> Problem:
    """Random instance with strictly increasing scores and weights in (0, 3]."""
    samples = [
        Sample(
            score=i + rng.random(),
            target=rng.uniform(target_lo, target_hi),
            weight=1.0 if unit_weights else 3.0 * (1.0 - rng.random()),
        )
        for i in range(n)
    ]
    return normalize(samples, WEIGHTED_SQUARE)
