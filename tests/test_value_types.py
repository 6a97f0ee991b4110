"""The value types behave as frozen dataclasses.

``fields``, ``replace`` (which validates again), ``FrozenInstanceError``,
``repr``, ``==``/``hash``, ``__match_args__``, pickling and deep copies are
pinned for every value type in ``src``, whatever declares them.
"""

import copy
import dataclasses
import math
import pickle
import sys
import weakref
from dataclasses import MISSING

import pytest

from monocal import (
    AnytimeConfig,
    AnytimeGroup,
    AnytimeResult,
    Block,
    FitReport,
    LossFamily,
    Problem,
    Sample,
    Staircase,
    WEIGHTED_SQUARE,
)
from monocal.errors import InvalidConfig, InvalidValue
from monocal.oracle import OracleResult
from monocal.problem import _from_columns, _normalize

# Builtins keep their identity through pickle and deepcopy, so the family
# and every value holding it compare equal after a round trip.
FAMILY = LossFamily("f", loss=math.copysign)
STAIRCASE = Staircase((1.5,), (10.0, 25.0))
GROUP = AnytimeGroup(0, 1, 3.0, 1.0, 2.0, -0.5)
PROBLEM_FIELDS = [
    ("samples", MISSING, True), ("family", MISSING, True), ("loss_offset", 0.0, True),
    ("scores", MISSING, False), ("targets", MISSING, False), ("weights", MISSING, False),
]


def column_problem():
    """A problem built from columns, as ``monocal fit`` builds it: its samples come on first read."""
    return _normalize([[3.0, 1.0], [4.0, 2.0], [1.0, 0.5]], FAMILY)


def bulk_block():
    """A ``Block`` built as solvers build their results' blocks: in bulk, with no ``__init__``."""
    (block,) = _from_columns(Block, [0], [1], [2.5], [2.0])
    return block


FAMILY_REPR = (
    "LossFamily(name='f', loss=<built-in function copysign>, minimizer_of=None, "
    "init_aux=None, merge=None, neg_derivative=None, combine_ties=None)"
)

# (instance, repr, fields as (name, default, shown)); a shown field has
# init, compare and repr all True, and a hidden one has all three False.
CASES = {
    "Sample": (
        Sample(1.0, 2.0, 3.0, "p"),
        "Sample(score=1.0, target=2.0, weight=3.0, payload='p')",
        [("score", MISSING, True), ("target", 0.0, True), ("weight", 1.0, True),
         ("payload", None, True)],
    ),
    "Problem": (
        Problem([Sample(1.0, 2.0)], FAMILY, 0.5),
        "Problem(samples=(Sample(score=1.0, target=2.0, weight=1.0, payload=None),), "
        f"family={FAMILY_REPR}, loss_offset=0.5)",
        PROBLEM_FIELDS,
    ),
    "ProblemFromColumns": (
        column_problem(),
        "Problem(samples=(Sample(score=1.0, target=2.0, weight=0.5, payload=None), "
        "Sample(score=3.0, target=4.0, weight=1.0, payload=None)), "
        f"family={FAMILY_REPR}, loss_offset=0.0)",
        PROBLEM_FIELDS,
    ),
    "Block": (
        Block(0, 1, 2.5, 2.0),
        "Block(first=0, last=1, minimizer=2.5, aux=2.0)",
        [("first", MISSING, True), ("last", MISSING, True), ("minimizer", MISSING, True),
         ("aux", MISSING, True)],
    ),
    "BlockBulk": (
        bulk_block(),
        "Block(first=0, last=1, minimizer=2.5, aux=2.0)",
        [("first", MISSING, True), ("last", MISSING, True), ("minimizer", MISSING, True),
         ("aux", MISSING, True)],
    ),
    "Staircase": (
        STAIRCASE,
        "Staircase(breakpoints=(1.5,), values=(10.0, 25.0))",
        [("breakpoints", MISSING, True), ("values", MISSING, True)],
    ),
    "LossFamily": (
        FAMILY,
        FAMILY_REPR,
        [("name", MISSING, True), ("loss", MISSING, True), ("minimizer_of", None, True),
         ("init_aux", None, True), ("merge", None, True), ("neg_derivative", None, True),
         ("combine_ties", None, True)],
    ),
    "FitReport": (
        FitReport((Block(0, 1, 2.5, 2.0),), 1, 1.5, 2),
        "FitReport(blocks=(Block(first=0, last=1, minimizer=2.5, aux=2.0),), merge_count=1, "
        "total_loss=1.5, passes=2)",
        [("blocks", MISSING, True), ("merge_count", MISSING, True),
         ("total_loss", MISSING, True), ("passes", None, True)],
    ),
    "AnytimeGroup": (
        GROUP,
        "AnytimeGroup(first=0, last=1, upper=3.0, lower=1.0, probe=2.0, neg_deriv=-0.5)",
        [("first", MISSING, True), ("last", MISSING, True), ("upper", MISSING, True),
         ("lower", MISSING, True), ("probe", None, True), ("neg_deriv", None, True)],
    ),
    "AnytimeConfig": (
        AnytimeConfig(10.0, -10.0, 1e-3, 5),
        "AnytimeConfig(init_upper=10.0, init_lower=-10.0, delta=0.001, max_iters=5)",
        [("init_upper", math.inf, True), ("init_lower", -math.inf, True),
         ("delta", 1e-6, True), ("max_iters", 256, True)],
    ),
    "AnytimeResult": (
        AnytimeResult(STAIRCASE, 0.25, 3, (GROUP,), 1.0),
        "AnytimeResult(staircase=Staircase(breakpoints=(1.5,), values=(10.0, 25.0)), "
        "width_bound=0.25, iters=3, groups=(AnytimeGroup(first=0, last=1, upper=3.0, "
        "lower=1.0, probe=2.0, neg_deriv=-0.5),), total_loss=1.0)",
        [("staircase", MISSING, True), ("width_bound", MISSING, True), ("iters", MISSING, True),
         ("groups", MISSING, True), ("total_loss", MISSING, True)],
    ),
    "OracleResult": (
        OracleResult(1.0, (2.0, 2.0), 5, ((2.0, 2.0),)),
        "OracleResult(best_loss=1.0, best_values=(2.0, 2.0), n_partitions_checked=5, "
        "near_optimal_values=((2.0, 2.0),))",
        [("best_loss", MISSING, True), ("best_values", MISSING, True),
         ("n_partitions_checked", MISSING, True), ("near_optimal_values", None, True)],
    ),
}
NAMES = sorted(CASES)
# One valid change per type, to a field that takes part in ==.
CHANGES = {
    "Sample": {"weight": 2.0},
    "Problem": {"loss_offset": 1.0},
    "ProblemFromColumns": {"loss_offset": 1.0},
    "Block": {"aux": 3.0},
    "BlockBulk": {"aux": 3.0},
    "Staircase": {"values": (10.0, 26.0)},
    "LossFamily": {"name": "g"},
    "FitReport": {"passes": None},
    "AnytimeGroup": {"probe": None},
    "AnytimeConfig": {"max_iters": 6},
    "AnytimeResult": {"iters": 4},
    "OracleResult": {"n_partitions_checked": 6},
}


def shown_names(name):
    return tuple(field for field, _, shown in CASES[name][2] if shown)


@pytest.mark.parametrize("name", NAMES)
def test_fields_names_defaults_and_flags(name):
    value, _, expected = CASES[name]
    assert dataclasses.is_dataclass(type(value)) and dataclasses.is_dataclass(value)
    for fields in (dataclasses.fields(value), dataclasses.fields(type(value))):
        got = [(f.name, f.default, f.init) for f in fields]
        assert got == [(field, default, shown) for field, default, shown in expected]
        assert all(f.init == f.compare == f.repr for f in fields)
        assert all(f.default_factory is MISSING for f in fields)


@pytest.mark.parametrize("name", NAMES)
def test_repr_text(name):
    value, text, _ = CASES[name]
    assert repr(value) == text


@pytest.mark.parametrize("name", NAMES)
def test_assigning_or_deleting_a_field_raises(name):
    value = CASES[name][0]
    for field in [f.name for f in dataclasses.fields(value)]:
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(value, field, 0)
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(value, field)
    assert repr(value) == CASES[name][1]


@pytest.mark.parametrize("name", NAMES)
def test_eq_and_hash_follow_the_compared_fields(name):
    value = CASES[name][0]
    same = dataclasses.replace(value)
    assert same is not value and same == value and not same != value
    key = tuple(getattr(value, f.name) for f in dataclasses.fields(value) if f.compare)
    assert hash(same) == hash(value) == hash(key)
    assert value != key and (value == key) is False
    assert dataclasses.replace(value, **CHANGES[name]) != value


def test_problem_compares_without_its_columns():
    problem = CASES["Problem"][0]
    other = Problem(problem.samples, problem.family, problem.loss_offset)
    object.__setattr__(other, "scores", (9.0,))
    assert other == problem and hash(other) == hash(problem)


def test_a_problem_built_from_columns_equals_its_twins():
    built, again = column_problem(), column_problem()
    given = Problem([Sample(1.0, 2.0, 0.5), Sample(3.0, 4.0)], FAMILY)
    # == builds the samples of both sides; they are then kept as one tuple.
    assert built == again == given and hash(built) == hash(again) == hash(given)
    assert type(built.samples) is tuple and built.samples is built.samples
    assert (built.scores, built.targets, built.weights) == ((1.0, 3.0), (2.0, 4.0), (0.5, 1.0))
    assert vars(given)["samples"] is given.samples


def test_a_bulk_built_block_is_a_constructed_one():
    bulk, constructed = CASES["BlockBulk"][0], CASES["Block"][0]
    assert type(bulk) is Block and bulk == constructed and hash(bulk) == hash(constructed)
    assert {bulk: "block"}[constructed] == "block"
    assert _from_columns(Block, [], [], [], []) == ()


def test_loss_family_is_a_dict_key():
    families = {WEIGHTED_SQUARE: "square", FAMILY: "f"}
    assert families[dataclasses.replace(WEIGHTED_SQUARE)] == "square"
    assert families[LossFamily("f", math.copysign)] == "f"
    assert dataclasses.replace(WEIGHTED_SQUARE, name="other") not in families


@pytest.mark.parametrize("name", NAMES)
def test_slotted_types_have_no_dict_and_the_rest_keep_theirs(name):
    value = CASES[name][0]
    if name in ("Sample", "Block", "BlockBulk", "AnytimeGroup"):
        assert not hasattr(value, "__dict__")
    elif name == "ProblemFromColumns":
        # Its samples join its ``__dict__`` on first read, after the columns.
        value.samples
        assert list(vars(value)) == [f.name for f in dataclasses.fields(value)][1:] + ["samples"]
    else:
        assert list(vars(value)) == [f.name for f in dataclasses.fields(value)]
        assert weakref.ref(value)() is value


@pytest.mark.parametrize("name", NAMES)
def test_match_args_are_the_init_fields(name):
    value = CASES[name][0]
    assert type(value).__match_args__ == shown_names(name)
    match value:
        case Sample(score, target):
            assert (score, target) == (1.0, 2.0)
        case Block(first, last, minimizer=y):
            assert (first, last, y) == (0, 1, 2.5)
        case Staircase(breakpoints, values):
            assert values == (10.0, 25.0)
        case _:
            assert name not in ("Sample", "Block", "Staircase")


@pytest.mark.parametrize("name", NAMES)
@pytest.mark.parametrize("round_trip", [
    lambda value: pickle.loads(pickle.dumps(value)),
    lambda value: pickle.loads(pickle.dumps(value, protocol=1)),
    lambda value: pickle.loads(pickle.dumps(value, protocol=2)),
    copy.deepcopy,
    copy.copy,
], ids=["pickle", "pickle-1", "pickle-2", "deepcopy", "copy"])
def test_pickle_and_copy_round_trips(name, round_trip):
    value = CASES[name][0]
    twin = round_trip(value)
    assert type(twin) is type(value) and twin == value
    for f in dataclasses.fields(value):
        assert getattr(twin, f.name) == getattr(value, f.name)
    assert repr(twin) == repr(value)
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(twin, dataclasses.fields(value)[0].name, 0)


@pytest.mark.parametrize(
    "value, changes, error",
    [
        (Sample(1.0, 2.0), {"score": math.nan}, InvalidValue),
        (Block(0, 1, 2.5, 2.0), {"first": 2}, InvalidValue),
        (bulk_block(), {"first": 2}, InvalidValue),
        (STAIRCASE, {"values": (25.0, 10.0)}, InvalidValue),
        (AnytimeConfig(), {"delta": 0}, InvalidConfig),
    ],
    ids=["Sample", "Block", "BlockBulk", "Staircase", "AnytimeConfig"],
)
def test_replace_validates_again(value, changes, error):
    with pytest.raises(error):
        dataclasses.replace(value, **changes)
    if sys.version_info >= (3, 13):
        with pytest.raises(error):
            copy.replace(value, **changes)


def test_replace_rejects_a_hidden_field():
    # The error class is dataclasses' own and not the same on every Python.
    with pytest.raises((ValueError, TypeError)):
        dataclasses.replace(CASES["Problem"][0], scores=(1.0,))


@pytest.mark.skipif(sys.version_info < (3, 13), reason="copy.replace is new in 3.13")
@pytest.mark.parametrize("name", NAMES)
def test_copy_replace(name):
    value = CASES[name][0]
    assert copy.replace(value) == value
    assert copy.replace(value, **CHANGES[name]) == dataclasses.replace(value, **CHANGES[name])


class Tagged(Sample):
    __slots__ = ()


class Steps(Staircase):
    pass


@pytest.mark.parametrize("cls, args", [(Tagged, (1.0, 2.0)), (Steps, ((1.5,), (10.0, 25.0)))],
                         ids=["slotted", "dict"])
def test_a_subclass_keeps_the_fields(cls, args):
    value = cls(*args)
    base = cls.__mro__[1]
    assert repr(value) == repr(base(*args)).replace(base.__name__, cls.__name__, 1)
    assert [f.name for f in dataclasses.fields(value)] == list(base.__match_args__)
    assert cls.__match_args__ == base.__match_args__
    assert value == cls(*args) and hash(value) == hash(cls(*args)) and value != base(*args)
    assert pickle.loads(pickle.dumps(value)) == value
    assert type(dataclasses.replace(value)) is cls
