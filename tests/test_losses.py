import copy
import dataclasses
import math
import pickle
import random
import struct

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from monocal import (
    LOG_LOSS,
    AnytimeConfig,
    OnlineState,
    Problem,
    Sample,
    WEIGHTED_SQUARE,
    blocks_to_staircase,
    anytime_run,
    check_label,
    fit_direct,
    fit_stack,
    normalize,
    weighted_square_merge,
)
from monocal.errors import (
    CalibrationError, InvalidConfig, InvalidLabel, InvalidWeight, OracleFailure,
)
from monocal.losses import DerivativeOracle, LossFamily
from monocal.oracle import brute_force_fit, grid_minimize
from monocal.problem import _derivative_probe, _minimizer_bracket, _normalize, _partition_loss


class TestWeightedSquareMerge:
    def test_uneven_weights(self):
        # (18, 1) and (14, 1) pool to (16, 2); pooling (52, 1) on top gives 28.
        assert weighted_square_merge(18.0, 1.0, 14.0, 1.0) == (16.0, 2.0)
        assert weighted_square_merge(52.0, 1.0, 16.0, 2.0) == (28.0, 3.0)

    def test_unit_weights(self):
        assert weighted_square_merge(93.0, 1.0, 37.0, 1.0) == (65.0, 2.0)

    def test_equal_means_keep_value(self):
        y, lam = weighted_square_merge(7.5, 1.25, 7.5, 3.5)
        assert y == 7.5
        assert lam == 4.75

    @pytest.mark.parametrize("bad", [0.0, -2.0])
    def test_nonpositive_weight_raises(self, bad):
        with pytest.raises(InvalidWeight):
            weighted_square_merge(1.0, bad, 2.0, 1.0)
        with pytest.raises(InvalidWeight):
            weighted_square_merge(1.0, 1.0, 2.0, bad)

    def test_summed_weight_past_the_float_range_raises(self):
        # The mean would divide by inf: 1e308 / inf is 0.0 where 0.5 is right.
        with pytest.raises(InvalidWeight, match=r"^summed group weight is not finite: "
                                                r"1e\+308 \+ 1e\+308$"):
            weighted_square_merge(1.0, 1e308, 0.0, 1e308)
        assert weighted_square_merge(1.0, 8e307, 0.0, 8e307) == (0.5, 1.6e308)

    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=-100, max_value=100),
                st.floats(min_value=0.01, max_value=10),
            ),
            min_size=2,
            max_size=10,
        )
    )
    @settings(max_examples=80)
    def test_fold_order_does_not_matter(self, pairs):
        def fold_left(items):
            y, lam = items[0]
            for y2, lam2 in items[1:]:
                y, lam = weighted_square_merge(y, lam, y2, lam2)
            return y, lam

        def fold_right(items):
            y, lam = items[-1]
            for y2, lam2 in reversed(items[:-1]):
                y, lam = weighted_square_merge(y2, lam2, y, lam)
            return y, lam

        def fold_tree(items):
            if len(items) == 1:
                return items[0]
            mid = len(items) // 2
            yl, ll = fold_tree(items[:mid])
            yr, lr = fold_tree(items[mid:])
            return weighted_square_merge(yl, ll, yr, lr)

        y_l, lam_l = fold_left(pairs)
        y_r, lam_r = fold_right(pairs)
        y_t, lam_t = fold_tree(pairs)
        scale = max(1.0, abs(y_l))
        assert abs(y_l - y_r) <= 1e-12 * scale
        assert abs(y_l - y_t) <= 1e-12 * scale
        assert abs(lam_l - lam_r) <= 1e-12 * lam_l
        assert abs(lam_l - lam_t) <= 1e-12 * lam_l


class TestLoglossReduce:
    """Checked 0/1 labels fit under log loss exactly as under weighted square."""

    def test_rejects_nonbinary_label(self):
        for label in (0.25, -1.0, 2.0):
            with pytest.raises(InvalidLabel):
                check_label(Sample(0.5, label))

    def test_check_label_is_the_label_rule(self):
        sample = Sample(0.3, 1.0, 2.0)
        assert check_label(sample) is sample
        with pytest.raises(InvalidLabel, match="binary label must be 0 or 1, got 0.25"):
            check_label(Sample(0.5, 0.25))

    def test_all_positive_labels_fit_constant_one(self):
        raw = [Sample(0.1 * (i + 1), 1.0) for i in range(5)]
        problem = normalize(map(check_label, raw), LOG_LOSS)
        report = fit_stack(problem)
        staircase = blocks_to_staircase(report.blocks, [s.score for s in problem.samples])
        assert staircase.values == (1.0,)

    def test_two_label_fit_confirmed_by_grid_search(self):
        raw = [Sample(1.0, 0.0), Sample(2.0, 1.0)]
        problem = normalize(map(check_label, raw), LOG_LOSS)
        report = fit_stack(problem)
        assert [b.minimizer for b in report.blocks] == [0.0, 1.0]
        # Grid over [0, 1] in 0.001 steps agrees per block.
        for sample, expected in zip(problem.samples, (0.0, 1.0)):
            z = grid_minimize(lambda v, s=sample: LOG_LOSS.loss(s, v), 0.0, 1.0, 1000)
            assert z == expected

    def test_fit_matches_square_family_fit(self):
        rng = random.Random(3)
        raw = [
            Sample(score=i + rng.random(), target=float(rng.randint(0, 1)),
                   weight=0.5 + rng.random())
            for i in range(20)
        ]
        reduced = list(map(check_label, raw))
        as_log = fit_stack(normalize(reduced, LOG_LOSS))
        as_square = fit_stack(normalize(reduced, WEIGHTED_SQUARE))
        assert [(b.first, b.last) for b in as_log.blocks] == [
            (b.first, b.last) for b in as_square.blocks
        ]
        assert [b.minimizer for b in as_log.blocks] == [
            b.minimizer for b in as_square.blocks
        ]

    def test_neg_derivative_one_sided_limits_at_boundary(self):
        assert LOG_LOSS.neg_derivative(Sample(0.5, 1.0), 0.0) == math.inf
        assert LOG_LOSS.neg_derivative(Sample(0.5, 0.0), 1.0) == -math.inf
        # mixed-label composite still gets the dominating term's sign
        assert LOG_LOSS.neg_derivative(Sample(0.5, 0.5, 2.0), 0.0) == math.inf
        assert LOG_LOSS.neg_derivative(Sample(0.5, 0.5, 2.0), 1.0) == -math.inf

    def test_loss_reporting_is_finite_at_the_boundary(self):
        # Fitted values legitimately reach 0 and 1; reported loss clamps.
        assert math.isfinite(LOG_LOSS.loss(Sample(0.5, 1.0), 1.0))
        assert math.isfinite(LOG_LOSS.loss(Sample(0.5, 1.0), 0.0))
        assert LOG_LOSS.loss(Sample(0.5, 1.0), 1.0) == pytest.approx(0.0, abs=1e-11)


class TestNegDerivative:
    def test_zero_at_minimizer(self):
        oracle = DerivativeOracle([Sample(1.0, 44.0)], WEIGHTED_SQUARE)
        assert oracle.neg_derivative_at(0, 0, 44.0) == 0.0

    def test_two_sample_group_at_zero(self):
        group = [Sample(1.0, 44.0), Sample(2.0, 52.0)]
        assert DerivativeOracle(group, WEIGHTED_SQUARE).neg_derivative_at(0, 1, 0.0) == 192.0
        # independent check: central finite difference of the summed loss
        h = 1e-6
        loss = lambda z: sum(WEIGHTED_SQUARE.loss(s, z) for s in group)
        fd = -(loss(h) - loss(-h)) / (2 * h)
        assert fd == pytest.approx(192.0, rel=1e-6)

    def test_above_minimizer_is_negative(self):
        group = [Sample(1.0, 44.0)]
        assert DerivativeOracle(group, WEIGHTED_SQUARE).neg_derivative_at(0, 0, 64.0) == -40.0
        h = 1e-6
        fd = -(WEIGHTED_SQUARE.loss(group[0], 64 + h) - WEIGHTED_SQUARE.loss(group[0], 64 - h)) / (2 * h)
        assert fd == pytest.approx(-40.0, rel=1e-6)

    @pytest.mark.parametrize(
        "family, sample, zs",
        [
            # z == target gives -2w * 0.0 == -0.0; fsum sets the sign of a
            # zero sum by its own rule.
            (WEIGHTED_SQUARE, Sample(1.0, 44.0, 2.5), (44.0, 0.0, 64.0, -1e300, 1e-300, 44.1)),
            (WEIGHTED_SQUARE, Sample(1.0, -3.0), (-3.0, 0.0, -3.0000000000000004)),
            # z = 0 and z = 1 read the one-sided limits, +inf and -inf.
            (LOG_LOSS, Sample(0.5, 1.0), (0.0, 1.0, 0.5, 1e-300, 0.9999999999999999)),
            (LOG_LOSS, Sample(0.5, 0.0, 3.0), (0.0, 1.0, 0.5, 1e-300, 0.9999999999999999)),
            (LOG_LOSS, Sample(0.5, 0.25, 4.0), (0.0, 1.0, 0.25, 0.5)),
        ],
        ids=["square", "square-negative", "log-label-1", "log-label-0", "log-tied"],
    )
    def test_one_sample_shortcut_matches_fsum_bits(self, family, sample, zs):
        # A one-sample group skips the fsum; its result must be the fsum's bits.
        oracle = DerivativeOracle([Sample(0.0, 7.0), sample], family)
        for z in zs:
            got = oracle.neg_derivative_at(1, 1, z)
            want = math.fsum([family.neg_derivative(sample, z)])
            assert struct.pack("<d", got) == struct.pack("<d", want), (z, got, want)
        if family is LOG_LOSS and sample.target in (0.0, 1.0):
            limits = (oracle.neg_derivative_at(1, 1, 0.0), oracle.neg_derivative_at(1, 1, 1.0))
            assert limits == ((-3.0, -math.inf) if sample.target == 0.0 else (math.inf, 1.0))

    @pytest.mark.parametrize("family,z_lo,z_hi", [(WEIGHTED_SQUARE, -50.0, 150.0), (LOG_LOSS, 0.05, 0.95)])
    def test_matches_finite_differences(self, family, z_lo, z_hi):
        rng = random.Random(5)
        for _ in range(40):
            n = rng.randint(1, 6)
            if family is LOG_LOSS:
                group = [Sample(rng.random(), float(rng.randint(0, 1)), 0.5 + rng.random())
                         for _ in range(n)]
            else:
                group = [Sample(float(i), rng.uniform(0, 100), 0.5 + rng.random())
                         for i in range(n)]
            oracle = DerivativeOracle(group, family)
            z = rng.uniform(z_lo, z_hi)
            h = 1e-6 * max(1.0, abs(z))
            loss = lambda v: math.fsum(family.loss(s, v) for s in group)
            fd = -(loss(z + h) - loss(z - h)) / (2 * h)
            exact = oracle.neg_derivative_at(0, n - 1, z)
            assert fd == pytest.approx(exact, rel=1e-6, abs=1e-6)

    @pytest.mark.parametrize("family,z_lo,z_hi", [(WEIGHTED_SQUARE, -50.0, 150.0), (LOG_LOSS, 0.01, 0.99)])
    def test_strictly_decreasing_in_z(self, family, z_lo, z_hi):
        rng = random.Random(6)
        for _ in range(40):
            if family is LOG_LOSS:
                group = [Sample(rng.random(), float(rng.randint(0, 1)), 0.5 + rng.random())
                         for _ in range(3)]
            else:
                group = [Sample(float(i), rng.uniform(0, 100), 0.5 + rng.random())
                         for i in range(3)]
            oracle = DerivativeOracle(group, family)
            z1 = rng.uniform(z_lo, z_hi)
            z2 = rng.uniform(z_lo, z_hi)
            z1, z2 = min(z1, z2), max(z1, z2)
            if z1 == z2:
                continue
            assert oracle.neg_derivative_at(0, 2, z1) > oracle.neg_derivative_at(0, 2, z2)

    def test_zero_crossing_equals_merge_minimizer(self):
        # Connects the merge-rule world to the derivative world.
        rng = random.Random(7)
        for _ in range(30):
            n = rng.randint(2, 8)
            group = [Sample(float(i), rng.uniform(0, 100), 0.5 + 2 * rng.random())
                     for i in range(n)]
            y, lam = WEIGHTED_SQUARE.minimizer_of(group[0]), WEIGHTED_SQUARE.init_aux(group[0])
            for s in group[1:]:
                y, lam = weighted_square_merge(y, lam, s.target, s.weight)
            oracle = DerivativeOracle(group, WEIGHTED_SQUARE)
            lo, hi = -10.0, 110.0
            for _ in range(60):
                mid = 0.5 * (lo + hi)
                if oracle.neg_derivative_at(0, n - 1, mid) >= 0:
                    lo = mid
                else:
                    hi = mid
            assert 0.5 * (lo + hi) == pytest.approx(y, abs=1e-9)


class _Alias:
    """Calls ``f`` and compares and hashes equal to it, but is not ``f``."""

    def __init__(self, f):
        self.f = f

    def __call__(self, *args):
        return self.f(*args)

    def __eq__(self, other):
        return other == self.f

    def __hash__(self):
        return hash(self.f)


def _aliased(family):
    """An equal copy of ``family`` whose derivative no identity test recognises."""
    copy = LossFamily(family.name, family.loss, family.minimizer_of, family.init_aux,
                      family.merge, _Alias(family.neg_derivative), family.combine_ties)
    assert copy == family and copy.neg_derivative is not family.neg_derivative
    return copy


def _oracle_outcome(oracle, first, last, z):
    """``oracle``'s bits and zero sign, or the failure text the anytime solver gives for it."""
    try:
        d = oracle.neg_derivative_at(first, last, z)
    except (ValueError, OverflowError) as exc:
        return f"derivative oracle failed at z={z!r} for samples [{first}, {last}]: {exc}"
    if d != d:
        return f"derivative oracle returned NaN at z={z!r} for samples [{first}, {last}]"
    return struct.pack("<d", d), math.copysign(1.0, d)


def _probe_outcome(probe, first, last, z):
    """A checked probe's bits and zero sign, or its ``OracleFailure`` text."""
    try:
        d = probe(first, last, z)
    except OracleFailure as exc:
        return str(exc)
    return struct.pack("<d", d), math.copysign(1.0, d)


def _run_outcome(problem, config):
    try:
        return anytime_run(problem, config)
    except (CalibrationError, OverflowError) as exc:
        # OverflowError: the total loss's fsum, past the float range.
        return type(exc), str(exc)


def _bits(x):
    return x if x is None else struct.pack("<d", x)


# Extreme magnitudes: targets to 1e300, weights to 1e308 (so -2.0 * w
# overflows to -inf), and fractional log-loss labels, as tie folds leave them.
_SQUARE_TARGETS = st.one_of(st.sampled_from([1e300, -1e300, 0.0, -0.0, 0.1, 1 / 3, 2.5]),
                            st.floats(-1e300, 1e300))
_LABELS = st.one_of(st.sampled_from([0.0, 1.0, 0.5, 0.25]), st.floats(0.0, 1.0))
_WEIGHTS = st.one_of(st.sampled_from([1e308, 1.7976931348623157e308, 1.0, 0.5, 3.0]),
                     st.floats(1e-300, 1e308))


@st.composite
def _probe_cases(draw):
    family = draw(st.sampled_from([WEIGHTED_SQUARE, LOG_LOSS]))
    n = draw(st.integers(1, 8))
    targets = draw(st.lists(_LABELS if family is LOG_LOSS else _SQUARE_TARGETS,
                            min_size=n, max_size=n))
    weights = draw(st.lists(_WEIGHTS, min_size=n, max_size=n))
    points = st.floats(0.0, 1.0) if family is LOG_LOSS else st.floats(allow_nan=False)
    # A probe exactly at a target makes that sample's term zero (or NaN).
    zs = st.one_of(st.sampled_from(targets), st.sampled_from([0.0, -0.0]), points)
    ranges = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).map(sorted)
    probes = draw(st.lists(st.tuples(ranges, zs), min_size=1, max_size=12))
    return family, targets, weights, probes


class TestColumnProbe:
    """The anytime probe reads the built-ins' columns, to ``DerivativeOracle``'s bits."""

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(_probe_cases())
    def test_probe_is_the_oracle_bit_for_bit(self, case):
        family, targets, weights, probes = case
        columns = [[float(i) for i in range(len(targets))], targets, weights]
        problem = _normalize(columns, family)
        reference = normalize(map(Sample, *columns), family)
        probe = _derivative_probe(problem)
        oracle = DerivativeOracle(reference.samples, family)
        for (first, last), z in probes:
            want = _oracle_outcome(oracle, first, last, z)
            assert _probe_outcome(probe, first, last, z) == want, (first, last, z)
        assert "samples" not in vars(problem)
        assert problem == reference  # the same rows; == reads problem.samples

    @settings(max_examples=120, derandomize=True, deadline=None)
    @given(_probe_cases())
    def test_anytime_run_is_the_oracle_run(self, case):
        family, targets, weights, _ = case
        columns = [[float(i) for i in range(len(targets))], targets, weights]
        problem = _normalize(columns, family)
        copy = _normalize(columns, _aliased(family))
        lower, upper = min(targets), max(targets)
        if lower == upper:
            upper = math.nextafter(upper, math.inf)
        config = AnytimeConfig(init_upper=upper, init_lower=lower, max_iters=60)
        got, want = _run_outcome(problem, config), _run_outcome(copy, config)
        assert got == want
        if isinstance(got, tuple):
            return
        assert repr(got) == repr(want)
        got_bits, want_bits = ([_bits(g.neg_deriv) for g in r.groups] for r in (got, want))
        assert got_bits == want_bits
        assert "samples" not in vars(problem) and "samples" in vars(copy)

    def test_one_sample_nan_is_named(self):
        # -2.0 * 1e308 is -inf, and -inf * (0.5 - 0.5) is NaN: no fast return.
        problem = _normalize([[1.0, 2.0], [0.5, 0.0], [1e308, 1.0]], WEIGHTED_SQUARE)
        with pytest.raises(OracleFailure) as info:
            _derivative_probe(problem)(0, 0, 0.5)
        assert str(info.value) == "derivative oracle returned NaN at z=0.5 for samples [0, 0]"


def _cubic_loss(sample, z):
    # A custom family's terms may have either sign.
    return sample.weight * (z - sample.target) ** 3


_CUBIC = LossFamily("cubic", loss=_cubic_loss)


@st.composite
def _one_sample_partitions(draw):
    """A family, target and weight columns, and per-sample values with a run of equal bits."""
    family = draw(st.sampled_from([WEIGHTED_SQUARE, LOG_LOSS, _CUBIC]))
    n = draw(st.integers(2, 10))
    values = _LABELS if family is LOG_LOSS else _SQUARE_TARGETS
    targets = draw(st.lists(st.one_of(st.just(-0.0), values), min_size=n, max_size=n))
    weights = draw(st.lists(_WEIGHTS, min_size=n, max_size=n))
    ys = draw(st.lists(st.one_of(st.sampled_from([*targets, 0.0, -0.0]), values),
                       min_size=n, max_size=n))
    k = draw(st.integers(0, n - 2))
    ys[k + 1] = ys[k]
    return family, targets, weights, ys


def _loss_outcome(problem, firsts, ys):
    try:
        return _bits(_partition_loss(problem, firsts, ys))
    except (ValueError, OverflowError) as exc:
        # math.fsum's errors: terms of +inf and -inf, or an exact sum past the float range.
        return type(exc), str(exc)


class TestPartitionLoss:
    """A partition's total loss reads one-sample blocks' values as they are, to the same bits."""

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(_one_sample_partitions())
    def test_one_sample_blocks_match_the_expanded_values(self, case):
        family, targets, weights, ys = case
        n = len(ys)
        problem = _normalize([[float(i) for i in range(n)], targets, weights], family)
        # Each run of equal bits as one block: the same value per sample from fewer blocks.
        firsts, joined = zip(*((k, y) for k, y in enumerate(ys)
                               if not k or _bits(y) != _bits(ys[k - 1])))
        assert len(joined) < n
        one_sample = _loss_outcome(problem, list(range(n)), ys)
        assert one_sample == _loss_outcome(problem, list(firsts), list(joined))
        if family is not _CUBIC:
            # Built-in terms are nonnegative: a sum past the float range is inf.
            assert isinstance(one_sample, bytes)

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(_one_sample_partitions().filter(lambda case: case[0] is not _CUBIC))
    # w * (d * d) rounds differently in the first, and overflows in the second.
    @example((WEIGHTED_SQUARE, [0.1, 2.5], [3.0, 0.1], [0.7, 1 / 3]))
    @example((WEIGHTED_SQUARE, [0.0], [1e-300], [1e300]))
    def test_builtin_columns_give_the_family_loss_bits(self, case):
        # A built-in's terms come from its columns; a custom family wrapping
        # its ``loss`` sums that function per Sample.
        family, targets, weights, ys = case
        columns = [[float(i) for i in range(len(ys))], targets, weights]
        per_sample = LossFamily("per-sample", loss=lambda sample, z: family.loss(sample, z))
        firsts = list(range(len(ys)))
        want = _loss_outcome(_normalize(columns, per_sample), firsts, ys)
        if want == (OverflowError, "intermediate overflow in fsum"):
            want = _bits(math.inf)
        assert _loss_outcome(_normalize(columns, family), firsts, ys) == want

    def test_builtin_sum_past_the_float_range_is_inf(self):
        # Each term is 1e300 * 1e4 ** 2 = 1e308, so fsum's exact sum is no float.
        columns = [[1.0, 2.0], [1e4, -1e4], [1e300, 1e300]]
        custom = LossFamily("custom", loss=lambda sample, z: WEIGHTED_SQUARE.loss(sample, z))
        for firsts, ys in (([0, 1], [0.0, 0.0]), ([0], [0.0])):
            assert _partition_loss(_normalize(columns, WEIGHTED_SQUARE), firsts, ys) == math.inf
            with pytest.raises(OverflowError, match="^intermediate overflow in fsum$"):
                _partition_loss(_normalize(columns, custom), firsts, ys)


def _random_columns(seed, n):
    """Score-sorted columns with repeated scores, labels in [0, 1] and weights in (0, 3]."""
    rng = random.Random(seed)
    scores = sorted(float(rng.randrange(n)) for _ in range(n))
    return [scores, [rng.choice([0.0, 1.0, rng.random()]) for _ in range(n)],
            [3.0 * (1.0 - rng.random()) for _ in range(n)]]


class TestColumnForms:
    """A built-in part reads the columns; any other, an equal alias too, reads ``Sample``s."""

    @pytest.mark.parametrize("part", ["loss", "minimizer_of", "init_aux", "neg_derivative"])
    @pytest.mark.parametrize("family", [WEIGHTED_SQUARE, LOG_LOSS], ids=["square", "logloss"])
    def test_an_aliased_part_takes_the_sample_path(self, family, part):
        alias = dataclasses.replace(family, **{part: _Alias(getattr(family, part))})
        assert alias == family and getattr(alias, part) is not getattr(family, part)
        columns = _random_columns(7, 40)
        builtin, aliased = _normalize(columns, family), _normalize(columns, alias)
        config = AnytimeConfig(init_upper=1.0, init_lower=0.0, max_iters=40)
        for run in (fit_stack, lambda problem: anytime_run(problem, config)):
            assert repr(run(aliased)) == repr(run(builtin))
        assert "samples" in vars(aliased) and "samples" not in vars(builtin)

    def test_a_custom_merge_keeps_the_builtin_columns(self):
        # The merge is no built-in's, so the generic pooling loop calls it;
        # the loss and merge inputs are still read from the columns.
        def merge(y_i, lam_i, y_j, lam_j):
            return weighted_square_merge(y_i, lam_i, y_j, lam_j)

        mixed = dataclasses.replace(WEIGHTED_SQUARE, name="mixed", merge=merge)
        for seed in range(5):
            columns = _random_columns(seed, 300)
            columns[1] = [100.0 * t for t in columns[1]]
            problem = _normalize(columns, mixed)
            got, want = fit_stack(problem), fit_stack(_normalize(columns, WEIGHTED_SQUARE))
            assert "samples" not in vars(problem)
            assert got.merge_count > 0 and repr(got) == repr(want)


_OUT_OF_RANGE = "^family 'logloss' takes targets in \\[0, 1\\], got {} at score {}$"


def _log_fits(problem):
    """Every solver's fitted values and total loss on ``problem``: ``(values, loss)`` pairs."""
    upper, lower = _minimizer_bracket(problem)
    for report in (fit_stack(problem), fit_direct(problem)):
        yield [b.minimizer for b in report.blocks], report.total_loss
    try:
        result = anytime_run(problem, AnytimeConfig(init_upper=upper, init_lower=lower))
    except OracleFailure:  # +inf and -inf derivative terms in one group
        return
    yield result.staircase.values, result.total_loss


class TestTargetDomain:
    """Log-loss targets lie in [0, 1]: every library entry raises ``InvalidLabel`` outside."""

    # fit_stack of these rows once fitted -1/3 with a total log loss of -27.6.
    ROWS = [Sample(1.0, 5.0), Sample(2.0, -3.0, 2.0)]

    def test_each_entry_names_the_first_score_out_of_range(self):
        columns = [[s.score for s in self.ROWS], [s.target for s in self.ROWS],
                   [s.weight for s in self.ROWS]]
        message = _OUT_OF_RANGE.format("5\\.0", "1\\.0")
        for entry in (lambda: normalize(self.ROWS, LOG_LOSS),
                      lambda: _normalize(columns, LOG_LOSS),
                      lambda: Problem(self.ROWS, LOG_LOSS),
                      lambda: OnlineState(LOG_LOSS).push(self.ROWS[0])):
            with pytest.raises(InvalidLabel, match=message):
                entry()
        state = OnlineState(LOG_LOSS)
        state.push(Sample(0.5, 1.0))
        with pytest.raises(InvalidLabel, match=_OUT_OF_RANGE.format("-3\\.0", "2\\.0")):
            state.push(self.ROWS[1])
        assert state.values == (1.0,)

    def test_out_of_range_ties_raise_before_the_fold(self):
        # Their weighted mean, 0.5, is in range: the raw targets are checked.
        ties = [Sample(1.0, 2.0), Sample(1.0, -1.0)]
        for entry in (lambda: normalize(ties, LOG_LOSS),
                      lambda: _normalize([[1.0, 1.0], [2.0, -1.0], [1.0, 1.0]], LOG_LOSS)):
            with pytest.raises(InvalidLabel, match=_OUT_OF_RANGE.format("2\\.0", "1\\.0")):
                entry()

    def test_square_loss_and_custom_losses_take_any_finite_target(self):
        custom = LossFamily("custom", loss=lambda sample, z: LOG_LOSS.loss(sample, z))
        for family in (WEIGHTED_SQUARE, custom):
            assert normalize(self.ROWS, family).targets == (5.0, -3.0)
        OnlineState(WEIGHTED_SQUARE).push(self.ROWS[0])

    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 6),
                              st.one_of(st.sampled_from([0.0, 1.0, 0.5, -0.0, -5e-324,
                                                         1.0000000000000002]),
                                        st.floats(-0.5, 1.5)),
                              _WEIGHTS),
                    min_size=1, max_size=10))
    def test_accepted_problems_fit_in_range_with_nonnegative_loss(self, rows):
        samples = [Sample(float(score), target, weight) for score, target, weight in rows]
        in_range = all(0.0 <= s.target <= 1.0 for s in samples)
        try:
            problem = normalize(samples, LOG_LOSS)
        except InvalidLabel:
            assert not in_range
            return
        except InvalidWeight:  # tied weights summed past the float range
            assert in_range
            return
        assert in_range
        try:
            fits = list(_log_fits(problem))
            state = OnlineState(LOG_LOSS)
            for sample in sorted(samples, key=lambda s: s.score):
                state.push(sample)
        except InvalidWeight:  # pooled weights summed past the float range
            assert sum(problem.weights) == math.inf
            return
        for values, loss in fits:
            assert all(0.0 <= v <= 1.0 for v in values), values
            assert loss >= 0.0, loss
        assert all(0.0 <= v <= 1.0 for v in state.values)


class TestFamilyPlumbing:
    def test_builtins_support_both_interfaces(self):
        for family in (WEIGHTED_SQUARE, LOG_LOSS):
            family.require(
                "minimizer_of", "init_aux", "merge", "neg_derivative", "combine_ties"
            )

    def test_custom_family_without_derivative_rejected_by_oracle(self):
        family = LossFamily(name="absish", loss=lambda s, z: abs(z - s.target) ** 1.5)
        with pytest.raises(InvalidConfig, match="family 'absish' has no minimizer_of, merge$"):
            family.require("minimizer_of", "merge")
        with pytest.raises(InvalidConfig, match="family 'absish' has no neg_derivative$"):
            DerivativeOracle([Sample(0.0, 1.0)], family)

    def test_custom_family_with_derivative_works(self):
        family = LossFamily(
            name="quartic",
            loss=lambda s, z: s.weight * (z - s.target) ** 4,
            neg_derivative=lambda s, z: -4.0 * s.weight * (z - s.target) ** 3,
        )
        oracle = DerivativeOracle([Sample(0.0, 2.0, 1.0)], family)
        assert oracle.neg_derivative_at(0, 0, 2.0) == 0.0
        assert oracle.neg_derivative_at(0, 0, 3.0) == -4.0

    @pytest.mark.parametrize("family", [WEIGHTED_SQUARE, LOG_LOSS], ids=["square", "logloss"])
    def test_builtins_survive_pickle_and_deepcopy(self, family):
        assert pickle.loads(pickle.dumps(family)) == family == copy.deepcopy(family)
        problem = Problem([Sample(0.0, 1.0), Sample(1.0, 0.0)], family)
        twin = copy.deepcopy(problem)
        assert twin == problem
        if family == WEIGHTED_SQUARE:
            assert brute_force_fit(twin).best_values == (0.5, 0.5)
        # A built-in's merge inputs come from the columns, so a target column
        # the samples disagree with shows which one the solver read.
        object.__setattr__(twin, "targets", (0.0, 1.0))
        assert [b.minimizer for b in fit_stack(twin).blocks] == [0.0, 1.0]


_TWO_SAMPLES = (Sample(0.0, 2.0), Sample(1.0, 1.0))
_ENTRY_POINTS = {
    "normalize": lambda family: normalize([Sample(0.0, 1.0), Sample(0.0, 2.0)], family),
    "fit_stack": lambda family: fit_stack(Problem(_TWO_SAMPLES, family)),
    "fit_direct": lambda family: fit_direct(Problem(_TWO_SAMPLES, family)),
    "OnlineState": OnlineState,
    "DerivativeOracle": lambda family: DerivativeOracle(_TWO_SAMPLES, family),
    "anytime_run": lambda family: anytime_run(Problem(_TWO_SAMPLES, family), AnytimeConfig()),
}


@pytest.mark.parametrize(
    "entry, rule",
    [
        ("normalize", "combine_ties"),
        *((entry, rule) for entry in ("fit_stack", "fit_direct", "OnlineState")
          for rule in ("minimizer_of", "init_aux", "merge")),
        ("DerivativeOracle", "neg_derivative"),
        ("anytime_run", "neg_derivative"),
    ],
)
def test_entry_point_requires_its_rules(entry, rule):
    # Every other part is present, so only the one check can stop the call.
    family = dataclasses.replace(WEIGHTED_SQUARE, name="partial", **{rule: None})
    with pytest.raises(InvalidConfig, match=f"^family 'partial' has no {rule}$"):
        _ENTRY_POINTS[entry](family)
