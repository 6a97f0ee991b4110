import contextlib
from bisect import bisect_right
import csv
import dataclasses
import io
import json
import math
import os
import random
import subprocess
import sys
import tempfile
import tracemalloc
import weakref
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from monocal import (
    AnytimeConfig,
    LOG_LOSS,
    OnlineState,
    Problem,
    Sample,
    Staircase,
    WEIGHTED_SQUARE,
    anytime_run,
    blocks_to_staircase,
    fit_direct,
    fit_stack,
    normalize,
)
from monocal import _model_commands, anytime, cli, core, pav_offline, problem
from monocal._model_commands import model_from_dict
from monocal.cli import main
from monocal.errors import CalibrationError
from monocal.problem import _minimizer_bracket

from conftest import GOLDEN_SIZES, GOLDEN_TARGETS, golden_samples


def write_training_csv(path, rows, header="score,target"):
    lines = [header]
    lines.extend(",".join(str(v) for v in row) for row in rows)
    path.write_text("\n".join(lines) + "\n")
    return str(path)


@pytest.fixture
def golden_csv(tmp_path):
    rows = [(i + 1, t) for i, t in enumerate(GOLDEN_TARGETS)]
    return write_training_csv(tmp_path / "train.csv", rows)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class WriteLog(io.StringIO):
    """A text stream that keeps each write; ``before_first()`` runs before the first."""

    def __init__(self, before_first=lambda: None):
        super().__init__()
        self.writes = []
        self.before_first = before_first

    def write(self, text):
        if not self.writes:
            self.before_first()
        self.writes.append(text)
        return super().write(text)


@pytest.mark.parametrize("command", ["fit", "stream"])
@pytest.mark.parametrize(
    "bad_row, loss",
    [
        ("nan,1,1", "square"),
        ("2,inf,1", "square"),
        ("2,1,0", "square"),
        ("2,0.5,1", "logloss"),
    ],
)
def test_invalid_row_reports_row_number(tmp_path, capsys, command, bad_row, loss):
    path = tmp_path / "bad.csv"
    path.write_text(f"score,target,weight\n1,0,1\n{bad_row}\n")
    code, _, stderr = run(capsys, command, str(path), "--loss", loss, "--quiet")
    assert code == 2
    assert "row 3:" in stderr


# Each layout holds the rows of CANONICAL_CSV; every reader must see the same data.
CANONICAL_CSV = "score,target,weight\n1,10,1\n2,30,2\n3,20,1\n"


@pytest.mark.parametrize("command", ["fit", "stream"])
@pytest.mark.parametrize(
    "text",
    [
        "target,weight,score\n10,1,1\n30,2,2\n20,1,3\n",
        "id,score,target,note,weight\na,1,10,x,1\nb,2,30,y,2\nc,3,20,z,1\n",
        "score,target,weight\n1,10,1\n\n2,30,2\n\n3,20,1\n",
        "score,target,weight\n1,10\n2,30,2\n3,20,\n",
        '"score","target","weight"\n"1","10",1\n2,"30","2"\n"3",20,"1"\n',
    ],
    ids=["reordered", "extra-columns", "blank-lines", "short-rows", "quoted"],
)
def test_training_csv_layouts_read_alike(tmp_path, capsys, command, text):
    canonical = tmp_path / "canonical.csv"
    canonical.write_text(CANONICAL_CSV)
    variant = tmp_path / "variant.csv"
    variant.write_text(text)
    want = run(capsys, command, str(canonical))
    assert want[0] == 0
    assert run(capsys, command, str(variant)) == want


def test_apply_csv_layouts_read_alike(tmp_path, capsys):
    model = tmp_path / "model.json"
    model.write_text(json.dumps({"version": 1, "family": "square", "breakpoints": [1.5],
                                 "values": [10.0, 25.0], "metadata": {}}))
    canonical = tmp_path / "canonical.csv"
    canonical.write_text("score\n1\n2\n")
    want = run(capsys, "apply", str(model), str(canonical))
    assert want == (0, "score,calibrated\n1.0,10.0\n2.0,25.0\n", "")
    for text in ("id,score\na,1\nb,2\n", "score\n1\n\n2\n", '"score"\n"1"\n2\n'):
        variant = tmp_path / "variant.csv"
        variant.write_text(text)
        assert run(capsys, "apply", str(model), str(variant)) == want


def test_blank_lines_count_toward_row_numbers(tmp_path, capsys):
    path = tmp_path / "bad.csv"
    path.write_text("score,target\n1,44\n\nnope,52\n")
    code, _, stderr = run(capsys, "fit", str(path), "--quiet")
    assert code == 2
    assert "row 4:" in stderr


@pytest.mark.parametrize(
    "command, code, stdout",
    [("fit", 2, ""), ("stream", 2, "n,steps,merges,values\n"), ("apply", 0, "score,calibrated\n")],
)
def test_header_only_csv(golden_csv, tmp_path, capsys, command, code, stdout):
    path = tmp_path / "empty.csv"
    path.write_text("score,target\n")
    model = tmp_path / "model.json"
    assert run(capsys, "fit", golden_csv, "--out", str(model), "--quiet")[0] == 0
    argv = ["apply", str(model), str(path)] if command == "apply" else [command, str(path)]
    assert run(capsys, *argv)[:2] == (code, stdout)


@pytest.mark.parametrize("command", ["fit", "stream", "apply"])
@pytest.mark.parametrize(
    "data",
    [
        "score,target,caf\xe9\n1,2,3\n".encode("latin-1"),
        "score,target\n1,2\n2,3,caf\xe9\n".encode("latin-1"),
        ("score,target\n1,2\n2," + "3" * 131_073 + "\n").encode(),
    ],
    ids=["latin1-header", "latin1-row", "oversized-field"],
)
def test_unreadable_csv_exits_2(golden_csv, tmp_path, capsys, command, data):
    path = tmp_path / "bad.csv"
    path.write_bytes(data)
    model = tmp_path / "model.json"
    assert run(capsys, "fit", golden_csv, "--out", str(model), "--quiet")[0] == 0
    argv = ["apply", str(model), str(path)] if command == "apply" else [command, str(path)]
    code, _, stderr = run(capsys, *argv)
    assert code == 2
    assert stderr.startswith("monocal: ") and "Traceback" not in stderr


@pytest.mark.parametrize("command", ["fit", "stream", "apply"])
def test_max_n_cap(golden_csv, tmp_path, capsys, monkeypatch, command):
    model = tmp_path / "model.json"
    assert run(capsys, "fit", golden_csv, "--out", str(model), "--quiet")[0] == 0
    argv = ["apply", str(model), golden_csv] if command == "apply" else [command, golden_csv]
    monkeypatch.setenv("MONOCAL_MAX_N", "5")
    code, _, stderr = run(capsys, *argv)
    assert code == 2
    assert "MONOCAL_MAX_N" in stderr
    monkeypatch.setenv("MONOCAL_MAX_N", "100")
    assert run(capsys, *argv)[0] == 0
    monkeypatch.setenv("MONOCAL_MAX_N", "abc")
    assert run(capsys, *argv) == (2, "", "monocal: MONOCAL_MAX_N must be an integer, got 'abc'\n")


class TestFit:
    def test_stack_fit_writes_model(self, golden_csv, tmp_path, capsys):
        out = tmp_path / "model.json"
        code, stdout, stderr = run(capsys, "fit", golden_csv, "--out", str(out))
        assert code == 0
        assert stdout == ""
        assert "4 steps" in stderr
        doc = json.loads(out.read_text())
        assert doc["values"] == [32.0, 47.0, 55.0, 69.0]
        assert doc["breakpoints"] == [4.5, 9.5, 14.5]
        assert doc["family"] == "square"
        assert doc["metadata"]["merge_count"] == 11
        assert doc["metadata"]["solver"] == "stack"

    def test_unwritable_out_exits_2(self, golden_csv, tmp_path, capsys, monkeypatch):
        # The path is checked before the input is read, so no fit runs.
        def refuse(*args):
            raise AssertionError("fit read its input before checking --out")

        monkeypatch.setattr(problem, "_normalize", refuse)
        out = tmp_path / "missing-dir" / "m.json"
        argv = ("fit", golden_csv, "--solver", "anytime", "--out", str(out))
        code, stdout, stderr = run(capsys, *argv)
        assert (code, stdout) == (2, "")
        assert stderr.startswith(f"monocal: cannot write {out}: ")
        assert stderr.count("\n") == 1 and "Traceback" not in stderr
        assert not out.exists()

    def test_empty_out_path_exits_2_and_writes_nothing(self, golden_csv, capsys):
        # An empty --out is a path that cannot be opened, not a missing --out.
        code, stdout, stderr = run(capsys, "fit", golden_csv, "--out", "")
        assert (code, stdout) == (2, "")
        assert stderr.startswith("monocal: cannot write : ")
        assert stderr.count("\n") == 1 and "Traceback" not in stderr

    def test_failed_fit_changes_no_out_file(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text("score,target\n1,44\nnope,52\n")
        kept, absent = tmp_path / "kept.json", tmp_path / "absent.json"
        kept.write_bytes(b'{"old": "model"}\n')
        for out in (kept, absent):
            code, _, stderr = run(capsys, "fit", str(path), "--out", str(out), "--quiet")
            assert code == 2 and "row 3" in stderr
        assert kept.read_bytes() == b'{"old": "model"}\n'
        assert not absent.exists()

    def test_out_file_holds_the_stdout_bytes(self, golden_csv, tmp_path, capsys):
        code, stdout, _ = run(capsys, "fit", golden_csv, "--quiet")
        assert code == 0
        out_dir = tmp_path / "models"
        out_dir.mkdir()
        out = out_dir / "m.json"
        for previous in (None, "x" * 10_000):
            if previous is not None:
                out.write_text(previous)
            assert run(capsys, "fit", golden_csv, "--out", str(out), "--quiet")[0] == 0
            assert out.read_text() == stdout
            assert [p.name for p in out_dir.iterdir()] == ["m.json"]

    def test_stdout_mode_and_quiet(self, golden_csv, capsys):
        code, stdout, stderr = run(capsys, "fit", golden_csv, "--quiet")
        assert code == 0
        assert stderr == ""
        assert json.loads(stdout)["values"] == [32.0, 47.0, 55.0, 69.0]

    def test_direct_and_stack_models_identical(self, golden_csv, tmp_path, capsys):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert run(capsys, "fit", golden_csv, "--solver", "direct", "--out", str(a), "--quiet")[0] == 0
        assert run(capsys, "fit", golden_csv, "--solver", "stack", "--out", str(b), "--quiet")[0] == 0
        a_doc, b_doc = json.loads(a.read_text()), json.loads(b.read_text())
        a_doc["metadata"].pop("solver")
        b_doc["metadata"].pop("solver")
        assert a_doc == b_doc

    def test_direct_and_stack_agree_on_random_floats(self, tmp_path, capsys):
        rng = random.Random(71)
        rows = [(i + rng.random(), rng.uniform(0, 100), 0.5 + rng.random()) for i in range(30)]
        path = write_training_csv(tmp_path / "r.csv", rows, header="score,target,weight")
        docs = []
        for solver in ("direct", "stack"):
            out = tmp_path / f"{solver}.json"
            assert run(capsys, "fit", path, "--solver", solver, "--out", str(out), "--quiet")[0] == 0
            docs.append(json.loads(out.read_text()))
        assert len(docs[0]["values"]) == len(docs[1]["values"])
        for x, y in zip(docs[0]["values"], docs[1]["values"]):
            assert abs(x - y) <= 1e-12 * max(1.0, abs(x))
        assert docs[0]["breakpoints"] == docs[1]["breakpoints"]

    def test_anytime_matches_stack(self, golden_csv, capsys):
        code, stdout, _ = run(
            capsys, "fit", golden_csv, "--solver", "anytime", "--delta", "1e-6", "--quiet"
        )
        assert code == 0
        doc = json.loads(stdout)
        assert doc["metadata"]["solver"] == "anytime"
        assert doc["metadata"]["delta"] == 1e-6
        # The bracket is the target range [1, 96].
        assert doc["metadata"]["rounds"] == math.ceil(math.log2(95 / 1e-6))
        for got, want in zip(doc["values"], (32.0, 47.0, 55.0, 69.0)):
            assert abs(got - want) <= 5e-7

    @pytest.mark.parametrize(
        "rows, loss",
        [
            ([(5, 42)], "square"),
            ([(1, 5), (2, 5), (3, 5, 2.5), (3, 5)], "square"),
            ([(1, -3), (2, -3, 0.5), (4, -3)], "square"),
            ([(1, 0), (2, 0), (2, 0, 3)], "square"),
            ([(0.1, 0), (0.5, 0), (0.9, 0)], "logloss"),
            ([(0.1, 1), (0.5, 1), (0.5, 1), (0.9, 1)], "logloss"),
        ],
        ids=["one-row", "five", "minus-three", "zero", "labels-0", "labels-1"],
    )
    def test_anytime_one_target_value(self, tmp_path, capsys, rows, loss):
        # The target range has no width, so the bracket is widened by a float.
        rows = [(*row, 1)[:3] for row in rows]
        path = write_training_csv(tmp_path / "c.csv", rows, header="score,target,weight")
        code, stdout, _ = run(capsys, "fit", path, "--loss", loss, "--solver", "anytime", "--quiet")
        assert code == 0
        doc = json.loads(stdout)
        meta = doc["metadata"]
        [value] = doc["values"]
        assert abs(value - rows[0][1]) <= meta["width_bound"] / 2
        assert meta["merge_count"] == meta["n_samples"] - 1
        if loss == "logloss":
            assert 0.0 <= value <= 1.0

    def test_anytime_merge_count_is_samples_minus_steps(self, tmp_path, capsys):
        # Tied scores and 0/1 labels: groups whose brackets end equal
        # collapse into one step, so the group count overstates the steps.
        rng = random.Random(73)
        rows = [(s, int(rng.random() < s)) for s in (round(rng.random(), 2) for _ in range(600))]
        path = write_training_csv(tmp_path / "ties.csv", rows)
        code, stdout, stderr = run(capsys, "fit", path, "--loss", "logloss", "--solver", "anytime")
        assert code == 0
        doc = json.loads(stdout)
        meta = doc["metadata"]
        assert meta["merge_count"] == meta["n_samples"] - len(doc["values"])
        assert f"({meta['merge_count']} merges," in stderr

    @pytest.mark.parametrize("shape", ["negative", "wide", "weighted", "tied"])
    def test_anytime_values_within_half_width_of_stack(self, tmp_path, capsys, shape):
        rng = random.Random(f"anytime-{shape}")
        lo, hi = {"negative": (-100.0, -1.0), "wide": (-1e6, 1e6)}.get(shape, (0.0, 100.0))
        rows = [
            (
                rng.randrange(15) if shape == "tied" else rng.uniform(0.0, 50.0),
                rng.uniform(lo, hi),
                3.0 * (1.0 - rng.random()) if shape == "weighted" else 1.0,
            )
            for _ in range(60)
        ]
        path = write_training_csv(tmp_path / "r.csv", rows, header="score,target,weight")
        models = {}
        for solver in ("stack", "anytime"):
            code, stdout, _ = run(capsys, "fit", path, "--solver", solver, "--quiet")
            assert code == 0
            models[solver] = model_from_dict(json.loads(stdout))
        (stack, _, _), (any_, _, meta) = models["stack"], models["anytime"]
        # Both values are rounded floats; allow a few ulps of the largest target.
        slack = meta["width_bound"] / 2 + 16 * math.ulp(max(abs(lo), abs(hi)))
        for score, _, _ in rows:
            assert abs(any_(score) - stack(score)) <= slack

    @pytest.mark.parametrize("shape", ["spread", "one-row"])
    def test_anytime_stops_at_one_float_brackets(self, tmp_path, capsys, shape):
        # At 1e10 the float spacing (1.9e-6) is wider than the default delta.
        # Brackets one float wide cannot shrink, so the fit stops within the
        # documented round bound instead of running all 256 rounds.
        if shape == "one-row":
            rows = [(1, 10000000000.000002)]  # one float above 1e10
        else:
            rng = random.Random(0)
            rows = [(i + rng.random(), rng.uniform(1e10, 2e10)) for i in range(50)]
        path = write_training_csv(tmp_path / "big.csv", rows)
        code, stdout, _ = run(capsys, "fit", path, "--solver", "anytime", "--quiet")
        assert code == 0
        doc = json.loads(stdout)
        meta = doc["metadata"]
        targets = [t for _, t in rows]
        if shape == "one-row":
            # The bracket is the target widened by one float: one round.
            assert meta["rounds"] == 1
            assert doc["values"] == [1e10]
        else:
            assert meta["rounds"] == 53
            assert meta["rounds"] <= math.ceil(math.log2((max(targets) - min(targets)) / 1e-6))
        assert meta["width_bound"] == math.ulp(1e10)

    def test_anytime_error_bound_has_an_ulp_term(self, tmp_path, capsys):
        # The bracket [0.3 - ulp, 0.3] rounds its midpoint onto its lower end.
        path = write_training_csv(tmp_path / "c.csv", [(1, 0.3)])
        code, stdout, _ = run(capsys, "fit", path, "--solver", "anytime", "--quiet")
        assert code == 0
        doc = json.loads(stdout)
        [value], width_bound = doc["values"], doc["metadata"]["width_bound"]
        assert (value, width_bound) == (0.29999999999999993, 5.551115123125783e-17)
        assert width_bound / 2 < 0.3 - value <= width_bound / 2 + math.ulp(value) / 2

    def test_anytime_total_loss_is_library_total_loss(self, tmp_path, capsys):
        # Paired scores tie, so the loss includes a nonzero tie-merge offset.
        rows = [(i // 2, t) for i, t in enumerate(GOLDEN_TARGETS)]
        path = write_training_csv(tmp_path / "ties.csv", rows)
        code, stdout, _ = run(capsys, "fit", path, "--solver", "anytime", "--quiet")
        assert code == 0
        problem = normalize([Sample(float(x), float(t)) for x, t in rows], WEIGHTED_SQUARE)
        targets = [s.target for s in problem.samples]
        config = AnytimeConfig(init_upper=max(targets), init_lower=min(targets))
        expected = anytime_run(problem, config).total_loss
        assert json.loads(stdout)["metadata"]["total_loss"] == expected

    def test_unsorted_input_is_sorted_internally(self, tmp_path, capsys):
        rows = [(3, 30), (1, 10), (2, 40)]
        path = write_training_csv(tmp_path / "shuffled.csv", rows)
        code, stdout, _ = run(capsys, "fit", path, "--quiet")
        assert code == 0
        doc = json.loads(stdout)
        assert doc["values"] == [10.0, 35.0]

    def test_single_row_gives_constant_model(self, tmp_path, capsys):
        path = write_training_csv(tmp_path / "one.csv", [(5, 42)])
        code, stdout, _ = run(capsys, "fit", path, "--quiet")
        assert code == 0
        doc = json.loads(stdout)
        assert doc["values"] == [42.0]
        assert doc["breakpoints"] == []

    def test_logloss_fit(self, tmp_path, capsys):
        rng = random.Random(72)
        rows = [(round(rng.random(), 4), rng.randint(0, 1)) for _ in range(40)]
        path = write_training_csv(tmp_path / "ll.csv", rows)
        code, stdout, _ = run(capsys, "fit", path, "--loss", "logloss", "--quiet")
        assert code == 0
        doc = json.loads(stdout)
        assert doc["family"] == "logloss"
        assert all(0.0 <= v <= 1.0 for v in doc["values"])
        assert doc["metadata"]["total_loss"] >= 0.0

    def test_bad_label_reports_row(self, tmp_path, capsys):
        path = write_training_csv(tmp_path / "bad.csv", [(0.1, 0), (0.2, 0.5)])
        code, _, stderr = run(capsys, "fit", path, "--loss", "logloss", "--quiet")
        assert code == 2
        assert "row 3" in stderr

    def test_malformed_row_reports_row_number(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text("score,target\n1,44\nnope,52\n")
        code, _, stderr = run(capsys, "fit", str(path), "--quiet")
        assert code == 2
        assert "row 3" in stderr

    def test_nonpositive_weight_reports_row_number(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text("score,target,weight\n1,44,1\n2,52,0\n")
        code, _, stderr = run(capsys, "fit", str(path), "--quiet")
        assert code == 2
        assert "row 3" in stderr and "weight" in stderr

    def test_fit_writes_no_model_that_apply_rejects(self, tmp_path, capsys):
        # The pooled mean of these rows is finite, but the float merge
        # overflows; fit must fail loudly or write a model apply accepts.
        path = write_training_csv(
            tmp_path / "train.csv", [(1, 1e300, 1e10), (2, -1e300, 1e10)],
            header="score,target,weight",
        )
        model = tmp_path / "model.json"
        code, _, stderr = run(capsys, "fit", path, "--out", str(model), "--quiet")
        if code != 0:
            assert code == 2 and stderr.startswith("monocal: ")
            assert not model.exists()
            return

        def reject(constant):
            raise ValueError(f"not strict JSON: {constant}")

        json.loads(model.read_text(), parse_constant=reject)
        scores = tmp_path / "s.csv"
        scores.write_text("score\n1\n2\n")
        assert run(capsys, "apply", str(model), str(scores))[0] == 0

    @pytest.mark.parametrize("delta", ["inf", "nan", "0", "-1"])
    def test_delta_that_is_not_positive_and_finite_exits_2(self, golden_csv, capsys, delta):
        code, stdout, stderr = run(capsys, "fit", golden_csv, "--solver", "anytime",
                                   "--delta", delta, "--quiet")
        assert (code, stdout) == (2, "")
        assert stderr == f"monocal: delta must be positive and finite, got {float(delta)!r}\n"

    def test_anytime_flags_rejected_for_other_solvers(self, golden_csv, capsys):
        code, _, stderr = run(capsys, "fit", golden_csv, "--delta", "1e-6", "--quiet")
        assert code == 2
        assert "--delta" in stderr

    def test_bad_bounds_rejected(self, golden_csv, capsys):
        # The bracket is the target range; there is no --bounds option.
        with pytest.raises(SystemExit) as exit_:
            main(["fit", golden_csv, "--solver", "anytime", "--bounds", "0,10", "--quiet"])
        assert exit_.value.code == 2
        assert "unrecognized arguments: --bounds 0,10" in capsys.readouterr().err

    def test_help_shows_the_anytime_defaults(self, capsys):
        with pytest.raises(SystemExit) as exit_:
            main(["fit", "--help"])
        assert exit_.value.code == 0
        text = " ".join(capsys.readouterr().out.split())
        defaults = AnytimeConfig()
        assert f"anytime bracket width target (default {defaults.delta})" in text
        assert f"anytime round cap (default {defaults.max_iters})" in text

    def test_model_text_is_one_line_per_field(self, golden_csv, capsys):
        # README's "Model file" example, byte for byte.
        code, stdout, _ = run(capsys, "fit", golden_csv, "--quiet")
        assert code == 0
        assert stdout == (
            '{\n'
            '  "version": 1,\n'
            '  "family": "square",\n'
            '  "breakpoints": [4.5, 9.5, 14.5],\n'
            '  "values": [32.0, 47.0, 55.0, 69.0],\n'
            '  "metadata": {"solver": "stack", "n_samples": 15, "merge_count": 11, '
            '"total_loss": 13000.0}\n'
            '}\n'
        )

    @pytest.mark.parametrize(
        "rows, breakpoints, values, metadata",
        [
            # 2,000 steps: each breakpoint is halfway between two scores.
            ([(i + 0.5, i / 3, 1) for i in range(2000)],
             [float(i) for i in range(1, 2000)], [i / 3 for i in range(2000)],
             '{"solver": "stack", "n_samples": 2000, "merge_count": 0, "total_loss": 0.0}'),
            # The total loss passes the float range and is written as Infinity.
            ([(1, 1e4, 1e300), (2, -1e4, 1e300)], [], [0.0],
             '{"solver": "stack", "n_samples": 2, "merge_count": 1, "total_loss": Infinity}'),
        ],
        ids=["increasing", "overflow"],
    )
    def test_model_is_never_one_string(self, tmp_path, monkeypatch, rows, breakpoints, values,
                                       metadata):
        # The layout of test_model_text_is_one_line_per_field, written piece by
        # piece: no write holds the whole model, or even a whole field line.
        path = write_training_csv(tmp_path / "train.csv", rows, header="score,target,weight")
        log = WriteLog()
        monkeypatch.setattr(sys, "stdout", log)
        assert main(["fit", path, "--quiet"]) == 0
        lines = [
            '{\n',
            '  "version": 1,\n',
            '  "family": "square",\n',
            f'  "breakpoints": [{", ".join(map(repr, breakpoints))}],\n',
            f'  "values": [{", ".join(map(repr, values))}],\n',
            f'  "metadata": {metadata}\n',
            '}\n',
        ]
        assert "".join(log.writes) == "".join(lines)
        assert len(log.writes) > len(lines)
        assert max(map(len, log.writes)) <= max(map(len, lines))

    @pytest.mark.parametrize("solver", ["stack", "direct", "anytime"])
    @pytest.mark.parametrize("n", [1, 2, 1024, 1025, 1026, 2049])
    def test_model_bytes_at_the_slice_edges(self, tmp_path, capsys, solver, n):
        # Rising targets give one step per row, so stack and direct write
        # n - 1 breakpoints and n values: 0 to 2,048 values on either side of
        # the 1,024-value slices. The rows put -0.0, a subnormal and 1e300
        # among the scores, targets, breakpoints and values.
        exact = solver != "anytime"
        scores = [-1e300, -5e-324, -0.0, 1e-323, *map(float, range(4, n))][:n]
        targets = [-0.0, 5e-324, *(1 + i / 3 for i in range(2, n))][:n]
        if n > 4:
            scores[-1] = 1e300
            if exact:
                # Anytime would need about 1,000 rounds to part the steps.
                targets[-1] = 1e300
        path = write_training_csv(tmp_path / "rising.csv", zip(scores, targets))
        code, stdout, _ = run(capsys, "fit", path, "--solver", solver, "--quiet")
        assert code == 0
        doc = json.loads(stdout)
        # The layout of test_model_text_is_one_line_per_field, each field one
        # json.dumps.
        assert stdout == "".join(["{\n", ",\n".join(
            f"  {json.dumps(key)}: {json.dumps(value)}" for key, value in doc.items()), "\n}\n"])
        values, breakpoints = doc["values"], doc["breakpoints"]
        # Anytime's brackets cannot part -0.0 from 5e-324: one step holds both rows.
        assert len(values) == (n if exact else max(n - 1, 1))
        if exact:
            assert values[:2] == targets[:2]
            assert math.copysign(1.0, values[0]) == -1.0
        if n > 4:
            assert breakpoints[-1] == 5e299
            assert breakpoints[1 if exact else 0:][:2] == [-0.0, 5e-324]
            assert "-0.0, 5e-324" in stdout
            if exact:
                assert (breakpoints[0], values[-1]) == (-5e299, 1e300)

    def test_model_encoding_holds_nothing_per_step(self):
        # A 50,000-step model. Beside the text it returns, which the write
        # needs, _model_pieces may hold one slice's transients only: one-shot
        # json.dumps held a string per value until its join (3.9 MB beyond
        # the text on CPython 3.11), and a string per step of either array
        # would be 2.5 MB. tracemalloc counts every allocation, so the bound
        # holds on any machine.
        n = 50_000
        staircase = Staircase(tuple(i + 0.5 for i in range(n - 1)),
                              tuple(i / 3 for i in range(n)))
        metadata = {"solver": "stack", "n_samples": n, "merge_count": 0, "total_loss": 0.0}

        def traced(encode):
            encode()  # warm: json's encoder and any cached state
            tracemalloc.start()
            try:
                start = tracemalloc.get_traced_memory()[0]
                text = encode()
                held, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            return text, held - start, peak - start

        pieces, held, peak = traced(
            lambda: _model_commands._model_pieces(staircase, "square", metadata))
        one_shot, _, one_shot_peak = traced(
            lambda: json.dumps(_model_commands.model_to_dict(staircase, "square", metadata)))
        assert json.loads("".join(pieces)) == json.loads(one_shot)
        assert peak - held < min(one_shot_peak / 4, 128 * 1024)

    @pytest.mark.parametrize("out", [False, True], ids=["stdout", "out"])
    @pytest.mark.parametrize("solver", ["stack", "direct", "anytime"])
    def test_fit_state_is_released_before_the_model_is_written(
            self, golden_csv, tmp_path, monkeypatch, solver, out):
        # Weak references to the Problem and to every list the solver's list
        # core returns.
        states = []

        class Tracked(list):
            """A list that takes weak references, as a plain list does not."""

        def keep_a_weakref(module, name):
            function = getattr(module, name)

            def call(*args, **kwargs):
                state = function(*args, **kwargs)
                if isinstance(state, tuple):
                    state = tuple(Tracked(item) if type(item) is list else item for item in state)
                    states.extend(weakref.ref(item) for item in state if type(item) is Tracked)
                else:
                    states.append(weakref.ref(state))
                return state

            monkeypatch.setattr(module, name, call)

        keep_a_weakref(problem, "_normalize")
        keep_a_weakref(anytime, "_fit_anytime")
        keep_a_weakref(pav_offline, "_fit_stack")
        keep_a_weakref(pav_offline, "_fit_direct")
        alive = []
        log = WriteLog(lambda: alive.append([ref() is not None for ref in states]))
        argv = ["fit", golden_csv, "--solver", solver, "--quiet"]
        if out:
            # The --out file is the log; the check that it is writable opens
            # the real path.
            argv += ["--out", str(tmp_path / "model.json")]
            monkeypatch.setattr(_model_commands, "open", lambda path, mode="r", **kwargs:
                                log if mode == "w" else open(path, mode, **kwargs),
                                raising=False)
        else:
            monkeypatch.setattr(sys, "stdout", log)
        assert main(argv) == 0
        # The Problem and three lists: firsts, values and the solver's third
        # (auxs for stack and direct, the round state for anytime).
        assert alive == [[False] * 4]
        assert json.loads("".join(log.writes))["metadata"]["solver"] == solver

    def test_anytime_fit_builds_no_group_or_result(self, golden_csv, capsys, monkeypatch):
        built = []
        for cls in (anytime.AnytimeGroup, anytime.AnytimeResult):
            def counted(self, *args, init=cls.__init__, **kwargs):
                built.append(type(self).__name__)
                init(self, *args, **kwargs)

            monkeypatch.setattr(cls, "__init__", counted)
        code, stdout, stderr = run(capsys, "fit", golden_csv, "--solver", "anytime", "--quiet")
        assert (code, stderr) == (0, "")
        assert json.loads(stdout)["metadata"]["rounds"] > 0
        assert built == []
        # The counter does see the library's run build them.
        anytime_run(normalize(golden_samples(), WEIGHTED_SQUARE), AnytimeConfig(100.0, 0.0))
        assert built == ["AnytimeGroup"] * len(GOLDEN_SIZES) + ["AnytimeResult"]

    def test_failed_tie_merge_names_the_score(self, tmp_path, capsys):
        # The pooled target of the two rows overflows; neither row is at fault.
        path = write_training_csv(tmp_path / "ties.csv", [(1, 1e300, 1e10)] * 2,
                                  header="score,target,weight")
        code, stdout, stderr = run(capsys, "fit", path, "--quiet")
        assert (code, stdout) == (2, "")
        assert stderr == "monocal: ties at score 1.0: sample target must be finite, got inf\n"

    @pytest.mark.xfail(
        strict=True,
        reason="ROADMAP item 6, related defect (staircase._boundary): no finite breakpoint "
        "separates the largest float from +inf, so fit exits 2",
    )
    def test_step_next_to_infinite_score_is_fitted(self, tmp_path, capsys):
        path = write_training_csv(tmp_path / "i.csv", [(1.7976931348623157e308, 1), (math.inf, 2)])
        code, stdout, stderr = run(capsys, "fit", path, "--quiet")
        assert (code, stderr) == (0, "")
        assert json.loads(stdout)["values"] == [1.0, 2.0]

    def test_missing_file(self, capsys):
        code, _, stderr = run(capsys, "fit", "/nonexistent.csv", "--quiet")
        assert code == 2
        assert "cannot read" in stderr

    def test_missing_header_rejected(self, tmp_path, capsys):
        path = tmp_path / "nohdr.csv"
        path.write_text("1,44\n2,52\n")
        code, _, stderr = run(capsys, "fit", str(path), "--quiet")
        assert code == 2


class TestApply:
    @pytest.fixture
    def model_path(self, golden_csv, tmp_path, capsys):
        out = tmp_path / "model.json"
        assert run(capsys, "fit", golden_csv, "--out", str(out), "--quiet")[0] == 0
        return str(out)

    def test_applies_model(self, model_path, tmp_path, capsys):
        scores = tmp_path / "scores.csv"
        scores.write_text("score\n7\n-1e9\n1e9\n")
        code, stdout, _ = run(capsys, "apply", model_path, str(scores))
        assert code == 0
        lines = stdout.strip().splitlines()
        assert lines[0] == "score,calibrated"
        assert [line.split(",")[1] for line in lines[1:]] == ["47.0", "32.0", "69.0"]

    def test_training_scores_round_trip(self, model_path, tmp_path, capsys):
        scores = tmp_path / "scores.csv"
        scores.write_text("score\n" + "\n".join(str(i + 1) for i in range(15)) + "\n")
        code, stdout, _ = run(capsys, "apply", model_path, str(scores))
        assert code == 0
        fitted = [float(line.split(",")[1]) for line in stdout.strip().splitlines()[1:]]
        expected = [32.0] * 4 + [47.0] * 5 + [55.0] * 5 + [69.0]
        assert fitted == expected

    def test_calibrated_nondecreasing_for_sorted_input(self, model_path, tmp_path, capsys):
        rng = random.Random(73)
        xs = sorted(rng.uniform(-5, 20) for _ in range(50))
        scores = tmp_path / "scores.csv"
        scores.write_text("score\n" + "\n".join(str(x) for x in xs) + "\n")
        _, stdout, _ = run(capsys, "apply", model_path, str(scores))
        ys = [float(line.split(",")[1]) for line in stdout.strip().splitlines()[1:]]
        assert all(a <= b for a, b in zip(ys, ys[1:]))

    def test_nan_score_reports_row_number(self, model_path, tmp_path, capsys):
        scores = tmp_path / "scores.csv"
        scores.write_text("score\n7\nnan\n")
        code, _, stderr = run(capsys, "apply", model_path, str(scores))
        assert code == 2
        assert "row 3:" in stderr and "NaN" in stderr
        # A NaN in the second chunk: every row of the first chunk, and the
        # rows of the second before the NaN, are written first.
        good = [f"{i * 0.01!r}" for i in range(cli._CHUNK_ROWS + 100)]
        scores.write_text("score\n" + "\n".join([*good, "nan", "1"]) + "\n")
        code, stdout, stderr = run(capsys, "apply", model_path, str(scores))
        assert code == 2
        assert stderr == f"monocal: row {len(good) + 2}: cannot evaluate a staircase at NaN\n"
        lines = stdout.splitlines()
        assert lines[0] == "score,calibrated"
        assert [line.split(",")[0] for line in lines[1:]] == good

    def test_writes_one_chunk_per_call(self, model_path, tmp_path):
        rng = random.Random(19)
        xs = [rng.uniform(-5.0, 20.0) for _ in range(2500)]
        scores = tmp_path / "scores.csv"
        scores.write_text("score\n" + "".join(f"{x!r}\n" for x in xs))
        staircase = _model_commands.load_model(model_path)[0]
        want = "score,calibrated\n" + "".join(f"{x!r},{staircase(x)!r}\n" for x in xs)

        class Counting(io.StringIO):
            writes = 0

            def write(self, text):
                self.writes += 1
                return super().write(text)

        out = Counting()
        with mock.patch.object(sys, "stdout", out):
            assert main(["apply", model_path, str(scores)]) == 0
        # The header, then one write per 1,024-row chunk.
        assert out.writes == 1 + 3
        assert out.getvalue() == want

    # Score texts whose repr differs from the text, or that sit on the edges
    # of the float range, and the steps of a model whose value reprs do too.
    EDGE_SCORES = ("-0.0", "5e-324", "inf", "-inf", "1e22", "1.50", "1e2", "+3", "0.1", "-7")
    EDGE_MODEL = {"version": 1, "family": "square", "breakpoints": [-1e300, 0.0, 1.5, 1e22],
                  "values": [-1e300, -0.0, 0.1, 1 / 3, 1e22], "metadata": {}}

    def edge_rows(self, tmp_path, texts):
        """``apply``'s rows for ``texts``, each written as the edge-score rule says."""
        model = tmp_path / "edge.json"
        model.write_text(json.dumps(self.EDGE_MODEL))
        scores = tmp_path / "edge.csv"
        scores.write_text("score\n" + "".join(f"{text}\n" for text in texts))
        bps, values = self.EDGE_MODEL["breakpoints"], self.EDGE_MODEL["values"]
        want = [f"{float(t)!r},{values[bisect_right(bps, float(t))]!r}\n" for t in texts
                if t != "nan"]
        return str(model), str(scores), want

    @pytest.mark.parametrize("n", [1, 1023, 1024, 1025, 2049])
    def test_row_bytes_on_edge_scores(self, tmp_path, capsys, n):
        texts = [self.EDGE_SCORES[i % len(self.EDGE_SCORES)] for i in range(n)]
        model, scores, want = self.edge_rows(tmp_path, texts)
        code, stdout, stderr = run(capsys, "apply", model, scores)
        assert (code, stderr) == (0, "")
        assert stdout == "score,calibrated\n" + "".join(want)

    @pytest.mark.parametrize("k", [1, 2, 700, 1024, 1025, 1030])
    def test_row_bytes_on_edge_scores_read_row_by_row(self, tmp_path, capsys, k):
        # A NaN at record k sends its chunk down the row-by-row path: the
        # rows before it are written with the same bytes, then its error.
        texts = [self.EDGE_SCORES[i % len(self.EDGE_SCORES)] for i in range(1100)]
        texts[k - 1] = "nan"
        model, scores, want = self.edge_rows(tmp_path, texts)
        code, stdout, stderr = run(capsys, "apply", model, scores)
        assert code == 2
        assert stderr == f"monocal: row {k + 1}: cannot evaluate a staircase at NaN\n"
        assert stdout == "score,calibrated\n" + "".join(want[:k - 1])

    def test_memory_grows_with_the_chunk_not_the_steps_reached(self, tmp_path):
        # A 20,000-step model, applied to scores that reach 2,048 of its steps
        # and to scores that reach all of them. A repr kept per step reached
        # would add about 2 MB to the second run's peak; tracemalloc counts
        # every allocation, so the bound holds on any machine.
        n = 20_000
        model = tmp_path / "model.json"
        model.write_text(json.dumps({
            "version": 1, "family": "square", "breakpoints": [i + 0.5 for i in range(n - 1)],
            "values": [i / 3 for i in range(n)], "metadata": {}}))

        class Sink(io.TextIOBase):
            def write(self, text):
                return len(text)

        def peak(count):
            scores = tmp_path / f"scores{count}.csv"
            scores.write_text("score\n" + "".join(f"{i + 0.25!r}\n" for i in range(count)))
            tracemalloc.start()
            try:
                with mock.patch.object(sys, "stdout", Sink()):
                    assert main(["apply", str(model), str(scores)]) == 0
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(2 * cli._CHUNK_ROWS)  # warm: imports and cached state
        assert peak(n) - peak(2 * cli._CHUNK_ROWS) < 512 * 1024

    def test_missing_model(self, tmp_path, capsys):
        scores = tmp_path / "scores.csv"
        scores.write_text("score\n1\n")
        code, _, stderr = run(capsys, "apply", str(tmp_path / "no.json"), str(scores))
        assert code == 2


class TestModelFile:
    def test_round_trip_is_bit_exact(self, tmp_path, capsys):
        rng = random.Random(74)
        rows = [(i + rng.random(), rng.uniform(0, 100), 0.5 + rng.random()) for i in range(25)]
        path = write_training_csv(tmp_path / "r.csv", rows, header="score,target,weight")
        out = tmp_path / "m.json"
        assert run(capsys, "fit", path, "--out", str(out), "--quiet")[0] == 0
        doc = json.loads(out.read_text())
        staircase, family, _ = model_from_dict(doc)
        assert list(staircase.values) == doc["values"]
        assert list(staircase.breakpoints) == doc["breakpoints"]
        # serialize again: identical document
        assert json.loads(json.dumps(doc)) == doc

    def test_unknown_field_rejected(self):
        doc = {
            "version": 1,
            "family": "square",
            "breakpoints": [],
            "values": [1.0],
            "metadata": {},
            "surprise": True,
        }
        from monocal.errors import InvalidValue

        with pytest.raises(InvalidValue):
            model_from_dict(doc)

    def test_missing_field_rejected(self):
        from monocal.errors import InvalidValue

        with pytest.raises(InvalidValue):
            model_from_dict({"version": 1, "family": "square"})

    def test_bad_version_rejected(self):
        from monocal.errors import InvalidValue

        with pytest.raises(InvalidValue):
            model_from_dict(
                {"version": 2, "family": "square", "breakpoints": [], "values": [1.0],
                 "metadata": {}}
            )

    @pytest.mark.parametrize(
        "field, bad",
        [
            ("family", ["square"]),
            ("family", None),
            ("breakpoints", "ab"),
            ("values", None),
            ("values", {"0": 1.0}),
            ("values", ["1.0"]),
            ("values", [True]),
            ("values", [None]),
            ("values", [float("nan")]),
            ("breakpoints", [float("nan")]),
            ("values", [10**400]),
            ("values", [float("inf")]),
            ("breakpoints", [float("-inf")]),
            ("version", True),
            ("metadata", []),
        ],
        ids=["family-list", "family-null", "breakpoints-string", "values-null",
             "values-object", "values-string-entry", "values-bool-entry", "values-null-entry",
             "values-nan", "breakpoints-nan", "values-huge-int", "values-inf",
             "breakpoints-inf", "version-bool", "metadata-list"],
    )
    def test_malformed_model_exits_2(self, tmp_path, capsys, field, bad):
        doc = {"version": 1, "family": "square", "breakpoints": [], "values": [1.0],
               "metadata": {}}
        if field == "breakpoints":
            doc["values"] = [1.0, 2.0]
        doc[field] = bad
        from monocal.errors import InvalidValue

        with pytest.raises(InvalidValue):
            model_from_dict(doc)
        model = tmp_path / "model.json"
        model.write_text(json.dumps(doc))
        scores = tmp_path / "s.csv"
        scores.write_text("score\n1\n")
        code, stdout, stderr = run(capsys, "apply", str(model), str(scores))
        assert (code, stdout) == (2, "")
        assert stderr.startswith("monocal: ") and "Traceback" not in stderr

    def test_model_file_that_is_not_an_object_exits_2(self, tmp_path, capsys):
        scores = tmp_path / "s.csv"
        scores.write_text("score\n1\n")
        model = tmp_path / "model.json"
        model.write_text("[]")
        code, stdout, stderr = run(capsys, "apply", str(model), str(scores))
        assert (code, stdout, stderr) == (2, "", "monocal: model file must be a JSON object\n")

    def test_corrupt_model_file_exits_2(self, tmp_path, capsys):
        scores = tmp_path / "s.csv"
        scores.write_text("score\n1\n")
        doc = '{"version": 1, "family": "square", "breakpoints": [], "values": [1.0], '
        contents = [
            b"{not json",
            (doc + '"metadata": {"note": "caf\xe9"}}').encode("latin-1"),
            b"[" * 100_000 + b"]" * 100_000,
        ]
        for data in contents:
            bad = tmp_path / "bad.json"
            bad.write_bytes(data)
            code, stdout, stderr = run(capsys, "apply", str(bad), str(scores))
            assert (code, stdout) == (2, "")
            assert stderr.startswith(f"monocal: {bad}: ") and "Traceback" not in stderr


class TestStream:
    def test_golden_stream(self, golden_csv, capsys):
        code, stdout, _ = run(capsys, "stream", golden_csv)
        assert code == 0
        lines = stdout.strip().splitlines()
        assert lines[0] == "n,steps,merges,values"
        rows = {int(line.split(",")[0]): line.split(",") for line in lines[1:]}
        assert rows[3][3] == "38.0"
        assert rows[8][3] == "32.0 58.5"
        assert rows[9][3] == "32.0 47.0"
        assert rows[15][3] == "32.0 47.0 55.0 69.0"
        assert rows[15][2] == "11"
        assert rows[1] == ["1", "1", "0", "44.0"]

    def test_stream_stays_off_the_materialization_path(self, golden_csv, capsys, monkeypatch):
        # A row must not rebuild the staircase: that made `stream` quadratic.
        def refuse(self):
            raise AssertionError("stream materialized the staircase")

        monkeypatch.setattr(OnlineState, "current", refuse)
        monkeypatch.setattr(OnlineState, "blocks", refuse)
        self.test_golden_stream(golden_csv, capsys)

    @pytest.mark.parametrize("shape", ["increasing", "decreasing", "random"])
    def test_every_row_is_the_offline_fit_of_its_prefix(self, tmp_path, capsys, shape):
        rng = random.Random(f"stream-{shape}")
        n = 60
        targets = sorted(rng.uniform(-50, 50) for _ in range(n))
        if shape == "decreasing":
            targets.reverse()
        elif shape == "random":
            rng.shuffle(targets)
        rows = [(i + rng.random(), t, 3.0 * (1.0 - rng.random())) for i, t in enumerate(targets)]
        path = write_training_csv(tmp_path / "s.csv", rows, header="score,target,weight")
        code, stdout, _ = run(capsys, "stream", path)
        assert code == 0
        lines = stdout.splitlines()
        assert len(lines) == n + 1
        for k, line in enumerate(lines[1:], start=1):
            problem = normalize([Sample(*row) for row in rows[:k]], WEIGHTED_SQUARE)
            blocks = fit_stack(problem).blocks
            staircase = blocks_to_staircase(blocks, [s.score for s in problem.samples])
            steps = len(blocks)
            values = " ".join(map(repr, staircase.values))
            assert line == f"{k},{steps},{k - steps},{values}"

    @pytest.mark.parametrize(
        "rows, written, message",
        [
            # Pooling two distinct scores overflows to inf + -inf = NaN.
            ([(1, 1e300, 1e10), (2, -1e300, 1e10)], ["1,1,0,1e+300"], "(nan, nan)"),
            # The tie fold overflows to inf.
            ([(1, 1e300, 1e10), (1, 1e300, 1e10)], ["1,1,0,1e+300"], "(inf, inf)"),
            # A NaN above a finite step; later rows must not bury it.
            (
                [(0, 5, 1), (1, 1e300, 1e10), (2, -1e300, 1e10), (3, 7, 1)],
                ["1,1,0,5.0", "2,2,0,5.0 1e+300"],
                "(5.0, nan)",
            ),
        ],
    )
    def test_non_finite_step_exits_2(self, tmp_path, capsys, rows, written, message):
        path = write_training_csv(tmp_path / "o.csv", rows, header="score,target,weight")
        code, stdout, stderr = run(capsys, "stream", path)
        assert code == 2
        # The failing row is the one after the rows written; the header is line 1.
        assert stderr == f"monocal: row {len(written) + 2}: step values must be finite {message}\n"
        assert stdout.splitlines() == ["n,steps,merges,values", *written]

    def test_step_next_to_infinite_score_is_written(self, tmp_path, capsys):
        # `fit` cannot write this model (no finite breakpoint separates the
        # largest float from +inf), but a stream row carries values only.
        path = write_training_csv(tmp_path / "i.csv", [(1.7976931348623157e308, 1), (math.inf, 2)])
        code, stdout, _ = run(capsys, "stream", path)
        assert code == 0
        assert stdout.splitlines()[-1] == "2,2,0,1.0 2.0"

    @pytest.mark.parametrize("header", [None, "score,weight"], ids=["missing-file", "no-target"])
    def test_unreadable_input_writes_nothing(self, tmp_path, capsys, header):
        path = tmp_path / "in.csv"
        if header is not None:
            path.write_text(f"{header}\n1,2\n")
        code, stdout, stderr = run(capsys, "stream", str(path))
        assert (code, stdout) == (2, "")
        assert stderr.startswith("monocal: ") and stderr.count("\n") == 1

    def test_out_of_order_exits_3(self, tmp_path, capsys):
        path = write_training_csv(tmp_path / "ooo.csv", [(1, 10), (3, 20), (2, 30)])
        code, stdout, stderr = run(capsys, "stream", str(path))
        assert code == 3
        assert stderr.startswith("monocal: row 4: score 2.0 arrived after 3.0")
        assert stderr.count("\n") == 1 and stderr.endswith("\n")
        assert stdout.splitlines() == ["n,steps,merges,values", "1,1,0,10.0", "2,2,0,10.0 20.0"]

    def test_single_row(self, tmp_path, capsys):
        path = write_training_csv(tmp_path / "one.csv", [(1, 10)])
        code, stdout, _ = run(capsys, "stream", str(path))
        assert code == 0
        assert stdout.strip().splitlines()[1] == "1,1,0,10.0"

    def test_stream_logloss(self, tmp_path, capsys):
        path = write_training_csv(tmp_path / "ll.csv", [(0.1, 0), (0.5, 1), (0.9, 1)])
        code, stdout, _ = run(capsys, "stream", str(path), "--loss", "logloss")
        assert code == 0
        assert stdout.strip().splitlines()[-1].startswith("3,2,1,")

    def test_empty_stream_rejected(self, tmp_path, capsys):
        path = tmp_path / "empty.csv"
        path.write_text("score,target\n")
        code, _, stderr = run(capsys, "stream", str(path))
        assert code == 2

    def test_writes_one_chunk_per_call(self, tmp_path):
        rng = random.Random(23)
        rows = [(i + rng.random(), rng.choice([0.0, 1.0, 2.0, 5.0]), rng.choice([0.5, 1.0, 3.0]))
                for i in range(2500)]
        path = write_training_csv(tmp_path / "s.csv", rows, header="score,target,weight")
        state = OnlineState(WEIGHTED_SQUARE)
        want = ["n,steps,merges,values\n"]
        for row in rows:
            state.push(Sample(*row))
            values = " ".join(map(repr, state.values))
            want.append(f"{state.n_seen},{state.step_count},{state.cumulative_merges},{values}\n")
        out = WriteLog()
        with mock.patch.object(sys, "stdout", out):
            assert main(["stream", str(path)]) == 0
        # The header, then one write per 1,024-row chunk.
        assert len(out.writes) == 1 + 3
        assert "".join(out.writes) == "".join(want)

    @pytest.mark.parametrize("record", [cli._CHUNK_ROWS, cli._CHUNK_ROWS + 1, cli._CHUNK_ROWS + 2])
    @pytest.mark.parametrize("failure", ["out-of-order", "non-finite"])
    def test_a_failing_row_leaves_exactly_the_rows_before_it(self, tmp_path, capsys, record,
                                                             failure):
        # Record `record` fails: the last of the first chunk, the first of the
        # second or one inside it. Every row before it is written, then the error.
        rows = [(i + 0.5, i % 3, 1.0) for i in range(record - 2)]
        if failure == "out-of-order":
            rows += [(record - 1.5, 1.0, 1.0), (0.0, 1.0, 1.0)]
            want_code = 3
            message = f"monocal: row {record + 1}: score 0.0 arrived after {record - 1.5!r}"
        else:
            # The top pools to (1e310 - 1e310) / 2e10 = nan.
            rows += [(record - 1.5, 1e300, 1e10), (record - 0.5, -1e300, 1e10)]
            want_code = 2
            message = f"monocal: row {record + 1}: step values must be finite ("
        header = "score,target,weight"
        before = write_training_csv(tmp_path / "before.csv", rows[:-1], header=header)
        code, want, _ = run(capsys, "stream", before)
        assert code == 0
        path = write_training_csv(tmp_path / "all.csv", rows, header=header)
        code, stdout, stderr = run(capsys, "stream", path)
        assert code == want_code
        assert stderr.startswith(message) and stderr.count("\n") == 1
        assert stdout == want and stdout.count("\n") == record


def reference_read_csv(path, columns, build):
    """The row-at-a-time reader the chunked ``cli._read_csv`` replaced.

    Its body is the former ``cli._csv_rows``, with ``build`` called on one-row
    columns and each row yielded as a chunk of its own.
    """
    raw_cap = os.environ.get(cli.MAX_N_ENV, "").strip()
    try:
        cap = int(raw_cap) if raw_cap else 0
    except ValueError:
        raise cli._CliError(f"{cli.MAX_N_ENV} must be an integer, got {raw_cap!r}")
    try:
        handle = open(path, newline="", encoding="utf-8")
    except OSError as exc:
        raise cli._CliError(f"cannot read {path}: {exc}")
    reader = csv.reader(handle)

    def records():
        try:
            yield from reader
        except (UnicodeDecodeError, csv.Error) as exc:
            handle.close()
            raise cli._CliError(f"{path}: cannot parse CSV (read {reader.line_num} lines): {exc}")

    lines = records()
    header = next(lines, [])
    for name, default in columns.items():
        if default is None and name not in header:
            handle.close()
            raise cli._CliError(f"{path}: header with a {name!r} column is required")
    index = {name: i for i, name in enumerate(header)}
    picks = [(name, index.get(name, sys.maxsize), default) for name, default in columns.items()]

    def rows():
        with handle:
            for count, fields in enumerate(filter(None, lines), 1):
                if 0 < cap < count:
                    raise cli._CliError(f"{path}: more than {cli.MAX_N_ENV}={cap} rows")
                row = reader.line_num
                numbers = []
                for name, i, default in picks:
                    text = fields[i] if i < len(fields) else ""
                    try:
                        numbers.append(float(text) if text or default is None else default)
                    except ValueError:
                        raise cli._CliError(f"row {row}: column {name!r} is not a number: {text!r}")
                try:
                    value = build(*([x] for x in numbers))
                except CalibrationError as exc:
                    raise cli._CliError(f"row {row}: {exc}")
                yield [row], value

    return rows()


GOLDEN_MODEL = {"version": 1, "family": "square", "breakpoints": [4.5, 9.5, 14.5],
                "values": [32.0, 47.0, 55.0, 69.0], "metadata": {}}


def run_quietly(argv, env=None):
    """``main(argv)`` with its own stdout and stderr: ``(code, out, err)``."""
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.dict(os.environ, env or {}), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def assert_reads_like_reference(directory, text, loss="square", env=None):
    """``fit``, ``apply`` and ``stream`` on ``text`` match the reference reader's.

    ``text`` is a str, written as UTF-8, or bytes, written as they are.
    """
    path = os.path.join(directory, "in.csv")
    with open(path, "wb") as handle:
        handle.write(text if isinstance(text, bytes) else text.encode("utf-8"))
    model = os.path.join(directory, "model.json")
    with open(model, "w", encoding="utf-8") as handle:
        json.dump(GOLDEN_MODEL, handle)
    results = {}
    for argv in (["fit", path, "--loss", loss], ["apply", model, path],
                 ["stream", path, "--loss", loss]):
        got = run_quietly(argv, env)
        # apply calls the name that _model_commands imported from cli.
        with mock.patch.object(cli, "_read_csv", reference_read_csv), \
                mock.patch.object(_model_commands, "_read_csv", reference_read_csv):
            want = run_quietly(argv, env)
        assert got == want, argv[0]
        results[argv[0]] = got
    return results


def training_text(n, bad=(), header="score,target", row=lambda i: f"{i + 0.5!r},{i % 7}"):
    """``n`` data rows in score order; rows whose 1-based record number is in ``bad`` read "nope"."""
    lines = [header]
    lines.extend("nope,1" if k in bad else row(k - 1) for k in range(1, n + 1))
    return "\n".join(lines) + "\n"


class TestChunkedReader:
    @pytest.mark.parametrize("record", [cli._CHUNK_ROWS, cli._CHUNK_ROWS + 1])
    def test_bad_row_at_the_chunk_boundary(self, tmp_path, record):
        text = training_text(1100, bad={record})
        results = assert_reads_like_reference(str(tmp_path), text)
        message = f"monocal: row {record + 1}: column 'score' is not a number: 'nope'\n"
        for command in ("fit", "apply", "stream"):
            assert results[command][0] == 2 and results[command][2] == message
        # apply and stream write every row before the bad one; fit writes nothing.
        assert results["fit"][1] == ""
        assert results["apply"][1].count("\n") == record
        assert results["stream"][1].count("\n") == record

    def test_blank_lines_and_a_multi_line_field_across_the_chunk_boundary(self, tmp_path):
        rows = [f"{i + 0.5!r},{i % 7},\"note {i}\"" for i in range(1100)]
        for k in (1015, 1021, 1022, 1026, 1029):
            rows[k] = ""
        # The last record of the first chunk and the first of the second.
        for k in (1023, 1024):
            rows[k] = f'{k + 0.5!r},3,"a note\nover\r\nthree lines"'
        rows[1040] = "nope,1,x"
        text = "score,target,note\n" + "\n".join(rows) + "\n"
        results = assert_reads_like_reference(str(tmp_path), text)
        # Record 1041 ends on line 1046: each note adds two lines.
        assert results["fit"][2] == "monocal: row 1046: column 'score' is not a number: 'nope'\n"
        del rows[1040]
        results = assert_reads_like_reference(str(tmp_path), "score,target,note\n" + "\n".join(rows))
        assert [results[command][0] for command in results] == [0, 0, 0]

    @pytest.mark.parametrize("n", [cli._CHUNK_ROWS, cli._CHUNK_ROWS + 1])
    def test_max_n_at_the_chunk_size(self, tmp_path, n):
        text = training_text(n).replace("\n", "\n\n", 3)
        env = {cli.MAX_N_ENV: str(cli._CHUNK_ROWS)}
        results = assert_reads_like_reference(str(tmp_path), text, env=env)
        codes = [results[command][0] for command in ("fit", "apply", "stream")]
        assert codes == ([0, 0, 0] if n == cli._CHUNK_ROWS else [2, 2, 2])
        if n > cli._CHUNK_ROWS:
            assert results["stream"][1].count("\n") == cli._CHUNK_ROWS + 1

    def test_oversized_field_after_the_first_chunk(self, tmp_path):
        text = training_text(1600).splitlines(keepends=True)
        text[1500] = "1499.5," + "3" * 131_073 + "\n"
        results = assert_reads_like_reference(str(tmp_path), "".join(text))
        for command in ("fit", "apply", "stream"):
            code, _, stderr = results[command]
            assert code == 2 and "cannot parse CSV (read 1501 lines)" in stderr
        # The 1,499 rows before the oversized field are written.
        assert results["apply"][1].count("\n") == 1500
        assert results["stream"][1].count("\n") == 1500

    def test_oversized_unpicked_field_in_a_plain_chunk(self, tmp_path):
        text = training_text(1600, header="score,target,note",
                             row=lambda i: f"{i + 0.5!r},{i % 7},x").splitlines(keepends=True)
        text[1500] = "1499.5,3," + "n" * 131_073 + "\n"
        results = assert_reads_like_reference(str(tmp_path), "".join(text))
        for command in ("fit", "apply", "stream"):
            code, _, stderr = results[command]
            assert code == 2 and "cannot parse CSV (read 1501 lines)" in stderr
            assert "field larger than field limit (131072)" in stderr
        assert results["stream"][1].count("\n") == 1500

    def test_undecodable_byte_after_the_first_chunk(self, tmp_path):
        # Notes of ten letters put the byte in a later 8 KiB decoding block
        # than the first chunk's end.
        text = training_text(1600, header="score,target,note",
                             row=lambda i: f"{i + 0.5!r},{i % 7},{'x' * 10}").encode()
        lines = text.splitlines(keepends=True)
        lines[1500] = lines[1500].replace(b",x", b",\xe9")  # Latin-1 "e acute"
        results = assert_reads_like_reference(str(tmp_path), b"".join(lines))
        for command in ("fit", "apply", "stream"):
            code, _, stderr = results[command]
            assert code == 2 and "can't decode byte 0xe9" in stderr
        # The rows before the failing block are written: the first chunk and
        # part of the next.
        written = results["stream"][1].count("\n") - 1
        assert cli._CHUNK_ROWS < written < 1500
        assert f"(read {written + 1} lines)" in results["stream"][2]

    def test_quoted_header_over_plain_rows(self, tmp_path):
        # R's write.csv quotes the names but not the numbers. This header also
        # spans two lines, so every row number is one more than the record's.
        text = training_text(2000, bad={1500}, header='"score","target","a\nnote"',
                             row=lambda i: f"{i + 0.5!r},{i % 7},x")
        results = assert_reads_like_reference(str(tmp_path), text)
        message = "monocal: row 1502: column 'score' is not a number: 'nope'\n"
        assert [results[command][2] for command in results] == [message] * 3
        assert results["stream"][1].count("\n") == 1500
        results = assert_reads_like_reference(str(tmp_path), text.replace("nope", "1499.5"))
        assert [results[command][0] for command in results] == [0, 0, 0]

    @pytest.mark.parametrize("line", [
        # The quoted note holds a comma: csv reads four fields, no weight.
        '1030.5,3,"5,6",2\n',
        # A lone carriage return ends a record with an empty weight.
        "1030.5,3,5,6,\r1031.5,4,5,6,2\n",
        # Python 3.10's csv rejects the NUL, 3.11's reads it.
        "1030.5,3,5\x006,6,2\n",
        # csv ignores an extra field, and reads a short row's weight as 1.
        "1030.5,3,5,6,2,9\n",
        "1030.5,3,5\n",
    ], ids=["quoted-comma", "lone-cr", "nul", "extra", "short"])
    def test_a_line_that_csv_reads_otherwise_than_its_commas(self, tmp_path, line):
        # Numbers in the unpicked columns too, so that a field read from the
        # wrong column still parses.
        text = training_text(2000, header="score,target,note,more,weight",
                             row=lambda i: f"{i + 0.5!r},{i % 7},5,6,2").splitlines(keepends=True)
        text[1031] = line
        assert_reads_like_reference(str(tmp_path), "".join(text))

    def test_no_final_newline_after_a_plain_chunk(self, tmp_path):
        text = training_text(1100, row=lambda i: f"{i + 0.5!r},{i % 7}.25")
        results = assert_reads_like_reference(str(tmp_path), text[:-1])
        assert [results[command][0] for command in results] == [0, 0, 0]

    def test_max_n_inside_a_plain_chunk(self, tmp_path):
        results = assert_reads_like_reference(str(tmp_path), training_text(1100),
                                              env={cli.MAX_N_ENV: "1030"})
        assert [results[command][0] for command in results] == [2, 2, 2]
        assert results["stream"][1].count("\n") == 1031

    @pytest.mark.parametrize("blank", [0, cli._CHUNK_ROWS - 1, cli._CHUNK_ROWS])
    def test_one_column_file_with_a_blank_line_at_the_chunk_boundary(self, tmp_path, blank):
        scores = [f"{i * 0.01!r}" for i in range(1100)]
        scores.insert(blank, "")
        path = tmp_path / "in.csv"
        results = assert_reads_like_reference(str(tmp_path), "score\n" + "\n".join(scores) + "\n")
        assert results["apply"][0] == 0 and results["apply"][1].count("\n") == 1101
        # A reader whose column the file lacks reads its default for each row,
        # and a blank line is no row.

        def rows(reader):
            return [(row, x) for lines, (xs,) in reader(str(path), {"x": 7.0}, lambda *c: c)
                    for row, x in zip(lines, xs)]

        assert rows(cli._read_csv) == rows(reference_read_csv)

    def test_byte_order_mark_is_ignored(self, tmp_path):
        # Spreadsheets save "CSV UTF-8" with a byte-order mark before the header.
        text = training_text(30, header="score,target,weight", row=lambda i: f"{i},{i % 5},2")
        plain = assert_reads_like_reference(str(tmp_path), text)
        assert [plain[command][0] for command in plain] == [0, 0, 0]
        path, model = str(tmp_path / "in.csv"), str(tmp_path / "model.json")
        (tmp_path / "in.csv").write_bytes(b"\xef\xbb\xbf" + text.encode())
        assert run_quietly(["fit", path, "--loss", "square"]) == plain["fit"]
        assert run_quietly(["apply", model, path]) == plain["apply"]
        assert run_quietly(["stream", path, "--loss", "square"]) == plain["stream"]

    def test_stack_fit_builds_no_block(self, golden_csv, built_blocks):
        for solver in ("stack", "direct", "anytime"):
            assert run_quietly(["fit", golden_csv, "--solver", solver, "--quiet"])[0] == 0
        assert built_blocks == []
        # The library fit still builds its blocks, and the counter sees them.
        blocks = fit_stack(normalize(golden_samples(), WEIGHTED_SQUARE)).blocks
        assert built_blocks == list(blocks)


class TestColumnFit:
    @pytest.fixture
    def built(self, monkeypatch):
        """Every ``Sample`` built while the test runs."""
        built = []
        post_init = core.Sample.__post_init__

        def counting(sample):
            built.append(sample)
            post_init(sample)

        monkeypatch.setattr(core.Sample, "__post_init__", counting)
        return built

    @pytest.mark.parametrize("solver", ["stack", "direct", "anytime"])
    @pytest.mark.parametrize("loss", ["square", "logloss"])
    def test_fit_builds_no_sample_per_row(self, tmp_path, built, loss, solver):
        rng = random.Random(f"{loss}-{solver}")
        rows = [(i + rng.random(), rng.choice([0.0, 1.0]) if loss == "logloss"
                 else rng.uniform(-5, 5), rng.uniform(0.1, 3)) for i in range(2500)]
        rng.shuffle(rows)
        path = write_training_csv(tmp_path / "rows.csv", rows, header="score,target,weight")
        code, _, err = run_quietly(["fit", path, "--loss", loss, "--solver", solver, "--quiet"])
        assert (code, err) == (0, "")
        # The merge solvers read the target and weight columns, and the
        # anytime probes sum derivative terms over them.
        assert len(built) == 0

    @pytest.mark.parametrize("loss", ["square", "logloss"])
    def test_stream_builds_no_sample_per_row(self, tmp_path, built, loss):
        rng = random.Random(f"stream-{loss}")
        # Scores in order, each three times, so pushes fold ties and pool.
        rows = [(i // 3, rng.choice([0.0, 1.0]) if loss == "logloss" else rng.uniform(-5, 5),
                 rng.uniform(0.1, 3)) for i in range(2500)]
        path = write_training_csv(tmp_path / "rows.csv", rows, header="score,target,weight")
        code, out, err = run_quietly(["stream", path, "--loss", loss])
        assert (code, err, out.count("\n")) == (0, "", len(rows) + 1)
        assert len(built) == 0

    @pytest.mark.parametrize(
        "row, message",
        [
            ("nan,0,1", "sample score is NaN"),
            ("2,-inf,1", "sample target must be finite, got -inf"),
            ("2,0,0", "sample weight must be positive and finite, got 0.0"),
            ("2,0,-0.0", "sample weight must be positive and finite, got -0.0"),
            ("2,0,-1", "sample weight must be positive and finite, got -1.0"),
            ("2,0,nan", "sample weight must be positive and finite, got nan"),
            ("2,0,inf", "sample weight must be positive and finite, got inf"),
        ],
    )
    def test_a_bad_row_in_a_chunk_raises_its_sample_error(self, tmp_path, row, message):
        rows = [f"{i}.5,{i % 7},{1 + i % 3}" for i in range(60)]
        rows[40] = row
        path = tmp_path / "bad.csv"
        path.write_text("score,target,weight\n" + "\n".join(rows) + "\n")
        assert run_quietly(["fit", str(path), "--quiet"]) == (2, "", f"monocal: row 42: {message}\n")

    def test_tied_rows_alone_are_built(self, tmp_path, built):
        rows = [(1, 10), (2, 30), (2, 20), (3, 5), (4, 7), (4, 8), (4, 9)]
        path = write_training_csv(tmp_path / "ties.csv", rows)
        assert run_quietly(["fit", path, "--quiet"])[0] == 0
        # Five tied rows, and one composite per merge of a tied row.
        assert len(built) == 5 + 3

    def test_normalize_keeps_the_given_samples(self, built):
        samples = [Sample(3.0, 1.0), Sample(1.0, 2.0), Sample(-0.0, 0.5), Sample(2.0, 4.0)]
        problem = normalize(samples, WEIGHTED_SQUARE)
        order = sorted(samples, key=lambda s: s.score)
        assert all(got is want for got, want in zip(problem.samples, order))
        assert len(problem.samples) == len(order)
        assert problem.scores == (-0.0, 1.0, 2.0, 3.0)
        assert built == samples  # the four built above, none since


def per_sample(family):
    """``family`` with its parts wrapped, so every solver calls them per ``Sample``."""
    return dataclasses.replace(
        family,
        loss=lambda s, z: family.loss(s, z),
        minimizer_of=lambda s: family.minimizer_of(s),
        init_aux=lambda s: family.init_aux(s),
    )


def reference_normalize(samples, family):
    """The per-``Sample`` loop ``normalize`` was before it ran on columns."""
    samples = sorted(samples, key=lambda s: s.score)
    merged, offset = [samples[0]], 0.0
    for s in samples[1:]:
        if s.score == merged[-1].score:
            merged[-1], dropped = family.combine_ties(merged[-1], s)
            offset += dropped
        else:
            merged.append(s)
    return Problem(tuple(merged), family, offset)


def library_fit(problem, solver):
    """``(breakpoints, values, total_loss)`` as reprs: the library fit ``monocal fit`` runs."""
    if solver == "anytime":
        upper, lower = _minimizer_bracket(problem)
        result = anytime_run(problem, AnytimeConfig(init_upper=upper, init_lower=lower))
        staircase, total_loss = result.staircase, result.total_loss
    else:
        report = (fit_stack if solver == "stack" else fit_direct)(problem)
        staircase = blocks_to_staircase(report.blocks, [s.score for s in problem.samples])
        total_loss = report.total_loss
    return [*map(repr, staircase.breakpoints)], [*map(repr, staircase.values)], repr(total_loss)


@st.composite
def column_fit_cases(draw):
    """Rows that stress the tie fold and the sums: ``(loss, rows)``."""
    loss = draw(st.sampled_from(["square", "logloss"]))
    shape = draw(st.sampled_from(["coarse", "adjacent", "spread"]))
    if shape == "coarse":
        # Few distinct scores, so most rows tie; 0.0 and -0.0 tie too.
        scores = st.sampled_from([0.0, -0.0, 1.0, 2.0, -3.5, 1e300])
    elif shape == "adjacent":
        chain = [draw(st.sampled_from([0.0, 1.0, -1e-300, 1e15, -2.5]))]
        for _ in range(5):
            chain.append(math.nextafter(chain[-1], math.inf))
        scores = st.sampled_from(chain)
    else:
        scores = st.floats(-1e6, 1e6)
    if loss == "logloss":
        targets = st.sampled_from([0.0, 1.0, -0.0])
    else:
        # Sums of these round differently in different orders.
        targets = st.sampled_from([0.1, 0.2, 0.3, 1 / 3, 0.7, -0.1, 2 / 3]) | st.floats(-100, 100)
    weights = st.sampled_from([1.0, 1.0, 0.1, 3.0, 1 / 3, 1e-3])
    rows = draw(st.lists(st.tuples(scores, targets, weights), min_size=1, max_size=40))
    return loss, rows


@settings(max_examples=80, derandomize=True, deadline=None)
@given(column_fit_cases())
def test_column_fit_matches_the_sample_fit(case):
    loss, rows = case
    family = {"square": WEIGHTED_SQUARE, "logloss": LOG_LOSS}[loss]
    samples = [Sample(*row) for row in rows]
    problem = normalize(samples, family)
    slow = reference_normalize(samples, per_sample(family))
    assert problem.samples == slow.samples
    assert repr(problem.loss_offset) == repr(slow.loss_offset)
    with tempfile.TemporaryDirectory() as directory:
        path = os.path.join(directory, "rows.csv")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("score,target,weight\n")
            handle.writelines(f"{s!r},{t!r},{w!r}\n" for s, t, w in rows)
        for solver in ("stack", "direct", "anytime"):
            code, out, err = run_quietly(["fit", path, "--loss", loss, "--solver", solver, "--quiet"])
            assert (code, err) == (0, ""), solver
            doc = json.loads(out)
            got = ([*map(repr, doc["breakpoints"])], [*map(repr, doc["values"])],
                   repr(doc["metadata"]["total_loss"]))
            assert got == library_fit(problem, solver) == library_fit(slow, solver), solver


def test_anytime_oracle_failure_exits_2(tmp_path):
    # Both derivatives overflow at probe 0; the stack solver fits these rows.
    path = write_training_csv(tmp_path / "big.csv", [(1, 1e308), (2, -1e308)])
    code, out, err = run_quietly(["fit", path, "--solver", "anytime", "--quiet"])
    assert (code, out) == (2, "")
    assert err == ("monocal: derivative oracle failed at z=0.0 for samples [0, 1]: "
                   "-inf + inf in fsum\n")
    code, out, _ = run_quietly(["fit", path, "--quiet"])
    assert code == 0 and json.loads(out)["values"] == [0.0]


def test_anytime_one_sample_nan_exits_2(tmp_path):
    # -2.0 * 1e308 overflows to -inf, and the first probe, 0.5, is the
    # sample's own target: -inf * 0.0 is NaN for the one-sample group [1, 1].
    path = write_training_csv(tmp_path / "nan.csv", [(1, 0, 1), (2, 0.5, 1e308), (3, 1, 1)],
                              header="score,target,weight")
    code, out, err = run_quietly(["fit", path, "--solver", "anytime"])
    assert (code, out) == (2, "")
    assert err == "monocal: derivative oracle returned NaN at z=0.5 for samples [1, 1]\n"


@pytest.mark.parametrize("solver", ["stack", "direct", "anytime"])
def test_total_loss_past_the_float_range_is_infinite(tmp_path, solver):
    # The fit is 0.0 and each row's loss 1e300 * 1e4 ** 2 = 1e308; their sum is no float.
    path = write_training_csv(tmp_path / "over.csv", [(1, 1e4, 1e300), (2, -1e4, 1e300)],
                              header="score,target,weight")
    code, out, err = run_quietly(["fit", path, "--solver", solver])
    assert (code, err) == (0, "fit: 2 samples -> 1 steps (1 merges, loss inf)\n")
    doc = json.loads(out)
    assert doc["values"] == [0.0] and doc["metadata"]["total_loss"] == math.inf


@pytest.mark.parametrize("loss", ["square", "logloss"])
@pytest.mark.parametrize("command", [["fit", "--solver", "stack"], ["fit", "--solver", "direct"],
                                     ["stream"]], ids=["fit-stack", "fit-direct", "stream"])
@pytest.mark.parametrize("second_score", [1, 0], ids=["pool", "tie"])
def test_pooled_weight_overflow_exits_2(tmp_path, command, loss, second_score):
    # The two weights sum past the float range. The weighted mean would be
    # 1e308 / inf = 0.0, where the optimum is 0.5.
    path = write_training_csv(tmp_path / "w.csv", [(0, 1, 1e308), (second_score, 0, 1e308)],
                              header="score,target,weight")
    code, out, err = run_quietly([command[0], path, "--loss", loss, *command[1:]])
    # fit names the tied score or the score of the group it pooled in;
    # stream names the row it was pushing.
    where = {"fit": "ties at score 0.0: " if second_score == 0 else "pool at score 1.0: ",
             "stream": "row 3: "}
    assert code == 2
    overflow = "summed group weight is not finite: 1e+308 + 1e+308"
    assert err == f"monocal: {where[command[0]]}{overflow}\n"
    assert out == ("n,steps,merges,values\n1,1,0,1.0\n" if command[0] == "stream" else "")


def test_anytime_round_cap_keeps_the_real_cause(tmp_path):
    path = write_training_csv(tmp_path / "big.csv", [(1, 1e308), (2, -1e308)])
    # No round: the target range is a finite bracket, only wider than floats.
    code, out, err = run_quietly(["fit", path, "--solver", "anytime", "--max-iters", "0"])
    metadata = json.loads(out)["metadata"]
    assert (code, metadata["width_bound"], metadata["rounds"]) == (0, math.inf, 0)
    assert err == "fit: 2 samples -> 1 steps (1 merges, loss inf)\n"
    # One round joins the two groups: the failure is the joined sum's.
    code, out, err = run_quietly(["fit", path, "--solver", "anytime", "--max-iters", "1"])
    assert (code, out) == (2, "")
    assert err == ("monocal: derivative oracle failed at z=0.0 for samples [0, 1]: "
                   "-inf + inf in fsum\n")


# Row defects that leave a row readable, and ones that make it an error. A
# NUL is read by Python 3.11's csv and rejected by 3.10's; a lone carriage
# return ends a record as a newline does.
LAYOUT_DEFECTS = ("blank", "quoted", "multi-line", "short", "empty-weight", "nul", "lone-cr",
                  "extra")
ROW_ERRORS = ("bad-number", "nan", "inf", "zero-weight", "bad-label")
HEADERS = ("score,target", "score,target,weight", "note,weight,target,score",
           "score,target,weight,note")


@st.composite
def csv_texts(draw):
    """CSV text of 0-3,000 rows with each defect enabled at its own rate.

    The file may also end without a newline, or turn to CRLF line ends or to
    quoted fields after its first chunk.
    """
    n = draw(st.integers(0, 3000))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    loss = draw(st.sampled_from(["square", "logloss"]))
    header = draw(st.sampled_from(HEADERS))
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    # A few defects each, so that some chunks are plain and some files have none.
    enabled = draw(st.lists(st.sampled_from(LAYOUT_DEFECTS), unique=True))
    layout = {d: draw(st.sampled_from([1e-4, 0.01, 0.2])) if d in enabled else 0.0
              for d in LAYOUT_DEFECTS}
    error_rate = draw(st.sampled_from([0.0, 0.0, 1e-4, 1e-3]))
    errors = draw(st.lists(st.sampled_from(ROW_ERRORS), min_size=1, unique=True))
    in_order = draw(st.sampled_from([True, True, False]))
    final_newline = draw(st.sampled_from([True, True, False]))
    late = draw(st.sampled_from([None, None, "crlf", "quoted"]))
    names = header.split(",")
    lines = [header + newline]
    for i in range(n):
        if rng.random() < layout["blank"]:
            lines.append(newline)
        values = {
            "score": repr(i + rng.random()) if in_order else repr(round(rng.uniform(0, 50), 1)),
            "target": rng.choice(["0", "1", "0.0", "1.0"]) if loss == "logloss"
            else repr(rng.uniform(-5, 5)),
            "weight": repr(rng.uniform(0.1, 3)),
            "note": "x",
        }
        if rng.random() < layout["empty-weight"]:
            values["weight"] = ""
        if rng.random() < layout["multi-line"]:
            values["note"] = '"two\nlines"'
        if rng.random() < layout["nul"]:
            values["note"] = "a\0b"
        if rng.random() < error_rate:
            error = rng.choice(errors)
            column, value = {
                "bad-number": (rng.choice(["score", "target", "weight"]), "1..2"),
                "nan": ("score", "nan"), "inf": ("target", "inf"),
                "zero-weight": ("weight", "0"), "bad-label": ("target", "0.5"),
            }[error]
            values[column] = value
        fields = [values[name] for name in names]
        if (rng.random() < layout["quoted"]
                or late == "quoted" and i >= cli._CHUNK_ROWS):
            fields = [f'"{f}"' if f and not f.startswith('"') else f for f in fields]
        if rng.random() < layout["short"] and names[-1] == "weight":
            fields.pop()
        if rng.random() < layout["extra"]:
            fields.append("7")
        end = "\r\n" if late == "crlf" and i >= cli._CHUNK_ROWS else newline
        if rng.random() < layout["lone-cr"]:
            end = "\r"
        lines.append(",".join(fields) + end)
    cap = draw(st.sampled_from([None, None, "0", "700", str(cli._CHUNK_ROWS), "2500"]))
    text = "".join(lines)
    if not final_newline:
        text = text.rstrip("\r\n")
    return text, loss, {} if cap is None else {cli.MAX_N_ENV: cap}


@settings(max_examples=50, derandomize=True, deadline=None)
@given(csv_texts())
def test_chunked_reader_matches_the_row_reader(case):
    text, loss, env = case
    with tempfile.TemporaryDirectory() as directory:
        assert_reads_like_reference(directory, text, loss, env)


# One defect each that the plain path must leave to the csv module, and a
# row out of score order, which a plain chunk reads and stream rejects. A
# lone carriage return ends the defect's line after an empty field; an
# undecodable byte is Latin-1.
BOUNDARY_DEFECTS = ("quote", "lone-cr", "nul", "extra", "short", "blank", "oversized",
                    "no-final-newline", "undecodable", "unordered")


@st.composite
def boundary_texts(draw, defect):
    """A plain run of about one or two chunks of rows, then ``defect``, then a few plain rows.

    The defect is on the row after the run, so it falls before, at or after a
    chunk boundary. Its field is the note, or the score in a one-column file.
    Notes are numbers, so that a field read from the wrong column still parses.
    """
    header = draw(st.sampled_from(["score,target,note", "score,target,weight,note",
                                   "note,score,target", "score", "score"]))
    run = draw(st.sampled_from([cli._CHUNK_ROWS, 2 * cli._CHUNK_ROWS])) + draw(st.integers(-2, 2))
    after = 0 if defect == "no-final-newline" else draw(st.sampled_from([0, 1, 5, 40]))
    loss = draw(st.sampled_from(["square", "logloss"]))
    cap = draw(st.sampled_from([None, None, cli._CHUNK_ROWS - 1, cli._CHUNK_ROWS + 1,
                                run, run + 1]))
    names = header.split(",")

    def row(i):
        values = {"score": repr(i + 0.5), "target": str(i % 2), "weight": "1.5", "note": "5"}
        return [values[name] for name in names]

    lines = [header + "\n"] + [",".join(row(i)) + "\n" for i in range(run)]
    fields = row(run)
    field = names.index("note" if "note" in names else "score")
    end = "\n"
    if defect == "quote":
        # A note over two lines, the second of which looks like a row.
        fields[field] = f'"5\n{run + 0.75!r},1,5"' if "note" in names else f'"{fields[field]}"'
    elif defect == "lone-cr":
        fields[-1] = ""
        end = "\r"
    elif defect == "nul":
        fields[field] += "\0"
    elif defect == "extra":
        fields.append("7")
    elif defect == "short":
        fields.pop()
    elif defect == "blank":
        lines.append("\n")
    elif defect == "oversized":
        fields[field] = "5" * (cli._FIELD_LIMIT + 1)
    elif defect == "no-final-newline":
        end = ""
    elif defect == "undecodable":
        fields[field] += "\ue000"
    elif defect == "unordered":
        fields[names.index("score")] = "0.25"
    lines.append(",".join(fields) + end)
    lines += [",".join(row(i)) + "\n" for i in range(run + 1, run + 1 + after)]
    text = "".join(lines).encode("utf-8").replace("\ue000".encode("utf-8"), b"\xe9")
    return text, loss, {} if cap is None else {cli.MAX_N_ENV: str(cap)}


@pytest.mark.parametrize("defect", BOUNDARY_DEFECTS)
@settings(max_examples=12, derandomize=True, deadline=None)
@given(data=st.data())
def test_chunked_reader_matches_the_row_reader_at_a_defect(defect, data):
    text, loss, env = data.draw(boundary_texts(defect))
    with tempfile.TemporaryDirectory() as directory:
        assert_reads_like_reference(directory, text, loss, env)
        # No command reads only a column that the file lacks: each row's
        # default, a blank line no row, then the error if there is one.
        path = os.path.join(directory, "in.csv")
        assert default_rows(cli._read_csv, path, env) == default_rows(reference_read_csv, path, env)


def default_rows(reader, path, env):
    """``reader``'s ``(row, 7.0)`` pairs for a column that the file lacks, then its error."""
    rows = []
    with mock.patch.dict(os.environ, env):
        try:
            for lines, (xs,) in reader(path, {"x": 7.0}, lambda *columns: columns):
                rows += zip(lines, xs)
        except cli._CliError as exc:
            rows.append(str(exc))
    return rows


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("steps", [4, 2000])
def test_model_write_error_exits_2(golden_csv, tmp_path, steps):
    # Every write to /dev/full fails: the golden 4-step model at the flush on
    # close, a 2,000-step one while its pieces are written.
    path = golden_csv if steps == 4 else write_training_csv(
        tmp_path / "rows.csv", [(i + 0.5, i / 3) for i in range(steps)])
    proc = subprocess.run([sys.executable, "-m", "monocal.cli", "fit", path, "--quiet",
                           "--out", "/dev/full"], capture_output=True, text=True,
                          env=cli_process_env(""), timeout=120)
    assert (proc.returncode, proc.stdout) == (cli.EXIT_USAGE, "")
    assert proc.stderr.startswith("monocal: cannot write /dev/full: ")
    assert proc.stderr.count("\n") == 1 and "Traceback" not in proc.stderr
    # Only a path that the check for --out created is removed.
    assert os.path.exists("/dev/full")


@pytest.fixture(scope="module")
def pipe_inputs(tmp_path_factory):
    """Each command's arguments, on inputs that give it over 1 MiB of output."""
    directory = tmp_path_factory.mktemp("pipe")
    # Increasing targets give one step per row, so a large model.
    rows = directory / "rows.csv"
    rows.write_text("score,target\n" + "".join(f"{i / 7!r},{i / 3!r}\n" for i in range(40000)))
    model = directory / "model.json"
    model.write_text(json.dumps(GOLDEN_MODEL))
    scores = directory / "scores.csv"
    scores.write_text("score\n" + "".join(f"{i / 7!r}\n" for i in range(60000)))
    # One target value keeps one step, so each streamed row stays short.
    ordered = directory / "ordered.csv"
    ordered.write_text("score,target\n" + "".join(f"{i},1\n" for i in range(100000)))
    return {"fit": ["fit", str(rows)], "apply": ["apply", str(model), str(scores)],
            "stream": ["stream", str(ordered)]}


def cli_process_env(unbuffered):
    """The environment of a ``python -m monocal.cli`` child that imports this monocal."""
    package = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    path = os.pathsep.join(filter(None, (package, os.environ.get("PYTHONPATH"))))
    return {**os.environ, "PYTHONPATH": path, "PYTHONUNBUFFERED": unbuffered}


@pytest.mark.parametrize("command", ["apply", "stream"])
def test_an_unbuffered_stdout_gets_the_same_bytes(tmp_path, command):
    # Each command writes one string per 1,024-row chunk; PYTHONUNBUFFERED
    # makes each write a system call, and must not change what is written.
    rows = tmp_path / "rows.csv"
    rows.write_text("score,target\n" + "".join(f"{i / 7!r},{i % 5}\n" for i in range(3000)))
    model = tmp_path / "model.json"
    model.write_text(json.dumps(GOLDEN_MODEL))
    argv = {"apply": ["apply", str(model), str(rows)], "stream": ["stream", str(rows)]}[command]
    outputs = [subprocess.run([sys.executable, "-m", "monocal.cli", *argv], capture_output=True,
                              env=cli_process_env(unbuffered), timeout=120)
               for unbuffered in ("", "1")]
    assert [(proc.returncode, proc.stderr) for proc in outputs] == [(0, b"")] * 2
    assert outputs[0].stdout == outputs[1].stdout
    assert outputs[0].stdout.count(b"\n") == 3001


@pytest.mark.parametrize("unbuffered", ["", "1"])
@pytest.mark.parametrize("command", ["fit", "apply", "stream"])
def test_closed_reader_exits_quietly(pipe_inputs, command, unbuffered):
    # As `monocal ... | head -n 1`: the reader closes stdout after one line.
    proc = subprocess.Popen([sys.executable, "-m", "monocal.cli", *pipe_inputs[command]],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            env=cli_process_env(unbuffered))
    with proc:
        first = proc.stdout.readline()
        proc.stdout.close()
        stderr = proc.stderr.read()
        code = proc.wait(timeout=120)
    assert first
    assert stderr == b""
    assert code == cli.EXIT_BROKEN_PIPE


@pytest.mark.parametrize("unbuffered", ["", "1"])
@pytest.mark.parametrize("command", ["fit", "apply", "stream"])
def test_pipe_closed_before_the_first_write_exits_quietly(golden_csv, tmp_path, command,
                                                          unbuffered):
    # Output small enough to sit in stdout's buffer until the flush at exit.
    model = tmp_path / "model.json"
    model.write_text(json.dumps(GOLDEN_MODEL))
    argv = {"fit": ["fit", golden_csv, "--quiet"], "apply": ["apply", str(model), golden_csv],
            "stream": ["stream", golden_csv]}[command]
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run([sys.executable, "-m", "monocal.cli", *argv], stdout=write_end,
                              stderr=subprocess.PIPE, env=cli_process_env(unbuffered),
                              timeout=120)
    finally:
        os.close(write_end)
    assert proc.stderr == b""
    assert proc.returncode == cli.EXIT_BROKEN_PIPE


# Pieces of an argv: positionals, each command's exact option spellings with
# values that pass, and other pieces: another command's options,
# abbreviations, bad values and tokens that argparse reads in its own ways.
POSITIONALS = ("in.csv", "model.json", "", "square", "fit")
QUIET = (["--quiet"],)
LOSS_OPTIONS = (["--loss", "square"], ["--loss", "logloss"], ["--loss=square"], ["--loss=logloss"])
PLAIN_OPTIONS = {
    "fit": QUIET + LOSS_OPTIONS + (
        ["--solver", "anytime"], ["--solver", "direct"], ["--solver=stack"], ["--delta", "1e-3"],
        ["--delta", "nan"], ["--delta", "1_0"], ["--delta", " 2 "], ["--delta=-1"],
        ["--delta=nan"], ["--max-iters", "7"], ["--max-iters", "1_0"], ["--max-iters=3"],
        ["--out", "m.json"], ["--out", ""], ["--out=-x"], ["--out="]),
    "apply": QUIET,
    "stream": QUIET + LOSS_OPTIONS,
}
OTHER_PIECES = (
    ["-"], ["--"], ["-h"], ["--help"], ["--he"], ["-x y"], ["--bogus"], ["-1"],
    ["--loss", "square"], ["--solver", "stack"], ["--out", "m.json"], ["--loss", "bad"],
    ["--loss"], ["--lo", "square"], ["--loss=bad"], ["--loss="], ["--loss=square=x"],
    ["--solver", "quick"], ["--sol", "stack"], ["--delta", "-1"], ["--delta", "0x10"],
    ["--delta", ""], ["--del", "1"], ["--max-iters", "0x10"], ["--max-iters", "nan"],
    ["--max-iters", "-1"], ["--max_iters", "3"], ["--max", "3"], ["--out", "-"],
    ["--o", "m.json"], ["--out"], ["--out=--"], ["--loss=--"], ["--quiet=1"], ["--quiet="],
    ["--q"], ["-q"],
)


@st.composite
def argvs(draw):
    """A command (or not), then positionals, its options and none to two other pieces, in any order."""
    command = draw(st.sampled_from(["fit", "apply", "stream"] * 3 + ["--help", "in.csv"]))
    options = PLAIN_OPTIONS.get(command, PLAIN_OPTIONS["fit"])
    pieces = [[draw(st.sampled_from(POSITIONALS))]
              for _ in range(draw(st.sampled_from([0, 1, 1, 2, 2, 3])))]
    pieces += [draw(st.sampled_from(options)) for _ in range(draw(st.integers(0, 4)))]
    pieces += [draw(st.sampled_from(OTHER_PIECES))
               for _ in range(draw(st.sampled_from([0, 0, 0, 1, 2])))]
    return [command, *(token for piece in draw(st.permutations(pieces)) for token in piece)]


def argparse_values(argv):
    """``vars()`` of argparse's namespace for ``argv``, or None where it exits (help or an error)."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return vars(cli._build_parser().parse_args(argv))
        except SystemExit:
            return None


def reprs(values):
    # The repr of each value: NaN equals NaN, and 1 differs from 1.0 and "1".
    return {name: repr(value) for name, value in values.items()}


@settings(max_examples=1000, derandomize=True, deadline=None)
@given(argvs())
def test_a_plain_argv_reads_as_argparse_reads_it(argv):
    plain = cli._plain_args(argv)
    want = argparse_values(argv)
    if plain is not None:
        assert want is not None and reprs(vars(plain)) == reprs(want), argv


@pytest.mark.parametrize("plain", [["fit", "in.csv", "--loss", "square"],
                                   ["apply", "model.json", "in.csv"], ["stream", "in.csv"]])
def test_one_other_piece_in_a_plain_argv(plain):
    # Each other piece after the command and at the end of a plain argv.
    for piece in OTHER_PIECES:
        for argv in ([plain[0], *piece, *plain[1:]], plain + piece):
            got = cli._plain_args(argv)
            if got is not None:
                assert reprs(vars(got)) == reprs(argparse_values(argv)), argv


# The benchmark children's argv (perfbench/run.py), for each loss.
BENCHMARK_ARGV = [argv for loss in ("square", "logloss") for argv in (
    ["fit", "fit.csv", "--loss", loss, "--out", "model.json", "--quiet"],
    ["fit", "anytime.csv", "--loss", loss, "--solver", "anytime", "--out", "any.json", "--quiet"],
    ["apply", "model.json", "apply.csv"],
    ["stream", "stream0.csv", "--loss", loss],
)]


def test_the_golden_and_benchmark_argv_are_plain():
    with open(os.path.join(os.path.dirname(__file__), "golden.json"), encoding="utf-8") as handle:
        golden = [key.split(" ") for key in json.load(handle)]
    for argv in golden + BENCHMARK_ARGV:
        plain = cli._plain_args(argv)
        assert plain is not None, argv
        assert reprs(vars(plain)) == reprs(argparse_values(argv)), argv


@pytest.mark.parametrize("argv", [
    ["fit", "in.csv", "--solver=anytime", "--delta=1e-3", "--max-iters=1_0", "--out=-x"],
    ["fit", "--quiet", "in.csv", "--loss", "square", "--loss", "logloss", "--quiet"],
    ["apply", "model.json", "--quiet", "scores.csv"],
    ["stream", "", "--loss=logloss"],
    ["fit", "in.csv", "--delta", "nan", "--out", ""],
], ids=["equals-forms", "repeated", "interleaved", "empty-positional", "nan-and-empty-out"])
def test_plain_argv_forms(argv):
    plain = cli._plain_args(argv)
    assert plain is not None
    assert reprs(vars(plain)) == reprs(argparse_values(argv))


@pytest.mark.parametrize("argv", [
    [], ["--help"], ["fit", "--help"], ["fit", "in.csv", "-h"], ["fit", "in.csv", "--lo", "square"],
    ["fit", "in.csv", "--bogus"], ["fit", "in.csv", "--loss=bad"], ["fit", "in.csv", "--loss", "bad"],
    ["fit"], ["apply", "model.json"], ["apply", "a", "b", "c"], ["fit", "in.csv", "--delta", "-1"],
    ["fit", "--", "in.csv"], ["fit", "in.csv", "--"], ["fit", "in.csv", "--out"],
    ["fit", "in.csv", "--max-iters", "0x10"], ["stream", "in.csv", "--quiet=1"], ["stream", "-"],
    ["fit", "in.csv", "--out=--"],
    ["apply", "model.json", "scores.csv", "--loss", "square"], ["bogus", "in.csv"],
])
def test_argv_that_only_argparse_judges_is_not_plain(argv):
    assert cli._plain_args(argv) is None


def test_main_reads_a_plain_argv_without_argparse(golden_csv, capsys):
    with mock.patch.object(cli, "_build_parser", side_effect=AssertionError("argparse ran")):
        code, stdout, _ = run(capsys, "stream", golden_csv, "--loss=square")
    assert code == 0 and stdout.startswith("n,steps,merges,values\n")
