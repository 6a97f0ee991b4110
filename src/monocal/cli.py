"""Command-line front end: fit models from CSV, apply them, stream ordered data.

Input CSV needs a header with columns ``score,target[,weight]`` (``target``
is the binary label for log loss); apply input needs a ``score`` column.
Models are JSON documents with fields version/family/breakpoints/values/
metadata; unknown fields are rejected on load. Exit codes: 0 success,
2 input or usage error, 3 ordering violation in stream mode.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from typing import Any, Iterator, Sequence

from . import anytime, losses
from .core import Sample, Staircase, _check_sample, blocks_to_staircase, normalize
from .errors import CalibrationError, InvalidValue, OutOfOrder
from .online import OnlineState
from .pav_offline import fit_direct, fit_stack

MODEL_VERSION = 1
MAX_N_ENV = "MONOCAL_MAX_N"

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_OUT_OF_ORDER = 3

_FAMILIES = {"square": losses.WEIGHTED_SQUARE, "logloss": losses.LOG_LOSS}


class _CliError(Exception):
    def __init__(self, message: str, code: int = EXIT_USAGE) -> None:
        super().__init__(message)
        self.code = code


def _max_rows() -> int | None:
    raw = os.environ.get(MAX_N_ENV, "").strip()
    if not raw:
        return None
    try:
        cap = int(raw)
    except ValueError:
        raise _CliError(f"{MAX_N_ENV} must be an integer, got {raw!r}")
    return cap if cap > 0 else None


def _parse_float(text: str, column: str, row: int) -> float:
    try:
        return float(text)
    except ValueError:
        raise _CliError(f"row {row}: column {column!r} is not a number: {text!r}")


def _training_rows(path: str, loss_tag: str) -> Iterator[tuple[int, Sample]]:
    cap = _max_rows()
    try:
        handle = open(path, newline="", encoding="utf-8")
    except OSError as exc:
        raise _CliError(f"cannot read {path}: {exc}")
    with handle:
        reader = csv.DictReader(handle)
        if reader.fieldnames is None or "score" not in reader.fieldnames:
            raise _CliError(f"{path}: header with a 'score' column is required")
        if "target" not in reader.fieldnames:
            raise _CliError(f"{path}: header with a 'target' column is required")
        has_weight = "weight" in reader.fieldnames
        logloss = loss_tag == "logloss"
        count = 0
        for record in reader:
            row = reader.line_num
            count += 1
            if cap is not None and count > cap:
                raise _CliError(f"{path}: more than {MAX_N_ENV}={cap} rows")
            score = _parse_float(record["score"] or "", "score", row)
            target = _parse_float(record["target"] or "", "target", row)
            weight = 1.0
            if has_weight and record["weight"]:
                weight = _parse_float(record["weight"], "weight", row)
            sample = Sample(score=score, target=target, weight=weight)
            try:
                _check_sample(sample)
                if logloss:
                    sample = losses.logloss_reduce([sample])[0]
            except CalibrationError as exc:
                raise _CliError(f"row {row}: {exc}")
            yield row, sample


def _parse_bounds(text: str) -> tuple[float, float]:
    if text == "auto":
        return math.inf, -math.inf
    parts = text.split(",")
    if len(parts) != 2:
        raise _CliError(f"--bounds wants 'lo,hi' or 'auto', got {text!r}")
    try:
        lo, hi = float(parts[0]), float(parts[1])
    except ValueError:
        raise _CliError(f"--bounds wants numbers, got {text!r}")
    return hi, lo


def model_to_dict(staircase: Staircase, family_tag: str, metadata: dict[str, Any]) -> dict:
    return {
        "version": MODEL_VERSION,
        "family": family_tag,
        "breakpoints": list(staircase.breakpoints),
        "values": list(staircase.values),
        "metadata": metadata,
    }


def model_from_dict(doc: Any) -> tuple[Staircase, str, dict[str, Any]]:
    if not isinstance(doc, dict):
        raise InvalidValue("model file must be a JSON object")
    known = {"version", "family", "breakpoints", "values", "metadata"}
    unknown = set(doc) - known
    if unknown:
        raise InvalidValue(f"model file has unknown fields: {sorted(unknown)}")
    missing = known - set(doc)
    if missing:
        raise InvalidValue(f"model file is missing fields: {sorted(missing)}")
    if doc["version"] != MODEL_VERSION:
        raise InvalidValue(f"unsupported model version {doc['version']!r}")
    if doc["family"] not in _FAMILIES:
        raise InvalidValue(f"unknown family tag {doc['family']!r}")
    if not isinstance(doc["metadata"], dict):
        raise InvalidValue("model metadata must be an object")
    staircase = Staircase(
        tuple(float(b) for b in doc["breakpoints"]),
        tuple(float(v) for v in doc["values"]),
    )
    return staircase, doc["family"], doc["metadata"]


def load_model(path: str) -> tuple[Staircase, str, dict[str, Any]]:
    try:
        with open(path, encoding="utf-8") as handle:
            doc = json.load(handle)
    except OSError as exc:
        raise _CliError(f"cannot read {path}: {exc}")
    except json.JSONDecodeError as exc:
        raise _CliError(f"{path}: not valid JSON: {exc}")
    return model_from_dict(doc)


def _cmd_fit(args: argparse.Namespace) -> int:
    if args.solver != "anytime":
        for flag in ("delta", "bounds", "max_iters"):
            if getattr(args, flag) is not None:
                raise _CliError(
                    f"--{flag.replace('_', '-')} only applies to --solver anytime"
                )
    family = _FAMILIES[args.loss]
    problem = normalize((s for _, s in _training_rows(args.input, args.loss)), family)
    scores = [s.score for s in problem.samples]
    n = len(problem.samples)

    if args.solver == "anytime":
        # Log loss lives on [0, 1]; doubling outward makes no sense there.
        default_bounds = "0,1" if args.loss == "logloss" else "auto"
        upper, lower = _parse_bounds(args.bounds if args.bounds is not None else default_bounds)
        config = anytime.AnytimeConfig(
            init_upper=upper,
            init_lower=lower,
            delta=args.delta if args.delta is not None else 1e-6,
            max_iters=args.max_iters if args.max_iters is not None else 256,
        )
        result = anytime.anytime_run(problem, config)
        staircase = result.staircase
        metadata: dict[str, Any] = {
            "solver": "anytime",
            "n_samples": n,
            "merge_count": n - len(result.groups),
            "total_loss": result.total_loss,
            "delta": config.delta,
            "width_bound": result.width_bound,
            "rounds": result.iters,
        }
    else:
        report = fit_direct(problem) if args.solver == "direct" else fit_stack(problem)
        staircase = blocks_to_staircase(report.blocks, scores)
        metadata = {
            "solver": args.solver,
            "n_samples": n,
            "merge_count": report.merge_count,
            "total_loss": report.total_loss,
        }

    doc = model_to_dict(staircase, args.loss, metadata)
    text = json.dumps(doc, indent=2)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
    else:
        print(text)
    if not args.quiet:
        print(
            f"fit: {n} samples -> {staircase.step_count} steps "
            f"({metadata['merge_count']} merges, loss {metadata['total_loss']:.6g})",
            file=sys.stderr,
        )
    return EXIT_OK


def _cmd_apply(args: argparse.Namespace) -> int:
    staircase, _, _ = load_model(args.model)
    try:
        handle = open(args.scores, newline="", encoding="utf-8")
    except OSError as exc:
        raise _CliError(f"cannot read {args.scores}: {exc}")
    out = sys.stdout
    with handle:
        reader = csv.DictReader(handle)
        if reader.fieldnames is None or "score" not in reader.fieldnames:
            raise _CliError(f"{args.scores}: header with a 'score' column is required")
        out.write("score,calibrated\n")
        try:
            for record in reader:
                score = _parse_float(record["score"] or "", "score", reader.line_num)
                out.write(f"{score!r},{staircase(score)!r}\n")
        except CalibrationError as exc:
            raise _CliError(f"row {reader.line_num}: {exc}")
    return EXIT_OK


def _cmd_stream(args: argparse.Namespace) -> int:
    state = OnlineState(_FAMILIES[args.loss])
    out = sys.stdout
    out.write("n,steps,merges,values\n")
    for row, sample in _training_rows(args.input, args.loss):
        try:
            state.push(sample)
        except OutOfOrder as exc:
            print(f"row {row}: {exc}", file=sys.stderr)
            return EXIT_OUT_OF_ORDER
        values = " ".join(repr(v) for v in state.current().values)
        out.write(f"{state.n_seen},{state.step_count},{state.cumulative_merges},{values}\n")
    if state.n_seen == 0:
        raise _CliError(f"{args.input}: no data rows")
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="monocal",
        description="Fit and apply optimal monotone staircase calibrations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    fit = sub.add_parser("fit", help="fit a calibration model from a training CSV")
    fit.add_argument("input", help="CSV with columns score,target[,weight]")
    fit.add_argument("--loss", choices=("square", "logloss"), default="square")
    fit.add_argument("--solver", choices=("direct", "stack", "anytime"), default="stack")
    fit.add_argument("--delta", type=float, default=None,
                     help="anytime bracket width target (default 1e-6)")
    fit.add_argument("--bounds", default=None,
                     help="anytime minimizer bounds 'lo,hi', or 'auto' (default)")
    fit.add_argument("--max-iters", type=int, default=None, dest="max_iters",
                     help="anytime round cap (default 256)")
    fit.add_argument("--out", default=None, help="write the model here instead of stdout")
    fit.add_argument("--quiet", action="store_true", help="suppress diagnostics")
    fit.set_defaults(func=_cmd_fit)

    apply_ = sub.add_parser("apply", help="calibrate scores with a fitted model")
    apply_.add_argument("model", help="model JSON written by 'fit'")
    apply_.add_argument("scores", help="CSV with a 'score' column")
    apply_.add_argument("--quiet", action="store_true", help="suppress diagnostics")
    apply_.set_defaults(func=_cmd_apply)

    stream = sub.add_parser("stream", help="drive the online solver over ordered rows")
    stream.add_argument("input", help="CSV with columns score,target[,weight], score-ordered")
    stream.add_argument("--loss", choices=("square", "logloss"), default="square")
    stream.add_argument("--quiet", action="store_true", help="suppress diagnostics")
    stream.set_defaults(func=_cmd_stream)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _CliError as exc:
        print(f"monocal: {exc}", file=sys.stderr)
        return exc.code
    except CalibrationError as exc:
        print(f"monocal: {exc}", file=sys.stderr)
        return EXIT_USAGE


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
