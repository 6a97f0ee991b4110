"""Command-line front end: fit models from CSV, apply them, stream ordered data.

Input CSV needs a header with columns ``score,target[,weight]`` (``target``
is the binary label for log loss); apply input needs a ``score`` column.
Models are JSON documents with fields version/family/breakpoints/values/
metadata; unknown fields are rejected on load. Exit codes: 0 success,
2 input or usage error, 3 ordering violation in stream mode, 141 stdout
closed by its reader (console script only).
"""

from __future__ import annotations

import argparse
import csv
import math
import os
import sys
from itertools import chain, count, islice
from operator import itemgetter
from typing import TYPE_CHECKING, Any, Callable, Iterator, Sequence

from .core import Sample, Staircase, _normalize, _partition_staircase, _steps_at, _valid_rows
from .errors import CalibrationError, InvalidValue, OutOfOrder

if TYPE_CHECKING:
    from .losses import LossFamily

# Each command imports what it runs: its solver module, `losses` (fit and
# stream) and `json` (fit and apply). `monocal.cli` itself loads core and
# errors only.

MODEL_VERSION = 1
# Records read from a CSV at a time, and model values encoded at a time; a
# larger chunk saves little time and holds more rows in memory.
_CHUNK_ROWS = 1024
MAX_N_ENV = "MONOCAL_MAX_N"

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_OUT_OF_ORDER = 3
# 128 + SIGPIPE: what a shell reports for a program that a closed pipe ends.
EXIT_BROKEN_PIPE = 141

# The --loss tags, also a model file's family tags; _family maps each to its
# built-in LossFamily.
_FAMILIES = ("square", "logloss")


class _CliError(Exception):
    def __init__(self, message: str, code: int = EXIT_USAGE) -> None:
        super().__init__(message)
        self.code = code


def _family(tag: str) -> LossFamily:
    """The built-in ``LossFamily`` of a loss tag."""
    from .losses import LOG_LOSS, WEIGHTED_SQUARE

    return {"square": WEIGHTED_SQUARE, "logloss": LOG_LOSS}[tag]


def _read_csv(
    path: str, columns: dict[str, float | None], build: Callable[..., Any]
) -> Iterator[tuple[list[int], Any]]:
    """Check the CSV header now; later yield ``(line numbers, build(*columns))`` per chunk.

    ``columns`` maps each column, in ``build``'s argument order, to the number
    an empty or missing field reads as, or to None if it is required. A chunk
    is at most ``_CHUNK_ROWS`` records; ``build`` gets one list of numbers per
    column and returns the chunk's value. Blank lines are skipped, a leading
    byte-order mark is ignored and a positive ``MONOCAL_MAX_N`` caps the rows.
    When anything in a chunk fails (a field that is not a number or needs its
    default, a ``build`` error, the cap, a CSV error), the chunk is read again
    row by row: the rows before the failure are yielded, and then its error is
    raised, a bad row's with a ``row N:`` prefix (N is the line the record
    ends on). Undecodable text and csv-module errors (such as an oversized
    field) are usage errors.
    """
    raw_cap = os.environ.get(MAX_N_ENV, "").strip()
    try:
        cap = int(raw_cap) if raw_cap else 0
    except ValueError:
        raise _CliError(f"{MAX_N_ENV} must be an integer, got {raw_cap!r}")
    try:
        handle = open(path, newline="", encoding="utf-8-sig")
    except OSError as exc:
        raise _CliError(f"cannot read {path}: {exc}")
    reader = csv.reader(handle)

    def parse_error(exc: Exception) -> _CliError:
        return _CliError(f"{path}: cannot parse CSV (read {reader.line_num} lines): {exc}")

    try:
        header = next(reader, [])
    except (UnicodeDecodeError, csv.Error) as exc:
        handle.close()
        raise parse_error(exc)
    for name, default in columns.items():
        if default is None and name not in header:
            handle.close()
            raise _CliError(f"{path}: header with a {name!r} column is required")
    # The last of repeated column names wins; None marks a column the header lacks.
    index = {name: i for i, name in enumerate(header)}
    picks = [(name, index.get(name), default) for name, default in columns.items()]

    def by_row(records: list[list[str]], rows: list[int], seen: int):
        """Yield a chunk's rows one at a time; raise the first bad row's error."""
        for number, fields, row in zip(count(seen + 1), records, rows):
            if 0 < cap < number:
                raise _CliError(f"{path}: more than {MAX_N_ENV}={cap} rows")
            numbers = []
            for name, i, default in picks:
                text = fields[i] if i is not None and i < len(fields) else ""
                try:
                    numbers.append(float(text) if text or default is None else default)
                except ValueError:
                    raise _CliError(f"row {row}: column {name!r} is not a number: {text!r}")
            try:
                item = build(*([x] for x in numbers))
            except CalibrationError as exc:
                raise _CliError(f"row {row}: {exc}")
            yield [row], item

    def chunks() -> Iterator[tuple[list[int], Any]]:
        seen = 0
        with handle:
            while True:
                start = reader.line_num
                records: list[list[str]] = []
                rows: list[int] = []
                error = None
                try:
                    for fields in islice(reader, _CHUNK_ROWS):
                        if fields:
                            records.append(fields)
                            rows.append(reader.line_num)
                except (UnicodeDecodeError, csv.Error) as exc:
                    # The records read before the error still count.
                    error = parse_error(exc)
                items = None
                if records and not 0 < cap < seen + len(records):
                    try:
                        items = build(*(
                            [default] * len(records) if i is None
                            else list(map(float, map(itemgetter(i), records)))
                            for _, i, default in picks
                        ))
                    except (IndexError, ValueError, CalibrationError):
                        pass  # read again row by row, for the defaults or the error
                if items is not None:
                    yield rows, items
                elif records:
                    yield from by_row(records, rows, seen)
                seen += len(records)
                if error is not None:
                    raise error
                if reader.line_num == start:
                    return

    return chunks()


def _training_csv(path: str, loss_tag: str) -> Iterator[tuple[list[int], Any]]:
    """``_read_csv`` of training rows, each chunk its ``(scores, targets, weights)``.

    The columns pass ``Sample``'s rule and, for log loss, every target is a
    0/1 label. The rules run on whole columns; only a chunk that fails them
    builds samples, to raise its first bad row's error.
    """
    from .losses import _LABELS, check_label

    logloss = loss_tag == "logloss"

    def checked(scores: list[float], targets: list[float], weights: list[float]) -> tuple:
        if (not _valid_rows(scores, targets, weights)
                or logloss and not _LABELS.issuperset(targets)):
            for sample in map(Sample, scores, targets, weights):
                if logloss:
                    check_label(sample)
        return scores, targets, weights

    return _read_csv(path, {"score": None, "target": None, "weight": 1.0}, checked)


def _training_columns(path: str, loss_tag: str) -> list[list[float]]:
    """The ``[scores, targets, weights]`` columns of a training CSV's valid rows."""
    columns: list[list[float]] = [[], [], []]
    for _, chunk in _training_csv(path, loss_tag):
        for column, values in zip(columns, chunk):
            column += values
    return columns


def model_to_dict(staircase: Staircase, family_tag: str, metadata: dict[str, Any]) -> dict:
    """The model document; the float arrays are the staircase's tuples, JSON arrays when dumped."""
    return {
        "version": MODEL_VERSION,
        "family": family_tag,
        "breakpoints": staircase.breakpoints,
        "values": staircase.values,
        "metadata": metadata,
    }


def _model_pieces(staircase: Staircase, family_tag: str, metadata: dict[str, Any]) -> list[str]:
    """The model file's text in pieces, one line per top-level field.

    Each piece comes from ``json.dumps`` without indent, which runs the C
    encoder (indent=2 would fall back to the pure-Python one). The encoder
    can hold a string per value until it joins them (CPython 3.11's does),
    so a float array is encoded ``_CHUNK_ROWS`` values at a time and the
    slices are spliced with ``json.dumps``'s own ", ": the bytes are one-shot
    ``json.dumps``'s, and no string per step of the whole model is held.
    """
    import json

    pieces = ["{\n"]
    for key, value in model_to_dict(staircase, family_tag, metadata).items():
        pieces.append(f"  {json.dumps(key)}: ")
        if type(value) is tuple:
            pieces.append("[")
            for start in range(0, len(value), _CHUNK_ROWS):
                pieces += (json.dumps(value[start:start + _CHUNK_ROWS])[1:-1], ", ")
            pieces[-1] = "]" if value else "[]"  # the last ", ", or the "[" of no value
        else:
            pieces.append(json.dumps(value))
        pieces.append(",\n")
    pieces[-1] = "\n}\n"
    return pieces


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
    # bool is an int subclass and True == 1, so test the type exactly.
    if type(doc["version"]) is not int or doc["version"] != MODEL_VERSION:
        raise InvalidValue(f"unsupported model version {doc['version']!r}")
    if not isinstance(doc["family"], str) or doc["family"] not in _FAMILIES:
        raise InvalidValue(f"unknown family tag {doc['family']!r}")
    if not isinstance(doc["metadata"], dict):
        raise InvalidValue("model metadata must be an object")
    staircase = Staircase(_model_floats(doc, "breakpoints"), _model_floats(doc, "values"))
    return staircase, doc["family"], doc["metadata"]


def _model_floats(doc: dict, field: str) -> tuple[float, ...]:
    items = doc[field]
    # JSON numbers load as int or float, never bool; huge ints overflow. The
    # finite rule is the Staircase's own.
    if not isinstance(items, list) or not all(
        type(v) is float or type(v) is int and abs(v) <= sys.float_info.max for v in items
    ):
        raise InvalidValue(f"model {field} must be a list of numbers in float range")
    return tuple(map(float, items))


def load_model(path: str) -> tuple[Staircase, str, dict[str, Any]]:
    import json

    try:
        with open(path, encoding="utf-8") as handle:
            doc = json.load(handle)
    except OSError as exc:
        raise _CliError(f"cannot read {path}: {exc}")
    except (ValueError, RecursionError) as exc:
        # ValueError covers JSONDecodeError and UnicodeDecodeError; a document
        # nested too deep for the parser raises RecursionError.
        raise _CliError(f"{path}: not valid JSON: {exc}")
    return model_from_dict(doc)


def _check_writable(path: str) -> None:
    """Fail before the fit if ``path`` cannot be written; change no file."""
    existed = os.path.lexists(path)
    try:
        open(path, "a", encoding="utf-8").close()
    except OSError as exc:
        raise _CliError(f"cannot write {path}: {exc}")
    if not existed:
        os.remove(path)


def _cmd_fit(args: argparse.Namespace) -> int:
    # The loss module loads before anything else the fit allocates: loaded
    # after the --out check, it left the fit's peak RSS about 0.3 MB higher.
    family = _family(args.loss)
    given = {f: getattr(args, f) for f in ("delta", "max_iters") if getattr(args, f) is not None}
    if given and args.solver != "anytime":
        flag = next(iter(given)).replace("_", "-")
        raise _CliError(f"--{flag} only applies to --solver anytime")
    if args.out is not None:
        _check_writable(args.out)
    # Rows go from the reader to the problem as columns, no Sample each. Only
    # _normalize holds the columns, so its sort can free each one it replaces.
    problem = _normalize(_training_columns(args.input, args.loss), family)
    n = len(problem.scores)

    from .losses import _minimizer_bracket, _partition_loss

    # Each solver ends in the stack's lists, so no Block or AnytimeGroup is built.
    if args.solver == "anytime":
        from .anytime import AnytimeConfig, _fit_anytime

        upper, lower = _minimizer_bracket(problem)
        config = AnytimeConfig(init_upper=upper, init_lower=lower, **given)
        firsts, ys, width_bound, rounds = _fit_anytime(problem, config)[:4]
        extra = {"delta": config.delta, "width_bound": width_bound, "rounds": rounds}
    else:
        from .pav_offline import _fit_direct, _fit_stack

        firsts, ys = (_fit_direct if args.solver == "direct" else _fit_stack)(problem)[:2]
        extra = {}
    staircase = _partition_staircase(problem.scores, firsts, ys)
    total_loss = _partition_loss(problem, firsts, ys)
    # The staircase and the metadata are all the model needs: free the columns
    # and the solver's state before the model text is made.
    del problem, firsts, ys
    metadata = {"solver": args.solver, "n_samples": n,
                "merge_count": n - staircase.step_count, "total_loss": total_loss, **extra}

    # Every field is encoded before the output is opened, so a failed fit
    # writes nothing, and the pieces are written one by one: no string of a
    # whole line or of the model is built.
    pieces = _model_pieces(staircase, args.loss, metadata)
    if args.out is not None:
        try:
            with open(args.out, "w", encoding="utf-8") as handle:
                handle.writelines(pieces)
        except OSError as exc:
            raise _CliError(f"cannot write {args.out}: {exc}")
    else:
        sys.stdout.writelines(pieces)
    if not args.quiet:
        print(
            f"fit: {n} samples -> {staircase.step_count} steps "
            f"({metadata['merge_count']} merges, loss {metadata['total_loss']:.6g})",
            file=sys.stderr,
        )
    return EXIT_OK


def _cmd_apply(args: argparse.Namespace) -> int:
    staircase, _, _ = load_model(args.model)
    values = staircase.values

    def text(scores: list[float]) -> str:
        # A chunk's rows as one string, with no Python frame per row: the
        # repr of each step value the chunk reaches is made once.
        steps = _steps_at(staircase, scores)
        reached = set(steps)
        reprs = dict(zip(reached, map(repr, map(values.__getitem__, reached))))
        return "".join(map("{!r},{}\n".format, scores, map(reprs.__getitem__, steps)))

    chunks = _read_csv(args.scores, {"score": None}, text)
    out = sys.stdout
    out.write("score,calibrated\n")
    # One write per chunk: an unbuffered stdout (PYTHONUNBUFFERED) makes a
    # system call per write. A chunk read again row by row writes per row.
    for _, chunk in chunks:
        out.write(chunk)
    return EXIT_OK


def _cmd_stream(args: argparse.Namespace) -> int:
    from .online import OnlineState

    state = OnlineState(_family(args.loss))
    # Both built-ins take a sample's target and weight as its minimizer and
    # auxiliary value, so the checked columns are pushed as they are.
    push = state._push
    # Opens the input and checks its header, so a failure there writes nothing.
    chunks = _training_csv(args.input, args.loss)
    out = sys.stdout
    out.write("n,steps,merges,values\n")
    # The text of each step value, kept in step with the stack. A push changes
    # only the top step (see OnlineState), so a row costs one repr plus the
    # join of its output bytes instead of a rebuilt Staircase.
    reprs: list[str] = []
    records = chain.from_iterable(zip(rows, *columns) for rows, columns in chunks)
    for row, score, target, weight in records:
        try:
            push(score, target, weight)
        except OutOfOrder as exc:
            raise _CliError(f"row {row}: {exc}", EXIT_OUT_OF_ORDER)
        steps = state.step_count
        top = state.top
        del reprs[steps - 1:]
        reprs.append(repr(top))
        if not math.isfinite(top):
            # Staircase's finite rule: every lower step passed this check as
            # the top of an earlier row, so the top is all that can fail.
            raise InvalidValue(f"step values must be finite ({reprs[0]}, {reprs[-1]})")
        values = " ".join(reprs)
        out.write(f"{state.n_seen},{steps},{state.cumulative_merges},{values}\n")
    if state.n_seen == 0:
        raise _CliError(f"{args.input}: no data rows")
    return EXIT_OK


# apply and stream write no diagnostics, so their --quiet does nothing.
_QUIET_NO_EFFECT = "no effect here; accepted so that scripts can pass --quiet to every command"


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="monocal",
        description="Fit and apply optimal monotone staircase calibrations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    fit = sub.add_parser("fit", help="fit a calibration model from a training CSV")
    fit.add_argument("input", help="CSV with columns score,target[,weight]")
    fit.add_argument("--loss", choices=_FAMILIES, default="square")
    fit.add_argument("--solver", choices=("direct", "stack", "anytime"), default="stack",
                     help="direct is the reference solver, quadratic in the worst case")
    # AnytimeConfig()'s defaults, copied so that building the parser loads no
    # solver; tests/test_cli.py fails when the two drift.
    fit.add_argument("--delta", type=float, default=None,
                     help="anytime bracket width target (default 1e-06)")
    fit.add_argument("--max-iters", type=int, default=None, dest="max_iters",
                     help="anytime round cap (default 256)")
    fit.add_argument("--out", default=None, help="write the model here instead of stdout")
    fit.add_argument("--quiet", action="store_true", help="suppress diagnostics")
    fit.set_defaults(func=_cmd_fit)

    apply_ = sub.add_parser("apply", help="calibrate scores with a fitted model")
    apply_.add_argument("model", help="model JSON written by 'fit'")
    apply_.add_argument("scores", help="CSV with a 'score' column")
    apply_.add_argument("--quiet", action="store_true", help=_QUIET_NO_EFFECT)
    apply_.set_defaults(func=_cmd_apply)

    stream = sub.add_parser("stream", help="drive the online solver over ordered rows")
    stream.add_argument("input", help="CSV with columns score,target[,weight], score-ordered")
    stream.add_argument("--loss", choices=_FAMILIES, default="square")
    stream.add_argument("--quiet", action="store_true", help=_QUIET_NO_EFFECT)
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
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed stdout early, as `| head` does. Point stdout at
        # devnull so that the flush at exit writes nothing, as the SIGPIPE
        # note in Python's `signal` docs does, and exit as a program that
        # SIGPIPE ends is reported. `main` leaves fd 1 alone for in-process
        # callers.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = EXIT_BROKEN_PIPE
    sys.exit(code)


if __name__ == "__main__":
    entry()
