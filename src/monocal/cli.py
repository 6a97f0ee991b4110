"""Command-line front end: fit models from CSV, apply them, stream ordered data.

Input CSV needs a header with columns ``score,target[,weight]`` (``target``
is the binary label for log loss); apply input needs a ``score`` column.
Models are JSON documents with fields version/family/breakpoints/values/
metadata; unknown fields are rejected on load. Exit codes: 0 success,
2 input or usage error, 3 ordering violation in stream mode, 141 stdout
closed by its reader (console script only).

This module holds the CLI grammar, the CSV reader and ``stream``. A plain
argv (see ``_plain_args``) is read without argparse; ``argparse`` is imported
only to build the parser, for help and for any argv that only it can judge.
``fit``, ``apply`` and the model file live in ``monocal._model_commands``,
which ``main`` imports only for those two commands. This module serves that
module's public names (``_MODEL_FILE``) as its own attributes, loading it
on their first use.
"""

from __future__ import annotations

import math
import os
import sys
from itertools import chain, count, islice, repeat
from operator import itemgetter
from types import SimpleNamespace
from typing import TYPE_CHECKING, Any, Callable, Iterator, Sequence

from .core import Sample, _valid_rows
from .errors import CalibrationError, OutOfOrder

if TYPE_CHECKING:
    import argparse

    from .losses import LossFamily

# Each command imports what it runs: its solver module, `losses` (fit and
# stream), `problem` (fit), and the model-file commands' module and `json`
# (fit and apply). `argparse` is imported for help and for an argv that is
# not plain, and `csv` for a CSV line that is not plain.
# `monocal.cli` itself loads core and errors only.

# Records read from a CSV at a time, and model values encoded at a time; a
# larger chunk saves little time and holds more rows in memory.
_CHUNK_ROWS = 1024
# The csv module's default field_size_limit: a longer line is left to csv, which
# rejects a field past it.
_FIELD_LIMIT = 131_072
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
) -> Iterator[tuple[Sequence[int], Any]]:
    """Check the CSV header now; later yield ``(line numbers, build(*columns))`` per chunk.

    ``columns`` maps each column, in ``build``'s argument order, to the number
    an empty or missing field reads as, or to None if it is required. A chunk
    is at most ``_CHUNK_ROWS`` records; ``build`` gets one list of numbers per
    column and returns the chunk's value. Blank lines are skipped, a leading
    byte-order mark is ignored and a positive ``MONOCAL_MAX_N`` caps the rows.

    A plain chunk is split at newlines and commas in C: its lines hold no
    quote, carriage return or NUL, each ends in a newline, holds one comma
    fewer than the header has names and is within the csv module's field
    limit, and no line of a one-column file is blank. The csv module reads a
    header that is not one plain line, and the rest of the file from the
    first chunk that is not plain. Each column is converted by ``_floats``,
    so an empty field with a default keeps its chunk. Any chunk whose
    numbers, ``build`` or cap fail (a field that is not a number, a short
    row, a ``build`` error, rows past the cap) is read again row by row,
    plain or not: the rows before a failure are yielded one at a time, and
    then its error is raised, a bad row's with a ``row N:`` prefix (N is the
    line the record ends on). A CSV error ends a csv chunk; its records
    before the error are read first. Undecodable text and csv-module errors
    (such as an oversized field) are usage errors.
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
    # The lines read and not parsed yet, the lines parsed before them, and what
    # the csv module reads after them: the file, or a decoding error again.
    lines: list[str] = []
    taken = 0
    rest: Iterator[str] = handle

    def read(k: int) -> None:
        nonlocal rest
        try:
            lines.extend(islice(handle, k))  # keeps the lines before an error
        except UnicodeDecodeError as exc:
            rest = _raising(exc)

    def parse_error(exc: Exception, lines_read: int) -> _CliError:
        return _CliError(f"{path}: cannot parse CSV (read {lines_read} lines): {exc}")

    read(1)
    line = lines[0] if lines else ""
    # A decoding error leaves no line here, so the csv module meets it.
    if line[-1:] == "\n" and 1 < len(line) <= _FIELD_LIMIT and _unquoted(line):
        header = line[:-1].split(",")
        taken = 1
    else:
        import csv

        header_reader = csv.reader(chain(lines, rest))
        try:
            header = next(header_reader, [])
        except (UnicodeDecodeError, csv.Error) as exc:
            handle.close()
            raise parse_error(exc, header_reader.line_num)
        taken = header_reader.line_num
    lines.clear()
    for name, default in columns.items():
        if default is None and name not in header:
            handle.close()
            raise _CliError(f"{path}: header with a {name!r} column is required")
    # The last of repeated column names wins; None marks a column the header lacks.
    index = {name: i for i, name in enumerate(header)}
    picks = [(name, index.get(name), default) for name, default in columns.items()]
    width = len(header)

    def chunks() -> Iterator[tuple[Sequence[int], Any]]:
        nonlocal taken
        seen = 0
        reader = None  # the csv module's, from the first chunk that is not plain
        with handle:
            while True:
                error = None
                if reader is None:
                    read(_CHUNK_ROWS)
                    n = len(lines)
                    if not n and rest is handle:
                        return
                    text = "".join(lines)
                    if (rest is handle and text[-1] == "\n" and _unquoted(text)
                            # No Python call per line: str.count runs in map.
                            and set(map(str.count, lines, repeat(","))) == {width - 1}
                            and (len(text) <= _FIELD_LIMIT or max(map(len, lines)) <= _FIELD_LIMIT)
                            and (width > 1 or "\n\n" not in text and text[0] != "\n")):
                        flat = text[:-1].replace("\n", ",").split(",")
                        rows: Sequence[int] = range(taken + 1, taken + n + 1)
                    else:
                        import csv

                        reader = csv.reader(chain(lines, rest))
                if reader is not None:
                    start = reader.line_num
                    records: list[list[str]] = []
                    rows = []
                    try:
                        for fields in islice(reader, _CHUNK_ROWS):
                            if fields:
                                records.append(fields)
                                rows.append(taken + reader.line_num)
                    except (UnicodeDecodeError, csv.Error) as exc:
                        # The records read before the error still count.
                        error = parse_error(exc, taken + reader.line_num)
                    n = len(records)
                items = None
                if n and not 0 < cap < seen + n:
                    try:
                        items = build(*(
                            [default] * n if i is None
                            else _floats(flat[i::width] if reader is None
                                         else list(map(itemgetter(i), records)), default)
                            for _, i, default in picks
                        ))
                    except (IndexError, ValueError, CalibrationError):
                        pass  # read again row by row, for the short rows or the error
                if items is not None:
                    yield rows, items
                else:
                    # The rows one at a time: those before the first bad one, then its error.
                    if reader is None:
                        records = [line[:-1].split(",") for line in lines]
                    for number, fields, row in zip(count(seen + 1), records, rows):
                        if 0 < cap < number:
                            raise _CliError(f"{path}: more than {MAX_N_ENV}={cap} rows")
                        numbers = []
                        for name, i, default in picks:
                            field = fields[i] if i is not None and i < len(fields) else ""
                            try:
                                numbers.append(
                                    float(field) if field or default is None else default)
                            except ValueError:
                                raise _CliError(
                                    f"row {row}: column {name!r} is not a number: {field!r}")
                        try:
                            item = build(*([x] for x in numbers))
                        except CalibrationError as exc:
                            raise _CliError(f"row {row}: {exc}")
                        yield [row], item
                seen += n
                if error is not None:
                    raise error
                if reader is None:
                    taken += n
                    lines.clear()
                elif reader.line_num == start:
                    return

    return chunks()


def _floats(fields: list[str], default: float | None) -> list[float]:
    """``fields`` as numbers, each empty field as ``default`` unless that is None.

    Converted in C; only a column that fails and holds an empty field with a
    default is converted again field by field.
    """
    try:
        return list(map(float, fields))
    except ValueError:
        if default is None or "" not in fields:
            raise
        return [float(x) if x else default for x in fields]


def _unquoted(text: str) -> bool:
    """Whether ``text`` has no quote, carriage return or NUL.

    The csv module splits such a line at its commas alone. A NUL is left to
    it because Python 3.10's csv rejects one and 3.11's reads it.
    """
    return '"' not in text and "\r" not in text and "\0" not in text


def _raising(exc: Exception) -> Iterator[str]:
    """An iterator whose first ``next`` raises ``exc``."""
    raise exc
    yield  # unreachable: it makes this function a generator


def _training_csv(path: str, loss_tag: str) -> Iterator[tuple[Sequence[int], Any]]:
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


def _cmd_stream(args: argparse.Namespace | SimpleNamespace) -> int:
    from .online import OnlineState

    state = OnlineState(_family(args.loss))
    # Both built-ins take a sample's target and weight as its minimizer and
    # auxiliary value, so the checked columns are pushed as they are. Each
    # row's step count and top step are read off the stack that push fills.
    push, ys = state._push, state._ys
    # Opens the input and checks its header, so a failure there writes nothing.
    chunks = _training_csv(args.input, args.loss)
    out = sys.stdout
    out.write("n,steps,merges,values\n")
    # The text of each step value, kept in step with the stack. A push changes
    # only the top step (see OnlineState), so a row costs one repr plus the
    # join of its output bytes instead of a rebuilt Staircase.
    reprs: list[str] = []
    n = 0
    for rows, (scores, targets, weights) in chunks:
        lines: list[str] = []
        try:
            for row, score, target, weight in zip(rows, scores, targets, weights):
                try:
                    push(score, target, weight)
                except OutOfOrder as exc:
                    raise _CliError(f"row {row}: {exc}", EXIT_OUT_OF_ORDER)
                except CalibrationError as exc:
                    # A pool that fails, as on a summed weight past the float range.
                    raise _CliError(f"row {row}: {exc}")
                n += 1
                steps = len(ys)
                top = ys[-1]
                del reprs[steps - 1:]
                reprs.append(repr(top))
                if not math.isfinite(top):
                    # Staircase's finite rule: every lower step passed this check
                    # as the top of an earlier row, so the top is all that can fail.
                    raise _CliError(
                        f"row {row}: step values must be finite ({reprs[0]}, {reprs[-1]})")
                values = " ".join(reprs)
                lines.append(f"{n},{steps},{n - steps},{values}\n")
        finally:
            # One write per chunk, as apply does; a failing row's error follows
            # the rows before it.
            out.write("".join(lines))
    if n == 0:
        raise _CliError(f"{args.input}: no data rows")
    return EXIT_OK


# apply and stream write no diagnostics, so their --quiet does nothing.
_QUIET_NO_EFFECT = "no effect here; accepted so that scripts can pass --quiet to every command"

# The CLI grammar: each command's help and its arguments in argparse's order, a
# positional's name or an option's spelling with add_argument's keywords. Every
# option names its default. _build_parser builds argparse's parser from it, and
# _plain_args reads a plain argv by it.
_GRAMMAR: dict[str, tuple[str, tuple[tuple[str, dict[str, Any]], ...]]] = {
    "fit": ("fit a calibration model from a training CSV", (
        ("input", {"help": "CSV with columns score,target[,weight]"}),
        ("--loss", {"choices": _FAMILIES, "default": "square"}),
        ("--solver", {"choices": ("direct", "stack", "anytime"), "default": "stack",
                      "help": "direct is the reference solver, quadratic in the worst case"}),
        # AnytimeConfig()'s defaults, copied so that building the parser loads no
        # solver; tests/test_cli.py fails when the two drift.
        ("--delta", {"type": float, "default": None,
                     "help": "anytime bracket width target (default 1e-06)"}),
        ("--max-iters", {"type": int, "default": None, "dest": "max_iters",
                         "help": "anytime round cap (default 256)"}),
        ("--out", {"default": None, "help": "write the model here instead of stdout"}),
        ("--quiet", {"action": "store_true", "default": False, "help": "suppress diagnostics"}),
    )),
    "apply": ("calibrate scores with a fitted model", (
        ("model", {"help": "model JSON written by 'fit'"}),
        ("scores", {"help": "CSV with a 'score' column"}),
        ("--quiet", {"action": "store_true", "default": False, "help": _QUIET_NO_EFFECT}),
    )),
    "stream": ("drive the online solver over ordered rows", (
        ("input", {"help": "CSV with columns score,target[,weight], score-ordered"}),
        ("--loss", {"choices": _FAMILIES, "default": "square"}),
        ("--quiet", {"action": "store_true", "default": False, "help": _QUIET_NO_EFFECT}),
    )),
}


def _build_parser() -> argparse.ArgumentParser:
    import argparse

    parser = argparse.ArgumentParser(
        prog="monocal",
        description="Fit and apply optimal monotone staircase calibrations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (help_text, arguments) in _GRAMMAR.items():
        command_parser = sub.add_parser(command, help=help_text)
        for name, keywords in arguments:
            command_parser.add_argument(name, **keywords)
    return parser


def _plain_args(argv: Sequence[str]) -> SimpleNamespace | None:
    """The namespace argparse gives a plain ``argv``, or None if ``argv`` is not plain.

    Plain: the first token names a command, and each other token is a
    positional that does not start with ``-`` or one of the command's exact
    option spellings: ``--quiet``, ``--opt value`` with a value that does not
    start with ``-``, or ``--opt=value`` with a value other than ``--``. Each
    value passes its option's type and choices, a repeated option keeps its
    last value, and the positional count is the command's. Any other argv
    (help, an abbreviation, ``--``, a token that starts with ``-``, a bad
    value) is left to argparse, the one code that prints usage and errors.
    """
    grammar = _GRAMMAR.get(argv[0]) if argv else None
    if grammar is None:
        return None
    positionals = [name for name, _ in grammar[1] if name[0] != "-"]
    options = {name: keywords for name, keywords in grammar[1] if name[0] == "-"}
    values: dict[str, Any] = {"command": argv[0]}
    for name, keywords in options.items():
        values[keywords.get("dest", name[2:])] = keywords["default"]
    given = []
    tokens = iter(argv[1:])
    for token in tokens:
        if token[:1] != "-":
            given.append(token)
            continue
        name, equals, value = token.partition("=")
        keywords = options.get(name)
        if keywords is None:
            return None
        if "action" in keywords:  # store_true: takes no value
            if equals:
                return None
            value = True
        else:
            if not equals:
                value = next(tokens, "-")
                if value[:1] == "-":
                    return None
            elif value == "--":
                return None  # Python 3.11's argparse reads "--opt=--" as an empty list
            convert = keywords.get("type")
            try:
                value = convert(value) if convert else value
            except (TypeError, ValueError):
                return None
            if "choices" in keywords and value not in keywords["choices"]:
                return None
        values[keywords.get("dest", name[2:])] = value
    if len(given) != len(positionals):
        return None
    values.update(zip(positionals, given))
    return SimpleNamespace(**values)


def main(argv: Sequence[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = _plain_args(argv)
    if args is None:
        parser = _build_parser()
        args = parser.parse_args(argv)
        for name, value in vars(args).items():
            if isinstance(value, list):  # Python 3.11's argparse reads "--opt=--" as []
                # The option given bare fails in the command's own parser, with its usage.
                parser.parse_args([args.command, f"--{name.replace('_', '-')}"])
    try:
        if args.command == "stream":
            return _cmd_stream(args)
        from ._model_commands import _cmd_apply, _cmd_fit

        return (_cmd_fit if args.command == "fit" else _cmd_apply)(args)
    except _CliError as exc:
        print(f"monocal: {exc}", file=sys.stderr)
        return exc.code
    except CalibrationError as exc:
        print(f"monocal: {exc}", file=sys.stderr)
        return EXIT_USAGE


# The model-file names that ``monocal._model_commands`` serves through this module.
_MODEL_FILE = ("MODEL_VERSION", "model_to_dict", "model_from_dict", "load_model")


def __getattr__(name: str) -> object:
    if name not in _MODEL_FILE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import _model_commands

    return getattr(_model_commands, name)


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
    # `python -m monocal.cli` runs this file as __main__, a second copy of the
    # module: run the imported module's entry, whose _CliError the model-file
    # commands raise.
    from monocal.cli import entry as run

    run()
