"""The model-file commands, ``fit`` and ``apply``, and the model file's format.

``monocal.cli`` keeps the parser, the CSV reader and ``stream``, and imports
this module only to run ``fit`` or ``apply``: ``import monocal.cli`` and
``monocal stream`` compile none of it. The model file is a JSON document
with fields version/family/breakpoints/values/metadata; unknown fields are
rejected on load. ``cli`` also serves the public names here (``__all__``)
as its own attributes, loading this module on their first use.
"""

from __future__ import annotations

import os
import sys
from typing import TYPE_CHECKING, Any

from .cli import (
    EXIT_OK, _CHUNK_ROWS, _FAMILIES, _CliError, _family, _read_csv, _training_columns,
)
from .errors import InvalidValue, InvalidWeight
from .staircase import Staircase, _partition_staircase, _steps_at

if TYPE_CHECKING:
    import argparse
    from types import SimpleNamespace

__all__ = ["MODEL_VERSION", "model_to_dict", "model_from_dict", "load_model"]

MODEL_VERSION = 1


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
    # finite rule is the Staircase's own. A list of floats alone, as fit writes,
    # is checked and taken with no Python frame per item.
    if isinstance(items, list) and set(map(type, items)) <= {float}:
        return tuple(items)
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


def _cmd_fit(args: argparse.Namespace | SimpleNamespace) -> int:
    # The loss and problem modules load before anything else the fit
    # allocates: loaded after the --out check, the loss module left the fit's
    # peak RSS about 0.3 MB higher.
    family = _family(args.loss)
    from .problem import _minimizer_bracket, _normalize, _partition_loss

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

    # Each solver ends in the stack's lists, so no Block or AnytimeGroup is built.
    if args.solver == "anytime":
        from .anytime import AnytimeConfig, _fit_anytime

        upper, lower = _minimizer_bracket(problem)
        config = AnytimeConfig(init_upper=upper, init_lower=lower, **given)
        firsts, ys, width_bound, rounds = _fit_anytime(problem, config)[:4]
        extra = {"delta": config.delta, "width_bound": width_bound, "rounds": rounds}
    else:
        from .pav_offline import _fit_direct, _fit_stack

        try:
            firsts, ys = (_fit_direct if args.solver == "direct" else _fit_stack)(problem)[:2]
        except InvalidWeight as exc:
            # A summed weight past the float range; the pool has no row of its
            # own to report, so name the score of the group it pooled in.
            raise _CliError(f"pool at score {problem.scores[exc.first]!r}: {exc}")
        extra = {}
    # The loss is taken first, so the target and weight columns are freed
    # before the staircase is built. The built-ins' loss raises nothing, so a
    # fit whose staircase fails still reports the staircase's error.
    total_loss = _partition_loss(problem, firsts, ys)
    scores = problem.scores
    del problem
    staircase = _partition_staircase(scores, firsts, ys)
    # The staircase and the metadata are all the model needs: free the scores
    # and the solver's state before the model text is made.
    del scores, firsts, ys
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


def _cmd_apply(args: argparse.Namespace | SimpleNamespace) -> int:
    staircase, _, _ = load_model(args.model)
    values = staircase.values

    def text(scores: list[float]) -> str:
        # A chunk's rows as one string, with no Python frame per row: the
        # repr of each step value the chunk reaches is made once. The reprs
        # are kept per chunk, so memory grows with the chunk, not the model.
        # The rows are joined in C; a str.format call per row cost more than
        # the repr of its score. A chunk is never empty.
        steps = _steps_at(staircase, scores)
        reached = set(steps)
        reprs = dict(zip(reached, map(repr, map(values.__getitem__, reached))))
        value_texts = map(reprs.__getitem__, steps)
        return "\n".join(map(",".join, zip(map(repr, scores), value_texts))) + "\n"

    chunks = _read_csv(args.scores, {"score": None}, text)
    out = sys.stdout
    out.write("score,calibrated\n")
    # One write per chunk: an unbuffered stdout (PYTHONUNBUFFERED) makes a
    # system call per write. A chunk read again row by row writes per row.
    for _, chunk in chunks:
        out.write(chunk)
    return EXIT_OK
