"""Output checks for the benchmark, independent of monocal's own code.

The reference fit is the benchmark's own pooled-means pass: equal scores are
pooled, then adjacent pools are joined while the left mean is >= the right
one. Pool sums are kept as exact ``math.fsum`` partials, so a pool's mean is
its weighted sum and weight sum, each correctly rounded, divided once; the
result does not depend on the order in which pools were joined.

Every check returns ``None`` when the output is right and a one-line reason
when it is not. Values match the reference within ``TOL_REL`` relative
(absolute below magnitude 1); breakpoints, step counts and merge counts must
match exactly, since they are not computed by rounding-prone sums.
"""

from __future__ import annotations

import json
import math
from bisect import bisect_right
from dataclasses import dataclass

TOL_REL = 1e-9


def _tol(x: float) -> float:
    return TOL_REL * max(1.0, abs(x))


def _add(partials: list[float], x: float) -> None:
    """Add ``x`` to a list of non-overlapping partials (Shewchuk), exactly."""
    i = 0
    for y in partials:
        if abs(x) < abs(y):
            x, y = y, x
        hi = x + y
        lo = y - (hi - x)
        if lo:
            partials[i] = lo
            i += 1
        x = hi
    partials[i:] = [x]


@dataclass(frozen=True)
class Reference:
    scores: tuple[float, ...]       # distinct training scores, ascending
    pool_of: tuple[int, ...]        # pool index of each distinct score
    values: tuple[float, ...]       # pool means, strictly increasing
    breakpoints: tuple[float, ...]  # midpoints between adjacent pools

    @property
    def rows_out(self) -> int:
        return len(self.scores)

    @property
    def steps(self) -> int:
        return len(self.values)


def reference_fit(rows) -> Reference:
    """Optimal staircase of ``(score, target, weight)`` rows for square or log loss."""
    scores: list[float] = []
    w_parts: list[list[float]] = []
    wy_parts: list[list[float]] = []
    for s, t, w in sorted(rows, key=lambda r: r[0]):
        if scores and s == scores[-1]:
            _add(w_parts[-1], w)
            _add(wy_parts[-1], w * t)
        else:
            scores.append(s)
            w_parts.append([w])
            wy_parts.append([w * t])

    stack: list[tuple[int, list[float], list[float], float]] = []
    for i in range(len(scores)):
        first, pw, pwy = i, w_parts[i], wy_parts[i]
        mean = math.fsum(pwy) / math.fsum(pw)
        while stack and stack[-1][3] >= mean:
            first, qw, qwy, _ = stack.pop()
            for x in pw:
                _add(qw, x)
            for x in pwy:
                _add(qwy, x)
            pw, pwy = qw, qwy
            mean = math.fsum(pwy) / math.fsum(pw)
        stack.append((first, pw, pwy, mean))

    firsts = [p[0] for p in stack]
    pool_of = []
    for k, first in enumerate(firsts):
        end = firsts[k + 1] if k + 1 < len(firsts) else len(scores)
        pool_of.extend([k] * (end - first))
    breakpoints = tuple(0.5 * scores[f - 1] + 0.5 * scores[f] for f in firsts[1:])
    return Reference(tuple(scores), tuple(pool_of), tuple(p[3] for p in stack), breakpoints)


def compare_values(values, ref: Reference) -> str | None:
    """Same step count as the reference, values within tolerance."""
    if len(values) != ref.steps:
        return f"{len(values)} steps, reference has {ref.steps}"
    for k, (v, r) in enumerate(zip(values, ref.values)):
        if abs(v - r) > _tol(r):
            return f"step {k} value {v!r}, reference {r!r}"
    return None


def compare_staircase(breakpoints, values, ref: Reference) -> str | None:
    """Same partition as the reference, values within tolerance."""
    problem = compare_values(values, ref)
    if problem is None and list(breakpoints) != list(ref.breakpoints):
        problem = "breakpoints differ from the reference"
    return problem


def _load(path: str) -> dict:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def check_fit_model(path: str, ref: Reference) -> str | None:
    """Stack model: reference partition and values; ``merge_count == rows_out - steps``."""
    doc = _load(path)
    meta = doc["metadata"]
    if meta["n_samples"] != ref.rows_out:
        return f"n_samples {meta['n_samples']}, reference rows_out {ref.rows_out}"
    if meta["merge_count"] != ref.rows_out - len(doc["values"]):
        return f"merge_count {meta['merge_count']} != rows_out - steps"
    return compare_staircase(doc["breakpoints"], doc["values"], ref)


def check_anytime(breakpoints, values, width_bound: float, ref: Reference) -> str | None:
    """Anytime values within ``width_bound/2`` (plus tolerance) of the stack value
    at every training score."""
    half = width_bound / 2
    for score, k in zip(ref.scores, ref.pool_of):
        r = ref.values[k]
        v = values[bisect_right(breakpoints, score)]
        if abs(v - r) > half + _tol(r):
            return f"anytime value {v!r} at score {score!r}, stack {r!r}, width_bound/2 {half!r}"
    return None


def check_anytime_model(path: str, ref: Reference) -> str | None:
    doc = _load(path)
    return check_anytime(doc["breakpoints"], doc["values"], doc["metadata"]["width_bound"], ref)


def check_fit_result(problem, report, staircase, ref: Reference) -> str | None:
    """In-process fit: tie merging, merge-count law and staircase against the reference."""
    if len(problem.samples) != ref.rows_out:
        return f"normalize kept {len(problem.samples)} rows, reference {ref.rows_out}"
    if report.merge_count != ref.rows_out - staircase.step_count:
        return f"merge_count {report.merge_count} != rows_out - steps"
    return compare_staircase(staircase.breakpoints, staircase.values, ref)


def check_apply(out_path: str, model_path: str, scores: list[float]) -> str | None:
    """Every output row is the score and a ``bisect_right`` lookup in the model."""
    doc = _load(model_path)
    bps, values = doc["breakpoints"], doc["values"]
    with open(out_path, encoding="utf-8") as handle:
        if handle.readline() != "score,calibrated\n":
            return "apply output lacks the 'score,calibrated' header"
        count = 0
        for line, score in zip(handle, scores):
            count += 1
            got_score, got_value = line.split(",")
            if float(got_score) != score:
                return f"apply row {count}: score {got_score!r}, input {score!r}"
            if float(got_value) != values[bisect_right(bps, score)]:
                return f"apply row {count}: value {got_value.strip()!r} at score {score!r}"
        count += sum(1 for _ in handle)
    if count != len(scores):
        return f"apply wrote {count} rows for {len(scores)} scores"
    return None


def _last_line(path: str) -> tuple[int, bytes]:
    """Number of lines in the file and its last line."""
    lines = 0
    with open(path, "rb") as handle:
        while chunk := handle.read(1 << 20):
            lines += chunk.count(b"\n")
        size = handle.tell()
        handle.seek(max(0, size - (1 << 22)))
        tail = handle.read().rstrip(b"\n")
    return lines, tail.rsplit(b"\n", 1)[-1]


def check_stream(out_path: str, ref: Reference, n_rows: int) -> str | None:
    """One row per input row; the last row carries the fit's step count and values."""
    lines, last = _last_line(out_path)
    if lines != n_rows + 1:
        return f"stream wrote {lines - 1} rows for {n_rows} inputs"
    n, steps, merges, values = last.decode("utf-8").split(",")
    if int(n) != n_rows:
        return f"last stream row has n={n}, expected {n_rows}"
    if int(merges) != n_rows - int(steps):
        return f"last stream row: merges {merges} != n - steps"
    return compare_values([float(v) for v in values.split()], ref)
