"""Record what the ``monocal`` commands output, as sha256 hashes: the golden corpus.

Each case runs one command in process (``monocal.cli.main``) on seeded
inputs and records its exit code and the sha256 of its stdout, its stderr
and, for ``fit --out``, the model file. The inputs are small versions of the
benchmark's three shapes (``random-weighted``, ``increasing`` and
``ties-logloss``: 2,000 rows to fit and apply, 250 score-ordered rows to
stream) and the edge inputs of the CI workflow. Every input is fitted with
each solver and loss, to stdout and to ``--out``; each stack and anytime
model that a fit wrote is applied; every input but the 2,000-row ones is
streamed with both losses. One model is also applied to a one-column file
with blank lines.

``tests/test_golden.py`` runs the same cases and compares them with
``tests/golden.json``. A change that alters an output on purpose rewrites
the file and names each changed case in ``CHANGES.md``::

    python3 tools/golden.py --write

Without ``--write`` it prints each case whose record differs from the file
and exits 1 if there is one. It uses the stdlib and ``monocal`` (from ``src``
when run from a checkout).
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import random
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CORPUS = ROOT / "tests" / "golden.json"

FIT_ROWS = 2_000
STREAM_ROWS = 250
SEED = 1

# The CI workflow's inline inputs, and one each for the failures it does not write.
EDGE_INPUTS = {
    "rows.csv": "score,target\n1,10\n2,30\n3,20\n",
    "ties.csv": "score,target\n0.1,0\n0.3,1\n0.1,1\n0.2,1\n0.1,0\n0.2,0\n0.3,1\n0.2,0\n"
                "0.4,1\n0.3,0\n0.4,0\n0.4,1\n",
    # Both derivatives overflow at the first probe.
    "big.csv": "score,target\n1,1e308\n2,-1e308\n",
    # A one-sample derivative is NaN at its own target: -2w overflows.
    "nan.csv": "score,target,weight\n1,0,1\n2,0.5,1e308\n3,1,1\n",
    # Each row's loss is 1e308, so the total passes the float range.
    "over.csv": "score,target,weight\n1,1e4,1e300\n2,-1e4,1e300\n",
    # The two weights sum past the float range when the rows pool.
    "weight-overflow.csv": "score,target,weight\n0,1,1e308\n1,0,1e308\n",
    "all-equal.csv": "score,target\n1,1\n2,1\n3,1\n4,1\n",
    # The anytime bracket is wider than the float range.
    "max-float.csv": "score,target\n1,1.7976931348623157e308\n2,-1.7976931348623157e308\n"
                     "3,1.7976931348623157e308\n",
    # The step next to an infinite score needs an infinite breakpoint.
    "inf-score.csv": "score,target\n1.7976931348623157e308,1\ninf,0\n",
    "empty.csv": "score,target\n",
    "label.csv": "score,target\n1,1\n2,2.0\n3,-1.0\n",
    "unordered.csv": "score,target\n2,30\n1,10\n3,20\n",
    "bad-row.csv": "score,target\n1,1\n2,x\n",
    # Layouts that the csv module reads: a quoted field, CRLF line ends, a
    # blank line, a short row (weight 1), a row with an extra field, no final
    # newline, and a quoted header over unquoted rows.
    "quoted.csv": 'score,target\n1,10\n"2",30\n3,"20"\n',
    "crlf.csv": "score,target\r\n1,10\r\n2,30\r\n3,20\r\n",
    "blank.csv": "score,target\n1,10\n\n2,30\n3,20\n",
    "short.csv": "score,target,weight\n1,10,2\n2,30\n3,20,0.5\n",
    "extra.csv": "score,target\n1,10\n2,30,5\n3,20\n",
    "no-newline.csv": "score,target\n1,10\n2,30\n3,20",
    "quoted-header.csv": '"score","target"\n1,10\n2,30\n3,20\n',
    # A NUL in an unpicked column, after a bad row of the same chunk: the bad
    # row's error on every Python (3.10's csv rejects the NUL, 3.11's reads it).
    "nul.csv": "score,target,note\n1,10,a\n2,x,b\n3,20,c\0d\n",
}
APPLY_EDGES = "score\n-inf\n-1e308\n0\n1.5\n2.5\n1e308\ninf\n"
# A one-column file with blank lines, the first before any score.
APPLY_BLANKS = "score\n\n0.5\n1.5\n\n\n2.5\n"


def _shape_rows(shape: str, n: int, part: str) -> list[tuple[float, float, float]]:
    """``(score, target, weight)`` rows of a benchmark shape; equal arguments give equal rows."""
    rng = random.Random(f"golden/{shape}/{SEED}/{part}{n}")
    if shape == "random-weighted":
        rows = [(i + rng.random(), rng.uniform(0.0, 100.0), 3.0 * (1.0 - rng.random()))
                for i in range(n)]
        rng.shuffle(rows)
    elif shape == "increasing":
        scores = [i + rng.random() for i in range(n)]
        rows = [(s, 100.0 * s / n, 1.0) for s in scores]
    else:
        scores = [round(rng.random(), 3) for _ in range(n)]
        rows = [(s, 1.0 if rng.random() < s else 0.0, 1.0) for s in scores]
    return rows


def _training_csv(rows: list[tuple[float, float, float]]) -> str:
    return "score,target,weight\n" + "".join(f"{s!r},{t!r},{w!r}\n" for s, t, w in rows)


def _scores_csv(rows: list[tuple[float, float, float]], shape: str) -> str:
    """Scores spread 10% past both end scores of ``rows``, as the benchmark's apply input."""
    lo, hi = min(r[0] for r in rows), max(r[0] for r in rows)
    pad = 0.1 * (hi - lo)
    rng = random.Random(f"golden/{shape}/{SEED}/apply")
    scores = [lo - pad, *(rng.uniform(lo - pad, hi + pad) for _ in range(len(rows) - 2)), hi + pad]
    return "score\n" + "".join(f"{s!r}\n" for s in scores)


def inputs() -> tuple[dict[str, str], dict[str, str], dict[str, str]]:
    """``(fit-only, streamed, scores)`` inputs: file name to text.

    A shape's scores to apply are in ``<shape>-scores.csv``; the edge inputs'
    models are applied to ``edge-scores.csv``, and ``rows.csv``'s square
    stack model to ``blank-scores.csv`` too.
    """
    fit_only, streamed = {}, {}
    scores = {"edge-scores.csv": APPLY_EDGES, "blank-scores.csv": APPLY_BLANKS}
    for shape in ("random-weighted", "increasing", "ties-logloss"):
        rows = _shape_rows(shape, FIT_ROWS, "fit")
        fit_only[f"{shape}.csv"] = _training_csv(rows)
        scores[f"{shape}-scores.csv"] = _scores_csv(rows, shape)
        ordered = sorted(_shape_rows(shape, STREAM_ROWS, "stream"), key=lambda r: r[0])
        streamed[f"{shape}-stream.csv"] = _training_csv(ordered)
    streamed.update(EDGE_INPUTS)
    return fit_only, streamed, scores


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _run(argv: list[str], model: str | None = None) -> dict:
    """One command's record: exit code and the hashes of its output streams and model file."""
    from monocal.cli import main

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    record = {"exit": code, "stdout": _sha256(out.getvalue()), "stderr": _sha256(err.getvalue())}
    if model is not None:
        record["model"] = None
        if os.path.exists(model):
            with open(model, encoding="utf-8") as handle:
                record["model"] = _sha256(handle.read())
    return record


def record() -> dict[str, dict]:
    """Every case's record, keyed by its command line; runs in an empty working directory.

    File names are relative, so the messages that name a file read the same
    in any directory. ``MONOCAL_MAX_N`` must be unset.
    """
    fit_only, streamed, scores = inputs()
    for name, text in {**fit_only, **streamed, **scores}.items():
        with open(name, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
    corpus = {}

    def run(*argv: str, model: str | None = None) -> None:
        corpus[" ".join(argv)] = _run(list(argv), model)

    for name in (*fit_only, *streamed):
        stem = name[:-len(".csv")]
        to_apply = f"{stem}-scores.csv" if name in fit_only else "edge-scores.csv"
        for loss in ("square", "logloss"):
            for solver in ("stack", "direct", "anytime"):
                model = f"{stem}.{loss}.{solver}.json"
                run("fit", name, "--loss", loss, "--solver", solver)
                run("fit", name, "--loss", loss, "--solver", solver, "--out", model, model=model)
                if solver != "direct" and os.path.exists(model):
                    run("apply", model, to_apply)
            if name in streamed:
                run("stream", name, "--loss", loss)
    run("apply", "rows.square.stack.json", "blank-scores.csv")
    return corpus


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--write", action="store_true",
                        help=f"rewrite {CORPUS.relative_to(ROOT)} from this checkout's outputs")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))
    os.environ.pop("MONOCAL_MAX_N", None)
    home = os.getcwd()
    with tempfile.TemporaryDirectory() as scratch:
        os.chdir(scratch)
        try:
            corpus = record()
        finally:
            os.chdir(home)
    if args.write:
        CORPUS.write_text(json.dumps(corpus, indent=1) + "\n", encoding="utf-8")
        print(f"wrote {len(corpus)} cases to {CORPUS.relative_to(ROOT)}")
        return 0
    recorded = json.loads(CORPUS.read_text(encoding="utf-8"))
    changed = sorted(case for case in corpus.keys() | recorded.keys()
                     if corpus.get(case) != recorded.get(case))
    for case in changed:
        print(f"differs: {case}")
    print(f"{len(corpus)} cases, {len(changed)} differ from {CORPUS.relative_to(ROOT)}")
    return 1 if changed else 0


if __name__ == "__main__":
    sys.exit(main())
