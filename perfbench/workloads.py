"""Seeded input generator for the monocal benchmark (stdlib only).

Each workload is a data shape that stresses different layers of monocal:

- ``random-weighted``: shuffled scores ``i + U(0,1)``, targets ``U(0,100)``,
  weights in (0, 3], square loss. Few steps and merges close to n, so the
  stack merge loop and the full sort carry the cost.
- ``increasing``: already-sorted scores with strictly rising targets, square
  loss. Steps equal n and merges are 0, so per-step materialization, loss,
  model JSON, bisection over n breakpoints and online ``current()`` carry it.
- ``ties-logloss``: shuffled scores ``U(0,1)`` rounded to 3 decimals (about
  1,000 distinct values), Bernoulli(score) labels, log loss. The solver is
  near free; tie merging, label handling and the ``[0,1]`` anytime bracket
  carry the cost. monocal's outputs are wrong on this shape (see
  ``README.md``), so it is runnable but not listed in ``BENCHMARK.json``.

Every operation has its own row count (``SIZES``), scaled so that one round of
all operations takes a few seconds on a 2-core machine. The same
``(workload, seed)`` always yields the same rows. Run as a script to write the
CSVs for inspection::

    python3 perfbench/workloads.py --workload increasing --seed 1 --out DIR
"""

from __future__ import annotations

import argparse
import os
import random

# Row counts per operation. ``fit`` also sizes ``apply`` (one scoring row per
# training row) and the in-process library fit. ``stream`` on ``increasing``
# is quadratic in the seed code (every row re-materializes n steps), so it
# stays small there.
SIZES = {
    "random-weighted": {"fit": 20_000, "anytime": 2_000, "stream": 1_500},
    "increasing": {"fit": 20_000, "anytime": 700, "stream": 250},
    "ties-logloss": {"fit": 25_000, "anytime": 25_000, "stream": 2_000},
}
LOSS = {"random-weighted": "square", "increasing": "square", "ties-logloss": "logloss"}
WEIGHTED = {"random-weighted"}
STREAMS = 20
STREAM_ROLES = tuple(f"stream{j}" for j in range(STREAMS))
TRAINING_ROLES = ("fit", "anytime", *STREAM_ROLES)


def _random_weighted(n: int, rng: random.Random) -> list[tuple[float, float, float]]:
    rows = [(i + rng.random(), rng.uniform(0.0, 100.0), 3.0 * (1.0 - rng.random()))
            for i in range(n)]
    rng.shuffle(rows)
    return rows


def _increasing(n: int, rng: random.Random) -> list[tuple[float, float, float]]:
    rows = []
    for i in range(n):
        score = i + rng.random()
        rows.append((score, 100.0 * score / n, 1.0))
    return rows


def _ties(n: int, rng: random.Random) -> list[tuple[float, float, float]]:
    rows = []
    for _ in range(n):
        score = round(rng.random(), 3)
        rows.append((score, 1.0 if rng.random() < score else 0.0, 1.0))
    return rows


_GENERATORS = {
    "random-weighted": _random_weighted,
    "increasing": _increasing,
    "ties-logloss": _ties,
}


def training_rows(workload: str, seed: int, n: int, part: str = "") -> list[tuple[float, float, float]]:
    """``(score, target, weight)`` rows; equal arguments give equal rows."""
    return _GENERATORS[workload](n, random.Random(f"{workload}/{seed}/{part}{n}"))


def apply_scores(workload: str, seed: int, train: list[tuple[float, float, float]]) -> list[float]:
    """Scoring inputs spread 10% past both end scores of the training rows."""
    lo = min(r[0] for r in train)
    hi = max(r[0] for r in train)
    pad = 0.1 * (hi - lo)
    rng = random.Random(f"{workload}/{seed}/apply")
    scores = [rng.uniform(lo - pad, hi + pad) for _ in range(len(train))]
    scores[0], scores[-1] = lo - pad, hi + pad
    return scores


def write_training_csv(path: str, rows, weighted: bool) -> None:
    with open(path, "w", encoding="utf-8") as out:
        if weighted:
            out.write("score,target,weight\n")
            out.writelines(f"{s!r},{t!r},{w!r}\n" for s, t, w in rows)
        else:
            out.write("score,target\n")
            out.writelines(f"{s!r},{t!r}\n" for s, t, _ in rows)


def write_scores_csv(path: str, scores: list[float]) -> None:
    with open(path, "w", encoding="utf-8") as out:
        out.write("score\n")
        out.writelines(f"{s!r}\n" for s in scores)


def make_inputs(workload: str, seed: int) -> dict[str, list]:
    """Rows for every role.

    ``fit`` and ``anytime`` are training rows (the same rows when their sizes
    match); ``stream0``..``stream<STREAMS-1>`` are score-ordered copies of
    independent training sets; ``apply`` holds scores drawn around the ``fit``
    rows. Stream cost per row grows with the current step count, which varies
    by a factor of two between seeds on ``random-weighted``; streaming twenty
    independent sets per run averages most of that out of the reported rate.
    """
    sizes = SIZES[workload]
    fit = training_rows(workload, seed, sizes["fit"])
    inputs = {
        "fit": fit,
        "anytime": fit if sizes["anytime"] == sizes["fit"]
        else training_rows(workload, seed, sizes["anytime"]),
        "apply": apply_scores(workload, seed, fit),
    }
    for role in STREAM_ROLES:
        rows = training_rows(workload, seed, sizes["stream"], part=role)
        inputs[role] = sorted(rows, key=lambda r: r[0])
    return inputs


def write_inputs(workload: str, inputs: dict[str, list], out_dir: str) -> dict[str, str]:
    """Write each role's CSV into ``out_dir``; returns role -> path."""
    paths = {role: os.path.join(out_dir, f"{role}.csv") for role in inputs}
    for role in TRAINING_ROLES:
        write_training_csv(paths[role], inputs[role], workload in WEIGHTED)
    write_scores_csv(paths["apply"], inputs["apply"])
    return paths


def main() -> int:
    parser = argparse.ArgumentParser(description="Write the benchmark's CSV inputs.")
    parser.add_argument("--workload", choices=sorted(_GENERATORS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True, help="directory to write the CSVs into")
    args = parser.parse_args()
    os.makedirs(args.out, exist_ok=True)
    inputs = make_inputs(args.workload, args.seed)
    for role, path in write_inputs(args.workload, inputs, args.out).items():
        print(f"{role}\t{path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
