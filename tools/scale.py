"""Time and measure ``monocal`` at start-up and at scale; print one JSON line.

Start-up: the median of 20 runs of ``import monocal.cli``, ``fit`` (stack and
anytime), ``apply`` and ``stream`` on 3 rows and ``fit --help``, each timed
inside a fresh interpreter, with ``PYTHONDONTWRITEBYTECODE=1`` (monocal's
bytecode cache removed, so every run compiles it) and with the cache.

Scale: peak RSS and wall time of ``fit`` on 1e5 increasing rows (one step per
row), ``apply`` of that 1e5-step model to 1e5 scores, an anytime ``fit`` on
1e4 increasing rows (with its rounds) and ``fit`` on 1e5 merge-heavy rows
(with its summary line). Each command runs as the console script does, in a
fresh interpreter started by ``perfbench/spawner.py``, so its peak RSS is its
own and not this process's.

Run it with no arguments from an installed ``monocal`` or from a checkout::

    PYTHONPATH=src python3 tools/scale.py

The last stdout line is the JSON object. A failing command fails the run.
It uses the stdlib only; numbers vary with the machine.
"""

from __future__ import annotations

import importlib.util
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
from typing import Iterable

SPAWNER = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "perfbench",
                       "spawner.py")
# How the console script runs a command.
ENTRY = "from monocal.cli import entry; entry()"
# The import plus the command, timed inside the child, with stdout to
# devnull; the time goes to stderr. Help (argparse's path) ends in SystemExit.
STARTUP = ("import os, sys, time; out = open(os.devnull, 'w'); t = time.perf_counter()\n"
           "import monocal.cli as cli\n"
           "sys.stdout = out\n"
           "try:\n    code = cli.main(sys.argv[1:]) if sys.argv[1:] else 0\n"
           "except SystemExit as exc:\n    code = exc.code\n"
           "out.flush(); print(time.perf_counter() - t, file=sys.stderr); sys.exit(code)")


def increasing(n: int) -> Iterable[str]:
    """Rising targets: one step per row, the largest model for the row count."""
    return (f"{i + 0.5!r},{i / 3!r}\n" for i in range(n))


def merge_heavy() -> Iterable[str]:
    """Shuffled scores, U(0, 100) targets, weights in (0, 3]: a few steps, so
    nearly every row is pooled by the built-in kernel."""
    rng = random.Random(1)
    rows = [(i + rng.random(), rng.uniform(0.0, 100.0), 3.0 * (1.0 - rng.random()))
            for i in range(100000)]
    rng.shuffle(rows)
    return (f"{s!r},{t!r},{w!r}\n" for s, t, w in rows)


def write(path: str, header: str, rows: Iterable[str]) -> str:
    """Write ``header`` and ``rows`` to ``path``; return ``path``."""
    with open(path, "w") as out:
        out.write(header)
        out.writelines(rows)
    return path


def monocal(spawner: subprocess.Popen[str], *argv: str,
            stdout: str = os.devnull) -> tuple[dict, str]:
    """Run ``monocal argv``; return its wall time and own peak RSS, and its stderr."""
    with tempfile.NamedTemporaryFile("r") as err:
        request = {"argv": [sys.executable, "-c", ENTRY, *argv], "stdout": stdout,
                   "stderr": err.name}
        print(json.dumps(request), file=spawner.stdin, flush=True)
        reply = json.loads(spawner.stdout.readline())
        stderr = err.read()
    if reply["exit_code"]:
        sys.stderr.write(stderr)
        raise subprocess.CalledProcessError(reply["exit_code"], ["monocal", *argv])
    # ru_maxrss is in KiB on Linux.
    return {"peak_rss_mb": round(reply["maxrss_kb"] / 1024, 1),
            "wall_s": round(reply["wall_s"], 3)}, stderr


def startup(spawner: subprocess.Popen[str], work: str) -> dict[str, dict[str, float]]:
    """The median start-up time in ms of each command, per bytecode mode."""
    rows = write(f"{work}/rows.csv", "score,target\n", ["1,10\n", "2,30\n", "3,20\n"])
    model = f"{work}/model.json"
    monocal(spawner, "fit", rows, "--out", model, "--quiet")
    commands = {"import monocal.cli": [], "fit": ["fit", rows, "--quiet"],
                "fit --solver anytime": ["fit", rows, "--solver", "anytime", "--quiet"],
                "apply": ["apply", model, rows], "stream": ["stream", rows],
                "fit --help": ["fit", "--help"]}
    # With monocal's bytecode cache removed and PYTHONDONTWRITEBYTECODE=1,
    # every run compiles monocal from source, as the benchmark's children do;
    # without it the first run writes the cache and the rest read it.
    package = importlib.util.find_spec("monocal").submodule_search_locations[0]
    shutil.rmtree(os.path.join(package, "__pycache__"), ignore_errors=True)
    medians: dict[str, dict[str, float]] = {}
    for nobyte in (True, False):
        env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
        if nobyte:
            env["PYTHONDONTWRITEBYTECODE"] = "1"
        mode = medians["PYTHONDONTWRITEBYTECODE=1" if nobyte else "bytecode cached"] = {}
        for name, argv in commands.items():
            runs = [float(subprocess.run([sys.executable, "-c", STARTUP, *argv], env=env,
                                         check=True, capture_output=True, text=True).stderr)
                    for _ in range(20)]
            mode[f"{name} on 3 rows" if rows in argv else name] = round(
                statistics.median(runs) * 1e3, 2)
    return medians


def main() -> int:
    report = {"python": ".".join(map(str, sys.version_info[:3])), "cores": os.cpu_count()}
    with tempfile.TemporaryDirectory() as work, subprocess.Popen(
            [sys.executable, SPAWNER], stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            text=True) as spawner:
        report["startup_ms"] = startup(spawner, work)
        model = f"{work}/model.json"
        report["fit on 1e5 increasing rows"], _ = monocal(
            spawner, "fit", write(f"{work}/increasing.csv", "score,target\n", increasing(100000)),
            "--out", model, "--quiet")
        scores = (f"{i + 0.25!r}\n" for i in range(100000))  # each reaches its own step
        report["apply of a 1e5-step model to 1e5 scores"], _ = monocal(
            spawner, "apply", model, write(f"{work}/scores.csv", "score\n", scores),
            stdout=f"{work}/applied.csv")
        run, summary = monocal(
            spawner, "fit", write(f"{work}/merges.csv", "score,target,weight\n", merge_heavy()),
            "--out", model)
        report["fit on 1e5 merge-heavy rows"] = {**run, "summary": summary.strip()}
        run, _ = monocal(
            spawner, "fit", write(f"{work}/increasing.csv", "score,target\n", increasing(10000)),
            "--solver", "anytime", "--out", model, "--quiet")
        with open(model) as handle:
            run["rounds"] = json.load(handle)["metadata"]["rounds"]
        report["anytime fit on 1e4 increasing rows"] = run
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
