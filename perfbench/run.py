"""monocal benchmark: what a user of the CLI and the library waits for.

Run from the root of a monocal checkout (the program is imported and run from
its ``src`` directory)::

    python3 perfbench/run.py --workload random-weighted --seed 1 --seconds 55 --trace 0

With ``--trace 0`` each round runs, one child process at a time, ``monocal
fit`` (stack and anytime), ``monocal apply``, ``monocal stream`` (on a few of
the independent stream sets, in turn) and a fresh interpreter that only imports
``monocal.cli``, plus in-process library fits. Rounds repeat until
``--seconds`` have passed (at least ``MIN_ROUNDS``). Children time the import
plus the command from inside (``child.py``), so interpreter start-up stays out.
Every timed sample is bracketed by the machine-speed probe and converted to
reference seconds (``probe.py``); each time metric is the median of those over
the run, and rates are rows at the stated n over that median. Peak RSS is the
median over the ``fit`` children. Raw seconds, wall times and probe times of
every sample are kept in the record. Every output is checked against the
benchmark's own reference (``checks.py``) outside the timed region; a non-zero
exit or a failed check counts as a failed operation. With ``--trace 1`` the
per-module run in ``layers.py`` runs instead and reports per-layer metrics.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``. A human-readable summary goes to
standard error, and the full record (run metadata, sample counts, tail
percentiles, failures) to ``.bench_build/perfbench/<run>/BENCH.json``.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field

import checks
import probe
import workloads
from layers import lib_fit, nearest_rank

# Stream sets are timed in turn, a few per round, so that many independent
# sets fit in a run without making rounds long; the first rounds time each
# set once.
STREAM_SETS_PER_ROUND = 5
MIN_ROUNDS = workloads.STREAMS // STREAM_SETS_PER_ROUND
# Repetitions per round of the cheapest operations, for more samples.
SETUP_PER_ROUND = 2
FIT_PER_ROUND = 2
APPLY_PER_ROUND = 3
LIB_FIT_PER_ROUND = 3

END_TO_END_UNITS = {
    "setup_s": "s",
    "fit_rows_per_s": "rows/s",
    "anytime_rows_per_s": "rows/s",
    "apply_rows_per_s": "rows/s",
    "stream_rows_per_s": "rows/s",
    "lib_fit_rows_per_s": "rows/s",
    "fit_peak_rss_mb": "MB",
}


@dataclass
class Tally:
    """Operations attempted and failed, with the reason for each failure."""

    attempted: int = 0
    failures: list[str] = field(default_factory=list)

    def record(self, op: str, problem: str | None) -> None:
        self.attempted += 1
        if problem is not None:
            self.failures.append(f"{op}: {problem}")


class Spawner:
    """Client of ``spawner.py``, which starts every child (see there for why)."""

    def __init__(self, root: str, env: dict) -> None:
        self._proc = subprocess.Popen(
            [sys.executable, os.path.join(os.path.dirname(__file__), "spawner.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=env, cwd=root, text=True)

    def run(self, argv: list[str], stdout_path: str, stderr_path: str) -> dict:
        request = {"argv": argv, "stdout": stdout_path, "stderr": stderr_path}
        self._proc.stdin.write(json.dumps(request) + "\n")
        self._proc.stdin.flush()
        reply = self._proc.stdout.readline()
        if not reply:
            raise RuntimeError(f"spawner exited with {self._proc.wait()}")
        return json.loads(reply)

    def __enter__(self) -> "Spawner":
        return self

    def __exit__(self, *exc) -> None:
        self._proc.stdin.close()
        try:
            self._proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self._proc.kill()
            self._proc.wait()
        self._proc.stdout.close()


@dataclass
class Context:
    work: str
    loss: str
    family: object
    sizes: dict
    inputs: dict
    paths: dict
    refs: dict
    samples: dict
    spawner: Spawner
    tally: Tally = field(default_factory=Tally)

    def out(self, name: str) -> str:
        return os.path.join(self.work, name)


@dataclass(frozen=True)
class ChildResult:
    seconds: float     # import plus command, timed inside the child
    probe: float       # machine-speed probe around it (see probe.py)
    wall_s: float      # process start to reaped, as the spawner saw it
    exit_code: int
    maxrss_kb: int
    stderr: str


CHILD = os.path.join(os.path.dirname(os.path.abspath(__file__)), "child.py")


def run_child(ctx: Context, argv: list[str], stdout_path: str) -> ChildResult:
    """``monocal <argv>`` in a child (only the import when ``argv`` is empty)."""
    err_path = stdout_path + ".err"
    timing_path = stdout_path + ".timing"
    if os.path.exists(timing_path):
        os.remove(timing_path)
    reply = ctx.spawner.run([sys.executable, CHILD, timing_path, *argv], stdout_path, err_path)
    with open(err_path, encoding="utf-8", errors="replace") as handle:
        stderr = handle.read()
    try:
        with open(timing_path, encoding="utf-8") as handle:
            timing = json.load(handle)
    except FileNotFoundError:  # the child died before timing itself
        timing = {"seconds": reply["wall_s"], "probe": probe.REFERENCE_S}
    return ChildResult(timing["seconds"], timing["probe"], reply["wall_s"], reply["exit_code"],
                       reply["maxrss_kb"], stderr)


def run_cli(ctx: Context, op: str, argv: list[str], stdout_path: str, check) -> ChildResult:
    """One ``monocal`` command as a child process, then its output check."""
    result = run_child(ctx, argv, stdout_path)
    if result.exit_code != 0:
        tail = result.stderr.strip().splitlines()[-1:] or [""]
        problem = f"exit {result.exit_code}: {tail[0]}"
    else:
        problem = check()
    ctx.tally.record(op, problem)
    return result


def tail_percentile(samples: list[float]) -> tuple[str, float] | None:
    """Highest of p99.9/p99/p90 with at least ten samples above it (nearest rank)."""
    n = len(samples)
    for label, q in (("p99.9", 0.999), ("p99", 0.99), ("p90", 0.9)):
        if n - math.ceil(q * n) >= 10:
            return label, nearest_rank(samples, q)
    return None


def _setup_once(ctx: Context) -> ChildResult:
    """One fresh interpreter importing ``monocal.cli``."""
    result = run_child(ctx, [], ctx.out("setup.out"))
    ctx.tally.record("setup", f"exit {result.exit_code}" if result.exit_code else None)
    return result


class Series:
    """Timing samples of one operation, each with the probe time beside it.

    ``seconds`` is the timed work; ``wall`` is the whole child process from
    start to reaped (equal to ``seconds`` in-process).
    """

    def __init__(self) -> None:
        self.seconds: list[float] = []
        self.probes: list[float] = []
        self.wall: list[float] = []

    def add(self, seconds: float, probe_s: float, wall: float) -> None:
        self.seconds.append(seconds)
        self.probes.append(probe_s)
        self.wall.append(wall)

    def reference(self) -> list[float]:
        """Samples in reference seconds (see probe.py)."""
        return [s * probe.REFERENCE_S / p for s, p in zip(self.seconds, self.probes)]

    def summary(self) -> dict:
        ref = self.reference()
        return {"count": len(ref), "median": statistics.median(ref),
                "tail": tail_percentile(ref), "seconds_best": min(self.seconds),
                "seconds_median": statistics.median(self.seconds),
                "wall_median": statistics.median(self.wall),
                "probe_median": statistics.median(self.probes)}


def measure_end_to_end(ctx: Context, seconds: float) -> tuple[dict, dict]:
    """Rounds of every user-facing operation; returns metrics and per-op series."""
    n_fit, n_any, n_stream = (ctx.sizes[k] for k in ("fit", "anytime", "stream"))
    streams = workloads.STREAM_ROLES
    loss = ["--loss", ctx.loss]
    model = ctx.out("model-stack.json")
    any_model = ctx.out("model-anytime.json")
    apply_out = ctx.out("apply.out")
    stream_out = ctx.out("stream.out")
    series = {k: Series() for k in ("setup", "fit", "anytime", "apply", *streams, "lib")}
    rss: list[float] = []

    # Warm-up, untimed: byte-compiles monocal once, fills caches of the
    # in-process path.
    _setup_once(ctx)
    lib_fit(ctx.samples["fit"], ctx.family)

    deadline = time.perf_counter() + seconds
    rounds = 0
    while rounds < MIN_ROUNDS or time.perf_counter() < deadline:
        rounds += 1
        for _ in range(SETUP_PER_ROUND):
            r = _setup_once(ctx)
            series["setup"].add(r.seconds, r.probe, r.wall_s)

        for _ in range(FIT_PER_ROUND):
            r = run_cli(ctx, "fit", ["fit", ctx.paths["fit"], *loss, "--out", model, "--quiet"],
                        ctx.out("fit.out"),
                        lambda: checks.check_fit_model(model, ctx.refs["fit"]))
            series["fit"].add(r.seconds, r.probe, r.wall_s)
            rss.append(r.maxrss_kb / 1024)

            r = run_cli(ctx, "anytime",
                        ["fit", ctx.paths["anytime"], *loss, "--solver", "anytime",
                         "--out", any_model, "--quiet"],
                        ctx.out("anytime.out"),
                        lambda: checks.check_anytime_model(any_model, ctx.refs["anytime"]))
            series["anytime"].add(r.seconds, r.probe, r.wall_s)

        for _ in range(APPLY_PER_ROUND):
            r = run_cli(ctx, "apply", ["apply", model, ctx.paths["apply"]], apply_out,
                        lambda: checks.check_apply(apply_out, model, ctx.inputs["apply"]))
            series["apply"].add(r.seconds, r.probe, r.wall_s)

        first = (rounds - 1) * STREAM_SETS_PER_ROUND % len(streams)
        for role in streams[first:first + STREAM_SETS_PER_ROUND]:
            r = run_cli(ctx, "stream", ["stream", ctx.paths[role], *loss], stream_out,
                        lambda: checks.check_stream(stream_out, ctx.refs[role], n_stream))
            series[role].add(r.seconds, r.probe, r.wall_s)

        for _ in range(LIB_FIT_PER_ROUND):
            before = probe.probe_seconds()
            start = time.perf_counter()
            fitted = lib_fit(ctx.samples["fit"], ctx.family)
            elapsed = time.perf_counter() - start
            series["lib"].add(elapsed, (before + probe.probe_seconds()) / 2, elapsed)
            ctx.tally.record("lib_fit", checks.check_fit_result(*fitted, ctx.refs["fit"]))
            del fitted

    med = {k: statistics.median(v.reference()) for k, v in series.items()}
    metrics = {
        "setup_s": med["setup"],
        "fit_rows_per_s": n_fit / med["fit"],
        "anytime_rows_per_s": n_any / med["anytime"],
        "apply_rows_per_s": n_fit / med["apply"],
        "stream_rows_per_s": len(streams) * n_stream / sum(med[k] for k in streams),
        "lib_fit_rows_per_s": n_fit / med["lib"],
        "fit_peak_rss_mb": statistics.median(rss),
    }
    extra = {
        "rounds": rounds,
        "summary": {k: v.summary() for k, v in series.items()},
        "samples": {k: {"seconds": v.seconds, "probe": v.probes, "wall": v.wall}
                    for k, v in series.items()},
        "fit_peak_rss_mb": rss,
    }
    return metrics, extra


def git_commit(root: str) -> str:
    """Commit of the checkout, read from ``.git`` without running git."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path, encoding="utf-8") as handle:
                return handle.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as handle:
            for line in handle:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def prepare(root: str, workload: str, seed: int, trace: int, spawner: Spawner) -> Context:
    """Generate inputs, write CSVs, compute references; nothing here is timed."""
    from monocal import LOG_LOSS, WEIGHTED_SQUARE, Sample

    work = os.path.join(root, ".bench_build", "perfbench", f"{workload}-seed{seed}-trace{trace}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    loss = workloads.LOSS[workload]
    inputs = workloads.make_inputs(workload, seed)
    paths = workloads.write_inputs(workload, inputs, work)
    refs = {role: checks.reference_fit(inputs[role]) for role in workloads.TRAINING_ROLES}
    samples = {role: [Sample(s, t, w) for s, t, w in inputs[role]]
               for role in ("fit", "anytime", "stream0")}
    return Context(
        work=work, loss=loss,
        family=LOG_LOSS if loss == "logloss" else WEIGHTED_SQUARE,
        sizes=workloads.SIZES[workload], inputs=inputs, paths=paths, refs=refs,
        samples=samples, spawner=spawner,
    )


def measure(args: argparse.Namespace, root: str, spawner: Spawner) -> dict:
    """Prepare, measure and return the full record of one run."""
    began = time.perf_counter()
    ctx = prepare(root, args.workload, args.seed, args.trace, spawner)
    prepare_seconds = time.perf_counter() - began
    # The generated inputs live for the whole run; keep them out of the
    # collector's way so in-process timings see only the library's garbage.
    gc.collect()
    gc.freeze()

    if args.trace:
        import layers
        metrics, units, extra = layers.measure_layers(ctx, args.seconds)
    else:
        metrics, extra = measure_end_to_end(ctx, args.seconds)
        units = END_TO_END_UNITS

    tally = ctx.tally
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "n": dict(ctx.sizes, apply=ctx.sizes["fit"], lib_fit=ctx.sizes["fit"],
                  stream_sets=workloads.STREAMS),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "commit": git_commit(root),
        "prepare_s": prepare_seconds,
        "wall_s": time.perf_counter() - began,
        "attempted": tally.attempted,
        "failed": len(tally.failures),
        "error_rate": len(tally.failures) / max(tally.attempted, 1),
        "failures": tally.failures,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        **extra,
    }
    with open(os.path.join(ctx.work, "BENCH.json"), "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1)
    # Inputs and outputs are megabytes per run and can be regenerated from
    # the seed (workloads.py); keep only the record and the spans.
    for name in os.listdir(ctx.work):
        if name not in ("BENCH.json", "spans.json"):
            os.remove(os.path.join(ctx.work, name))
    return record


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(workloads.SIZES), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "monocal", "cli.py")):
        print(f"perfbench: no monocal source under {src}; run from a monocal checkout",
              file=sys.stderr)
        return 2
    env = dict(os.environ, PYTHONPATH=src)
    env.pop("MONOCAL_MAX_N", None)
    # Started first, while this process is still small.
    with Spawner(root, env) as spawner:
        sys.path.insert(0, src)
        import monocal

        if os.path.dirname(os.path.abspath(monocal.__file__)) != os.path.join(src, "monocal"):
            print(f"perfbench: imported monocal from {monocal.__file__}, not {src}",
                  file=sys.stderr)
            return 2
        record = measure(args, root, spawner)

    for problem in record["failures"][:20]:
        print(f"FAILED {problem}", file=sys.stderr)
    for name, metric in record["metrics"].items():
        print(f"{name:40s} {metric['value']:14.6g} {metric['unit']}", file=sys.stderr)
    print(f"{'error_rate':40s} {record['error_rate']:14.6g} failed/attempted "
          f"({record['failed']}/{record['attempted']})", file=sys.stderr)
    print(json.dumps({
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
