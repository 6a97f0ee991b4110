"""Traced run: times each monocal module's public functions from outside.

Nothing inside monocal is instrumented. Each round calls the CLI entry point
in-process (``cli.main``) and then, on the same inputs, the functions it is
built from, each inside a span. A span records run id (the round), span id,
parent span id, name, start and end; spans stay in memory and are written to
``spans.json`` in the run directory at the end. Metrics marked *derived* are a
parent span minus separately timed calls on the same input, e.g.
``cli.ingest_s = cli.main[fit] - normalize - fit_stack - blocks_to_staircase``.
``_s`` numbers are inclusive (``fit_stack`` includes its ``blocks_loss``).
Time metrics take each span name's fastest round, the one least disturbed
by neighbours on a shared machine (per-layer metrics carry no bound, so they
stay in plain seconds); derived metrics subtract the children's fastest
rounds from the parent's. Counts are read from results and
``FitReport``/``OnlineState``/anytime group fields between public calls.

The online layer is timed per call (``push`` and ``current`` on every row) and
kept as duration samples rather than spans, so that the tail percentile has
thousands of samples without thousands of span records.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import statistics
import time
from collections import defaultdict

import checks
import probe

LIB_FIT_PER_ROUND = 3

UNITS = {
    "cli.ingest_s": "s",
    "cli.load_model_s": "s",
    "cli.apply_io_s": "s",
    "cli.stream_io_s": "s",
    "cli.stream_out_bytes_per_row": "B/row",
    "core.normalize_s": "s",
    "core.normalize.rows_in": "count",
    "core.normalize.rows_out": "count",
    "core.blocks_loss_s": "s",
    "core.blocks_to_staircase_s": "s",
    "core.evaluate_s": "s",
    "pav_offline.fit_stack_s": "s",
    "pav_offline.steps": "count",
    "pav_offline.merges": "count",
    "pav_offline.fit_direct_s": "s",
    "pav_offline.direct_passes": "count",
    "online.push_s": "s",
    "online.push_p99_us": "us",
    "online.current_s": "s",
    "online.current_p99_ms": "ms",
    "online.max_steps": "count",
    "anytime.run_s": "s",
    "anytime.iterate_s": "s",
    "anytime.rounds": "count",
    "anytime.oracle_calls": "count",
    "anytime.groups_final": "count",
    "losses.oracle_samples_summed": "count",
    "trace.lib_fit_overhead_rows_per_s": "rows/s",
    "trace.lib_fit_overhead_pct": "%",
}


class Tracer:
    """In-memory spans: ``(run_id, span_id, parent_id, name, start, end)``."""

    def __init__(self) -> None:
        self.spans: list[tuple | None] = []
        self._open: list[int] = []
        self.run_id = 0

    @contextlib.contextmanager
    def span(self, name: str):
        span_id = len(self.spans)
        self.spans.append(None)
        parent = self._open[-1] if self._open else None
        self._open.append(span_id)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._open.pop()
            self.spans[span_id] = (self.run_id, span_id, parent, name, start, end)

    def totals(self, run_id: int) -> dict[str, float]:
        """Summed duration of each span name within one run."""
        out: dict[str, float] = defaultdict(float)
        for run, _, _, name, start, end in self.spans:
            if run == run_id:
                out[name] += end - start
        return out

    def write(self, path: str) -> None:
        fields = ("run", "id", "parent", "name", "start", "end")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump([dict(zip(fields, s)) for s in self.spans], handle)


def nearest_rank(samples: list[float], q: float) -> float:
    """The ``q`` quantile of ``samples`` by the nearest-rank rule."""
    return sorted(samples)[math.ceil(q * len(samples)) - 1]


def _cli(tracer: Tracer, name: str, argv: list[str], stdout_path: str) -> int:
    """``cli.main(argv)`` in-process, stdout to a file, inside span ``name``."""
    from monocal import cli

    with open(stdout_path, "w", encoding="utf-8") as out, contextlib.redirect_stdout(out):
        with tracer.span(name):
            code = cli.main(argv)
            out.flush()
    return code


def _record(ctx, op: str, code: int, check) -> None:
    ctx.tally.record(op, f"exit {code}" if code != 0 else check())


def _no_span(name: str):
    return contextlib.nullcontext()


def lib_fit(samples, family, span=_no_span):
    """The library user's path: normalize, sweep, materialize; each in ``span``."""
    from monocal import blocks_to_staircase, fit_stack, normalize

    with span("lib_fit"):
        with span("lib_fit.normalize"):
            problem = normalize(samples, family)
        with span("lib_fit.fit_stack"):
            report = fit_stack(problem)
        with span("lib_fit.blocks_to_staircase"):
            staircase = blocks_to_staircase(report.blocks, [s.score for s in problem.samples])
    return problem, report, staircase


def _round(ctx, tracer: Tracer, counts: dict, per_call: dict, lib: dict) -> dict:
    """One traced pass over every layer; returns this round's per-call sums."""
    from monocal import (
        AnytimeConfig, DerivativeOracle, OnlineState, anytime_init, anytime_run,
        blocks_loss, blocks_to_staircase, cli, fit_direct, fit_stack, normalize,
    )
    from monocal.anytime import iterate

    family, loss = ctx.family, ["--loss", ctx.loss]
    refs = ctx.refs

    # cli fit, then the functions it is built from.
    model = ctx.out("layers-model.json")
    code = _cli(tracer, "cli.main[fit]",
                ["fit", ctx.paths["fit"], *loss, "--out", model, "--quiet"],
                ctx.out("layers-fit.out"))
    _record(ctx, "cli.main[fit]", code, lambda: checks.check_fit_model(model, refs["fit"]))
    with tracer.span("core.normalize"):
        problem = normalize(ctx.samples["fit"], family)
    with tracer.span("pav_offline.fit_stack"):
        report = fit_stack(problem)
    with tracer.span("core.blocks_loss"):
        blocks_loss(problem, report.blocks)
    scores = [s.score for s in problem.samples]
    with tracer.span("core.blocks_to_staircase"):
        staircase = blocks_to_staircase(report.blocks, scores)
    ctx.tally.record("layers.fit_stack", checks.check_fit_result(problem, report, staircase,
                                                                 refs["fit"]))
    with tracer.span("pav_offline.fit_direct"):
        direct = fit_direct(problem)
    ctx.tally.record("layers.fit_direct", checks.check_fit_result(
        problem, direct, blocks_to_staircase(direct.blocks, scores), refs["fit"]))
    counts.update({
        "core.normalize.rows_in": len(ctx.samples["fit"]),
        "core.normalize.rows_out": len(problem.samples),
        "pav_offline.steps": staircase.step_count,
        "pav_offline.merges": report.merge_count,
        "pav_offline.direct_passes": direct.passes,
    })
    del problem, report, direct, scores

    # cli apply, then model load and one staircase call per score.
    with tracer.span("cli.load_model"):
        loaded, _, _ = cli.load_model(model)
    with tracer.span("core.evaluate"):
        for x in ctx.inputs["apply"]:
            loaded(x)
    apply_out = ctx.out("layers-apply.out")
    code = _cli(tracer, "cli.main[apply]", ["apply", model, ctx.paths["apply"]], apply_out)
    _record(ctx, "cli.main[apply]", code,
            lambda: checks.check_apply(apply_out, model, ctx.inputs["apply"]))

    # Online replay: push and current() per row, as `monocal stream` does.
    pushes, currents = per_call["push"], per_call["current"]
    first = len(pushes)
    clock = time.perf_counter
    state = OnlineState(family)
    max_steps = 0
    with tracer.span("online.replay"):
        for sample in ctx.samples["stream0"]:
            t0 = clock()
            state.push(sample)
            t1 = clock()
            current = state.current()
            t2 = clock()
            pushes.append(t1 - t0)
            currents.append(t2 - t1)
            max_steps = max(max_steps, state.step_count)
    n_stream = state.n_seen
    problem = checks.compare_values(current.values, refs["stream0"])
    if problem is None and state.cumulative_merges != n_stream - state.step_count:
        problem = f"cumulative_merges {state.cumulative_merges} != n - steps"
    ctx.tally.record("layers.online", problem)
    counts["online.max_steps"] = max_steps
    stream_out = ctx.out("layers-stream.out")
    code = _cli(tracer, "cli.main[stream]", ["stream", ctx.paths["stream0"], *loss],
                stream_out)
    _record(ctx, "cli.main[stream]", code,
            lambda: checks.check_stream(stream_out, refs["stream0"], n_stream))
    counts["cli.stream_out_bytes_per_row"] = os.path.getsize(stream_out) / n_stream

    # Anytime: the whole run, then the same loop driven through anytime_init
    # and iterate, counting the groups probed each round.
    problem = normalize(ctx.samples["anytime"], family)
    # The CLI defaults: doubling from unbounded for square, [0, 1] for log loss.
    config = AnytimeConfig(1.0, 0.0) if ctx.loss == "logloss" else AnytimeConfig()
    with tracer.span("anytime.anytime_run"):
        result = anytime_run(problem, config)
    ctx.tally.record("layers.anytime", checks.check_anytime(
        result.staircase.breakpoints, result.staircase.values, result.width_bound,
        refs["anytime"]))
    rounds = calls = summed = 0
    with tracer.span("anytime.loop"):
        groups = anytime_init(problem, config)
        oracle = DerivativeOracle(problem.samples, family)
        while rounds < config.max_iters and any(g.width > config.delta for g in groups):
            for g in groups:
                if not g.settled:
                    calls += 1
                    summed += g.last - g.first + 1
            with tracer.span("anytime.iterate"):
                groups = iterate(groups, oracle)
            rounds += 1
    same = rounds == result.iters and tuple(groups) == result.groups
    ctx.tally.record("layers.anytime_loop",
                     None if same else "driven loop disagrees with anytime_run")
    counts.update({
        "anytime.rounds": rounds,
        "anytime.oracle_calls": calls,
        "anytime.groups_final": len(groups),
        "losses.oracle_samples_summed": summed,
    })
    del problem, result, groups, oracle

    # Library fit with and without spans, in alternating order, for the
    # tracing overhead; in reference seconds, as the end-to-end run does.
    for k in range(LIB_FIT_PER_ROUND):
        for traced in ((False, True) if (tracer.run_id + k) % 2 else (True, False)):
            before = probe.probe_seconds()
            start = clock()
            lib_fit(ctx.samples["fit"], family, tracer.span if traced else _no_span)
            elapsed = clock() - start
            speed = (before + probe.probe_seconds()) / 2
            lib["traced" if traced else "untraced"].append(
                elapsed * probe.REFERENCE_S / speed)

    return {"push": math.fsum(pushes[first:]), "current": math.fsum(currents[first:])}


def measure_layers(ctx, seconds: float) -> tuple[dict, dict, dict]:
    """Traced rounds until ``seconds`` have passed (at least two)."""
    tracer = Tracer()
    counts: dict = {}
    per_call: dict[str, list[float]] = {"push": [], "current": []}
    lib: dict[str, list[float]] = {"untraced": [], "traced": []}
    per_round: dict[str, list[float]] = defaultdict(list)

    deadline = time.perf_counter() + seconds
    while tracer.run_id < 2 or time.perf_counter() < deadline:
        tracer.run_id += 1
        with tracer.span("round"):
            online = _round(ctx, tracer, counts, per_call, lib)
        for name, value in tracer.totals(tracer.run_id).items():
            per_round[name].append(value)
        for name, value in online.items():
            per_round[f"online.{name}"].append(value)
    tracer.write(ctx.out("spans.json"))

    n_fit = ctx.sizes["fit"]
    untraced = n_fit / statistics.median(lib["untraced"])
    traced = n_fit / statistics.median(lib["traced"])
    t = {name: min(values) for name, values in per_round.items()}
    metrics = {
        "cli.ingest_s": t["cli.main[fit]"] - t["core.normalize"]
        - t["pav_offline.fit_stack"] - t["core.blocks_to_staircase"],
        "cli.load_model_s": t["cli.load_model"],
        "cli.apply_io_s": t["cli.main[apply]"] - t["cli.load_model"] - t["core.evaluate"],
        "cli.stream_io_s": t["cli.main[stream]"] - t["online.push"] - t["online.current"],
        "core.normalize_s": t["core.normalize"],
        "core.blocks_loss_s": t["core.blocks_loss"],
        "core.blocks_to_staircase_s": t["core.blocks_to_staircase"],
        "core.evaluate_s": t["core.evaluate"],
        "pav_offline.fit_stack_s": t["pav_offline.fit_stack"],
        "pav_offline.fit_direct_s": t["pav_offline.fit_direct"],
        "online.push_s": t["online.push"],
        "online.current_s": t["online.current"],
        "anytime.run_s": t["anytime.anytime_run"],
        "anytime.iterate_s": t["anytime.iterate"],
    }
    metrics.update(counts)
    metrics.update({
        "online.push_p99_us": nearest_rank(per_call["push"], 0.99) * 1e6,
        "online.current_p99_ms": nearest_rank(per_call["current"], 0.99) * 1e3,
        "trace.lib_fit_overhead_rows_per_s": untraced - traced,
        "trace.lib_fit_overhead_pct": 100.0 * (untraced - traced) / untraced,
    })
    metrics = {name: metrics[name] for name in UNITS}
    extra = {
        "rounds": tracer.run_id,
        "spans": len(tracer.spans),
        "per_call_samples": {k: len(v) for k, v in per_call.items()},
        "lib_fit_rows_per_s": {"untraced": untraced, "traced": traced,
                               "samples": {k: len(v) for k, v in lib.items()}},
        "per_round": dict(per_round),
    }
    return metrics, UNITS, extra
