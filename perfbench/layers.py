"""Per-layer metrics of a traced run, computed from its spans and counts.

Every metric is reported on every workload; a layer the workload never
calls reads 0 (that is the "should not move" half of each prediction).
Counts and summed times are per round, so they repeat exactly when the
program does the same work.
"""

from __future__ import annotations

import math
from collections import defaultdict
from typing import Any

from tracing import (
    ANSWER_SOURCES,
    LINKS,
    MOVE_ROUTES,
    SCHEDULER_NAMES,
    WATERFALL_LAYERS,
    Span,
    Tracer,
    waterfall,
)
from workloads import Result, quantile

#: (name, unit) of every per-layer metric, in report order.
PER_LAYER: tuple[tuple[str, str], ...] = (
    ("serve.handle_ms.p50", "ms"),
    ("serve.http_ms.p50", "ms"),
    ("serve.backend_ms.p50", "ms"),
    ("serve.backend_wait_ms.p50", "ms"),
    ("serve.cache_get_us.p50", "us"),
    ("serve.cache_put_us.p50", "us"),
    ("serve.journal_append_us.p50", "us"),
    *((f"serve.answers.{source}", "count/round") for source in ANSWER_SOURCES),
    ("serve.repeat_share", "ratio"),
    ("planner.plans", "count/round"),
    ("planner.plan_ms.p50", "ms"),
    ("planner.self_s", "s/round"),
    ("planner.iteration_time_calls", "count/round"),
    ("models.recompute_flops_for.calls", "count/round"),
    ("models.profile_s", "s/round"),
    ("des.iterations", "count/round"),
    ("des.self_s", "s/round"),
    ("des.iteration_ms.p50", "ms"),
    ("des.events", "count/round"),
    ("des.us_per_event", "us"),
    ("runner.point_ms.p50", "ms"),
    ("runner.key_us.p50", "us"),
    ("runner.cache_get_us.p50", "us"),
    ("runner.cache_put_us.p50", "us"),
    ("runner.cache.hits_mem", "count/round"),
    ("runner.cache.hits_disk", "count/round"),
    ("runner.cache.misses", "count/round"),
    ("runner.cache.hit_ratio", "ratio"),
    ("runner.failures", "count/round"),
    ("grid.points", "count"),
    ("grid.feasible_share", "ratio"),
    ("grid.simulated_share", "ratio"),
    ("obs.attribution_ms.p50", "ms"),
    ("obs.ledger_append_us.p50", "us"),
    ("obs.ledger_appends", "count/round"),
    ("runtime.steps", "count/round"),
    ("runtime.step_ms.p50", "ms"),
    ("runtime.forward_ms.p50", "ms"),
    ("runtime.backward_ms.p50", "ms"),
    ("optim.adam_ms", "ms/step"),
    *((f"storage.move_ms.{route}", "ms/step") for route in MOVE_ROUTES),
    *((f"storage.bytes.{link}", "B/step") for link in LINKS),
    ("fleet.submit_us.p50", "us"),
    ("fleet.oracle_calls", "count/round"),
    ("fleet.oracle_us.p50", "us"),
    ("fleet.scheduler_calls", "count/round"),
    ("fleet.scheduler_us.p50", "us"),
    ("fleet.journal_appends", "count/round"),
    ("fleet.journal_append_us.p50", "us"),
    ("fleet.journal_fold_ms", "ms"),
    ("fleet.events", "count/round"),
    *((f"fleet.jobs.{name}", "count") for name in SCHEDULER_NAMES),
    ("waterfall.requests", "count/round"),
    ("waterfall.handle_ms", "ms/round"),
    *((f"waterfall.{layer}_ms", "ms/round") for layer in WATERFALL_LAYERS),
    ("waterfall.unattributed_ms", "ms/round"),
    ("waterfall.max_residual_us", "us"),
    ("trace.throughput_overhead_pct", "%"),
    ("trace.latency_overhead_pct", "%"),
)


def _p50(spans: list[Span], scale: float) -> float:
    value = quantile([s.duration for s in spans], 0.5)
    return 0.0 if math.isnan(value) else value * scale


def _overhead_pct(untraced: float, traced: float, higher_is_better: bool) -> float:
    if not untraced or math.isnan(untraced) or math.isnan(traced):
        return 0.0
    loss = (untraced - traced) if higher_is_better else (traced - untraced)
    return 100.0 * loss / untraced


def cold_waterfalls(spans: list[Span]) -> list[dict[str, float]]:
    """One waterfall per request whose answer was simulated (a cold miss)."""
    by_trace: dict[str, list[Span]] = defaultdict(list)
    for span in spans:
        if span.layer in WATERFALL_LAYERS:
            by_trace[span.trace_id].append(span)
    falls = []
    for trace_spans in by_trace.values():
        names = {span.name for span in trace_spans}
        if "serve.handle" in names and "serve.backend" in names:
            falls.append(waterfall(trace_spans))
    return falls


def per_layer_metrics(
    tracer: Tracer, traced: Result, untraced: Result
) -> dict[str, dict[str, Any]]:
    """Every :data:`PER_LAYER` metric, as ``{name: {value, unit}}``."""
    rounds = max(traced.rounds, 1)
    spans = tracer.by_name()
    counts = tracer.counts()
    values: dict[str, float] = {name: 0.0 for name, _ in PER_LAYER}

    def group(*names: str) -> list[Span]:
        return [span for name in names for span in spans.get(name, [])]

    # serve
    handles = group("serve.handle")
    values["serve.handle_ms.p50"] = _p50(handles, 1e3)
    http = [
        traced.client_latency[h.trace_id] - h.duration
        for h in handles
        if h.trace_id in traced.client_latency
    ]
    values["serve.http_ms.p50"] = (quantile(http, 0.5) * 1e3) if http else 0.0
    backends = group("serve.backend")
    values["serve.backend_ms.p50"] = _p50(backends, 1e3)
    backend_by_trace = {b.trace_id: b.duration for b in backends}
    waits = [s.duration - backend_by_trace.get(s.trace_id, 0.0) for s in group("serve.simulate")]
    values["serve.backend_wait_ms.p50"] = (quantile(waits, 0.5) * 1e3) if waits else 0.0
    values["serve.cache_get_us.p50"] = _p50(group("serve.cache_get"), 1e6)
    values["serve.cache_put_us.p50"] = _p50(group("serve.cache_put"), 1e6)
    values["serve.journal_append_us.p50"] = _p50(group("serve.journal_append"), 1e6)

    # planner / models
    # RatelPolicy.plan memoizes per instance; Algorithm 1 proper is the
    # plan_activation_swapping call a cache miss makes.
    plans = group("planner.swap")
    values["planner.plans"] = len(plans) / rounds
    values["planner.plan_ms.p50"] = _p50(plans, 1e3)
    values["planner.self_s"] = sum(
        s.self_time for s in group("planner.plan", "planner.swap")
    ) / rounds
    values["planner.iteration_time_calls"] = counts["planner.iteration_time"] / rounds
    values["models.recompute_flops_for.calls"] = (
        len(group("models.recompute_flops_for")) / rounds
    )
    values["models.profile_s"] = sum(s.duration for s in group("models.profile")) / rounds

    # des
    iterations = group("des.iteration")
    des_time = sum(s.duration for s in iterations)
    values["des.iterations"] = len(iterations) / rounds
    values["des.self_s"] = sum(s.self_time for s in iterations) / rounds
    values["des.iteration_ms.p50"] = _p50(iterations, 1e3)
    values["des.events"] = counts["des.events"] / rounds
    values["des.us_per_event"] = (
        des_time * 1e6 / counts["des.events"] if counts["des.events"] else 0.0
    )

    # runner
    values["runner.point_ms.p50"] = _p50(group("runner.point"), 1e3)
    values["runner.key_us.p50"] = _p50(group("runner.key"), 1e6)
    values["runner.cache_get_us.p50"] = _p50(group("runner.cache_get"), 1e6)
    values["runner.cache_put_us.p50"] = _p50(group("runner.cache_put"), 1e6)
    values["runner.failures"] = traced.props.get("runner.failures", 0.0)

    # obs
    values["obs.attribution_ms.p50"] = _p50(group("obs.attribution"), 1e3)
    ledger = group("obs.ledger_append")
    values["obs.ledger_append_us.p50"] = _p50(ledger, 1e6)
    values["obs.ledger_appends"] = len(ledger) / rounds

    # runtime / optim / storage
    steps = group("runtime.step")
    n_steps = max(len(steps), 1)
    # A forward span nests in its step's span and shares its trace id
    # (round scope + step number), so each step is paired with its own.
    forwards = {s.trace_id: s.duration for s in group("runtime.forward")}
    values["runtime.steps"] = len(steps) / rounds
    values["runtime.step_ms.p50"] = _p50(steps, 1e3)
    values["runtime.forward_ms.p50"] = _p50(group("runtime.forward"), 1e3)
    backward = [s.duration - forwards.get(s.trace_id, 0.0) for s in steps]
    values["runtime.backward_ms.p50"] = (quantile(backward, 0.5) * 1e3) if backward else 0.0
    values["optim.adam_ms"] = sum(s.duration for s in group("optim.adam")) * 1e3 / n_steps
    for route in MOVE_ROUTES:
        moves = group(f"storage.move.{route}")
        values[f"storage.move_ms.{route}"] = sum(s.duration for s in moves) * 1e3 / n_steps

    # fleet
    values["fleet.submit_us.p50"] = _p50(group("fleet.submit"), 1e6)
    oracle = group("fleet.oracle")
    values["fleet.oracle_calls"] = len(oracle) / rounds
    values["fleet.oracle_us.p50"] = _p50(oracle, 1e6)
    scheduler = group("fleet.scheduler")
    values["fleet.scheduler_calls"] = len(scheduler) / rounds
    values["fleet.scheduler_us.p50"] = _p50(scheduler, 1e6)
    appends = group("fleet.journal_append")
    values["fleet.journal_appends"] = len(appends) / rounds
    values["fleet.journal_append_us.p50"] = _p50(appends, 1e6)
    values["fleet.journal_fold_ms"] = _p50(group("fleet.journal_fold"), 1e3)

    # the cold /v1/whatif waterfall
    falls = cold_waterfalls(tracer.spans)
    values["waterfall.requests"] = len(falls) / rounds
    for part in ("handle", *WATERFALL_LAYERS, "unattributed"):
        values[f"waterfall.{part}_ms"] = sum(f[part] for f in falls) * 1e3 / rounds
    values["waterfall.max_residual_us"] = max(
        (
            abs(f["handle"] - sum(f[p] for p in (*WATERFALL_LAYERS, "unattributed"))) * 1e6
            for f in falls
        ),
        default=0.0,
    )

    # workload properties (exact, recorded by the workload itself)
    for name, value in traced.props.items():
        if name in values:
            values[name] = value

    values["trace.throughput_overhead_pct"] = _overhead_pct(
        untraced.normalized_throughput_per_s, traced.normalized_throughput_per_s, True
    )
    values["trace.latency_overhead_pct"] = _overhead_pct(
        untraced.normalized_latency_ms, traced.normalized_latency_ms, False
    )
    units = dict(PER_LAYER)
    return {name: {"value": values[name], "unit": units[name]} for name in units}
