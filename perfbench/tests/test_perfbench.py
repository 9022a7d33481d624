"""The benchmark's own tests: seeded inputs, tracer hygiene, failure counting.

Run from the root of the checkout::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import copy
import math
import json
from collections import Counter
from pathlib import Path

import pytest

import inputs
import workloads
from tracing import ENTRY_POINTS, Tracer, waterfall

REFERENCE = json.loads((Path(__file__).resolve().parents[1] / "reference.json").read_text())
BENCHMARK = Path(__file__).resolve().parents[2] / "BENCHMARK.json"


# -- seeded inputs -------------------------------------------------------------


def test_same_seed_same_query_streams():
    assert inputs.whatif_streams(3) == inputs.whatif_streams(3)
    assert inputs.whatif_streams(3) != inputs.whatif_streams(4)


def test_query_stream_asks_every_query_and_mostly_repeats():
    streams = inputs.whatif_streams(11)
    asked = {inputs.query_label(q) for stream in streams for q in stream}
    assert asked == {inputs.query_label(q) for q in inputs.whatif_universe()}
    assert len(streams) == inputs.WHATIF_CLIENTS
    assert 0.5 < inputs.repeat_share(streams) < 1.0


def test_same_seed_same_grid_order():
    assert inputs.grid_points(5) == inputs.grid_points(5)
    assert inputs.grid_points(5) != inputs.grid_points(6)
    assert sorted(p.label for p in inputs.grid_points(5)) == sorted(REFERENCE["grid"])


def test_same_seed_same_job_stream():
    from repro.fleet import bursty_trace

    def jobs(seed):
        trace_seed = inputs.fleet_trace_seed(seed)
        return bursty_trace(40, trace_seed, checkpoint_every=inputs.FLEET_CHECKPOINT_EVERY)

    assert jobs(2) == jobs(2)
    assert jobs(2) != jobs(3)


def test_same_seed_same_training_data():
    first = inputs.train_batches(inputs.train_stream(9))
    again = inputs.train_batches(inputs.train_stream(9))
    assert all((a[0] == b[0]).all() for a, b in zip(first, again))


def test_every_seed_has_a_reference():
    for seed in range(50):
        assert str(inputs.train_stream(seed)) in REFERENCE["train"]
        assert str(inputs.fleet_trace_seed(seed)) in REFERENCE["fleet"]
    assert set(REFERENCE["whatif"]) == {
        inputs.query_label(q) for q in inputs.whatif_universe()
    }


def test_benchmark_json_lists_every_workload_and_metric():
    import run
    from layers import PER_LAYER

    bench = json.loads(BENCHMARK.read_text())
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == list(PER_LAYER)


# -- the tracer ----------------------------------------------------------------


def test_traced_run_restores_every_wrapped_entry_point(tmp_path):
    from repro.sim import engine as sim_engine

    hook_before = sim_engine.set_event_hook(None)
    sim_engine.set_event_hook(hook_before)
    tracer = Tracer()
    with tracer:
        assert tracer.patches, "nothing was wrapped"
        for patch in tracer.patches:
            assert getattr(patch.owner, patch.attr) is patch.wrapper
        grid = inputs.grid_points(0)[:4]
        workloads.grid_round(grid, tmp_path / "g", REFERENCE["grid"], workloads.Result(), Counter())
    for patch in tracer.patches:
        assert getattr(patch.owner, patch.attr) is patch.original
    assert sim_engine.set_event_hook(hook_before) is hook_before
    names = {span.name for span in tracer.spans}
    assert {"runner.cache_get", "runner.cache_put", "runner.key"} <= names
    # Every class-level entry point got wrapped where it is defined.
    wrapped = {(getattr(p.owner, "__qualname__", ""), p.attr) for p in tracer.patches}
    assert ("PlannerService", "handle") in wrapped
    assert ("RatelPolicy", "plan") in wrapped
    assert {e.owner.rsplit(".", 1)[-1] for e in ENTRY_POINTS} >= {"PlannerService", "Fleet"}


def test_traced_cold_whatif_waterfall_adds_up(tmp_path):
    from layers import cold_waterfalls

    streams = [stream[:3] for stream in inputs.whatif_streams(0)]
    result = workloads.Result()
    with Tracer() as tracer:
        workloads.whatif_round(streams, tmp_path / "w", 0, REFERENCE["whatif"], result)
    assert result.failed == 0 and result.attempted == 6
    falls = cold_waterfalls(tracer.spans)
    assert falls, "no cold request was traced"
    for parts in falls:
        layers = sum(v for k, v in parts.items() if k != "handle")
        assert layers == pytest.approx(parts["handle"], rel=1e-9, abs=1e-9)
        assert parts["planner"] > 0 and parts["serve"] > 0
    # Infeasible points are planned but never simulated.
    assert any(parts["des"] > 0 for parts in falls)


def test_traced_train_steps_pair_with_their_own_forward(tmp_path):
    from layers import per_layer_metrics

    batches = inputs.train_batches(0)[:2]
    result = workloads.Result(rounds=2)
    with Tracer() as tracer:
        for round_index in range(2):
            tracer.scope = f"r{round_index}"
            workloads.train_round(batches, tmp_path / f"spill-{round_index}", tracer)
    steps = [span for span in tracer.spans if span.name == "runtime.step"]
    forwards = {span.trace_id: span for span in tracer.spans if span.name == "runtime.forward"}
    assert len({step.trace_id for step in steps}) == len(steps) == 4
    for step in steps:
        forward = forwards[step.trace_id]
        assert step.start <= forward.start <= forward.start + forward.duration <= (
            step.start + step.duration
        )
    metrics = per_layer_metrics(tracer, result, result)
    assert metrics["runtime.steps"]["value"] == 2
    assert metrics["runtime.backward_ms.p50"]["value"] > 0


def test_host_speed_weights_kernels_by_user_and_system_time(tmp_path):
    from hostspeed import HostSampler

    with HostSampler(tmp_path) as host:
        while len(host.cpu) < 2:
            sum(i * i for i in range(10_000))
    assert host.cpu and host.fs and host.speed() > 0
    assert not any(tmp_path.iterdir()), "the file kernel left a file behind"
    host.cpu, host.fs = [2.0], [0.5]
    host.user_s, host.system_s = 3.0, 1.0
    assert host.speed() == pytest.approx((3.0 * 2.0 + 1.0 * 0.5) / 4.0)
    result = workloads.Result(throughput_per_s=100.0, latency_ms=10.0, host_speed=0.5)
    assert result.normalized_throughput_per_s == 200.0
    assert result.normalized_latency_ms == 5.0


def test_tracer_cannot_install_twice():
    tracer = Tracer()
    with tracer:
        with pytest.raises(RuntimeError):
            tracer.install()


def test_waterfall_parts_add_up_to_the_handle_span():
    from tracing import Span

    spans = [
        Span("serve.handle", "t", 0.0, 10.0, 1.5),
        Span("serve.simulate", "t", 1.0, 8.5, 1.0),
        Span("serve.backend", "t", 1.2, 7.5, 0.25),
        Span("planner.swap", "t", 1.3, 6.0, 6.0),
        Span("des.iteration", "t", 7.3, 1.25, 1.25),
    ]
    parts = waterfall(spans)
    assert parts["handle"] == 10.0
    assert parts["unattributed"] == 1.5
    assert sum(v for k, v in parts.items() if k != "handle") == pytest.approx(10.0)


# -- failure counting ----------------------------------------------------------


def test_planted_wrong_grid_answer_is_counted_not_fatal(tmp_path):
    grid = inputs.grid_points(0)[:6]
    feasible = next(p for p in grid if REFERENCE["grid"][p.label]["feasible"])
    planted = copy.deepcopy(REFERENCE["grid"])
    planted[feasible.label]["iteration_time"] += 1e-9
    result = workloads.Result()
    workloads.grid_round(grid, tmp_path / "g", planted, result, Counter())
    # One cold pass and every warm pass each count the wrong answer once.
    assert result.failed == 1 + workloads.GRID_WARM_PASSES
    assert result.attempted == len(grid) * (1 + workloads.GRID_WARM_PASSES)
    assert all(feasible.label in message for message in result.failures)


def test_planted_wrong_whatif_answer_is_counted():
    label = next(label for label, ref in REFERENCE["whatif"].items() if ref["feasible"])
    expected = REFERENCE["whatif"][label]
    good = {"iteration_time": expected["iteration_time"], "tokens_per_s": expected["tokens_per_s"]}
    assert workloads.check_answer(expected, True, good) is None
    assert workloads.check_answer(expected, False, good) is not None
    wrong = dict(good, tokens_per_s=math.nextafter(expected["tokens_per_s"], math.inf))
    assert workloads.check_answer(expected, True, wrong) is not None


def test_planted_wrong_fleet_figure_is_counted(tmp_path):
    result = workloads.Result()
    drains, job_ids = workloads.fleet_round(
        inputs.fleet_trace_seed(0), tmp_path, None, workloads.Result(), 12
    )
    planted = {
        name: dict(workloads.fleet_summary(outcome), makespan_s=-1.0)
        for name, (_, outcome) in drains.items()
    }
    workloads.fleet_round(inputs.fleet_trace_seed(0), tmp_path, planted, result, 12)
    assert result.attempted == 12 * len(drains)
    assert result.failed == result.attempted
