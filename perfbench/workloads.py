"""The four workloads, each driven through the program's public entry points.

A workload first runs a small warm-up (untimed: lazy imports, first-call
paths, the model-profile memo), then repeats *rounds* until its time
budget is spent (at least one round always runs).  Each round starts
from scratch — a fresh service, cache directory, model or fleet — and
does the same work.

Throughput is total work over total busy time, and the what-if answer
latency and the train step time are means over the run: a median of
sub-second samples jumps between the fast and slow states of a shared
host, a run-long mean only moves with the share of time spent slow.
Warm grid passes and fleet recoveries are the exception: they are short
file-bound operations where a rare disk stall, not the host state, is
what moves a mean, so they report a median.  The host speed is sampled
throughout the measured rounds (:mod:`hostspeed`) and the gated figures
are scaled by it.

Every answer is checked against ``reference.json``; a wrong answer, a
non-200 reply, a quarantined point or a lost/duplicated job counts as a
failed operation and never aborts the run.

``SETUPS`` holds each workload's set-up alone, for the fresh-interpreter
set-up probes ``run.py`` makes.
"""

from __future__ import annotations

import contextlib
import http.client
import json
import math
import resource
import shutil
import statistics
import threading
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

import inputs
from hostspeed import HostSampler, service_speed

GB = 1e9


@dataclass
class Result:
    """What one workload run measured (host seconds unless stated)."""

    rounds: int = 0
    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)
    #: Generic end-to-end values in host time: ``throughput_per_s`` and
    #: ``latency_ms`` (the gated figures are these scaled by ``host_speed``).
    throughput_per_s: float = math.nan
    latency_ms: float = math.nan
    #: Host speed over the measured rounds (:meth:`hostspeed.HostSampler.speed`).
    host_speed: float = math.nan
    #: Process peak RSS once the first round has run (later rounds repeat
    #: its work; counting them would tie the figure to how many fit).
    peak_rss_mb: float = math.nan
    #: The workload's own end-to-end metrics: name -> (value, unit).
    named: dict[str, tuple[float, str]] = field(default_factory=dict)
    #: Measured workload properties and exact counts for the per-layer report.
    props: dict[str, float] = field(default_factory=dict)
    #: Client-observed latency (s) per request trace id (whatif only).
    client_latency: dict[str, float] = field(default_factory=dict)

    @property
    def normalized_throughput_per_s(self) -> float:
        """Throughput on a host of speed 1.0."""
        return self.throughput_per_s / self.host_speed

    @property
    def normalized_latency_ms(self) -> float:
        """Latency on a host of speed 1.0."""
        return self.latency_ms * self.host_speed

    def fail(self, message: str, n: int = 1) -> None:
        self.failed += n
        if len(self.failures) < 20:
            self.failures.append(message)


def quantile(values: list[float], q: float) -> float:
    """Nearest-rank quantile (``nan`` for no samples)."""
    if not values:
        return math.nan
    ordered = sorted(values)
    index = min(len(ordered) - 1, max(0, math.ceil(q * len(ordered)) - 1))
    return ordered[index]


def tail_quantile(n: int) -> float:
    """Highest of p99/p90/p50 with at least ten samples beyond it."""
    for q in (0.99, 0.9):
        if n * (1 - q) >= 10:
            return q
    return 0.5


def _same(expected: Any, actual: Any) -> bool:
    """Bit-for-bit float equality (``None`` stands for 'not simulated')."""
    if expected is None:
        return actual is None or (isinstance(actual, float) and math.isnan(actual))
    return isinstance(actual, (int, float)) and float(actual) == float(expected)


def check_answer(expected: dict, feasible: Any, metrics: dict) -> str | None:
    """Why a simulated answer differs from the reference (``None``: equal)."""
    if bool(feasible) != expected["feasible"]:
        return f"feasible={feasible}, expected {expected['feasible']}"
    for name in ("iteration_time", "tokens_per_s"):
        if not _same(expected[name], metrics.get(name)):
            return f"{name}={metrics.get(name)!r}, expected {expected[name]!r}"
    return None


@contextlib.contextmanager
def _measured(result: Result, work: Path, tracer):
    """The measured rounds: host speed sampled throughout, and traced if
    asked (the warm-up is neither)."""
    host = HostSampler(work / "host")
    with host, tracer if tracer is not None else contextlib.nullcontext():
        yield
    result.host_speed = host.speed()
    busy = host.user_s + host.system_s
    result.props.update(
        {
            "host.cpu_speed": statistics.median(host.cpu),
            "host.fs_speed": statistics.median(host.fs),
            "host.system_share": host.system_s / busy if busy > 0 else 0.0,
        }
    )


def _scope(tracer, scope: str) -> None:
    """Prefix the trace ids the tracer derives from steps, points and jobs."""
    if tracer is not None:
        tracer.scope = scope


def _rounds(seconds: float, result: Result):
    """Round indices while ``seconds`` of wall time last (at least one).

    A round is not started when, at the last round's length, more than
    half of it would fall past the budget.  Records the peak RSS after
    the first round.
    """
    started = time.perf_counter()
    index = 0
    last = 0.0
    while True:
        begun = time.perf_counter()
        if index and begun - started + last / 2 > seconds:
            return
        yield index
        last = time.perf_counter() - begun
        if index == 0:
            result.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        index += 1


# -- whatif-zipf ---------------------------------------------------------------

#: Requests per client in the warm-up round.
WHATIF_WARMUP_REQUESTS = 12


def start_service(root: Path):
    """A fresh planner service on an ephemeral port: ``(service, server, thread)``.

    Admission is set far above what two closed-loop clients can offer,
    and the deadline far above any miss: a 429/503 or a degraded rung is
    a real failure, not load shedding.
    """
    from repro.serve import PlannerService, ServiceConfig, make_server, start_in_thread

    service = PlannerService(
        ServiceConfig(
            rate=1e6,
            burst=1e6,
            workers=2,
            max_queue=64,
            deadline_s=120.0,
            cache_dir=str(root / "cache"),
            journal_path=str(root / "journal.jsonl"),
        )
    )
    server = make_server(service, port=0)
    return service, server, start_in_thread(server)


def stop_service(server, thread) -> None:
    server.shutdown()
    thread.join(timeout=30)
    server.shutdown_service()


def _trace_id(round_index: int, client: int, request: int) -> str:
    return f"{round_index:08x}{client:08x}{request:016x}"


def _client(
    port: int, stream: list[dict], round_index: int, client: int, out: list
) -> None:
    """Closed loop: send the next query only after the previous reply."""
    for request, query in enumerate(stream):
        trace_id = _trace_id(round_index, client, request)
        body = json.dumps(query)
        headers = {
            "Content-Type": "application/json",
            "traceparent": f"00-{trace_id}-{request + 1:016x}-01",
        }
        started = time.perf_counter()
        try:
            conn = http.client.HTTPConnection("127.0.0.1", port, timeout=120)
            try:
                conn.request("POST", "/v1/whatif", body, headers)
                reply = conn.getresponse()
                status, payload = reply.status, reply.read()
            finally:
                conn.close()
        except OSError as exc:
            out.append((trace_id, query, time.perf_counter() - started, 0, str(exc)))
            continue
        out.append((trace_id, query, time.perf_counter() - started, status, payload))


def whatif_round(
    streams: list[list[dict]], root: Path, round_index: int, expected: dict, result: Result
):
    """One fresh service answering the clients' streams.

    Returns ``(seconds the clients took, [(trace_id, latency, answer)])``
    for the answers that passed every check.
    """
    service, server, thread = start_service(root)
    port = server.server_address[1]
    outs: list[list] = [[] for _ in streams]
    clients = [
        threading.Thread(target=_client, args=(port, stream, round_index, i, outs[i]))
        for i, stream in enumerate(streams)
    ]
    started = time.perf_counter()
    for client in clients:
        client.start()
    for client in clients:
        client.join()
    busy = time.perf_counter() - started
    stop_service(server, thread)
    accounting = service.journal.fold()
    if accounting.orphans or accounting.duplicate_terminals:
        result.fail(
            f"round {round_index}: journal has {len(accounting.orphans)} orphans, "
            f"{accounting.duplicate_terminals} duplicate terminals"
        )
    shutil.rmtree(root, ignore_errors=True)
    good = []
    for trace_id, query, latency, status, payload in (r for out in outs for r in out):
        result.attempted += 1
        label = inputs.query_label(query)
        if status != 200:
            result.fail(f"{label}: HTTP {status} {payload!r:.200}")
            continue
        try:
            answer = json.loads(payload)
        except ValueError:
            result.fail(f"{label}: unparseable reply {payload!r:.200}")
            continue
        if answer.get("rung") != "exact":
            result.fail(f"{label}: rung {answer.get('rung')} ({answer.get('detail')})")
            continue
        why = check_answer(expected[label], answer.get("feasible"), answer.get("metrics", {}))
        if why is not None:
            result.fail(f"{label}: {why}")
            continue
        good.append((trace_id, latency, answer))
    return busy, good


def whatif_zipf(
    seed: int, seconds: float, work: Path, reference: dict, tracer=None
) -> Result:
    streams = inputs.whatif_streams(seed)
    expected = reference["whatif"]
    warmup = [stream[:WHATIF_WARMUP_REQUESTS] for stream in streams]
    whatif_round(warmup, work / "warmup", 0xFFFFFFFF, expected, Result())
    result = Result()
    busy = 0.0
    latencies: list[float] = []
    miss_latencies: list[float] = []
    sources: Counter = Counter()
    # The reference service probes the host around every round (outside
    # the round's busy time).
    service_speeds = [service_speed(work / "reference")]
    with _measured(result, work, tracer):
        for round_index in _rounds(seconds, result):
            seconds_busy, good = whatif_round(
                streams, work / f"whatif-{round_index}", round_index, expected, result
            )
            busy += seconds_busy
            for trace_id, latency, answer in good:
                latencies.append(latency)
                sources[answer["source"]] += 1
                result.client_latency[trace_id] = latency
                if answer["source"] == "sim":
                    miss_latencies.append(latency)
            service_speeds.append(service_speed(work / "reference"))
            result.rounds += 1
    # Answers from the caches spend their time on the path the reference
    # service copies; simulated ones on computing, which the sampler's
    # kernels track.  Weight each speed by the share of client time.
    served = 1.0 - sum(miss_latencies) / sum(latencies)
    result.props["host.service_speed"] = statistics.median(service_speeds)
    result.props["host.served_share"] = served
    result.host_speed = (
        served * result.props["host.service_speed"] + (1.0 - served) * result.host_speed
    )
    tail = tail_quantile(len(latencies))
    result.throughput_per_s = len(latencies) / busy
    result.latency_ms = statistics.mean(latencies) * 1e3
    result.named = {
        "whatif_rps": (result.throughput_per_s, "answers/s"),
        "whatif_mean_ms": (result.latency_ms, "ms"),
        "whatif_p50_ms": (quantile(latencies, 0.5) * 1e3, "ms"),
        f"whatif_p{round(tail * 100)}_ms": (quantile(latencies, tail) * 1e3, "ms"),
        "whatif_miss_p50_ms": (quantile(miss_latencies, 0.5) * 1e3, "ms"),
        "whatif_answers": (float(len(latencies)), "count"),
    }
    result.props["serve.repeat_share"] = inputs.repeat_share(streams)
    for source in ("sim", "cache", "ledger"):
        result.props[f"serve.answers.{source}"] = sources[source] / result.rounds
    return result


def setup_whatif(seed: int, work: Path) -> Callable[[], None]:
    _, server, thread = start_service(work / "setup")
    return lambda: stop_service(server, thread)


# -- grid-cold-warm ------------------------------------------------------------

#: Fresh passes over the warm cache directory per round.
GRID_WARM_PASSES = 5
#: Grid points in the warm-up round.
GRID_WARMUP_POINTS = 24


def _grid_policies() -> dict[str, Callable[[], Any]]:
    from repro.baselines import (
        CheckmatePolicy,
        ColossalAIPolicy,
        FlashNeuronPolicy,
        G10ActivationPolicy,
        ZeroInfinityPolicy,
        ZeroOffloadPolicy,
    )
    from repro.core import RatelPolicy

    return {
        "ZeRO-Infinity": ZeroInfinityPolicy,
        "ZeRO-Offload": ZeroOffloadPolicy,
        "Colossal-AI": ColossalAIPolicy,
        "Checkmate": CheckmatePolicy,
        "G10-activation": G10ActivationPolicy,
        "FlashNeuron": FlashNeuronPolicy,
        "Ratel": RatelPolicy,
    }


def _gpu(name: str):
    from repro.hardware import RTX_3090, RTX_4080, RTX_4090

    return {"4090": RTX_4090, "3090": RTX_3090, "4080": RTX_4080}[name]


def grid_sweep_points(grid: list) -> list:
    """The runner's ``SweepPoint``s for a list of :class:`inputs.GridPoint`."""
    from repro.hardware import evaluation_server
    from repro.models import llm
    from repro.runner import SweepPoint

    policies = _grid_policies()
    servers = {gpu: evaluation_server(gpu=_gpu(gpu)) for gpu in inputs.GRID_GPUS}
    return [
        SweepPoint.evaluate(policies[p.policy](), llm(p.model), p.batch, servers[p.gpu])
        for p in grid
    ]


def grid_setup(grid: list, root: Path):
    """The round's sweep points and a cold sweep with disk cache and ledger on."""
    from repro.runner import Sweep

    points = grid_sweep_points(grid)
    sweep = Sweep(
        cache_dir=str(root / "cache"),
        ledger=str(root / "ledger.jsonl"),
        on_error="quarantine",
    )
    return points, sweep


def _check_grid(result: Result, grid: list, outcomes: list, expected: dict, what: str):
    from repro.runner import is_failure

    for point, outcome in zip(grid, outcomes):
        result.attempted += 1
        if is_failure(outcome):
            result.props["runner.failures"] = result.props.get("runner.failures", 0.0) + 1
            result.fail(f"{what} {point.label}: {outcome}")
            continue
        metrics = outcome.metrics if outcome.feasible else {}
        why = check_answer(expected[point.label], outcome.feasible, metrics)
        if why is not None:
            result.fail(f"{what} {point.label}: {why}")


def _count_cache(stats: Counter, sweep) -> None:
    stats["hits"] += sweep.stats.hits
    stats["disk_hits"] += sweep.stats.disk_hits
    stats["misses"] += sweep.stats.misses


def grid_round(grid: list, root: Path, expected: dict, result: Result, stats: Counter):
    """One cold sweep, then fresh sweeps over the same (now warm) cache dir.

    Returns ``(cold pass seconds, warm pass seconds, cold outcomes)``.
    """
    from repro.runner import Sweep

    points, sweep = grid_setup(grid, root)
    started = time.perf_counter()
    outcomes = sweep.run(points)
    cold = time.perf_counter() - started
    _check_grid(result, grid, outcomes, expected, "cold")
    _count_cache(stats, sweep)
    warm_passes = []
    for _ in range(GRID_WARM_PASSES):
        started = time.perf_counter()
        warm = Sweep(cache_dir=str(root / "cache"), on_error="quarantine")
        warm_outcomes = warm.run(points)
        warm_passes.append(time.perf_counter() - started)
        _check_grid(result, grid, warm_outcomes, expected, "warm")
        if warm.stats.disk_hits != len(points):
            result.fail(f"warm pass: {warm.stats.disk_hits}/{len(points)} disk hits")
        _count_cache(stats, warm)
    shutil.rmtree(root, ignore_errors=True)
    return cold, warm_passes, outcomes


def grid_cold_warm(
    seed: int, seconds: float, work: Path, reference: dict, tracer=None
) -> Result:
    grid = inputs.grid_points(seed)
    expected = reference["grid"]
    grid_round(grid[:GRID_WARMUP_POINTS], work / "warmup", expected, Result(), Counter())
    result = Result()
    cold_passes: list[float] = []
    warm_passes: list[float] = []
    stats: Counter = Counter()
    outcomes: list = []
    with _measured(result, work, tracer):
        for round_index in _rounds(seconds, result):
            _scope(tracer, f"r{round_index}")
            cold, warm, outcomes = grid_round(
                grid, work / f"grid-{round_index}", expected, result, stats
            )
            cold_passes.append(cold)
            warm_passes.extend(warm)
            result.rounds += 1
    result.throughput_per_s = len(grid) * len(cold_passes) / sum(cold_passes)
    # A warm pass is short (~70 ms): a median ignores the odd pass a disk
    # stall stretches, which a mean over a few dozen passes would not.
    result.latency_ms = statistics.median(warm_passes) * 1e3 / len(grid)
    result.named = {
        "grid_cold_points_per_s": (result.throughput_per_s, "points/s"),
        "grid_warm_points_per_s": (1e3 / result.latency_ms, "points/s"),
        "grid_points": (float(len(grid)), "count"),
    }
    lookups = stats["hits"] + stats["misses"]
    result.props.update(
        {
            "grid.points": float(len(grid)),
            "grid.feasible_share": sum(1 for o in outcomes if o.feasible) / len(grid),
            "grid.simulated_share": sum(1 for o in outcomes if getattr(o, "metrics", None))
            / len(grid),
            "runner.cache.hits_mem": (stats["hits"] - stats["disk_hits"]) / result.rounds,
            "runner.cache.hits_disk": stats["disk_hits"] / result.rounds,
            "runner.cache.misses": stats["misses"] / result.rounds,
            "runner.cache.hit_ratio": stats["hits"] / lookups if lookups else 0.0,
            "runner.failures": result.props.get("runner.failures", 0.0) / result.rounds,
        }
    )
    return result


def setup_grid(seed: int, work: Path) -> Callable[[], None]:
    grid_setup(inputs.grid_points(seed), work / "setup")
    return lambda: None


# -- train-offload -------------------------------------------------------------


def train_setup(spill_dir: Path, stack: contextlib.ExitStack):
    """Ratel on a small GPT: ``(context, model, runtime)``, open on ``stack``.

    Checkpoints and optimizer states live on the NVMe tier, spilled as
    real files under ``spill_dir`` (removed when ``stack`` closes).
    """
    import numpy as np

    from repro.runtime import NVME, GPTModel, RatelOptimizer, ratel_hook, ratel_init

    spill_dir.mkdir(parents=True, exist_ok=True)
    stack.callback(shutil.rmtree, spill_dir, ignore_errors=True)
    context = stack.enter_context(
        ratel_init(
            gpu_capacity=GB,
            host_capacity=GB,
            nvme_capacity=8 * GB,
            checkpoint_tier=NVME,
            states_tier=NVME,
            spill_dir=str(spill_dir),
        )
    )
    model = GPTModel(
        inputs.TRAIN_VOCAB,
        inputs.TRAIN_DIM,
        inputs.TRAIN_LAYERS,
        inputs.TRAIN_HEADS,
        inputs.TRAIN_SEQ,
        np.random.default_rng(7),
    )
    runtime = ratel_hook(model)
    RatelOptimizer(model, runtime, lr=1e-3)
    return context, model, runtime


def train_round(batches: list, spill_dir: Path, tracer=None) -> tuple[list, list, dict]:
    """Set Ratel up afresh and run one ``train_step`` per batch.

    Returns ``(step seconds, losses, bytes moved per link)``.
    """
    from repro.runtime import CrossEntropyLoss

    loss_fn = CrossEntropyLoss()
    steps: list[float] = []
    losses: list[float] = []
    with contextlib.ExitStack() as stack:
        context, model, runtime = train_setup(spill_dir, stack)
        for ids, targets in batches:

            def forward(ids=ids, targets=targets):
                return loss_fn(model(ids), targets)

            if tracer is not None:
                forward = tracer.timed("runtime.forward", forward)
            started = time.perf_counter()
            losses.append(runtime.train_step(forward))
            steps.append(time.perf_counter() - started)
        manager = context.manager
        traffic = {f"{src}-{dst}": manager.traffic(src, dst) for src, dst in manager.moved_bytes}
    return steps, losses, traffic


def train_offload(
    seed: int, seconds: float, work: Path, reference: dict, tracer=None
) -> Result:
    stream = inputs.train_stream(seed)
    batches = inputs.train_batches(stream)
    expected = reference["train"][str(stream)]
    train_round(batches[:2], work / "warmup")
    result = Result()
    steps: list[float] = []
    traffic: dict[str, float] = {}
    with _measured(result, work, tracer):
        for round_index in _rounds(seconds, result):
            _scope(tracer, f"r{round_index}")
            times, losses, traffic = train_round(batches, work / f"spill-{round_index}", tracer)
            steps.extend(times)
            for step, (loss, want) in enumerate(zip(losses, expected)):
                result.attempted += 1
                # float32 NumPy math: equal to the recorded trajectory up to
                # BLAS summation order, far below any real divergence.
                if not math.isclose(loss, want, rel_tol=1e-6, abs_tol=0.0):
                    result.fail(
                        f"round {round_index} step {step}: loss {loss!r}, expected {want!r}"
                    )
            result.rounds += 1
    tokens = inputs.TRAIN_BATCH * inputs.TRAIN_SEQ
    result.throughput_per_s = tokens * len(steps) / sum(steps)
    result.latency_ms = statistics.mean(steps) * 1e3
    result.named = {
        "train_tokens_per_s": (result.throughput_per_s, "tokens/s"),
        "train_step_p50_ms": (quantile(steps, 0.5) * 1e3, "ms"),
        "train_step_mean_ms": (result.latency_ms, "ms"),
        "train_steps": (float(inputs.TRAIN_STEPS * result.rounds), "count"),
    }
    for link, moved in traffic.items():
        result.props[f"storage.bytes.{link}"] = moved / inputs.TRAIN_STEPS
    return result


def setup_train(seed: int, work: Path) -> Callable[[], None]:
    stack = contextlib.ExitStack()
    train_setup(work / "setup", stack)
    return stack.close


# -- fleet-burst ---------------------------------------------------------------

#: Recoveries timed per round (each from a fresh copy of the cut journal).
FLEET_RECOVERIES = 30
#: The scheduler whose journal is cut, and that the recovered fleet runs.
#: (Recovery requeues every live job at once; SJF's per-dispatch re-sort
#: of that queue would make the recovered drain alone take ~15 s.)
RECOVER_SCHEDULER = "binpack"
#: Jobs in the warm-up trace.
FLEET_WARMUP_JOBS = 24


def fleet_setup(scheduler: str, trace_seed: int, journal: Path, n_jobs: int):
    """A fresh fleet with the journal on, and its bursty trace: ``(fleet, specs)``."""
    from repro.fleet import CostOracle, Fleet, bursty_trace, standard_fleet_nodes
    from repro.runner import Sweep

    journal.parent.mkdir(parents=True, exist_ok=True)
    journal.unlink(missing_ok=True)
    specs = bursty_trace(n_jobs, trace_seed, checkpoint_every=inputs.FLEET_CHECKPOINT_EVERY)
    fleet = Fleet(
        standard_fleet_nodes(), scheduler, oracle=CostOracle(Sweep()), journal=str(journal)
    )
    return fleet, specs


def fleet_drain(
    scheduler: str, trace_seed: int, journal: Path, n_jobs: int = inputs.FLEET_JOBS
):
    """Drain the bursty trace (and the standard fault) under one scheduler.

    Returns ``(fleet, outcome, drain seconds)``; the drain includes the
    submissions.
    """
    from repro.fleet import standard_degradations

    fleet, specs = fleet_setup(scheduler, trace_seed, journal, n_jobs)
    started = time.perf_counter()
    for spec in specs:
        fleet.submit(spec)
    for injection in standard_degradations():
        fleet.inject(
            injection["at"],
            injection["node"],
            failed_ssds=injection.get("failed_ssds"),
            bw_sag=injection.get("bw_sag"),
            restore=injection.get("restore", False),
        )
    outcome = fleet.drain()
    drain = time.perf_counter() - started
    fleet.journal.close()
    return fleet, outcome, drain


def fleet_summary(outcome) -> dict:
    """The simulated figures compared against the reference."""
    return {
        "makespan_s": outcome.makespan,
        "p99_latency_s": outcome.metrics["p99_latency_s"],
        "completed": outcome.metrics["completed"],
        "rejected": outcome.metrics["rejected"],
    }


def _conservation(outcome, job_ids: list[str]) -> str | None:
    """Every submitted job ends exactly once, completed or rejected."""
    seen = Counter(r.spec.job_id for r in outcome.results)
    lost = [j for j in job_ids if seen[j] == 0]
    twice = [j for j, n in seen.items() if n > 1]
    bad = [r.spec.job_id for r in outcome.results if r.state not in ("completed", "rejected")]
    if lost or twice or bad:
        return f"{len(lost)} lost, {len(twice)} duplicated, {len(bad)} non-terminal"
    return None


def cut_journal(source: Path, dest: Path) -> None:
    """The first half of a journal plus a torn record: a mid-trace kill -9."""
    lines = source.read_bytes().splitlines(keepends=True)
    dest.write_bytes(b"".join(lines[: len(lines) // 2]) + b'{"rec": "assign", "job_id": "job-')


def fleet_recover(work: Path, job_ids: list[str], result: Result, *, drain: bool) -> list[float]:
    """Time ``Fleet.recover`` from the cut journal; optionally drain and check.

    Returns the recovery times in ms.
    """
    from repro.fleet import CostOracle, Fleet, FleetJournal, standard_fleet_nodes
    from repro.fleet.trace import RESTORE_AT_S
    from repro.runner import Sweep

    cut = work / "cut.jsonl"
    cut_journal(work / f"fleet-{RECOVER_SCHEDULER}.jsonl", cut)
    times = []
    for attempt in range(FLEET_RECOVERIES):
        copy = work / "recover.jsonl"
        shutil.copyfile(cut, copy)
        started = time.perf_counter()
        recovered = Fleet.recover(
            str(copy), standard_fleet_nodes(), RECOVER_SCHEDULER, oracle=CostOracle(Sweep())
        )
        times.append((time.perf_counter() - started) * 1e3)
        if not drain or attempt < FLEET_RECOVERIES - 1:
            recovered.journal.close()
            continue
        # The dead coordinator's heap held the future heal event.
        if recovered.now < RESTORE_AT_S:
            recovered.inject(RESTORE_AT_S, "box-4090", restore=True)
        outcome = recovered.drain()
        recovered.journal.close()
        result.attempted += len(job_ids)
        why = _conservation(outcome, job_ids)
        duplicates = FleetJournal(str(copy)).fold().duplicate_terminals
        if why is None and duplicates:
            why = f"{duplicates} duplicate terminal records"
        if why is not None:
            result.fail(f"recover: {why}", len(job_ids))
    return times


def fleet_round(
    trace_seed: int,
    work: Path,
    expected: dict | None,
    result: Result,
    n_jobs: int,
    tracer=None,
    round_index: int = 0,
):
    """Drain the trace under every scheduler.

    Returns ``({scheduler: (seconds, outcome)}, submitted job ids)``.
    """
    from repro.fleet import SCHEDULERS

    drains = {}
    job_ids: list[str] = []
    for scheduler in sorted(SCHEDULERS):
        _scope(tracer, f"r{round_index}/{scheduler}")
        fleet, outcome, drain = fleet_drain(
            scheduler, trace_seed, work / f"fleet-{scheduler}.jsonl", n_jobs
        )
        drains[scheduler] = (drain, outcome)
        job_ids = list(fleet._order)
        result.attempted += len(job_ids)
        why = _conservation(outcome, job_ids)
        if why is None and expected is not None and fleet_summary(outcome) != expected[scheduler]:
            why = f"simulated {fleet_summary(outcome)}, expected {expected[scheduler]}"
        if why is not None:
            result.fail(f"{scheduler}: {why}", len(job_ids))
    return drains, job_ids


def fleet_burst(
    seed: int, seconds: float, work: Path, reference: dict, tracer=None
) -> Result:
    trace_seed = inputs.fleet_trace_seed(seed)
    expected = reference["fleet"][str(trace_seed)]
    _, warmup_ids = fleet_round(trace_seed, work, None, Result(), FLEET_WARMUP_JOBS)
    fleet_recover(work, warmup_ids, Result(), drain=True)
    result = Result()
    jobs = 0
    busy = 0.0
    recover_ms: list[float] = []
    events = 0
    with _measured(result, work, tracer):
        for round_index in _rounds(seconds, result):
            drains, job_ids = fleet_round(
                trace_seed, work, expected, result, inputs.FLEET_JOBS, tracer, round_index
            )
            busy += sum(drain for drain, _ in drains.values())
            jobs += inputs.FLEET_JOBS * len(drains)
            events += sum(len(outcome.events) for _, outcome in drains.values())
            for scheduler, (_, outcome) in drains.items():
                result.props[f"fleet.jobs.{scheduler}"] = float(len(outcome.results))
            _scope(tracer, f"r{round_index}/recover")
            recover_ms.extend(fleet_recover(work, job_ids, result, drain=False))
            result.rounds += 1
    # The recovered drain (the conservation check) runs once, after the
    # measured rounds, so per-round counts stay the same in every round.
    fleet_recover(work, job_ids, result, drain=True)
    result.throughput_per_s = jobs / busy
    # Recoveries are short (~10 ms) file reads: a median ignores the odd
    # one a disk stall stretches.
    result.latency_ms = statistics.median(recover_ms)
    result.named = {
        "fleet_jobs_per_s": (result.throughput_per_s, "jobs/s"),
        "fleet_recover_ms": (result.latency_ms, "ms"),
    }
    result.props["fleet.events"] = events / result.rounds
    return result


def setup_fleet(seed: int, work: Path) -> Callable[[], None]:
    fleet, _ = fleet_setup(
        "sjf", inputs.fleet_trace_seed(seed), work / "setup.jsonl", inputs.FLEET_JOBS
    )
    return fleet.journal.close


WORKLOADS: dict[str, Callable[..., Result]] = {
    "whatif-zipf": whatif_zipf,
    "grid-cold-warm": grid_cold_warm,
    "train-offload": train_offload,
    "fleet-burst": fleet_burst,
}

SETUPS: dict[str, Callable[[int, Path], Callable[[], None]]] = {
    "whatif-zipf": setup_whatif,
    "grid-cold-warm": setup_grid,
    "train-offload": setup_train,
    "fleet-burst": setup_fleet,
}
