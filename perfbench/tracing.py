"""Timing wrappers around each layer's public entry points.

The traced run installs a :class:`Tracer`: every entry point named in
:data:`ENTRY_POINTS` is replaced, wherever a ``repro`` module holds a
reference to it, by a wrapper that records a span (name, trace id,
start, duration, self time) in memory.  Nothing in the program is
edited; :meth:`Tracer.uninstall` puts every original object back.

Spans of one request or job share a trace id:

* serve spans inherit the W3C trace id the client sent as
  ``traceparent`` (read through :mod:`repro.obs.tracectx`, which the
  HTTP face activates for the request and the service carries into its
  worker pool);
* runner spans use the point's content key, fleet spans the job id and
  runtime spans the step number, each prefixed with the tracer's
  ``scope`` (set by the workload to its round, and scheduler), so ids do
  not repeat across rounds;
* nested spans on the same thread inherit their parent's id.

A span's self time is its duration minus the time its child spans
cover.  A span that opens on a worker thread while a span marked as an
*anchor* (the service's ``_simulate``) is open for the same trace counts
as that anchor's child, so self times over one request add up to its
root span's duration.

The hottest inner call (``IterationTimeModel.iteration_time``, thousands
per plan) and DES events are counted, not timed: a span per call would
cost more than the call.
"""

from __future__ import annotations

import functools
import sys
import threading
import time
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from typing import Any, Callable

#: Links of the runtime's storage hierarchy, as ``source-dest`` names.
LINKS = ("gpu-host", "host-gpu", "host-nvme", "nvme-host")
#: Routes a single ``StorageManager.move`` call can take.
MOVE_ROUTES = LINKS + ("gpu-nvme", "nvme-gpu")
#: Answer sources the service reports for exact answers.
ANSWER_SOURCES = ("sim", "cache", "ledger")
SCHEDULER_NAMES = ("fifo", "sjf", "priority", "binpack")
#: Layers a request's waterfall is split into (plus ``unattributed``).
WATERFALL_LAYERS = ("serve", "runner", "models", "planner", "des", "obs")


@dataclass(slots=True)
class Span:
    name: str
    trace_id: str
    start: float
    duration: float
    self_time: float

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    def to_row(self) -> list:
        return [self.name, self.trace_id, self.start, self.duration, self.self_time]


@dataclass
class _Frame:
    name: str
    trace_id: str
    child: float = 0.0
    thread: int = 0


@dataclass
class EntryPoint:
    """One callable to wrap: ``owner.attr`` (a module or a class)."""

    owner: str
    attr: str
    span: str | Callable[..., str]
    #: Maps the call's arguments to its trace id, used when the span has
    #: nothing to inherit (no enclosing span, no ambient trace).
    ident: Callable[..., str] | None = None
    #: Always start the span's own trace from ``ident`` (per-job calls).
    own_trace: bool = False
    #: Count calls only (no span, no clock reads).
    count_only: bool = False
    #: Worker-thread spans of the same trace nest under this one.
    anchor: bool = False


def _job_of_record(journal, rec, t, **fields_) -> str:
    job = fields_.get("job")
    if isinstance(job, dict):
        return str(job.get("job_id", ""))
    return str(fields_.get("job_id", ""))


def _point_key(point) -> str:
    key = type(point).key
    return getattr(key, "__wrapped__", key)(point)


def _move_route(manager, tensor, dest) -> str:
    return f"storage.move.{tensor.tier}-{dest}"


#: Every wrapped entry point, grouped by layer.  Classes are wrapped on
#: the class that defines the method; module functions are rebound in
#: every ``repro`` module that imported them by name.
ENTRY_POINTS: tuple[EntryPoint, ...] = (
    # serve
    EntryPoint("repro.serve.service.PlannerService", "handle", "serve.handle"),
    EntryPoint(
        "repro.serve.service.PlannerService", "_simulate", "serve.simulate", anchor=True
    ),
    EntryPoint("repro.serve.service", "simulate_backend", "serve.backend"),
    EntryPoint("repro.serve.cache.PlanCache", "get", "serve.cache_get"),
    EntryPoint("repro.serve.cache.PlanCache", "put", "serve.cache_put"),
    EntryPoint("repro.serve.journal.RequestJournal", "accepted", "serve.journal_append"),
    EntryPoint("repro.serve.journal.RequestJournal", "done", "serve.journal_append"),
    EntryPoint("repro.serve.journal.RequestJournal", "failed", "serve.journal_append"),
    # runner
    EntryPoint(
        "repro.runner.sweep", "compute_point", "runner.point", ident=_point_key
    ),
    EntryPoint("repro.runner.sweep.SweepPoint", "key", "runner.key"),
    EntryPoint(
        "repro.runner.cache.ResultCache", "get", "runner.cache_get", ident=lambda c, k: k
    ),
    EntryPoint(
        "repro.runner.cache.ResultCache",
        "put",
        "runner.cache_put",
        ident=lambda c, k, *a, **kw: k,
    ),
    # models
    EntryPoint("repro.models.profile", "profile_model", "models.profile"),
    EntryPoint(
        "repro.models.profile.ModelProfile",
        "recompute_flops_for",
        "models.recompute_flops_for",
    ),
    # planner
    EntryPoint("repro.core.ratel.RatelPolicy", "plan", "planner.plan"),
    EntryPoint(
        "repro.core.activation_swap", "plan_activation_swapping", "planner.swap"
    ),
    EntryPoint(
        "repro.core.iteration_model.IterationTimeModel",
        "iteration_time",
        "planner.iteration_time",
        count_only=True,
    ),
    # des
    EntryPoint("repro.core.engine", "run_iteration", "des.iteration"),
    # obs
    EntryPoint("repro.core.evaluation", "collect_metrics", "obs.attribution"),
    # ``record`` builds the entry (stamping the git SHA) and appends it.
    EntryPoint("repro.obs.ledger.RunLedger", "record", "obs.ledger_append"),
    EntryPoint("repro.obs.ledger.RunLedger", "append", "obs.ledger_append"),
    # runtime / optim / storage
    EntryPoint(
        "repro.runtime.offload.RatelRuntime",
        "train_step",
        "runtime.step",
        ident=lambda rt, fn: f"step-{rt.step + 1}",
    ),
    EntryPoint("repro.runtime.optim.CPUAdam", "step_param", "optim.adam"),
    EntryPoint("repro.runtime.storage.StorageManager", "move", _move_route),
    # fleet
    EntryPoint(
        "repro.fleet.cluster.Fleet",
        "submit",
        "fleet.submit",
        ident=lambda f, s: s.job_id,
        own_trace=True,
    ),
    *(
        EntryPoint(
            "repro.fleet.oracle.CostOracle",
            method,
            "fleet.oracle",
            ident=lambda o, spec, *a: spec.job_id,
            own_trace=True,
        )
        for method in ("outcome", "feasible", "iteration_time", "service_time", "needs")
    ),
    *(
        EntryPoint(f"repro.fleet.schedulers.{cls}", method, "fleet.scheduler")
        for cls in (
            "Scheduler",
            "FifoScheduler",
            "SjfScheduler",
            "PriorityScheduler",
            "BinPackScheduler",
        )
        for method in ("order", "place", "preempt_victim")
    ),
    EntryPoint(
        "repro.fleet.journal.FleetJournal",
        "append",
        "fleet.journal_append",
        ident=_job_of_record,
        own_trace=True,
    ),
    EntryPoint("repro.fleet.journal.FleetJournal", "fold", "fleet.journal_fold"),
)


def _resolve(path: str) -> Any:
    """Import ``a.b.c`` or ``a.b.Class`` and return the object."""
    import importlib

    parts = path.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ModuleNotFoundError:
            continue
        for name in parts[cut:]:
            obj = getattr(obj, name)
        return obj
    raise ImportError(path)


@dataclass
class _Patch:
    owner: Any
    attr: str
    original: Any
    wrapper: Any


@dataclass
class Tracer:
    """Installs the wrappers, records spans and counts, restores on exit."""

    spans: list[Span] = field(default_factory=list)
    patches: list[_Patch] = field(default_factory=list)
    #: Prefix of the trace ids derived from a call's arguments.
    scope: str = ""

    def __post_init__(self) -> None:
        self._local = threading.local()
        self._thread_counts: list[Counter] = []
        self._anchors: dict[str, _Frame] = {}
        self._lock = threading.Lock()
        self._previous_hook: Any = None
        self._installed = False

    # -- recording -------------------------------------------------------------

    def _stack(self) -> list[_Frame]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _counts(self) -> Counter:
        counts = getattr(self._local, "counts", None)
        if counts is None:
            counts = self._local.counts = Counter()
            with self._lock:
                self._thread_counts.append(counts)
        return counts

    def counts(self) -> Counter:
        total: Counter = Counter()
        with self._lock:
            for counts in self._thread_counts:
                total.update(counts)
        return total

    def _trace_id(self, entry: EntryPoint, stack: list[_Frame], args, kwargs) -> str:
        if entry.own_trace:
            return self._scoped(entry.ident(*args, **kwargs))
        if stack:
            return stack[-1].trace_id
        from repro.obs import tracectx

        ambient = tracectx.current_trace_id()
        if ambient:
            return ambient
        return self._scoped(entry.ident(*args, **kwargs)) if entry.ident is not None else ""

    def _scoped(self, trace_id: str) -> str:
        return f"{self.scope}/{trace_id}" if self.scope else trace_id

    def _wrap(self, fn: Callable, entry: EntryPoint) -> Callable:
        tracer = self
        if entry.count_only:
            name = entry.span

            @functools.wraps(fn)
            def counted(*args, **kwargs):
                tracer._counts()[name] += 1
                return fn(*args, **kwargs)

            return counted

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            name = entry.span if isinstance(entry.span, str) else entry.span(*args, **kwargs)
            stack = tracer._stack()
            # Re-entry into the same layer call (a method calling its
            # sibling) is one span, not two.
            if stack and stack[-1].name == name:
                return fn(*args, **kwargs)
            trace_id = tracer._trace_id(entry, stack, args, kwargs)
            frame = _Frame(name, trace_id, thread=threading.get_ident())
            stack.append(frame)
            if entry.anchor:
                with tracer._lock:
                    tracer._anchors[trace_id] = frame
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = time.perf_counter() - start
                stack.pop()
                if entry.anchor:
                    with tracer._lock:
                        tracer._anchors.pop(trace_id, None)
                if stack:
                    stack[-1].child += duration
                else:
                    with tracer._lock:
                        anchor = tracer._anchors.get(trace_id)
                        if anchor is not None and anchor.thread != frame.thread:
                            anchor.child += duration
                tracer.spans.append(
                    Span(name, trace_id, start, duration, duration - frame.child)
                )

        return timed

    def timed(self, name: str, fn: Callable) -> Callable:
        """``fn`` wrapped to record a ``name`` span (the workload's own calls)."""
        return self._wrap(fn, EntryPoint("", "", name))

    # -- install / uninstall ---------------------------------------------------

    def install(self) -> "Tracer":
        """Wrap every entry point and hook the DES event loop."""
        if self._installed:
            raise RuntimeError("tracer already installed")
        for entry in ENTRY_POINTS:
            owner = _resolve(entry.owner)
            if isinstance(owner, type):
                original = owner.__dict__.get(entry.attr)
                if original is None:
                    continue  # inherited: wrapped where it is defined
                wrapper = self._wrap(original, entry)
                setattr(owner, entry.attr, wrapper)
                self.patches.append(_Patch(owner, entry.attr, original, wrapper))
            else:
                original = getattr(owner, entry.attr)
                wrapper = self._wrap(original, entry)
                for module in list(sys.modules.values()):
                    name = getattr(module, "__name__", "") or ""
                    if not name.startswith("repro"):
                        continue
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)
                            self.patches.append(_Patch(module, attr, original, wrapper))
        from repro.sim import engine as sim_engine

        counts_name = "des.events"

        def event_hook(callback, arg):
            self._counts()[counts_name] += 1
            callback(arg)

        self._previous_hook = sim_engine.set_event_hook(event_hook)
        self._installed = True
        return self

    def uninstall(self) -> None:
        """Put every original object back (in reverse install order)."""
        if not self._installed:
            return
        for patch in reversed(self.patches):
            setattr(patch.owner, patch.attr, patch.original)
        from repro.sim import engine as sim_engine

        sim_engine.set_event_hook(self._previous_hook)
        self._installed = False

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc_info: Any) -> None:
        self.uninstall()

    # -- analysis --------------------------------------------------------------

    def by_name(self) -> dict[str, list[Span]]:
        grouped: dict[str, list[Span]] = defaultdict(list)
        for span in self.spans:
            grouped[span.name].append(span)
        return grouped


def waterfall(spans: list[Span]) -> dict[str, float]:
    """Split one request's ``serve.handle`` span into per-layer self times.

    The handle's own self time is the unattributed remainder: time in the
    request handler that no instrumented layer call covers.  Returns
    ``{"handle": handle duration, <layer>: self seconds, ...,
    "unattributed": remainder}``; the layer values and the remainder sum
    to ``handle``.
    """
    roots = [span for span in spans if span.name == "serve.handle"]
    if len(roots) != 1:
        raise ValueError(f"expected one 'serve.handle' span, got {len(roots)}")
    parts = {layer: 0.0 for layer in WATERFALL_LAYERS}
    for span in spans:
        if span is roots[0]:
            continue
        layer = span.layer
        parts[layer] = parts.get(layer, 0.0) + span.self_time
    parts["unattributed"] = roots[0].self_time
    parts["handle"] = roots[0].duration
    return parts
