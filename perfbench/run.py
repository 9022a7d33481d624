"""Host-time benchmark of the Ratel reproduction, layer by layer.

Run from the root of a source checkout::

    python3 perfbench/run.py --workload whatif-zipf --seed 1 --seconds 15 --trace 0

``--trace 0`` measures the end-to-end metrics with no instrumentation.
``--trace 1`` runs the workload twice for half the time each, untraced
then traced, and reports the per-layer metrics of the traced half (plus
the tracing overhead against the untraced half); its spans are written
to ``.perfbench/spans-<workload>-<seed>.json``.

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics`` (``{name: {value, unit}}``).
Lines before it print the workload's own metrics by name and unit.
"""

from __future__ import annotations

import time

#: Process start, as near as Python code can see it (set-up probes).
_STARTED = time.perf_counter()

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

#: Fresh-interpreter set-up probes per run (``setup_s`` is their median).
SETUP_PROBES = 5

#: The end-to-end metrics, identical on every workload (see BENCHMARK.json).
END_TO_END = (
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("throughput_per_s", "1/s"),
    ("latency_ms", "ms"),
)


def _checkout_root() -> Path | None:
    """The source checkout the benchmark runs from, if this is one."""
    root = Path.cwd()
    if (root / "src" / "repro" / "__init__.py").is_file():
        return root
    return None


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    root = _checkout_root()
    if root is None:
        print(
            "perfbench: run from the root of a checkout (no src/repro here)",
            file=sys.stderr,
        )
        return 2
    sys.path.insert(0, str(root / "src"))

    import workloads  # noqa: E402 - needs the source tree on sys.path

    if args.workload not in workloads.WORKLOADS:
        print(
            f"perfbench: unknown workload {args.workload!r}; "
            f"choose from {sorted(workloads.WORKLOADS)}",
            file=sys.stderr,
        )
        return 2
    if args.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2
    run = workloads.WORKLOADS[args.workload]
    reference = json.loads((HERE / "reference.json").read_text())

    out_dir = root / ".perfbench"
    work = out_dir / f"work-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    # Every temp file the program makes stays inside the checkout.
    tempfile.tempdir = str(work)
    try:
        if args.probe_setup:
            close = workloads.SETUPS[args.workload](args.seed, work)
            print(time.perf_counter() - _STARTED)
            close()
            return 0
        if args.trace == 0:
            setups = [_probe_setup(args) for _ in range(SETUP_PROBES)]
            result = run(args.seed, args.seconds, work, reference)
            metrics = {
                "setup_s": statistics.median(setups),
                "peak_rss_mb": result.peak_rss_mb,
                "throughput_per_s": result.normalized_throughput_per_s,
                "latency_ms": result.normalized_latency_ms,
            }
            report = {name: {"value": metrics[name], "unit": unit} for name, unit in END_TO_END}
            results = [result]
        else:
            from layers import per_layer_metrics
            from tracing import Tracer

            untraced = run(args.seed, args.seconds / 2, work, reference)
            # The workload installs the tracer around its measured rounds.
            tracer = Tracer()
            traced = run(args.seed, args.seconds / 2, work, reference, tracer)
            report = per_layer_metrics(tracer, traced, untraced)
            _write_spans(out_dir / f"spans-{args.workload}-{args.seed}.json", tracer)
            results = [untraced, traced]
            result = traced
    finally:
        tempfile.tempdir = None
        shutil.rmtree(work, ignore_errors=True)

    attempted = sum(r.attempted for r in results)
    failed = sum(r.failed for r in results)
    for message in (m for r in results for m in r.failures):
        print(f"FAILED: {message}")
    named = "  ".join(
        f"{name}={value:.6g} {unit}" for name, (value, unit) in result.named.items()
    )
    print(f"{args.workload} seed={args.seed} rounds={result.rounds}  {named}")
    # The gated throughput/latency are the host-time ones above scaled to
    # a host of speed 1.0 (hostspeed.py).
    print(f"host_speed={result.host_speed:.6g}")
    # Workload properties (repeat share, feasible share, bytes per link,
    # jobs per scheduler), so claims that depend on them can cite them.
    print("properties: " + "  ".join(f"{k}={v:.6g}" for k, v in sorted(result.props.items())))
    correct = failed == 0 and all(
        isinstance(m["value"], (int, float)) and math.isfinite(m["value"])
        for m in report.values()
    )
    print(
        json.dumps(
            {"correct": correct, "attempted": attempted, "failed": failed, "metrics": report}
        )
    )
    return 0


def _probe_setup(args) -> float:
    """Imports plus one set-up of the workload, in a fresh interpreter."""
    probe = subprocess.run(
        [
            sys.executable,
            str(Path(__file__).resolve()),
            "--workload",
            args.workload,
            "--seed",
            str(args.seed),
            "--seconds",
            str(args.seconds),
            "--probe-setup",
        ],
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    return float(probe.stdout.strip().splitlines()[-1])


def _write_spans(path: Path, tracer) -> None:
    from layers import cold_waterfalls

    payload = {
        "span_columns": ["name", "trace_id", "start_s", "duration_s", "self_s"],
        "spans": [span.to_row() for span in tracer.spans],
        "counts": dict(tracer.counts()),
        "cold_whatif_waterfalls": cold_waterfalls(tracer.spans)[:50],
    }
    path.write_text(json.dumps(payload))


if __name__ == "__main__":
    sys.exit(main())
