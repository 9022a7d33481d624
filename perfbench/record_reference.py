"""Record ``reference.json``: the outputs every benchmark run is checked against.

Run from the root of a source checkout, on the commit whose outputs are
the reference::

    python3 perfbench/record_reference.py

It evaluates every what-if query and grid point through
``repro.runner.compute_point`` (the function the service and the sweep
both call), trains every recorded data stream, and drains every
recorded fleet trace under each scheduler.  Takes a few minutes.
"""

from __future__ import annotations

import json
import math
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(Path.cwd() / "src"))

import inputs  # noqa: E402
import workloads  # noqa: E402


def _answer(outcome) -> dict:
    feasible = bool(outcome.feasible)
    metrics = outcome.metrics if feasible else {}

    def value(name):
        number = metrics.get(name)
        return None if number is None or math.isnan(number) else number

    return {
        "feasible": feasible,
        "iteration_time": value("iteration_time"),
        "tokens_per_s": value("tokens_per_s"),
    }


def main() -> int:
    from repro.fleet import SCHEDULERS
    from repro.runner import compute_point
    from repro.serve import WhatIfQuery

    reference: dict = {"whatif": {}, "grid": {}, "train": {}, "fleet": {}}
    for payload in inputs.whatif_universe():
        outcome = compute_point(WhatIfQuery(**payload).point())
        reference["whatif"][inputs.query_label(payload)] = _answer(outcome)
    grid = inputs.grid_points(0)
    for point, sweep_point in zip(grid, workloads.grid_sweep_points(grid)):
        reference["grid"][point.label] = _answer(compute_point(sweep_point))
    with tempfile.TemporaryDirectory(dir=Path.cwd()) as scratch:
        for stream in range(inputs.TRAIN_STREAMS):
            _, losses, _ = workloads.train_round(
                inputs.train_batches(stream), Path(scratch) / "spill"
            )
            reference["train"][str(stream)] = losses
        for index in range(inputs.FLEET_TRACES):
            trace_seed = inputs.fleet_trace_seed(index)
            reference["fleet"][str(trace_seed)] = {
                name: workloads.fleet_summary(
                    workloads.fleet_drain(name, trace_seed, Path(scratch) / "j.jsonl")[1]
                )
                for name in sorted(SCHEDULERS)
            }
    (HERE / "reference.json").write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
