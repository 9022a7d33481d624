"""Seeded inputs of the four workloads.

Every generator here is a pure function of the ``--seed`` the benchmark
receives: the same seed gives the same query stream, grid order, data
stream and job trace.  The program under test only ever sees what these
functions return.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

# -- whatif-zipf ---------------------------------------------------------------

#: The what-if query space: LLM preset x GPU x (memory_gb, batch).  Two
#: memory sizes per GPU so capacity answers include "does not fit"
#: (175B/128 GB, 175B/256 GB/b16 on the 4080).
WHATIF_MODELS = ("6B", "13B", "30B", "70B", "175B")
WHATIF_GPUS = ("4090", "3090", "4080")
WHATIF_MEMORY_BATCH = ((128, 4), (256, 16))
#: Zipf exponent of request popularity over the query space.
WHATIF_ZIPF_S = 1.1
#: Requests each client sends per round (one round = one fresh service).
WHATIF_REQUESTS_PER_CLIENT = 300
WHATIF_CLIENTS = 2


def whatif_universe() -> list[dict]:
    """Every distinct query of the space, as ``/v1/whatif`` payloads."""
    return [
        {"model": model, "batch_size": batch, "gpu": gpu, "memory_gb": memory}
        for model, gpu, (memory, batch) in itertools.product(
            WHATIF_MODELS, WHATIF_GPUS, WHATIF_MEMORY_BATCH
        )
    ]


def query_label(payload: dict) -> str:
    """Readable identity of a query (the reference file's key)."""
    return (
        f"ratel/{payload['model']}/b{payload['batch_size']}"
        f"/{payload['gpu']}/{payload['memory_gb']}GB"
    )


def whatif_streams(seed: int) -> list[list[dict]]:
    """One round's request stream per client.

    Popularity follows Zipf(``WHATIF_ZIPF_S``) over a seeded ranking of
    the query space; every query of the space is asked at least once per
    round, so each round pays the same set of cold misses and the rest
    are repeats.  The merged stream is dealt round-robin to the clients.
    """
    universe = whatif_universe()
    total = WHATIF_CLIENTS * WHATIF_REQUESTS_PER_CLIENT
    rng = random.Random(f"whatif:{seed}")
    ranking = list(range(len(universe)))
    rng.shuffle(ranking)
    weights = [1.0 / (rank + 1) ** WHATIF_ZIPF_S for rank in range(len(universe))]
    draws = rng.choices(ranking, weights=weights, k=total - len(universe))
    merged = draws + list(range(len(universe)))
    rng.shuffle(merged)
    return [
        [universe[index] for index in merged[client::WHATIF_CLIENTS]]
        for client in range(WHATIF_CLIENTS)
    ]


def repeat_share(streams: list[list[dict]]) -> float:
    """Share of a round's requests that repeat an earlier query."""
    total = sum(len(stream) for stream in streams)
    distinct = {query_label(q) for stream in streams for q in stream}
    return (total - len(distinct)) / total


# -- grid-cold-warm ------------------------------------------------------------

#: Closed-form baselines of the paper's figures, by policy name.
GRID_BASELINES = (
    "ZeRO-Infinity",
    "ZeRO-Offload",
    "Colossal-AI",
    "Checkmate",
    "G10-activation",
    "FlashNeuron",
)
GRID_MODELS = ("6B", "13B", "30B", "70B", "135B", "175B", "276B", "412B")
GRID_BATCHES = (8, 32)
GRID_GPUS = ("4090", "3090", "4080")
#: Ratel plans with Algorithm 1, which is far dearer per point: only the
#: presets up to 13B go into the grid.
GRID_RATEL_MODELS = ("6B", "13B")


@dataclass(frozen=True)
class GridPoint:
    policy: str
    model: str
    batch: int
    gpu: str

    @property
    def label(self) -> str:
        return f"{self.policy}/{self.model}/b{self.batch}/{self.gpu}"


def grid_points(seed: int) -> list[GridPoint]:
    """The figure-style grid in a seeded order."""
    points = [
        GridPoint(policy, model, batch, gpu)
        for policy in GRID_BASELINES
        for model in GRID_MODELS
        for batch in GRID_BATCHES
        for gpu in GRID_GPUS
    ] + [
        GridPoint("Ratel", model, batch, gpu)
        for model in GRID_RATEL_MODELS
        for batch in GRID_BATCHES
        for gpu in GRID_GPUS
    ]
    random.Random(f"grid:{seed}").shuffle(points)
    return points


# -- train-offload -------------------------------------------------------------

#: Recorded data streams; the seed picks one (the reference loss
#: trajectories are recorded per stream).
TRAIN_STREAMS = 8
TRAIN_STEPS = 8
TRAIN_VOCAB = 101
TRAIN_DIM = 32
TRAIN_LAYERS = 4
TRAIN_HEADS = 4
TRAIN_SEQ = 32
TRAIN_BATCH = 8


def train_stream(seed: int) -> int:
    return seed % TRAIN_STREAMS


def train_batches(stream: int):
    """``TRAIN_STEPS`` (ids, targets) batches of one data stream."""
    import numpy as np

    rng = np.random.default_rng(1000 + stream)
    batches = []
    for _ in range(TRAIN_STEPS):
        ids = rng.integers(0, TRAIN_VOCAB, size=(TRAIN_BATCH, TRAIN_SEQ))
        batches.append((ids, np.roll(ids, -1, axis=1)))
    return batches


# -- fleet-burst ---------------------------------------------------------------

#: Recorded bursty-trace seeds; the seed picks one (makespan and P99 per
#: scheduler are recorded per trace).
FLEET_TRACES = 8
FLEET_JOBS = 200
FLEET_CHECKPOINT_EVERY = 4


def fleet_trace_seed(seed: int) -> int:
    return 100 + seed % FLEET_TRACES
