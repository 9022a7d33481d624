"""Three-tier tensor storage: GPU / main memory / NVMe.

The functional runtime's stand-in for device memory, pinned host buffers
and the SSD array.  Every tensor the offload engine manages lives in a
:class:`StoredTensor` registered with a :class:`StorageManager`, which

* enforces per-tier capacities (moving a tensor into a full tier raises
  :class:`TierCapacityError`, the runtime's "CUDA OOM");
* counts every byte moved over each inter-tier link — the counters the
  tests compare against the analytic traffic model;
* really spills: tensors moved to the ``nvme`` tier are written to disk
  (``.npy`` in a spill directory) and their in-memory payload dropped,
  so out-of-core behaviour is genuine, not simulated.

Byte accounting uses the tensor's *storage* dtype (fp16 for activations
and compute parameters, fp32 for master states) independent of the
float32 the math runs in.  Spilled fp16 tensors are also *restored* at
fp16 width, so resident memory matches the accounted bytes.

Spill I/O is hardened against the failures a multi-day run actually
sees: writes go through :func:`repro.util.durable.atomic_write` (a crash
mid-write never leaves a half-written spill under the real name), every
spill carries a CRC32 checksum verified on load (torn writes and bit
flips surface as :class:`SpillCorruptionError` instead of silently
corrupted parameters), and transient ``OSError`` on either side is
retried with exponential backoff before :class:`SpillError` is raised.
A :class:`repro.faults.FaultInjector` can be attached to exercise all
of these paths deterministically.
"""

from __future__ import annotations

import os
import tempfile
import time
import zlib
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.obs import spans as _spans
from repro.util.backoff import BackoffPolicy, retry_call
from repro.util.durable import atomic_write

GPU = "gpu"
HOST = "host"
NVME = "nvme"
TIERS = (GPU, HOST, NVME)

#: Links the manager tracks, as (source, destination) tier pairs.
LINKS = (
    (GPU, HOST),
    (HOST, GPU),
    (HOST, NVME),
    (NVME, HOST),
)


class TierCapacityError(MemoryError):
    """Raised when a tier cannot hold a tensor (the runtime's OOM)."""


class StorageError(RuntimeError):
    """Raised for invalid storage operations (unknown tier, double free)."""


class SpillError(StorageError):
    """Spill I/O failed even after the configured retries."""


class SpillCorruptionError(SpillError):
    """A spill file failed its checksum on load (torn write / bit flip)."""


@dataclass
class Tier:
    """One memory tier with capacity enforcement and peak tracking."""

    name: str
    capacity_bytes: float
    used_bytes: float = 0.0
    peak_bytes: float = 0.0

    def allocate(self, nbytes: float) -> None:
        """Reserve ``nbytes``; raises :class:`TierCapacityError` if full."""
        if self.used_bytes + nbytes > self.capacity_bytes:
            raise TierCapacityError(
                f"tier {self.name!r}: allocating {nbytes / 1e6:.1f} MB would exceed "
                f"capacity ({self.used_bytes / 1e6:.1f}/{self.capacity_bytes / 1e6:.1f} MB used)"
            )
        self.used_bytes += nbytes
        self.peak_bytes = max(self.peak_bytes, self.used_bytes)

    def free(self, nbytes: float) -> None:
        """Release ``nbytes``."""
        if nbytes > self.used_bytes + 1e-6:
            raise StorageError(f"tier {self.name!r}: freeing more than allocated")
        self.used_bytes -= nbytes


@dataclass
class StoredTensor:
    """A managed array with a tier location and a storage dtype.

    ``itemsize`` is the storage width in bytes (2 for fp16 tensors, 4
    for fp32 master states); the in-memory math stays float32.
    """

    name: str
    array: np.ndarray | None
    tier: str
    itemsize: int
    manager: "StorageManager"
    _spill_path: str | None = None
    _spill_shape: tuple[int, ...] = field(default_factory=tuple)
    _spill_crc: int | None = None

    @property
    def nbytes(self) -> float:
        """Accounted bytes at the storage dtype."""
        return self._count * self.itemsize

    @property
    def _count(self) -> int:
        if self.array is not None:
            return self.array.size
        return int(np.prod(self._spill_shape))

    def data(self) -> np.ndarray:
        """The payload; the tensor must currently be resident (not on NVMe)."""
        if self.array is None:
            raise StorageError(
                f"tensor {self.name!r} is spilled to NVMe; move it to host/gpu first"
            )
        return self.array


class StorageManager:
    """Capacity-enforcing, byte-counting mover between the three tiers."""

    def __init__(
        self,
        gpu_capacity: float,
        host_capacity: float,
        nvme_capacity: float,
        spill_dir: str | None = None,
        *,
        faults=None,
        max_retries: int = 3,
        backoff_s: float = 0.005,
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        if max_retries < 0:
            raise ValueError(f"max_retries cannot be negative, got {max_retries}")
        # Jitter-free so injected fault scenarios replay bit-identically.
        self._backoff = BackoffPolicy(
            base_s=backoff_s, factor=2.0, max_attempts=max_retries + 1, jitter="none"
        )
        #: Optional :class:`repro.faults.FaultInjector` (duck-typed) whose
        #: ``on_read`` / ``on_write`` / ``maybe_corrupt`` hooks wrap spill I/O.
        self.faults = faults
        self.max_retries = max_retries
        self.backoff_s = backoff_s
        self._sleep = sleep
        self.tiers = {
            GPU: Tier(GPU, gpu_capacity),
            HOST: Tier(HOST, host_capacity),
            NVME: Tier(NVME, nvme_capacity),
        }
        self.moved_bytes: dict[tuple[str, str], float] = {link: 0.0 for link in LINKS}
        self._own_spill_dir = spill_dir is None
        self.spill_dir = spill_dir or tempfile.mkdtemp(prefix="ratel-nvme-")
        self._spill_seq = 0
        self._tensors: dict[str, StoredTensor] = {}

    # -- lifecycle ---------------------------------------------------------------

    def put(
        self, name: str, array: np.ndarray, tier: str, itemsize: int = 2
    ) -> StoredTensor:
        """Register a new tensor in ``tier`` (it is 'produced' there)."""
        self._check_tier(tier)
        if name in self._tensors:
            raise StorageError(f"tensor {name!r} already registered")
        tensor = StoredTensor(
            name=name,
            array=np.ascontiguousarray(array, dtype=np.float32),
            tier=tier,
            itemsize=itemsize,
            manager=self,
        )
        self.tiers[tier].allocate(tensor.nbytes)
        if tier == NVME:
            try:
                self._spill(tensor)
            except Exception:
                self.tiers[tier].free(tensor.nbytes)
                raise
        self._tensors[name] = tensor
        return tensor

    def drop(self, tensor: StoredTensor) -> None:
        """Discard a tensor entirely (e.g. a recomputable activation)."""
        self.tiers[tensor.tier].free(tensor.nbytes)
        self._unspill_file(tensor)
        self._tensors.pop(tensor.name, None)
        tensor.array = None

    def move(self, tensor: StoredTensor, dest: str) -> None:
        """Move a tensor between tiers, counting the traffic.

        A GPU<->NVMe move without GPUDirect bounces through the host, so
        both hops are counted (that is the consumer-GPU data path the
        paper targets).

        The actual I/O (load from / spill to disk) runs before the move
        is committed: a transfer that fails even after retries leaves the
        tensor, its accounting and the traffic counters in the source
        state, so the caller can handle the error and carry on.
        """
        self._check_tier(dest)
        source = tensor.tier
        if source == dest:
            return
        path = _route(source, dest)
        with _spans.maybe_span(
            _spans.link_lane(source, dest), f"move:{tensor.name}", tensor.nbytes
        ):
            self.tiers[dest].allocate(tensor.nbytes)
            try:
                if source == NVME:
                    self._load(tensor)
                if dest == NVME:
                    self._spill(tensor)
            except Exception:
                self.tiers[dest].free(tensor.nbytes)
                raise
            self.tiers[source].free(tensor.nbytes)
        for hop in path:
            self.moved_bytes[hop] += tensor.nbytes
        tensor.tier = dest

    # -- introspection ---------------------------------------------------------------

    def traffic(self, source: str, dest: str) -> float:
        """Total bytes moved over one directed link so far."""
        return self.moved_bytes[(source, dest)]

    def get(self, name: str) -> StoredTensor:
        """Look up a registered tensor by name."""
        try:
            return self._tensors[name]
        except KeyError:
            raise StorageError(f"unknown tensor {name!r}") from None

    def close(self) -> None:
        """Delete spill files (the manager owns its temp directory)."""
        for tensor in list(self._tensors.values()):
            self._unspill_file(tensor)
        if self._own_spill_dir and os.path.isdir(self.spill_dir):
            for entry in os.listdir(self.spill_dir):
                os.unlink(os.path.join(self.spill_dir, entry))
            os.rmdir(self.spill_dir)

    # -- internals ---------------------------------------------------------------------

    def _spill(self, tensor: StoredTensor) -> None:
        """Write the payload to disk atomically and drop it from memory.

        Each attempt is an :func:`~repro.util.durable.atomic_write`, so a
        failure (or crash) mid-write never leaves a truncated file under
        the spill name.  Transient ``OSError`` is retried with
        backoff; exhaustion raises :class:`SpillError`.
        """
        if tensor.array is None:
            return
        self._spill_seq += 1
        path = os.path.join(self.spill_dir, f"{self._spill_seq:08d}.npy")
        # fp16 tensors are persisted at fp16 width: the round-trip
        # precision loss is part of faithful mixed-precision behaviour.
        disk_dtype = np.float16 if tensor.itemsize == 2 else np.float32
        payload = np.ascontiguousarray(tensor.array.astype(disk_dtype))

        def attempt() -> None:
            if self.faults is not None:
                self.faults.on_write(path)
            atomic_write(path, lambda handle: np.save(handle, payload))

        try:
            with _spans.maybe_span(_spans.RT_SSD, f"spill:{tensor.name}", tensor.nbytes):
                retry_call(
                    attempt,
                    policy=self._backoff,
                    what=f"spill of {tensor.name!r}",
                    sleep=self._sleep,
                )
        except OSError as exc:
            raise SpillError(
                f"spilling tensor {tensor.name!r} to {path!r} failed after "
                f"{self.max_retries + 1} attempt(s): {exc}"
            ) from exc
        if self.faults is not None:
            self.faults.maybe_corrupt(path)
        tensor._spill_crc = zlib.crc32(payload.tobytes())
        tensor._spill_shape = tensor.array.shape
        tensor._spill_path = path
        tensor.array = None

    def _load(self, tensor: StoredTensor) -> None:
        """Read a spilled payload back into memory, verifying its checksum.

        The tensor is restored at its *storage* width (fp16 stays fp16),
        so resident bytes match the accounted ``nbytes``.  Transient
        ``OSError`` is retried; a checksum mismatch or an unparseable
        file is corruption — deterministic, so it fails immediately with
        :class:`SpillCorruptionError`.
        """
        if tensor._spill_path is None:
            raise StorageError(f"tensor {tensor.name!r} has no spill file")
        path = tensor._spill_path

        def attempt() -> np.ndarray:
            if self.faults is not None:
                self.faults.on_read(path)
            return np.load(path)

        try:
            with _spans.maybe_span(_spans.RT_SSD, f"load:{tensor.name}", tensor.nbytes):
                array = retry_call(
                    attempt,
                    policy=self._backoff,
                    what=f"load of {tensor.name!r}",
                    sleep=self._sleep,
                )
        except OSError as exc:
            raise SpillError(
                f"loading tensor {tensor.name!r} from {path!r} failed after "
                f"{self.max_retries + 1} attempt(s): {exc}"
            ) from exc
        except ValueError as exc:
            raise SpillCorruptionError(
                f"spill file {path!r} of tensor {tensor.name!r} is not a valid "
                f".npy file (torn write?): {exc}"
            ) from exc
        if (
            tensor._spill_crc is not None
            and zlib.crc32(np.ascontiguousarray(array).tobytes()) != tensor._spill_crc
        ):
            raise SpillCorruptionError(
                f"spill file {path!r} of tensor {tensor.name!r} failed its CRC32 "
                "check: the payload changed on disk since it was written"
            )
        tensor.array = array
        self._unspill_file(tensor)

    def _unspill_file(self, tensor: StoredTensor) -> None:
        if tensor._spill_path is not None and os.path.exists(tensor._spill_path):
            os.unlink(tensor._spill_path)
        tensor._spill_path = None
        tensor._spill_crc = None

    def _check_tier(self, tier: str) -> None:
        if tier not in self.tiers:
            raise StorageError(f"unknown tier {tier!r}; choose from {TIERS}")


def _route(source: str, dest: str) -> tuple[tuple[str, str], ...]:
    """Hops a transfer takes (GPU<->NVMe bounces through the host)."""
    if (source, dest) in LINKS:
        return ((source, dest),)
    if source == GPU and dest == NVME:
        return ((GPU, HOST), (HOST, NVME))
    if source == NVME and dest == GPU:
        return ((NVME, HOST), (HOST, GPU))
    raise StorageError(f"no route from {source!r} to {dest!r}")
