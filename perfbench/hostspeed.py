"""Host speed, sampled while a workload runs, to normalize its figures.

On a shared machine the speed of the same code drifts by up to 2x, in
states that last from a fraction of a second to minutes (a neighbour's
load, not anything the benchmark does).  A run-long mean smooths the short
states but not the long ones, so two runs a minute apart can disagree by
more than a regression bound.

The gated throughput and latency figures are therefore *host-normalized*:
while a workload's measured rounds run, :class:`HostSampler` runs two
fixed kernels that never touch the program under test on a thread of its
own, a few milliseconds every :data:`PERIOD_S`, and measures how many
calls of each the host does per second of that thread's CPU time:

* the *CPU kernel* mixes what the workloads compute: interpreted
  arithmetic, dict churn, JSON round trips, small float32 matrix products;
* the *file kernel* does what a spill or an atomic cache write does to
  the kernel: create, write, rename, read back and unlink a small file.

The two median speeds (1.0 = :data:`CPU_REFERENCE_RATE` / :data:`FS_REFERENCE_RATE`
calls per CPU-second) are weighted by the workload's own user and system
CPU time over the same rounds, and the figures are scaled to a host of
speed 1.0: host time x weighted speed.  A change in the program moves its
host time and not the kernels' rates, so it shows in full; a slow stretch
of the host moves both, and mostly cancels.

CPU time, not wall time, times the kernels, so waiting for the GIL while
the workload runs does not count: the sampler reads the host, not how
busy the program keeps the interpreter.

A served request is different: its time goes to connection set-up,
thread hand-offs and an fsync as much as to computing, and a slow
stretch of the host stretches those far more than either kernel.  For
that path, :func:`service_speed` times a *reference service* built only
from the standard library in the same shape as the program's HTTP face
(a ``ThreadingHTTPServer``, one connection per request from two
closed-loop clients, a JSON body, an fsync'd append per request).
"""

from __future__ import annotations

import http.client
import json
import os
import resource
import statistics
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

import numpy as np

#: Calls per CPU-second of each kernel that count as host speed 1.0.
#: Constants: changing one rescales every normalized figure.
CPU_REFERENCE_RATE = 4000.0
FS_REFERENCE_RATE = 3000.0
#: CPU time one sample spends in a kernel (within one GIL switch interval).
SAMPLE_CPU_S = 0.002
#: Wall time between the starts of two samples.
PERIOD_S = 0.1
#: Reference-service requests per second that count as speed 1.0, and the
#: requests each of its two clients sends per probe.
SERVICE_REFERENCE_RATE = 800.0
SERVICE_REQUESTS = 100

_MATRIX = np.full((48, 48), 1.0 / 48, dtype=np.float32)
_RECORDS = [{"id": i, "name": f"n{i}", "cost": [i * 0.5, i + 1.25]} for i in range(40)]


def _cpu_kernel() -> float:
    acc = 0.0
    table: dict[int, float] = {}
    for i in range(400):
        acc += (i * 1.0001) ** 0.5
        table[i % 31] = table.get(i % 31, 0.0) + acc
    ordered = sorted(table.values())
    records = json.loads(json.dumps(_RECORDS))
    matrix = _MATRIX
    for _ in range(4):
        matrix = matrix @ _MATRIX
    return ordered[-1] + records[-1]["cost"][1] + float(matrix[0, 0])


_BLOCK = bytes(2048)


def _file_kernel(directory: Path) -> None:
    tmp, path = directory / "probe.tmp", directory / "probe.bin"
    with open(tmp, "wb") as handle:
        handle.write(_BLOCK)
    os.replace(tmp, path)
    with open(path, "rb") as handle:
        handle.read()
    os.unlink(path)


def _rate(kernel, reference: float) -> float:
    """Calls of ``kernel`` per CPU-second of this thread, over ``reference``."""
    calls = 0
    started = time.thread_time()
    while True:
        kernel()
        calls += 1
        spent = time.thread_time() - started
        if spent >= SAMPLE_CPU_S:
            return calls / spent / reference


def cpu_speed() -> float:
    return _rate(_cpu_kernel, CPU_REFERENCE_RATE)


def fs_speed(directory: Path) -> float:
    return _rate(lambda: _file_kernel(directory), FS_REFERENCE_RATE)


class HostSampler:
    """Samples host speed on a thread of its own while the ``with`` block runs.

    ``directory`` holds the file kernel's one scratch file.
    """

    def __init__(self, directory: Path) -> None:
        self.directory = directory
        self.cpu: list[float] = []
        self.fs: list[float] = []
        #: The workload's user and system CPU seconds over the block (the
        #: process's, less the sampler thread's own).
        self.user_s = self.system_s = 0.0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, name="perfbench-host", daemon=True)
        self._own = (0.0, 0.0)

    def _loop(self) -> None:
        while not self._stop.is_set():
            begun = time.perf_counter()
            self.cpu.append(cpu_speed())
            self.fs.append(fs_speed(self.directory))
            self._stop.wait(max(0.0, PERIOD_S - (time.perf_counter() - begun)))
        usage = resource.getrusage(resource.RUSAGE_THREAD)
        self._own = (usage.ru_utime, usage.ru_stime)

    def __enter__(self) -> "HostSampler":
        self.directory.mkdir(parents=True, exist_ok=True)
        self._times = os.times()
        self._thread.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self._stop.set()
        self._thread.join()
        times = os.times()
        self.user_s = times.user - self._times.user - self._own[0]
        self.system_s = times.system - self._times.system - self._own[1]

    def speed(self) -> float:
        """The workload's host speed: the kernels' median speeds (a file
        operation stalls now and then) weighted by its user (CPU kernel)
        and system (file kernel) time."""
        if not self.cpu:
            return float("nan")
        cpu, fs = statistics.median(self.cpu), statistics.median(self.fs)
        busy = self.user_s + self.system_s
        if busy <= 0:
            return cpu
        return (self.user_s * cpu + self.system_s * fs) / busy


class _ReferenceHandler(BaseHTTPRequestHandler):
    def log_message(self, *args) -> None:
        pass

    def do_POST(self) -> None:
        body = self.rfile.read(int(self.headers["Content-Length"]))
        query = json.loads(body)
        with self.server.lock:
            os.write(self.server.journal, body + b"\n")
            os.fsync(self.server.journal)
        payload = json.dumps({"query": query, "feasible": True}).encode()
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)


def service_speed(directory: Path) -> float:
    """Requests per second of the reference service, over
    :data:`SERVICE_REFERENCE_RATE`."""
    directory.mkdir(parents=True, exist_ok=True)
    journal = directory / "reference.jsonl"
    server = ThreadingHTTPServer(("127.0.0.1", 0), _ReferenceHandler)
    server.daemon_threads = True
    server.lock = threading.Lock()
    server.journal = os.open(journal, os.O_WRONLY | os.O_CREAT | os.O_APPEND)
    serving = threading.Thread(target=server.serve_forever, daemon=True)
    serving.start()
    body = json.dumps({"model": "13B", "batch_size": 8, "gpu": "4090", "memory_gb": 256})

    def client() -> None:
        for _ in range(SERVICE_REQUESTS):
            conn = http.client.HTTPConnection("127.0.0.1", server.server_address[1], timeout=60)
            try:
                conn.request("POST", "/", body, {"Content-Type": "application/json"})
                conn.getresponse().read()
            finally:
                conn.close()

    clients = [threading.Thread(target=client) for _ in range(2)]
    started = time.perf_counter()
    for thread in clients:
        thread.start()
    for thread in clients:
        thread.join()
    busy = time.perf_counter() - started
    server.shutdown()
    serving.join()
    server.server_close()
    os.close(server.journal)
    journal.unlink()
    return 2 * SERVICE_REQUESTS / busy / SERVICE_REFERENCE_RATE

