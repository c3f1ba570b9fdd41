"""The ``served_store`` workload: the HTTP service over a disk-backed store.

``python -m repro.service --port 0 --workers 1`` runs as a subprocess on a
fresh ``REPRO_STORE_PATH``.  The benchmark process is its only client, with
two keep-alive connections on two threads:

* a writer ingests seeded renamed copies of the audit catalog into 16
  tenants, in batches of 4 adds followed by ``POST /equivalences``;
* a reader issues ``GET /explain`` point reads on settled cells until the
  writer finishes.

Then the server is stopped with SIGINT, restarted on the same store file,
and one fresh tenant ingests another renaming.  The first tenant decides;
every later tenant and the restart are served by canonical keys, the disk
tier and witness revalidation.  Both loops are closed: each connection
sends its next request when the previous response has arrived.
"""

from __future__ import annotations

import bisect
import http.client
import json
import random
import signal
import socket
import subprocess
import sys
import threading
import time
from collections import Counter, defaultdict
from pathlib import Path
from typing import Optional
from urllib.parse import urlencode

from repro.workloads import renamed_copy

import pb_inputs
from pb_oracle import Oracle, Tally, check_served_cells
from pb_reference import SpeedReference
from pb_trace import SERVICE_REQUEST, Tracer
from pb_workloads import Meter, Workload

HERE = Path(__file__).resolve().parent
BANNER = "repro.service listening on http://"
#: Seconds a server gets to print its banner, and to exit after SIGINT.
BOOT_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 10.0


class Server:
    """One server process on ``store_path``; traced through the launcher
    when ``trace_out`` is given."""

    def __init__(self, root: Path, env: dict, store_path: Path, trace_out: Optional[Path]) -> None:
        arguments = ["--port", "0", "--workers", "1"]
        if trace_out is None:
            command = [sys.executable, "-m", "repro.service", *arguments]
        else:
            command = [sys.executable, str(HERE / "pb_server.py"), "--trace-out", str(trace_out), *arguments]
        self.trace_out = trace_out
        self._stderr = open(store_path.with_suffix(".stderr"), "wb")
        start = time.perf_counter()
        self.process = subprocess.Popen(
            command,
            cwd=root,
            env={**env, "REPRO_STORE_PATH": str(store_path)},
            stdout=subprocess.PIPE,
            stderr=self._stderr,
            text=True,
        )
        try:
            self.port = self._await_banner()
        except BaseException:
            self.kill()
            raise
        self.boot_s = time.perf_counter() - start

    def _await_banner(self) -> int:
        timer = threading.Timer(BOOT_TIMEOUT_S, self.process.kill)
        timer.start()
        try:
            line = self.process.stdout.readline()
        finally:
            timer.cancel()
        if not line.startswith(BANNER):
            raise RuntimeError(f"server did not start: {line!r}")
        return int(line.strip().rsplit(":", 1)[1])

    def peak_rss_mb(self) -> float:
        """The server's high-water resident set (``VmHWM``)."""
        with open(f"/proc/{self.process.pid}/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
        raise RuntimeError("VmHWM missing from /proc status")

    def stop(self) -> tuple[dict, Optional[str]]:
        """SIGINT, then wait.  Returns the trace the launcher wrote (if any)
        and what went wrong (``None`` for a clean exit with status 0).

        A server still running ``STOP_TIMEOUT_S`` after SIGINT is a failed
        stop.  It then gets one new connection, which wakes an idle event
        loop: whether that lets it finish tells an unhandled signal from a
        shutdown that hangs, and the report says which.  Then it is killed.
        """
        problem = None
        self.process.send_signal(signal.SIGINT)
        try:
            self.process.wait(STOP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            problem = f"server still running {STOP_TIMEOUT_S:g} s after SIGINT"
            try:
                socket.create_connection(("127.0.0.1", self.port), timeout=5).close()
                self.process.wait(5)
                problem += "; it exited once a new connection woke its event loop"
            except (OSError, subprocess.TimeoutExpired):
                problem += "; killed"
        self.kill()
        if problem is None and self.process.returncode != 0:
            problem = f"server exited with status {self.process.returncode}"
        if self.trace_out is None or not self.trace_out.exists():
            return {}, problem
        return json.loads(self.trace_out.read_text()), problem

    def kill(self) -> None:
        if self.process.poll() is None:
            self.process.kill()
        self.process.wait()
        self._close_pipes()

    def _close_pipes(self) -> None:
        if self.process.stdout is not None:
            self.process.stdout.close()
        self._stderr.close()


class Client:
    """One keep-alive connection; records per-route latencies."""

    def __init__(self, port: int, tracer: Optional[Tracer] = None) -> None:
        self._connection = http.client.HTTPConnection("127.0.0.1", port, timeout=120)
        self._tracer = tracer
        self.routes: dict = defaultdict(list)
        #: ``(start, end)`` of every traced request, for nesting server spans.
        self.intervals: list = []

    def request(self, route: str, method: str, path: str, body: Optional[dict] = None):
        payload = None if body is None else json.dumps(body)
        headers = {} if body is None else {"Content-Type": "application/json"}
        frame = self._tracer.enter() if self._tracer is not None else None
        start = time.perf_counter()
        try:
            self._connection.request(method, path, body=payload, headers=headers)
            response = self._connection.getresponse()
            data = response.read()
        finally:
            end = time.perf_counter()
            if frame is not None:
                self._tracer.exit(SERVICE_REQUEST, frame)
                self.intervals.append((start, end))
        self.routes[route].append(end - start)
        return response.status, json.loads(data)

    def close(self) -> None:
        self._connection.close()


class ServedStore(Workload):
    """The served workload of the module docstring; ``tiny`` keeps 3 tenants."""

    name = "served_store"
    stages = ("ingest_s", "restart_ingest_s", "read_p50_s", "read_p90_s")
    tenants = 16
    batch = 4
    speed_per_phase = False

    def __init__(
        self, seed: int, tiny: bool, root: Path, env: dict, scratch: Path,
        reference: SpeedReference,
    ) -> None:
        super().__init__(seed, tiny)
        self.root = root
        self.env = env
        self.scratch = scratch
        self.reference = reference
        self.boots: list[float] = []
        self.peak_rss: list[float] = []
        self.server_counters: Counter = Counter()
        self._server: Optional[Server] = None
        self._serial = 0
        if tiny:
            self.tenants = 3

    def serial_phases(self) -> tuple[str, ...]:
        return ("ingest_s", "restart_ingest_s")

    def setup(self) -> None:
        self.catalog = pb_inputs.build_audit_catalog(self.tiny)
        self.oracle = Oracle(pb_inputs.audit_classes(self.catalog))

    def _boot(self, store: Path, trace_out: Optional[Path]) -> Server:
        self.close()  # a server a failed round left running
        # No server runs now, so the loop times the host alone; the server
        # and the client each keep a CPU busy, so every CPU is timed.
        self.reference.sample_every_cpu()
        self._server = Server(self.root, self.env, store, trace_out)
        self.boots.append(self._server.boot_s)
        return self._server

    def _stop(self, counting: bool, first: bool, tally: Tally) -> dict:
        """Read the server's counters and peak RSS, then stop it; a stop
        that fails is one failed operation."""
        server, self._server = self._server, None
        try:
            client = Client(server.port)
            try:
                status, metrics = client.request("metrics", "GET", "/metrics")
            finally:
                client.close()
            if counting and status == 200:
                for scope, values in metrics["counters"].items():
                    for key, value in values.items():
                        self.server_counters[f"{scope}.{key}"] += value
            if first:
                self.peak_rss.append(server.peak_rss_mb())
        except BaseException:
            server.kill()
            raise
        trace, problem = server.stop()
        tally.check(problem is None, f"{self.name} stop: {problem}")
        return trace

    def close(self) -> None:
        if self._server is not None:
            self._server.kill()
            self._server = None

    def _renaming(self, tag: str) -> list[tuple[str, str]]:
        suffix = f"_{tag}{self.rng.randrange(10_000)}"
        return [
            (name, str(renamed_copy(query, suffix)))
            for name, query in self.catalog.items()
        ]

    def _ingest(self, client: Client, tenant: str, queries, tally: Tally, settled=None):
        """Adds in batches of ``batch``, each followed by ``POST
        /equivalences``; returns the last matrix payload."""
        cells = None
        for position, (name, text) in enumerate(queries, 1):
            status, payload = client.request(
                "add", "POST", f"/tenant/{tenant}/add", {"query": text, "name": name}
            )
            tally.check(status == 200, f"{self.name} add {tenant}/{name}: HTTP {status}")
            if position % self.batch == 0 or position == len(queries):
                status, cells = client.request(
                    "post_equivalences", "POST", f"/tenant/{tenant}/equivalences"
                )
                tally.check(status == 200, f"{self.name} equivalences {tenant}: HTTP {status}")
                if settled is not None and status == 200:
                    settled.publish(tenant, cells["cells"])
        return cells

    def round(self, meter: Meter, tally: Tally, serial_only: bool) -> None:
        tracer: Optional[Tracer] = meter.tracer
        self._serial += 1
        store = self.scratch / f"store_{self._serial}.sqlite"

        def trace_out(tag: str) -> Optional[Path]:
            return self.scratch / f"trace_{self._serial}_{tag}.json" if tracer else None

        traces = []
        writers = []
        self._boot(store, trace_out("first"))
        settled = _Settled()
        done = threading.Event()
        reader_tally = Tally()
        reads: list[float] = []
        reader = threading.Thread(
            target=self._read_loop,
            args=(settled, done, reader_tally, reads, random.Random(self.rng.random())),
        )
        writer = Client(self._server.port, tracer)
        writers.append(writer)
        try:
            reader.start()
            order = [f"t{index:02d}" for index in range(self.tenants)]
            self.rng.shuffle(order)
            for tenant in order:
                cells = meter.timed(
                    "ingest_s", self._ingest, writer, tenant, self._renaming(tenant), tally, settled
                )
                if cells is not None:
                    check_served_cells(cells["cells"], self.oracle, tally, f"{self.name} {tenant}")
        finally:
            done.set()
            reader.join()
            writer.close()
        tally.merge(reader_tally)
        meter.samples["read_s"].extend(reads)
        meter.samples["route.get_explain"].extend(reads)
        traces.append(self._stop(meter.counting, True, tally))

        self._boot(store, trace_out("restart"))
        writer = Client(self._server.port, tracer)
        writers.append(writer)
        try:
            tenant = "restarted"
            cells = meter.timed(
                "restart_ingest_s", self._ingest, writer, tenant, self._renaming(tenant), tally
            )
            if cells is not None:
                check_served_cells(cells["cells"], self.oracle, tally, f"{self.name} {tenant}")
                status, stats = writer.request("stats", "GET", f"/tenant/{tenant}/stats")
                tally.check(
                    status == 200 and stats["store_hits"] == len(cells["cells"])
                    and stats["decided_cells"] == 0,
                    f"{self.name} restart: {stats.get('store_hits')} store hits, "
                    f"{stats.get('decided_cells')} decided of {len(cells['cells'])} cells",
                )
        finally:
            writer.close()
        traces.append(self._stop(meter.counting, False, tally))

        for client in writers:
            for route in ("add", "post_equivalences"):
                meter.samples[f"route.{route}"].extend(client.routes[route])
        if tracer is not None:
            _merge_server_traces(tracer, traces, [client.intervals for client in writers])

    def _read_loop(self, settled, done, tally: Tally, reads: list, rng: random.Random) -> None:
        client = Client(self._server.port)
        try:
            while not done.is_set():
                cell = settled.pick(rng)
                if cell is None:
                    time.sleep(0.001)
                    continue
                tenant, first, second = cell
                query = urlencode({"first": first, "second": second})
                start = time.perf_counter()
                status, payload = client.request("get_explain", "GET", f"/tenant/{tenant}/explain?{query}")
                reads.append(time.perf_counter() - start)
                want = self.oracle.expected(first, second)
                tally.check(
                    status == 200 and payload.get("verdict") == want,
                    f"{self.name} explain {tenant}/{first}/{second}: HTTP {status} "
                    f"{payload.get('verdict')}, expected {want}",
                )
        except Exception as error:  # noqa: BLE001 - reported as a failure
            tally.attempted += 1
            tally.fail(f"{self.name} reader: {error!r}")
        finally:
            client.close()


class _Settled:
    """Cells the writer has seen settled, shared with the reader."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._cells: list[tuple[str, str, str]] = []
        self._seen: set = set()

    def publish(self, tenant: str, cells) -> None:
        with self._lock:
            for cell in cells:
                key = (tenant, cell["first"], cell["second"])
                if key not in self._seen:
                    self._seen.add(key)
                    self._cells.append(key)

    def pick(self, rng: random.Random):
        with self._lock:
            if not self._cells:
                return None
            return self._cells[rng.randrange(len(self._cells))]


def _merge_server_traces(tracer: Tracer, traces: list[dict], intervals: list[list]) -> None:
    """Fold the server's span table into the client's, nesting server spans
    under the writer's requests by time (``perf_counter`` is the system-wide
    monotonic clock, shared by both processes): the time a request spent
    inside server-side spans leaves ``service.request``'s self time."""
    requests = sorted(interval for client in intervals for interval in client)
    starts = [start for start, _end in requests]
    covered = 0.0
    for trace in traces:
        tracer.absorb(trace["table"])
        for _name, start, end in trace["top_level"]:
            position = max(0, bisect.bisect_right(starts, start) - 1)
            for request_start, request_end in requests[position:]:
                if request_start >= end:
                    break
                covered += max(0.0, min(end, request_end) - max(start, request_start))
    tracer.absorb({SERVICE_REQUEST: {"calls": 0, "total_s": 0.0, "self_s": -covered}})
