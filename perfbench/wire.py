"""The server process and the load that reaches it over HTTP.

``ServerProcess`` spawns ``repro serve`` as a child process and stops it
again; the drivers below send the generated bytes over keep-alive
connections and record, per operation, when it was sent, when its
answer was read, the HTTP status and the body.  Nothing here checks a
body: the oracle does that after the window, so checking costs no time
inside it.
"""

from __future__ import annotations

import http.client
import os
import re
import signal
import socket
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro.server.metrics import parse_prometheus_text

#: The server's seed and telemetry horizon; the oracle builds its twin
#: broker from the same two values.  3 observed years is ``repro
#: serve``'s default, passed explicitly so the twin cannot drift from it.
SERVER_SEED = 2017
OBSERVE_YEARS = 3.0

START_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 20.0
_PORT_LINE = re.compile(r"serving v2 envelopes on http://([\d.]+):(\d+)")
_JSON = {"content-type": "application/json"}


def serve_command() -> list[str]:
    """The exact ``repro serve`` command line the benchmark runs."""
    return [
        sys.executable, "-m", "repro", "serve", "--port", "0",
        "--seed", str(SERVER_SEED), "--observe-years", f"{OBSERVE_YEARS:g}",
    ]


@dataclass
class Op:
    """One operation sent to the server and what came back."""

    route: str
    index: int
    sent: float
    done: float = 0.0
    status: int = 0
    body: bytes = b""
    error: str = ""
    due: float | None = None

    @property
    def ok(self) -> bool:
        return not self.error and 200 <= self.status < 300

    @property
    def rtt_ms(self) -> float:
        return (self.done - self.sent) * 1000.0


class ServerProcess:
    """``repro serve`` as a child process, logging to ``log_path``."""

    def __init__(self, root: Path, log_path: Path) -> None:
        self.root = root
        self.log_path = log_path
        self.proc: subprocess.Popen | None = None
        self.host = "127.0.0.1"
        self.port = 0

    def start(self) -> None:
        """Spawn the server; return once ``/healthz`` answers 200."""
        env = dict(os.environ, PYTHONPATH=str(self.root / "src"))
        with open(self.log_path, "ab") as log:
            offset = log.tell()
            self.proc = subprocess.Popen(
                serve_command(), cwd=self.root, env=env,
                stdin=subprocess.DEVNULL, stdout=log, stderr=subprocess.STDOUT,
            )
        deadline = time.monotonic() + START_TIMEOUT_S
        while not self.port:
            self._check_alive(deadline)
            with open(self.log_path, "rb") as log:
                log.seek(offset)
                match = _PORT_LINE.search(log.read().decode(errors="replace"))
            if match:
                self.host, self.port = match.group(1), int(match.group(2))
            else:
                time.sleep(0.005)
        while True:
            self._check_alive(deadline)
            try:
                conn = connect(self.host, self.port)
                try:
                    op = request(conn, "GET", "/healthz", None, "healthz", 0)
                finally:
                    conn.close()
                if op.status == 200:
                    return
            except OSError:
                pass
            time.sleep(0.005)

    def _check_alive(self, deadline: float) -> None:
        if self.proc.poll() is not None:
            raise RuntimeError(
                f"repro serve exited with code {self.proc.returncode}; "
                f"see {self.log_path}"
            )
        if time.monotonic() > deadline:
            raise RuntimeError(f"repro serve not ready after {START_TIMEOUT_S}s")

    def peak_rss_mb(self) -> float:
        """The server's peak resident set (``VmHWM``), in MiB."""
        status = Path(f"/proc/{self.proc.pid}/status").read_text()
        kib = int(re.search(r"VmHWM:\s+(\d+)\s+kB", status).group(1))
        return kib / 1024.0

    def stop(self) -> None:
        """Interrupt the server (graceful shutdown) and wait for it."""
        if self.proc is None or self.proc.poll() is not None:
            return
        self.proc.send_signal(signal.SIGINT)
        try:
            self.proc.wait(timeout=STOP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()


def connect(host: str, port: int) -> http.client.HTTPConnection:
    conn = http.client.HTTPConnection(host, port, timeout=120.0)
    conn.connect()
    conn.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    return conn


def request(conn, method, path, body, route, index, due=None) -> Op:
    """Send one request on ``conn`` and read the whole answer."""
    op = Op(route=route, index=index, sent=time.perf_counter(), due=due)
    try:
        conn.request(method, path, body=body,
                     headers=_JSON if body is not None else {})
        response = conn.getresponse()
        op.body = response.read()
        op.status = response.status
    except (OSError, http.client.HTTPException) as exc:
        op.error = f"{type(exc).__name__}: {exc}"
        conn.close()  # http.client reconnects on the next request
    op.done = time.perf_counter()
    return op


def scrape_metrics(server: ServerProcess) -> dict[str, float]:
    """``GET /metrics`` as ``{family: value summed over label sets}``."""
    conn = connect(server.host, server.port)
    try:
        op = request(conn, "GET", "/metrics", None, "metrics", 0)
    finally:
        conn.close()
    if not op.ok:
        raise RuntimeError(f"/metrics answered {op.status} {op.error}")
    families: dict[str, float] = {}
    for (name, _), value in parse_prometheus_text(op.body.decode()).items():
        families[name] = families.get(name, 0.0) + value
    return families


def host_steal_ticks() -> int:
    """CPU time the hypervisor took from this host so far, in clock ticks."""
    with open("/proc/stat") as stat:
        return int(stat.readline().split()[8])


@dataclass
class Window:
    """What one timed window produced."""

    start: float
    end: float
    ops: list[Op] = field(default_factory=list)
    lateness_ms: list[float] = field(default_factory=list)
    #: ``(seconds since start, host steal ticks)`` read at each slice edge.
    steal: list[tuple[float, int]] = field(default_factory=list)


def send_all(server: ServerProcess, bodies: list[bytes]) -> list[Op]:
    """Send recommends one after another on one connection (warm-up)."""
    conn = connect(server.host, server.port)
    try:
        return [
            request(conn, "POST", "/v2/recommend", body, "recommend", index)
            for index, body in enumerate(bodies)
        ]
    finally:
        conn.close()


def run_window(server, stream, schedule, seconds: float, connections: int,
               slices: int) -> Window:
    """Closed-loop recommends on ``connections`` clients for ``seconds``.

    Each client sends its next request when the previous one is
    answered.  Telemetry batches in ``schedule`` are due at fixed times
    (an open loop) and need a single connection: a due batch waits for
    the recommend in flight, then is posted and flushed before the next
    recommend, so each recommend is sent either before a batch or after
    its flush was acknowledged and the telemetry state it saw is known.
    The wait is the generator's lateness; it counts in the batch's
    visible time, which runs from the due time to the flush ack.

    The calling thread drives the last client itself, so the load
    generator runs exactly ``connections`` threads.  Between two
    requests it also reads the host's steal counter once the window
    passes each of the ``slices`` equal slice edges.
    """
    if schedule and connections != 1:
        raise ValueError("telemetry batches need a single connection")
    window = Window(start=time.perf_counter(), end=0.0)
    window.steal.append((0.0, host_steal_ticks()))
    deadline = window.start + seconds
    results: list[list[Op]] = [[] for _ in range(connections)]
    errors: list[Exception] = []

    def client(slot: int) -> None:
        batch = 0
        try:
            conn = connect(server.host, server.port)
            try:
                while time.perf_counter() < deadline:
                    if slot == connections - 1:
                        elapsed = time.perf_counter() - window.start
                        while elapsed >= len(window.steal) * seconds / slices:
                            window.steal.append((elapsed, host_steal_ticks()))
                    if batch < len(schedule) and (
                        time.perf_counter() >= window.start + schedule[batch]["due_s"]
                    ):
                        due = window.start + schedule[batch]["due_s"]
                        window.lateness_ms.append((time.perf_counter() - due) * 1000.0)
                        body = schedule[batch]["body"].encode("utf-8")
                        results[slot].append(request(
                            conn, "POST", "/v2/ingest", body, "ingest", batch, due=due
                        ))
                        results[slot].append(request(
                            conn, "POST", "/v2/ingest/flush", None, "flush", batch,
                            due=due,
                        ))
                        batch += 1
                        continue
                    taken = stream.take()
                    if taken is None:
                        break
                    index, _, body = taken
                    results[slot].append(request(
                        conn, "POST", "/v2/recommend", body, "recommend", index
                    ))
            finally:
                conn.close()
        except Exception as exc:  # re-raised once every client has stopped
            errors.append(exc)

    threads = [
        threading.Thread(target=client, args=(slot,))
        for slot in range(connections - 1)
    ]
    for thread in threads:
        thread.start()
    client(connections - 1)
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]
    while len(window.steal) <= slices:
        window.steal.append((time.perf_counter() - window.start, host_steal_ticks()))
    window.end = deadline
    # Send order is an order the server saw.
    window.ops = sorted((op for ops in results for op in ops), key=lambda op: op.sent)
    return window


def ingest_probe(server, batches: list[str], period: float) -> list[Op]:
    """Post each batch and flush it on an idle server, one due per ``period``."""
    conn = connect(server.host, server.port)
    ops = []
    start = time.perf_counter()
    try:
        for number, text in enumerate(batches):
            due = start + number * period
            time.sleep(max(0.0, due - time.perf_counter()))
            ops.append(request(conn, "POST", "/v2/ingest", text.encode(),
                               "ingest", number, due=due))
            ops.append(request(conn, "POST", "/v2/ingest/flush", None,
                               "flush", number, due=due))
    finally:
        conn.close()
    return ops


def healthz_probe(server, count: int) -> list[Op]:
    """``count`` sequential ``GET /healthz``: the HTTP round-trip floor."""
    conn = connect(server.host, server.port)
    try:
        return [request(conn, "GET", "/healthz", None, "healthz", index)
                for index in range(count)]
    finally:
        conn.close()
