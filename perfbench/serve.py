"""Serve workloads: a ``repro serve`` front and closed-loop HTTP clients.

The untraced run starts ``python3 -m repro serve`` as a child process (its
own session, store directory and free port), warms it with one request per
query of the workload, and drives it from :data:`workloads.CLIENTS` client
threads.  Each thread is a closed loop: it sends its next request only
after the previous reply arrived.  CPU time is read from the kernel's
per-process CPU clocks of the server and its forked workers, and peak
memory from their ``VmHWM``, so both cover exactly that run's processes.

The traced run serves the same configuration in-process
(:func:`in_process_server`) so :mod:`layers` can wrap the handler.
"""

from __future__ import annotations

import http.client
import json
import os
import signal
import socket
import subprocess
import threading
import time
from typing import Callable, Dict, Iterator, List, Optional, Tuple

import workloads
from oracle import Oracle

HOST = "127.0.0.1"
TIMEOUT_S = 30.0
READY_TIMEOUT_S = 60.0
STOP_GRACE_S = 2.0


def free_port() -> int:
    with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as probe:
        probe.bind((HOST, 0))
        return probe.getsockname()[1]


class ServerProcess:
    """One ``repro serve`` process tree, started in its own session."""

    def __init__(self, args: List[str], env: Dict[str, str], cwd: str,
                 log_path: str) -> None:
        self.port = free_port()
        with open(log_path, "ab") as log:
            self.process = subprocess.Popen(
                ["python3", "-m", "repro", "serve", "--port", str(self.port)]
                + args,
                cwd=cwd, env=env, stdout=log, stderr=subprocess.STDOUT,
                stdin=subprocess.DEVNULL, start_new_session=True,
            )

    def wait_ready(self) -> None:
        deadline = time.monotonic() + READY_TIMEOUT_S
        while time.monotonic() < deadline:
            if self.process.poll() is not None:
                raise RuntimeError(f"repro serve exited with {self.process.returncode}")
            try:
                status, body = request_once(self.port, "GET", "/health", None)
                if status == 200 and json.loads(body).get("ready"):
                    return
            except (OSError, http.client.HTTPException, ValueError):
                pass
            time.sleep(0.02)
        raise RuntimeError("repro serve did not become ready")

    def pids(self) -> List[int]:
        """The server and its live forked workers."""
        pid = self.process.pid
        try:
            with open(f"/proc/{pid}/task/{pid}/children") as handle:
                children = [int(child) for child in handle.read().split()]
        except OSError:
            children = []
        return [pid] + children

    def cpu_seconds(self) -> Dict[int, float]:
        cpu = {}
        for pid in self.pids():
            try:  # the kernel's per-process CPU clock: ((~pid) << 3) | 2
                cpu[pid] = time.clock_gettime(((~pid) << 3) | 2)
            except OSError:
                pass
        return cpu

    def peak_rss_mib(self) -> float:
        total_kib = 0
        for pid in self.pids():
            try:
                with open(f"/proc/{pid}/status") as handle:
                    for line in handle:
                        if line.startswith("VmHWM:"):
                            total_kib += int(line.split()[1])
            except OSError:
                pass
        return total_kib / 1024.0

    def stop(self) -> None:
        """SIGINT, then SIGKILL the process group; wait until all are gone.

        Shutdown is not measured, so a worker that does not drain within
        STOP_GRACE_S is killed rather than waited out.
        """
        pids = self.pids()
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGINT)
            try:
                self.process.wait(timeout=STOP_GRACE_S)
            except subprocess.TimeoutExpired:
                pass
        try:
            os.killpg(self.process.pid, signal.SIGKILL)
        except OSError:
            pass
        self.process.wait()
        deadline = time.monotonic() + READY_TIMEOUT_S
        while time.monotonic() < deadline and any(
                os.path.exists(f"/proc/{pid}") for pid in pids[1:]):
            time.sleep(0.01)


def request_once(port: int, method: str, path: str,
                 body: Optional[bytes]) -> Tuple[int, bytes]:
    conn = http.client.HTTPConnection(HOST, port, timeout=TIMEOUT_S)
    try:
        conn.request(method, path, body=body,
                     headers={"Content-Type": "application/json",
                              "Connection": "close"})
        response = conn.getresponse()
        return response.status, response.read()
    finally:
        conn.close()


def verify(status: int, body: bytes, expected: List[workloads.Query],
           oracle: Oracle) -> bool:
    """A 2xx reply whose every result matches the oracle digest."""
    if not 200 <= status < 300:
        return False
    try:
        payload = json.loads(body)
    except ValueError:
        return False
    if "results" in payload:
        results = payload["results"]
    else:
        results = [payload.get("result")]
    if not isinstance(results, list) or len(results) != len(expected):
        return False
    return all(
        isinstance(result, dict) and oracle.matches(op, scenario, result)
        for (op, scenario), result in zip(expected, results)
    )


def warm_up(port: int, queries: List[workloads.Query], oracle: Oracle) -> int:
    """One request per query, each on a fresh connection; returns failures."""
    failed = 0
    for op, scenario in queries:
        path, body, expected = workloads.query_request(op, scenario)
        status, reply = request_once(port, "POST", path, workloads.encode(body))
        failed += not verify(status, reply, expected, oracle)
    return failed


class ClientResult:
    def __init__(self) -> None:
        self.latencies: List[float] = []
        self.ok = 0
        self.failed = 0


def _client(port: int, requests: Iterator[workloads.Request], deadline: float,
            keep_alive: bool, oracle: Oracle, client: int,
            tracer, out: ClientResult) -> None:
    conn: Optional[http.client.HTTPConnection] = None
    number = 0
    while time.perf_counter() < deadline:
        path, body, expected = next(requests)
        payload = workloads.encode(body)
        request_id = f"c{client}-{number}"
        number += 1
        headers = {"Content-Type": "application/json",
                   "X-Repro-Trace-Id": request_id}
        if not keep_alive:
            headers["Connection"] = "close"
        root = tracer.root("client.request", request_id) if tracer else None
        start = time.perf_counter()
        try:
            if conn is None:
                conn = http.client.HTTPConnection(HOST, port, timeout=TIMEOUT_S)
            conn.request("POST", path, body=payload, headers=headers)
            response = conn.getresponse()
            status, reply = response.status, response.read()
        except (OSError, http.client.HTTPException):
            status, reply = 0, b""
        out.latencies.append(time.perf_counter() - start)
        if root is not None:
            tracer.exit(root)
        if status == 0 or not keep_alive:
            if conn is not None:
                conn.close()
            conn = None
        if verify(status, reply, expected, oracle):
            out.ok += 1  # read live by drive()'s window marks
        else:
            out.failed += 1
    if conn is not None:
        conn.close()


#: Sub-windows of a timed run; throughput and CPU per query are medians
#: over them, so a burst of host noise moves one window, not the run.
WINDOWS = 5


def drive(port: int, make_requests: Callable[[int, int], Iterator[workloads.Request]],
          seed: int, seconds: float, keep_alive: bool, oracle: Oracle,
          tracer=None, cpu_clock: Callable[[], float] = lambda: 0.0,
          ) -> Tuple[List[ClientResult], List[Tuple[float, int, float]]]:
    """Run every client's closed loop for ``seconds``.

    Returns the client results and ``WINDOWS + 1`` marks of (time,
    verified replies so far, server CPU seconds) at the window boundaries.
    """
    results = [ClientResult() for _ in range(workloads.CLIENTS)]
    start = time.perf_counter()
    threads = [
        threading.Thread(
            target=_client,
            args=(port, make_requests(seed, client), start + seconds,
                  keep_alive, oracle, client, tracer, results[client]),
            name=f"client-{client}",
        )
        for client in range(workloads.CLIENTS)
    ]
    for thread in threads:
        thread.start()

    def mark() -> Tuple[float, int, float]:
        return (time.perf_counter(), sum(r.ok for r in results), cpu_clock())

    marks = [mark()]
    for window in range(1, WINDOWS + 1):
        time.sleep(max(0.0, start + seconds * window / WINDOWS - time.perf_counter()))
        marks.append(mark())
    for thread in threads:
        thread.join()
    return results, marks


def in_process_server(config: Dict[str, object], store_dir: Optional[str]):
    """The traced run's server: same session/store configuration, port 0."""
    from repro.api import service
    from repro.api.artefact_store import ArtefactStore
    from repro.api.session import Session

    store = None
    extra: Dict[str, object] = {}
    if store_dir is not None:
        store = ArtefactStore(store_dir, max_entries=config["store_entries"])
        stats_dir = os.path.join(store_dir, "stats")
        os.makedirs(stats_dir, exist_ok=True)
        extra = dict(worker_label="worker-0", stats_dir=stats_dir,
                     max_inflight=service.WORKER_MAX_INFLIGHT)
    session = Session(max_entries=config["cache_size"], store=store)
    server = service.make_server(HOST, 0, session=session, **extra)
    thread = threading.Thread(target=server.serve_forever,
                              kwargs={"poll_interval": 0.1}, name="server")
    thread.start()
    return server, thread
