"""End-to-end test of the pre-fork front: ``repro serve --workers N``.

The front runs as a real subprocess (the exact shape the CI service-smoke
job drives): the parent binds the socket and forks two workers that share
one ``--store`` directory.  One test walks the whole lifecycle — serve
from both workers, aggregate their ``/stats``, survive a SIGKILLed worker
through supervised restart, and shut down cleanly on SIGINT — because the
subprocess start-up (fork + cold builds) is the expensive part and every
stage builds on the previous one's state.
"""

import json
import os
import re
import select
import signal
import socket
import subprocess
import sys
import threading
import time
import urllib.request

import repro
from repro.api.service import WORKER_MAX_INFLIGHT, make_server

#: src/ directory for subprocess PYTHONPATH (tests may run from anywhere).
SRC_DIR = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))

SCENARIOS = [
    {"exchange": "floodset", "num_agents": agents, "max_faulty": 1}
    for agents in (2, 3, 4)
]

_BANNER = re.compile(r"http://[\d.]+:(\d+)")


def _env():
    env = dict(os.environ)
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = SRC_DIR + (os.pathsep + existing if existing else "")
    env["REPRO_SERVE_RESTART_BACKOFF"] = "0.1"  # fast restarts for the test
    return env


def _post(url, payload, timeout=120):
    request = urllib.request.Request(
        url, data=json.dumps(payload).encode(),
        headers={"Content-Type": "application/json"})
    with urllib.request.urlopen(request, timeout=timeout) as response:
        return response.status, json.loads(response.read())


def _get(url, timeout=30):
    with urllib.request.urlopen(url, timeout=timeout) as response:
        return response.status, json.loads(response.read())


def _barrage(url, rounds=2):
    """Concurrent requests on fresh connections, so both workers accept."""
    responses = []
    errors = []

    def worker(scenario):
        try:
            responses.append(_post(url + "/check", {"scenario": scenario}))
        except Exception as exc:  # pragma: no cover - failure reporting
            errors.append(exc)

    for _ in range(rounds):
        threads = [threading.Thread(target=worker, args=(scenario,))
                   for scenario in SCENARIOS for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    assert not errors, errors
    return responses


def test_prefork_lifecycle(tmp_path):
    process = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0",
         "--workers", "2", "--store", str(tmp_path / "store"), "--quiet"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=_env(),
    )
    try:
        banner = process.stdout.readline()
        match = _BANNER.search(banner)
        assert match, f"no serve banner (got {banner!r})"
        assert "2 workers" in banner
        url = f"http://127.0.0.1:{match.group(1)}"

        # --- both workers serve, and every answer is labelled -------------
        responses = _barrage(url)
        assert all(status == 200 for status, _ in responses)
        labels = {body["worker"] for _, body in responses}
        assert labels <= {"worker-0", "worker-1"}

        # --- /stats aggregates both workers' counters ---------------------
        _, stats = _get(url + "/stats")
        workers = stats["workers"]
        assert set(workers) == {"worker-0", "worker-1"}
        pids = {label: record["pid"] for label, record in workers.items()}
        assert pids["worker-0"] != pids["worker-1"]
        aggregate = stats["aggregate"]
        assert aggregate["workers"] == 2
        per_worker = [record["cache"] for record in workers.values()]
        assert aggregate["hits"] == sum(view["hits"] for view in per_worker)
        assert aggregate["misses"] == sum(view["misses"] for view in per_worker)

        # --- /metrics aggregates every worker's series --------------------
        # Any worker answers for the whole front: each publishes its
        # registry snapshot next to its stats record, and the scraped
        # worker renders all of them under per-worker labels.  Counters
        # are published just after the response bytes go out, so poll
        # until the last barrage request's bump lands.
        check_series = re.compile(
            r'repro_http_requests_total\{endpoint="/check",method="POST",'
            r'status="200",worker="(worker-\d+)"\} (\d+)')
        sent = len(responses)
        deadline = time.time() + 30
        while True:
            request = urllib.request.Request(url + "/metrics")
            with urllib.request.urlopen(request, timeout=30) as response:
                assert response.status == 200
                assert response.headers["Content-Type"].startswith("text/plain")
                text = response.read().decode()
            counted = {worker: int(count)
                       for worker, count in check_series.findall(text)}
            if sum(counted.values()) >= sent or time.time() > deadline:
                break
            time.sleep(0.2)
        # Both forked workers publish: their labels appear even if the
        # barrage landed unevenly across the shared accept socket.
        worker_labels = set(re.findall(r'worker="(worker-\d+)"', text))
        assert worker_labels == {"worker-0", "worker-1"}, text[:2000]
        # Aggregate across the worker label == requests this test sent.
        assert sum(counted.values()) == sent, counted

        # --- a killed worker is restarted under a new pid -----------------
        os.kill(pids["worker-0"], signal.SIGKILL)
        deadline = time.time() + 60
        new_pid = None
        while time.time() < deadline:
            _, stats = _get(url + "/stats")
            record = stats["workers"].get("worker-0")
            if record and record["pid"] != pids["worker-0"]:
                new_pid = record["pid"]
                break
            time.sleep(0.2)
        assert new_pid is not None, "worker-0 was not restarted"

        # --- the restarted front still answers ----------------------------
        status, body = _post(url + "/check", {"scenario": SCENARIOS[0]})
        assert status == 200 and body["ok"] is True

        # --- SIGINT drains and exits cleanly ------------------------------
        process.send_signal(signal.SIGINT)
        stdout, stderr = process.communicate(timeout=60)
        assert process.returncode == 0
        assert "shut down" in stdout
        assert "worker-0" in stderr and "restarting" in stderr
    finally:
        if process.poll() is None:
            process.kill()
            process.communicate(timeout=30)


def test_prefork_preload_gates_health_until_ready(tmp_path):
    env = _env()
    env["REPRO_SERVE_PRELOAD_DELAY"] = "2.0"  # hold the gate open for polling
    process = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0",
         "--workers", "2", "--preload", "table1:max-n=3",
         "--store", str(tmp_path / "store"), "--quiet"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env,
    )
    try:
        banner = process.stdout.readline()
        match = _BANNER.search(banner)
        assert match, f"no preload banner (got {banner!r})"
        assert "preloading" in banner
        url = f"http://127.0.0.1:{match.group(1)}"

        # --- while preloading, /health answers but reports not ready ------
        status, body = _get(url + "/health")
        assert status == 200
        assert body["ok"] is True
        assert body["ready"] is False
        assert body["status"] == "preloading"

        # --- readiness flips once the preload completes -------------------
        deadline = time.time() + 120
        body = None
        while time.time() < deadline:
            try:
                _, body = _get(url + "/health", timeout=10)
            except Exception:
                body = None
            if body and body.get("ready"):
                break
            time.sleep(0.2)
        assert body and body["ready"] is True, body
        assert body["status"] == "serving"

        # --- the first query is warm: served from preloaded artefacts -----
        status, answer = _post(
            url + "/check",
            {"scenario": {"exchange": "floodset", "num_agents": 3,
                          "max_faulty": 1}})
        assert status == 200 and answer["ok"] is True
        _, stats = _get(url + "/stats")
        assert stats["aggregate"]["preloaded"] >= 2
    finally:
        process.send_signal(signal.SIGTERM)
        try:
            process.communicate(timeout=60)
        except subprocess.TimeoutExpired:
            process.kill()
            process.communicate(timeout=30)


def test_worker_accept_never_blocks_on_an_empty_backlog(tmp_path):
    # Pre-fork workers share one listening socket, so a worker woken for a
    # connection a sibling already took finds an empty backlog.  Its
    # accept() must fail fast instead of blocking: a blocked worker only
    # wakes for the next connection, and after a shutdown signal PEP 475
    # retries the accept, so it sat out the supervisor's SIGKILL grace.
    listening = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    listening.bind(("127.0.0.1", 0))
    listening.listen(8)
    server = make_server(
        listening_socket=listening, worker_label="worker-0",
        stats_dir=str(tmp_path), max_inflight=WORKER_MAX_INFLIGHT)
    try:
        outcome = []

        def accept():
            try:
                outcome.append(server.get_request())
            except OSError as exc:
                outcome.append(exc)

        attempt = threading.Thread(target=accept, daemon=True)
        attempt.start()
        attempt.join(timeout=1.0)
        assert not attempt.is_alive(), "get_request blocked on an empty backlog"
        assert isinstance(outcome[0], BlockingIOError)

        # A pending connection is still accepted, as a blocking socket.
        client = socket.create_connection(listening.getsockname())
        try:
            select.select([listening], [], [], 5.0)
            request, _ = server.get_request()
            try:
                assert request.gettimeout() is None
                assert os.get_blocking(request.fileno())
            finally:
                server.shutdown_request(request)
        finally:
            client.close()
    finally:
        server.server_close()
