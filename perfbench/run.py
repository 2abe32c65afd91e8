"""Run one benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload cold-check --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all

``--trace 0`` reports the end-to-end metrics with tracing off; ``--trace 1``
reports the per-layer metrics of a traced run.  Human-readable lines come
first; the last stdout line is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  A full record with host
metadata and sample counts is written to ``perfbench/results/``, and a
traced run also writes its spans there.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from typing import Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RESULTS = os.path.join(HERE, "results")

WORKLOADS = ("cold-check", "cold-synthesize", "warm-serve", "prefork-store-churn")
#: Set-ups per run; each run reports their median.
COLD_SETUPS = 5
SERVE_SETUPS = 3
#: A cold child that outlives this is killed and its cells count as failed.
CHILD_TIMEOUT_S = 160.0

Metrics = Dict[str, Tuple[float, str]]


class Run:
    """What one run measured: metrics, their sample counts, the verdicts."""

    def __init__(self) -> None:
        self.metrics: Metrics = {}
        self.samples: Dict[str, int] = {}
        self.attempted = 0
        self.failed = 0
        self.notes: Dict[str, object] = {}

    def put(self, name: str, value: float, unit: str, samples: int) -> None:
        self.metrics[name] = (value, unit)
        self.samples[name] = samples


def tail(values: List[float]) -> Tuple[float, float]:
    """The highest nearest-rank percentile with >= 10 samples beyond it.

    Returns ``(value, percentile)``.  With fewer than 20 samples the median
    is the highest percentile on offer.
    """
    ordered = sorted(values)
    rank = max(len(ordered) - 10, (len(ordered) + 1) // 2)
    return ordered[rank - 1], 100.0 * rank / len(ordered)


def child_env(tmpdir: str) -> Dict[str, str]:
    """The environment of every process a run starts: no ``REPRO_*`` seam."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = SRC
    env["TMPDIR"] = tmpdir
    return env


def put_latencies(run: Run, latencies: List[float]) -> None:
    run.put("latency_p50_ms", statistics.median(latencies) * 1e3, "ms",
            len(latencies))
    value, percentile = tail(latencies)
    run.put("latency_tail_ms", value * 1e3, "ms", len(latencies))
    run.notes["latency_tail_percentile"] = round(percentile, 2)


# ------------------------------------------------------------------- cold


def _spawn_cold(env: Dict[str, str], probe: bool) -> Tuple[subprocess.Popen, float]:
    """Start a cold child; returns it once ready, with its set-up time."""
    start = time.perf_counter()
    child = subprocess.Popen(
        ["python3", os.path.join(HERE, "cold.py")] + (["--probe"] if probe else []),
        cwd=ROOT, env=env, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
        text=True, start_new_session=True,
    )
    if child.stdout.readline().strip() != "ready":
        child.kill()
        child.wait()
        raise RuntimeError("cold child failed to start")
    return child, time.perf_counter() - start


def run_cold(workload: str, seed: int, seconds: float, traced: bool,
             env: Dict[str, str], oracle, spans_path: str) -> Run:
    import workloads

    cells = workloads.seeded_order(
        workloads.COLD_CHECK if workload == "cold-check"
        else workloads.COLD_SYNTHESIZE, seed)
    # Untraced runs repeat cells (see cold_schedule); a traced run makes
    # one untraced and one traced pass over the set.
    schedule = (list(range(len(cells))) if traced
                else workloads.cold_schedule(cells, seconds))
    setups = []
    for _ in range(COLD_SETUPS - 1):
        probe, setup = _spawn_cold(env, probe=True)
        probe.communicate()
        setups.append(setup)
    child, setup = _spawn_cold(env, probe=False)
    setups.append(setup)
    # The child's process group includes the cell it may have forked.
    watchdog = threading.Timer(CHILD_TIMEOUT_S, os.killpg,
                               (child.pid, signal.SIGKILL))
    watchdog.start()
    try:
        child.stdin.write(json.dumps({
            "cells": [cells[i] for i in schedule], "trace": traced,
            "spans_path": spans_path,
        }) + "\n")
        child.stdin.close()
        output = child.stdout.read()
        _, status, usage = os.wait4(child.pid, 0)
        child.returncode = os.waitstatus_to_exitcode(status)
    finally:
        watchdog.cancel()
        child.stdout.close()
    run = Run()
    lines = output.strip().splitlines()
    if child.returncode != 0 or not lines:
        run.attempted = run.failed = len(cells)
        return run
    report = json.loads(lines[-1])
    for op, scenario, result, error in report["results"]:
        if error is not None or not oracle.matches(op, scenario, result):
            run.failed += 1
    run.attempted = len(report["results"])
    queries = len(report["latencies"])
    if traced:
        for name, (value, unit) in report["layers"].items():
            run.put(name, value, unit, queries)
        return run
    # Every metric reads each cell's median over its runs, so one slow
    # moment on a noisy host does not move the run.
    latencies = _per_cell_medians(report["latencies"], schedule)
    cpu = _per_cell_medians(report["cpu"], schedule)
    run.put("setup_s", statistics.median(setups), "s", len(setups))
    verified = 1 - run.failed / run.attempted
    run.put("throughput_qps", verified * len(cells) / sum(latencies),
            "queries/s", queries)
    put_latencies(run, latencies)
    run.put("cpu_ms_per_query", sum(cpu) * 1e3 / len(cells), "ms", queries)
    run.put("peak_rss_mb", max(usage.ru_maxrss, report["maxrss_kib"]) / 1024.0,
            "MiB", queries + 1)
    run.notes["cell_runs"] = queries
    return run


def _per_cell_medians(samples: List[float], schedule: List[int]) -> List[float]:
    by_cell: Dict[int, List[float]] = {}
    for index, sample in zip(schedule, samples):
        by_cell.setdefault(index, []).append(sample)
    return [statistics.median(by_cell[index]) for index in sorted(by_cell)]


# ------------------------------------------------------------------ serve


def _serve_config(workload: str) -> Dict[str, object]:
    import workloads

    if workload == "warm-serve":
        return dict(queries=workloads.WARM_QUERIES,
                    requests=workloads.warm_requests, keep_alive=True,
                    cache_size=workloads.WARM_CACHE_SIZE, store_entries=None,
                    workers=1)
    return dict(queries=workloads.CHURN_QUERIES,
                requests=workloads.churn_requests, keep_alive=False,
                cache_size=workloads.CHURN_CACHE_SIZE,
                store_entries=workloads.CHURN_STORE_ENTRIES,
                workers=workloads.CHURN_WORKERS)


def _count(run: Run, clients) -> List[float]:
    latencies = [lat for client in clients for lat in client.latencies]
    run.attempted += len(latencies)
    run.failed += sum(client.failed for client in clients)
    return latencies


def run_serve(workload: str, seed: int, seconds: float, env: Dict[str, str],
              rundir: str, oracle) -> Run:
    import serve
    import workloads

    config = _serve_config(workload)
    run = Run()
    setups = []
    server = None
    try:
        for index in range(SERVE_SETUPS):
            if server is not None:
                server.stop()
            args = ["--cache-size", str(config["cache_size"])]
            if config["store_entries"] is not None:
                args += ["--workers", str(config["workers"]),
                         "--store", os.path.join(rundir, f"store-{index}"),
                         "--store-max-entries", str(config["store_entries"])]
            start = time.perf_counter()
            server = serve.ServerProcess(args, env, ROOT,
                                         os.path.join(rundir, "serve.log"))
            server.wait_ready()
            run.failed += serve.warm_up(
                server.port, workloads.seeded_order(config["queries"], seed),
                oracle)
            run.attempted += len(config["queries"])
            setups.append(time.perf_counter() - start)
        clients, marks = serve.drive(
            server.port, config["requests"], seed, seconds,
            config["keep_alive"], oracle,
            cpu_clock=lambda: sum(server.cpu_seconds().values()))
        processes = len(server.pids())
        peak_rss = server.peak_rss_mib()
    finally:
        if server is not None:
            server.stop()
    latencies = _count(run, clients)
    completed = sum(client.ok for client in clients)
    windows = [(t1 - t0, ok1 - ok0, cpu1 - cpu0)
               for (t0, ok0, cpu0), (t1, ok1, cpu1) in zip(marks, marks[1:])]
    run.put("setup_s", statistics.median(setups), "s", len(setups))
    run.put("throughput_qps",
            statistics.median(ok / dt for dt, ok, _ in windows),
            "queries/s", completed)
    put_latencies(run, latencies)
    run.put("cpu_ms_per_query",
            statistics.median(cpu * 1e3 / max(ok, 1) for _, ok, cpu in windows),
            "ms", completed)
    run.put("peak_rss_mb", peak_rss, "MiB", processes)
    run.notes["windows"] = len(windows)
    return run


def run_serve_traced(workload: str, seed: int, seconds: float, rundir: str,
                     oracle, spans_path: str) -> Run:
    import layers
    import serve
    import workloads

    config = _serve_config(workload)
    store_dir = (os.path.join(rundir, "store")
                 if config["store_entries"] is not None else None)
    run = Run()
    start = time.perf_counter()
    server, thread = serve.in_process_server(config, store_dir)
    try:
        port = server.server_address[1]
        run.failed += serve.warm_up(
            port, workloads.seeded_order(config["queries"], seed), oracle)
        run.attempted += len(config["queries"])
        setup = time.perf_counter() - start
        untraced, _ = serve.drive(port, config["requests"], seed, seconds,
                                  config["keep_alive"], oracle)
        tracer = layers.Tracer()
        store = server.session.store
        session_before = server.session.stats()
        store_before = store.stats() if store is not None else {}
        layers.install(tracer)
        try:
            traced, _ = serve.drive(port, config["requests"], seed, seconds,
                                    config["keep_alive"], oracle, tracer)
        finally:
            layers.uninstall()
        session_after = server.session.stats()
        store_after = store.stats() if store is not None else {}
    finally:
        server.shutdown()
        server.server_close()
        thread.join()
    untraced_latencies = _count(run, untraced)
    latencies = _count(run, traced)
    tracer.write(spans_path)
    session_delta = {
        name: getattr(session_after, name) - getattr(session_before, name)
        for name in ("hits", "misses", "coalesced")
    }
    store_delta = {name: store_after[name] - store_before.get(name, 0)
                   for name in store_after}
    overhead = statistics.fmean(latencies) / statistics.fmean(untraced_latencies)
    for name, (value, unit) in layers.layer_metrics(
            tracer, session_delta, store_delta, overhead).items():
        run.put(name, value, unit, len(latencies))
    run.notes["setup_s"] = setup
    return run


# ----------------------------------------------------------------- record


def host_metadata() -> Dict[str, object]:
    digest = hashlib.sha256()
    for directory, dirnames, filenames in os.walk(SRC):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for filename in sorted(f for f in filenames if f.endswith(".py")):
            path = os.path.join(directory, filename)
            digest.update(os.path.relpath(path, SRC).encode())
            with open(path, "rb") as handle:
                digest.update(handle.read())
    sha = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            sha = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=10, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            sha = None
    return {
        "cores": os.cpu_count(),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "git_sha": sha,
        "source_sha256": digest.hexdigest(),
    }


def run_workload(args) -> int:
    sys.path.insert(0, SRC)
    from oracle import Oracle

    oracle = Oracle()
    os.makedirs(RESULTS, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    rundir = os.path.join(RESULTS, f"tmp-{stem}-{os.getpid()}")
    os.makedirs(rundir)
    spans_path = os.path.join(RESULTS, f"{args.workload}-seed{args.seed}.spans.jsonl")
    try:
        env = child_env(rundir)
        if args.workload.startswith("cold-"):
            run = run_cold(args.workload, args.seed, args.seconds,
                           bool(args.trace), env, oracle, spans_path)
        elif args.trace:
            run = run_serve_traced(args.workload, args.seed, args.seconds,
                                   rundir, oracle, spans_path)
        else:
            run = run_serve(args.workload, args.seed, args.seconds, env,
                            rundir, oracle)
    finally:
        shutil.rmtree(rundir, ignore_errors=True)
    record = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "host": host_metadata(),
        "attempted": run.attempted, "failed": run.failed,
        "error_rate": run.failed / max(run.attempted, 1),
        "metrics": {name: {"value": value, "unit": unit,
                           "samples": run.samples[name]}
                    for name, (value, unit) in run.metrics.items()},
        "notes": run.notes,
    }
    with open(os.path.join(RESULTS, stem + ".json"), "w") as handle:
        json.dump(record, handle, indent=1, sort_keys=True)
    host = record["host"]
    print(f"# {args.workload} seed={args.seed} trace={args.trace} "
          f"cores={host['cores']} python={host['python']} "
          f"git={host['git_sha']} src={host['source_sha256'][:12]} "
          f"notes={json.dumps(run.notes, sort_keys=True)}")
    for name, (value, unit) in run.metrics.items():
        print(f"{name:34s} {value:14.6g} {unit:10s} n={run.samples[name]}")
    print(f"{'error_rate':34s} {record['error_rate']:14.6g} {'ratio':10s} "
          f"n={run.attempted}")
    correct = run.failed == 0 and bool(run.metrics)
    print(json.dumps({
        "correct": correct, "attempted": max(run.attempted, 1),
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in run.metrics.items()},
    }))
    return 0 if run.metrics else 1


def run_all(args) -> int:
    """Every workload, each in its own fresh interpreter."""
    totals = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        completed = subprocess.run(
            ["python3", os.path.abspath(__file__), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True,
        )
        lines = completed.stdout.strip().splitlines()
        if completed.returncode != 0 or not lines:
            sys.stderr.write(completed.stderr)
            return completed.returncode or 1
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        totals["correct"] = totals["correct"] and result["correct"]
        totals["attempted"] += result["attempted"]
        totals["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            totals["metrics"][f"{workload}/{name}"] = metric
    print(json.dumps(totals))
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        sys.stderr.write(f"perfbench: no repro sources under {SRC}; run from "
                         "a checkout of the repository\n")
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
