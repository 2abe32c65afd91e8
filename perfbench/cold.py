"""Cold-workload child: one fresh interpreter that runs a fixed cell set.

Each cell gets a fresh :class:`repro.api.Session`, the way
``repro.harness.tasks`` runs grid cells, so every query pays its full
construction cost.  The parent (``run.py``) starts this script, times it to
its ``ready`` line (interpreter start plus imports: the set-up), sends one
JSON config line and reads one JSON report from the last stdout line.

Untraced, every cell runs in its own child forked from this interpreter
after the imports — as the harness forks a child per grid cell — so a
cell's time and memory never depend on which cells ran before it (module
caches, heap fragmentation, the previous cell's teardown).  The traced run
keeps the cells in this process, where the tracer lives.

``python3 perfbench/cold.py --probe`` stops after the ready line; it is how
the parent samples set-up time more than once per run.
"""

from __future__ import annotations

import gc
import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from repro.api import Scenario, Session  # noqa: E402

import layers  # noqa: E402


def _query(op, scenario):
    """Run one cell on a fresh session: (result or None, error or None, session)."""
    session = Session()
    try:
        return session.query(op, Scenario.from_json(scenario)), None, session
    except Exception as exc:  # a failed cell is counted, not fatal
        return None, f"{type(exc).__name__}: {exc}", session


def _forked_cell(op, scenario):
    """One cell in a forked child: (latency, cpu, result JSON, error, maxrss KiB)."""
    read_end, write_end = os.pipe()
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            os.close(read_end)
            cpu_start, start = time.process_time(), time.perf_counter()
            result, error, _ = _query(op, scenario)
            latency = time.perf_counter() - start
            cpu = time.process_time() - cpu_start
            payload = [latency, cpu,
                       result.to_json() if result is not None else None, error]
            with os.fdopen(write_end, "w") as pipe:
                json.dump(payload, pipe)
            code = 0
        finally:
            os._exit(code)
    os.close(write_end)
    with os.fdopen(read_end) as pipe:
        data = pipe.read()
    _, status, usage = os.wait4(pid, 0)
    if os.waitstatus_to_exitcode(status) != 0 or not data:
        return 0.0, 0.0, None, f"cell child exited with status {status}", usage.ru_maxrss
    latency, cpu, result, error = json.loads(data)
    return latency, cpu, result, error, usage.ru_maxrss


def _run_forked(cells):
    report = {"latencies": [], "cpu": [], "results": [], "maxrss_kib": 0}
    for op, scenario in cells:
        latency, cpu, result, error, maxrss = _forked_cell(op, scenario)
        report["latencies"].append(latency)
        report["cpu"].append(cpu)
        report["results"].append([op, scenario, result, error])
        report["maxrss_kib"] = max(report["maxrss_kib"], maxrss)
    return report


def _run_in_process(cells, log):
    """One pass in this process: latencies, results, session stats.

    The previous cell's session is dropped and collected outside the timed
    region, as a forked grid cell never pays its predecessor's teardown.
    """
    latencies, outcomes, stats = [], [], []
    for index, (op, scenario) in enumerate(cells):
        gc.collect()
        root = log.root("bench.cell", f"cell-{index}") if log else None
        start = time.perf_counter()
        result, error, session = _query(op, scenario)
        latencies.append(time.perf_counter() - start)
        if root is not None:
            log.exit(root)
        outcomes.append((result, error))
        stats.append(session.stats())
        del session
    return latencies, outcomes, stats


def _session_delta(stats):
    return {
        "hits": sum(s.hits for s in stats),
        "misses": sum(s.misses for s in stats),
        "coalesced": sum(s.coalesced for s in stats),
    }


def _encode(cells, outcomes):
    return [
        [op, scenario, result.to_json() if result is not None else None, error]
        for (op, scenario), (result, error) in zip(cells, outcomes)
    ]


def _traced(cells, spans_path):
    """One untraced pass prices the tracing; then one traced pass."""
    untraced_latencies, untraced, _ = _run_in_process(cells, None)
    log = layers.Tracer()
    layers.install(log)
    try:
        latencies, outcomes, stats = _run_in_process(cells, log)
    finally:
        layers.uninstall()
    log.write(spans_path)
    metrics = layers.layer_metrics(log, _session_delta(stats), {},
                                   sum(latencies) / sum(untraced_latencies))
    return {
        "latencies": latencies,
        "results": _encode(cells, untraced) + _encode(cells, outcomes),
        "layers": {name: list(value) for name, value in metrics.items()},
    }


def main() -> int:
    print("ready", flush=True)
    if "--probe" in sys.argv:
        return 0
    config = json.loads(sys.stdin.readline())
    if config["trace"]:
        report = _traced(config["cells"], config["spans_path"])
    else:
        report = _run_forked(config["cells"])
    print(json.dumps(report), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
