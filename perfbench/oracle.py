"""Correctness oracle: expected result digests per (op, scenario).

``expected.json`` beside this file maps every query any workload can send
to the sha256 digest of its result's *semantic* fields — state count, spec
verdicts, optimality/late points, earliest condition time, EBA iterations
and convergence — as the seed code computed them.  Cache statistics,
worker labels, engine names and schema tags are not part of a result's
meaning and are left out, so a response matches whether it came from a
cold build, the session cache or the artefact store.

Regenerate (only when results are meant to change) with::

    python3 perfbench/oracle.py
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
import time
from typing import Dict, Mapping

HERE = os.path.dirname(os.path.abspath(__file__))
EXPECTED_PATH = os.path.join(HERE, "expected.json")

#: The result fields a digest covers (absent fields digest as null).
DIGEST_FIELDS = (
    "type", "task", "exchange", "failures", "num_agents", "max_faulty",
    "states", "spec", "rounds", "protocol", "implementation_ok", "optimal",
    "sound", "late_points", "earliest_condition_time", "iterations",
    "converged",
)


def query_key(op: str, scenario: Mapping[str, object]) -> str:
    return json.dumps({"op": op, "scenario": scenario}, sort_keys=True)


def project(result: Mapping[str, object]) -> Dict[str, object]:
    return {name: result.get(name) for name in DIGEST_FIELDS}


def digest(result: Mapping[str, object]) -> str:
    canonical = json.dumps(project(result), sort_keys=True)
    return hashlib.sha256(canonical.encode()).hexdigest()


class Oracle:
    """Expected digests, loaded once; ``matches`` is the per-response check."""

    def __init__(self, path: str = EXPECTED_PATH) -> None:
        with open(path) as handle:
            self.expected: Dict[str, Dict[str, object]] = json.load(handle)

    def matches(self, op: str, scenario: Mapping[str, object],
                result: Mapping[str, object]) -> bool:
        if not isinstance(result, Mapping):
            return False
        entry = self.expected.get(query_key(op, scenario))
        return entry is not None and entry["digest"] == digest(result)


def _regenerate() -> None:
    sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
    from repro.api import Scenario, Session

    import workloads

    queries = (workloads.COLD_CHECK + workloads.COLD_SYNTHESIZE
               + workloads.WARM_QUERIES + workloads.CHURN_QUERIES)
    expected: Dict[str, Dict[str, object]] = {}
    for op, scenario in queries:
        key = query_key(op, scenario)
        if key in expected:
            continue
        start = time.perf_counter()
        result = Session().query(op, Scenario.from_json(scenario)).to_json()
        print(f"{time.perf_counter() - start:8.3f}s {key}", flush=True)
        expected[key] = {"digest": digest(result), "result": project(result)}
    with open(EXPECTED_PATH, "w") as handle:
        json.dump(expected, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {len(expected)} digests to {EXPECTED_PATH}")


if __name__ == "__main__":
    _regenerate()
