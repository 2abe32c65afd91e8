"""The four benchmark workloads: fixed cell sets and seeded request mixes.

Everything here is plain data plus ``random.Random(seed)`` draws, so the
same seed always yields the same cell order and the same request stream.
Scenarios are JSON documents in the shape ``POST /check`` accepts; the
program under test sees nothing but these documents.
"""

from __future__ import annotations

import json
import random
from typing import Dict, Iterator, List, Tuple

#: One unit of work: (op, scenario document); op is check|temporal|synthesize.
Query = Tuple[str, Dict[str, object]]


def _sba(exchange: str, n: int, t: int, **extra) -> Dict[str, object]:
    return dict(exchange=exchange, num_agents=n, max_faulty=t, **extra)


def _table1_check_cells() -> List[Query]:
    cells: List[Query] = []
    for exchange in ("floodset", "count"):
        for n in (2, 3, 4):
            for t in range(1, n + 1):
                if exchange == "count" and n == 4 and t > 2:
                    continue  # 8+ s each; count n=5 t=2 covers the scale
                cells.append(("check", _sba(exchange, n, t)))
    cells.append(("check", _sba("floodset", 5, 3)))
    cells.append(("check", _sba("count", 5, 2)))
    return cells


def _table2_check_cells() -> List[Query]:
    cells: List[Query] = []
    for exchange in ("diff", "dwork-moses"):
        for t in (1, 2):
            for rounds in range(1, t + 2):
                cells.append(("check", _sba(exchange, 3, t, rounds=rounds)))
    cells.append(("check", _sba("diff", 4, 2, rounds=3)))
    return cells


#: cold-check: Table 1 and Table 2 model-checking cells plus one temporal
#: ablation cell, each on a fresh Session.  Includes the two cells the
#: roadmap targets, floodset n=5 t=3 and count n=5 t=2.
COLD_CHECK: List[Query] = (
    _table1_check_cells()
    + _table2_check_cells()
    + [("temporal", _sba("floodset", 4, 3)),
       ("temporal", _sba("dwork-moses", 3, 2))]
)


def _cold_synthesize_cells() -> List[Query]:
    cells: List[Query] = []
    for n, t in ((2, 1), (3, 1), (3, 2), (4, 1), (4, 2), (4, 3), (5, 3)):
        cells.append(("synthesize", _sba("floodset", n, t)))
    for n, t in ((3, 1), (3, 2)):
        cells.append(("synthesize", _sba("count", n, t)))
    for exchange in ("emin", "ebasic"):
        for failures in ("crash", "sending"):
            for n, t in ((2, 1), (3, 1), (3, 2), (4, 2)):
                if n == 2 and exchange == "ebasic":
                    continue
                if (exchange, failures, n) == ("ebasic", "crash", 4):
                    continue  # 0.8 s; ebasic n=4 t=2 sending covers n=4
                cells.append(
                    ("synthesize", _sba(exchange, n, t, failures=failures))
                )
    cells.append(("synthesize", _sba("emin", 3, 2, failures="general")))
    return cells


#: cold-synthesize: Table 1 synthesis, Table 3 EBA (emin/ebasic x
#: crash/sending) and one general-omissions ablation cell.
COLD_SYNTHESIZE: List[Query] = _cold_synthesize_cells()

# Both cold sets have an odd number of cells, so the median and the tail
# rank each fall on one cell rather than averaging across the (wide) gap
# between two cells.
assert len(COLD_CHECK) % 2 == 1 and len(COLD_SYNTHESIZE) % 2 == 1

#: cold-check cells that run once per run: each takes over a second on the
#: seed code, and count n=5 t=2 alone takes ~14 s.
COLD_ONCE: List[Query] = [
    ("check", _sba("count", 5, 2)),
    ("check", _sba("floodset", 5, 3)),
    ("check", _sba("diff", 4, 2, rounds=3)),
    ("check", _sba("count", 4, 2)),
]

#: Every other cold cell runs once per this many seconds of --seconds (at
#: least once), so every run of a workload does the same work and each
#: small cell's latency is a median over several runs of it.
REPEAT_SECONDS = 4.0


def cold_schedule(cells: List[Query], seconds: float) -> List[int]:
    """Cell indices in run order: the first pass runs every cell, later
    passes every cell but the :data:`COLD_ONCE` ones."""
    schedule = list(range(len(cells)))
    for _ in range(max(1, round(seconds / REPEAT_SECONDS)) - 1):
        schedule += [i for i, cell in enumerate(cells) if cell not in COLD_ONCE]
    return schedule


#: warm-serve: small scenarios, all resident after the set-up pass (the
#: session cache is sized so that nothing is evicted).
WARM_CACHE_SIZE = 256
WARM_SCENARIOS: List[Dict[str, object]] = [
    _sba("floodset", 3, 1),
    _sba("floodset", 3, 2),
    _sba("floodset", 4, 2),
    _sba("count", 3, 1),
    _sba("diff", 3, 2, rounds=2),
    _sba("dwork-moses", 3, 1, rounds=2),
    _sba("emin", 3, 1),
    _sba("ebasic", 3, 1, failures="crash"),
]


def _is_sba(scenario: Dict[str, object]) -> bool:
    return scenario["exchange"] not in ("emin", "ebasic")


def _queries_of(scenarios: List[Dict[str, object]]) -> List[Query]:
    queries: List[Query] = []
    for scenario in scenarios:
        queries.append(("check", scenario))
        if _is_sba(scenario):
            queries.append(("temporal", scenario))
        queries.append(("synthesize", scenario))
    return queries


#: Every (op, scenario) the warm-serve mix can ask for.
WARM_QUERIES: List[Query] = _queries_of(WARM_SCENARIOS)


def _churn_queries() -> List[Query]:
    # Pre-fork workers each compact the store after 64 of their own writes,
    # so the working set must exceed the bound by well over 2 x 64 keys for
    # misses, rebuilds, writes and compactions to recur.  Horizons (rounds)
    # and value domains multiply the small scenarios into enough keys; each
    # rebuilds cold in under 0.1 s, so no single slow key dominates a run.
    queries: List[Query] = []
    for exchange in ("floodset", "count", "diff", "dwork-moses"):
        for n, values in ((2, 2), (2, 3), (3, 2)):
            for t in (1, 2):
                for rounds in (None, 1, 2, 3):
                    if (n == 3 and t == 2 and rounds in (None, 3)
                            and exchange != "floodset"):
                        continue  # 0.1-0.3 s cold: too slow for this mix
                    if values != 2 and exchange == "dwork-moses":
                        continue  # defined for binary values only
                    extra = {} if rounds is None else {"rounds": rounds}
                    if values != 2:
                        extra["num_values"] = values
                    scenario = _sba(exchange, n, t, **extra)
                    queries.append(("check", scenario))
                    queries.append(("synthesize", scenario))
    for t in (1, 2):
        queries.append(("temporal", _sba("floodset", 3, t)))
    queries.append(("temporal", _sba("dwork-moses", 3, 1)))
    for exchange in ("emin", "ebasic"):
        for n in (2, 3):
            for failures in ("crash", "sending"):
                scenario = _sba(exchange, n, 1, failures=failures)
                queries.append(("check", scenario))
                queries.append(("synthesize", scenario))
    return queries


#: prefork-store-churn: ~200 small (n <= 3) keys against a session cache of
#: CHURN_CACHE_SIZE entries and a store bounded to CHURN_STORE_ENTRIES.
CHURN_QUERIES: List[Query] = _churn_queries()
CHURN_CACHE_SIZE = 8
CHURN_STORE_ENTRIES = 16
CHURN_WORKERS = 2

#: Client threads (= connections) of the serve workloads.
CLIENTS = 2


def seeded_order(cells: List[Query], seed: int) -> List[Query]:
    """The cell set in the seed's order (the set itself never changes)."""
    order = list(cells)
    random.Random(seed).shuffle(order)
    return order


#: One HTTP request: (path, body, the (op, scenario) results it must carry).
Request = Tuple[str, Dict[str, object], List[Query]]


def query_request(op: str, scenario: Dict[str, object]) -> Request:
    if op == "synthesize":
        return "/synthesize", {"scenario": scenario}, [(op, scenario)]
    body = {"scenario": scenario, "temporal": op == "temporal"}
    return "/check", body, [(op, scenario)]


def _deck(rng: random.Random, items: List[Request]) -> Iterator[Request]:
    """Endless reshuffled passes over ``items``: every run draws the same mix
    in a seed-dependent order, so runs differ in order, not in content."""
    while True:
        order = list(items)
        rng.shuffle(order)
        yield from order


#: Batches per warm-serve deck (one deck holds every single query once).
WARM_BATCHES = 4


def warm_requests(seed: int, client: int) -> Iterator[Request]:
    """The warm-serve mix for one client: check, temporal, synthesize, batch."""
    rng = random.Random(f"warm-serve:{seed}:{client}")
    singles = [query_request(op, scenario) for op, scenario in WARM_QUERIES]
    while True:
        deck = list(singles)
        for _ in range(WARM_BATCHES):
            batch = [rng.choice(WARM_QUERIES) for _ in range(rng.randint(2, 4))]
            body = {"requests": [{"op": op, "scenario": s} for op, s in batch]}
            deck.append(("/batch", body, batch))
        rng.shuffle(deck)
        yield from deck


def churn_requests(seed: int, client: int) -> Iterator[Request]:
    """Reshuffled passes over the churn working set for one client."""
    rng = random.Random(f"prefork-store-churn:{seed}:{client}")
    return _deck(rng, [query_request(op, s) for op, s in CHURN_QUERIES])


def encode(body: Dict[str, object]) -> bytes:
    return json.dumps(body, sort_keys=True).encode()
