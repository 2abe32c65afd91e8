"""Outside-in tracing: spans around each layer's public entry points.

The program is not changed.  :func:`install` swaps the public functions and
methods of each layer (named after its module) for thin wrappers that
record a span — name, start, end, parent span and request ID — into an
in-memory :class:`Tracer`; :func:`uninstall` puts the originals back.
Names bound by ``from x import y`` are patched where they are looked up
(e.g. ``repro.api.session.build_space``).  Hot helpers whose call count is
the interesting number (``BAModel.successors``) are only counted, so the
traced run does not drown the work it measures.

A span's self time is its duration minus the time covered by its child
spans; children of one span run on the same thread, so they never overlap.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from typing import Callable, Dict, List, Optional, Tuple


class Span:
    __slots__ = ("id", "name", "start", "end", "parent", "request", "child")

    def __init__(self, span_id: int, name: str, start: float,
                 parent: Optional[int], request: Optional[str]) -> None:
        self.id = span_id
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.request = request
        self.child = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        return self.duration - self.child


class Tracer:
    """In-memory span recorder; one per traced run."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.counts: Dict[str, int] = {}
        self._count_lock = threading.Lock()
        self._ids = itertools.count()
        self._local = threading.local()
        #: request ID -> root span of that request (cross-thread parent).
        self._roots: Dict[str, Span] = {}

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def enter(self, name: str, request: Optional[str] = None) -> Span:
        stack = self._stack()
        parent = stack[-1] if stack else None
        if parent is None and request is not None:
            parent = self._roots.get(request)
        if request is None and parent is not None:
            request = parent.request
        span = Span(next(self._ids), name, time.perf_counter(),
                    parent.id if parent is not None else None, request)
        stack.append(span)
        self.spans.append(span)
        return span

    def exit(self, span: Span) -> None:
        span.end = time.perf_counter()
        stack = self._stack()
        stack.pop()
        if stack:
            stack[-1].child += span.duration

    def root(self, name: str, request: str) -> Span:
        """Open a request's root span (the client side of a request)."""
        span = self.enter(name, request)
        self._roots[request] = span
        return span

    def count(self, name: str, amount: int = 1) -> None:
        with self._count_lock:
            self.counts[name] = self.counts.get(name, 0) + amount

    def write(self, path: str) -> None:
        by_id = {span.id: span for span in self.spans}
        with open(path, "w") as handle:
            for span in self.spans:
                parent = by_id.get(span.parent) if span.parent is not None else None
                handle.write(json.dumps({
                    "id": span.id, "name": span.name,
                    "start": round(span.start, 7), "end": round(span.end, 7),
                    "parent": span.parent,
                    "parent_name": parent.name if parent else None,
                    "request": span.request,
                }) + "\n")


def _spanned(tracer: Tracer, name: str, fn: Callable) -> Callable:
    def wrapper(*args, **kwargs):
        span = tracer.enter(name)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.exit(span)
    return wrapper


def _counted(tracer: Tracer, name: str, fn: Callable) -> Callable:
    def wrapper(*args, **kwargs):
        tracer.count(name)
        return fn(*args, **kwargs)
    return wrapper


class _Patches:
    """Remembers every replaced attribute so it can be restored."""

    def __init__(self) -> None:
        self._saved: List[Tuple[object, str, object]] = []

    def replace(self, owner: object, attr: str, value: object) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def restore(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()


_ACTIVE: Optional[_Patches] = None


def install(tracer: Tracer) -> None:
    """Wrap every layer's entry points; spans go to ``tracer``."""
    global _ACTIVE
    from repro.api import artefact_store, results, scenario, service, session
    from repro.core import bitset, checker, synthesis
    from repro.systems import model, space

    patches = _Patches()

    def span(owner, attr, name):
        patches.replace(owner, attr, _spanned(tracer, name, getattr(owner, attr)))

    # systems.space: whole-space builds, incremental levels, states built.
    span(session, "build_space", "space.build")
    original_extend = space.LevelledSpace.extend

    def extend(self):
        entered = tracer.enter("space.extend")
        try:
            level = original_extend(self)
        finally:
            tracer.exit(entered)
        tracer.count("space.states", len(self.levels[level]))
        return level

    patches.replace(space.LevelledSpace, "extend", extend)
    original_initial = space.LevelledSpace.__dict__["initial"].__func__

    def initial(cls, *args, **kwargs):
        entered = tracer.enter("space.extend")
        try:
            built = original_initial(cls, *args, **kwargs)
        finally:
            tracer.exit(entered)
        tracer.count("space.states", len(built.levels[0]))
        return built

    patches.replace(space.LevelledSpace, "initial", classmethod(initial))
    patches.replace(model.BAModel, "successors", _counted(
        tracer, "space.successor_calls", model.BAModel.successors))

    # Space masks (systems.space, consumed by the checker).
    for attr, name in (("observation_groups", "masks.observation"),
                       ("observation_masks", "masks.observation"),
                       ("nonfaulty_mask", "masks.nonfaulty"),
                       ("atom_mask", "masks.atom"),
                       ("predecessor_masks", "masks.predecessor")):
        span(space.LevelledSpace, attr, name)

    # spec, core.checker, core.bitset, kbp.
    span(session, "sba_spec_formulas", "spec.build")
    span(session, "eba_spec_formulas", "spec.build")
    span(checker.ModelChecker, "check_bits", "checker.eval")
    span(checker.PackedQueryMixin, "holds_initially", "checker.eval")
    original_blocks_within = bitset.blocks_within
    blocks_within = _spanned(tracer, "bitset.blocks_within", original_blocks_within)
    for owner in (bitset, checker, synthesis):
        patches.replace(owner, "blocks_within", blocks_within)
    span(session, "verify_sba_implementation", "kbp.verify")

    # core.synthesis and core.predicates.
    span(synthesis, "synthesize_sba", "synthesis.run")
    span(synthesis, "synthesize_eba", "synthesis.run")
    patches.replace(synthesis, "_eba_pass", _counted(
        tracer, "synthesis.eba_passes", synthesis._eba_pass))
    span(synthesis, "build_predicate", "predicates.build")

    # api.service: handler spans join the client's request by trace ID.
    handler = service.ReproRequestHandler
    for attr in ("do_GET", "do_POST"):
        original = getattr(handler, attr)

        def handle(self, _original=original):
            entered = tracer.enter("service.handler",
                                   self.headers.get("X-Repro-Trace-Id"))
            try:
                return _original(self)
            finally:
                tracer.exit(entered)

        patches.replace(handler, attr, handle)
    patches.replace(service.ReproServer, "get_request", _counted(
        tracer, "service.connections", service.ReproServer.get_request))

    # api.scenario, api.session, api.results.
    original_from_json = scenario.Scenario.__dict__["from_json"].__func__

    def from_json(cls, data):
        entered = tracer.enter("scenario.validate")
        try:
            return original_from_json(cls, data)
        finally:
            tracer.exit(entered)

    patches.replace(scenario.Scenario, "from_json", classmethod(from_json))
    for attr in ("check", "check_temporal", "synthesize"):
        span(session.Session, attr, "session.query")
    span(results.CheckResult, "to_json", "serialise")
    span(results.SynthesisResult, "to_json", "serialise")

    # obs: per-request stats publication (only where it publishes).
    original_publish = service.ReproServer.publish_stats

    def publish_stats(self):
        if self.stats_dir is None or self.worker_label is None:
            return original_publish(self)
        entered = tracer.enter("stats.publish")
        try:
            return original_publish(self)
        finally:
            tracer.exit(entered)

    patches.replace(service.ReproServer, "publish_stats", publish_stats)

    # api.artefact_store.
    store = artefact_store.ArtefactStore
    span(store, "get_result", "store.get")
    span(store, "put_result", "store.put")
    span(store, "compact", "store.compact")

    _ACTIVE = patches


def uninstall() -> None:
    global _ACTIVE
    if _ACTIVE is not None:
        _ACTIVE.restore()
        _ACTIVE = None


def _totals(tracer: Tracer) -> Dict[str, Tuple[int, float]]:
    totals: Dict[str, Tuple[int, float]] = {}
    for span in tracer.spans:
        calls, seconds = totals.get(span.name, (0, 0.0))
        totals[span.name] = (calls + 1, seconds + span.self_time)
    return totals


def layer_metrics(tracer: Tracer, session_delta: Dict[str, int],
                  store_delta: Dict[str, int], overhead_ratio: float
                  ) -> Dict[str, Tuple[float, str]]:
    """Every per-layer metric as ``name -> (value, unit)``.

    ``*_s`` metrics are run totals of self time; ``*_ms``/``*_us`` metrics
    of the serving layers are means per call.  A layer the workload never
    enters reports 0.  ``session_delta``/``store_delta`` are the counter
    changes of the sessions and stores the traced run used.
    """
    totals = _totals(tracer)
    counts = tracer.counts

    def calls(name: str) -> int:
        return totals.get(name, (0, 0.0))[0]

    def seconds(*names: str) -> float:
        return sum(totals.get(name, (0, 0.0))[1] for name in names)

    def mean(name: str, scale: float) -> float:
        return seconds(name) * scale / calls(name) if calls(name) else 0.0

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    build_s = seconds("space.build", "space.extend")
    states = counts.get("space.states", 0)
    requests = calls("service.handler")
    # The handler publishes stats after its reply is written, so that
    # child span is not part of what the client waited for.
    published: Dict[int, float] = {}
    for span in tracer.spans:
        if span.name == "stats.publish" and span.parent is not None:
            published[span.parent] = published.get(span.parent, 0.0) + span.duration
    handlers = {s.request: s.duration - published.get(s.id, 0.0)
                for s in tracer.spans if s.name == "service.handler"}
    waits = [s.duration - handlers[s.request] for s in tracer.spans
             if s.name == "client.request" and s.request in handlers]
    mask_names = ("masks.observation", "masks.nonfaulty", "masks.atom",
                  "masks.predecessor")
    lookups = session_delta.get("hits", 0) + session_delta.get("misses", 0)
    store_lookups = store_delta.get("hits", 0) + store_delta.get("misses", 0)
    return {
        "space.build_s": (build_s, "s"),
        "space.states": (states, "count"),
        "space.states_per_s": (ratio(states, build_s), "1/s"),
        "space.successor_calls": (counts.get("space.successor_calls", 0), "count"),
        "masks.observation_s": (seconds("masks.observation"), "s"),
        "masks.nonfaulty_s": (seconds("masks.nonfaulty"), "s"),
        "masks.atom_s": (seconds("masks.atom"), "s"),
        "masks.predecessor_s": (seconds("masks.predecessor"), "s"),
        "masks.calls": (sum(calls(name) for name in mask_names), "count"),
        "spec.build_ms": (seconds("spec.build") * 1e3, "ms"),
        "checker.eval_s": (seconds("checker.eval"), "s"),
        "checker.formulas": (calls("checker.eval"), "count"),
        "bitset.blocks_within_s": (seconds("bitset.blocks_within"), "s"),
        "bitset.blocks_within_calls": (calls("bitset.blocks_within"), "count"),
        "kbp.verify_s": (seconds("kbp.verify"), "s"),
        "synthesis.self_s": (seconds("synthesis.run"), "s"),
        "synthesis.eba_passes": (counts.get("synthesis.eba_passes", 0), "count"),
        "predicates.build_s": (seconds("predicates.build"), "s"),
        "predicates.calls": (calls("predicates.build"), "count"),
        "service.handler_ms": (mean("service.handler", 1e3), "ms"),
        "service.wire_wait_ms": (
            ratio(sum(waits), len(waits)) * 1e3, "ms"),
        "service.connections_per_request": (
            ratio(counts.get("service.connections", 0), requests), "ratio"),
        "scenario.validate_us": (mean("scenario.validate", 1e6), "us"),
        "session.query_us": (mean("session.query", 1e6), "us"),
        "session.hit_ratio": (
            ratio(session_delta.get("hits", 0), lookups), "ratio"),
        "session.builds": (session_delta.get("misses", 0), "count"),
        "session.coalesced": (session_delta.get("coalesced", 0), "count"),
        "serialise.us": (mean("serialise", 1e6), "us"),
        "stats.publish_ms": (mean("stats.publish", 1e3), "ms"),
        "stats.publish_per_request": (
            ratio(calls("stats.publish"), requests), "ratio"),
        "store.get_ms": (mean("store.get", 1e3), "ms"),
        "store.put_ms": (mean("store.put", 1e3), "ms"),
        "store.compact_ms": (mean("store.compact", 1e3), "ms"),
        "store.hit_ratio": (
            ratio(store_delta.get("hits", 0), store_lookups), "ratio"),
        "store.writes": (store_delta.get("writes", 0), "count"),
        "store.quarantined": (store_delta.get("quarantined", 0), "count"),
        "unattributed_s": (seconds("bench.cell", "session.query"), "s"),
        "trace.overhead_ratio": (overhead_ratio, "ratio"),
    }
