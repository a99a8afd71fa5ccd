"""Host-time span tracer for the benchmark's traced run.

The tracer wraps the functions listed in ``layers.TARGETS`` for the length
of one scenario run and restores them afterwards.  Every wrapped call is a
span: it is pushed on a stack, so it knows its parent, and on exit it adds
its duration to the parent's child time.  A span's self time is its duration
minus the time its child spans and full garbage collections cover.  Spans of
the names in ``layers.KEPT``
are kept as records and written out at the end; the rest are aggregated per
name (count, inclusive and self time, parent names).

The stack's bottom frame is the current *phase* (setup, drain, report,
analyze; see ``workloads.PhaseClock``); phases switch between calls, so the phase frame's
child time is the time wrapped calls account for in that phase.
"""

from __future__ import annotations

import importlib
import itertools
import json
import time
from collections import Counter
from typing import Callable, Dict, List, Optional

from layers import KEPT, TARGETS

_clock = time.perf_counter_ns


class SpanStat:
    """Aggregate of every call of one span name."""

    __slots__ = ("calls", "incl_ns", "self_ns", "parents")

    def __init__(self) -> None:
        self.calls = 0
        self.incl_ns = 0
        self.self_ns = 0
        self.parents: Counter = Counter()


def _resolve(target: str):
    """``"module:Class.attr"`` -> (owner object, attribute name)."""
    module_name, _, path = target.partition(":")
    owner = importlib.import_module(module_name)
    *chain, attr = path.split(".")
    for name in chain:
        owner = getattr(owner, name)
    return owner, attr


class Tracer:
    """Span stack, per-name aggregates, kept span records, and observers."""

    def __init__(self) -> None:
        self.stats: Dict[str, SpanStat] = {name: SpanStat() for name in TARGETS}
        self.spans: List[tuple] = []
        self._ids = itertools.count(1)
        # frame: [child_ns, span_id, name]; the bottom frame is the phase
        self._stack: List[list] = [[0, 0, "idle"]]
        self.phase_attributed_ns: Dict[str, int] = {}
        #: per phase, the self time each span name spent in it
        self.phase_self_ns: Dict[str, Dict[str, int]] = {}
        self._self_mark: Dict[str, int] = {}
        #: host time per phase, full collections included (spans include them too)
        self.phase_wall_ns: Dict[str, int] = {}
        #: full-collection time per phase (see ``note_gc``)
        self.phase_gc_ns: Dict[str, int] = {}
        self._phase_start = _clock()
        self.engine = None
        self.pending_peak = 0
        self.victims = 0
        self.queries = 0
        self.walk_hops = 0
        self.walks = 0
        self.walks_ok = 0
        self._patches: List[tuple] = []

    # -- phases --------------------------------------------------------------------

    def enter_phase(self, name: str) -> None:
        """Close the current phase (only valid between wrapped calls)."""
        if len(self._stack) != 1:
            raise RuntimeError("phase switch inside a traced call")
        frame = self._stack[0]
        phase = frame[2]
        self.phase_attributed_ns[phase] = self.phase_attributed_ns.get(phase, 0) + frame[0]
        own = self.phase_self_ns.setdefault(phase, {})
        for span, stat in self.stats.items():
            own[span] = own.get(span, 0) + stat.self_ns - self._self_mark.get(span, 0)
            self._self_mark[span] = stat.self_ns
        now = _clock()
        self.phase_wall_ns[phase] = self.phase_wall_ns.get(phase, 0) + now - self._phase_start
        self._phase_start = now
        self._stack[0] = [0, 0, name]

    def note_gc(self, elapsed_ns: int) -> None:
        """A full collection ran inside the innermost open span (or phase):
        charge it as a child, so no layer's self time holds it."""
        self._stack[-1][0] += elapsed_ns
        phase = self._stack[0][2]
        self.phase_gc_ns[phase] = self.phase_gc_ns.get(phase, 0) + elapsed_ns

    # -- wrapping ------------------------------------------------------------------

    def wrap(self, name: str, fn: Callable, observe: Optional[Callable] = None) -> Callable:
        stat = self.stats.setdefault(name, SpanStat())
        stack = self._stack
        ids = self._ids
        spans = self.spans if name in KEPT else None
        clock = _clock

        def traced(*args, **kwargs):
            parent = stack[-1]
            frame = [0, next(ids), name]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                elapsed = end - start
                parent[0] += elapsed
                stat.calls += 1
                stat.incl_ns += elapsed
                stat.self_ns += elapsed - frame[0]
                stat.parents[parent[2]] += 1
                if spans is not None:
                    spans.append(
                        (frame[1], parent[1], name, parent[2], start, elapsed, elapsed - frame[0])
                    )
            if observe is not None:
                observe(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def call(self, name: str, fn: Callable, *args):
        """Run one of the benchmark's own calls as a span."""
        return self.wrap(name, fn)(*args)

    def install(self) -> None:
        """Patch every target; ``uninstall`` puts the originals back."""
        observers = {
            "dht.find_providers": self._observe_walk,
            "dht.provide": self._observe_walk,
            "connmgr.trim": self._observe_trim,
            "crawler.crawl": self._observe_crawl,
            "measurement.poll": self._observe_poll,
        }
        for name, targets in TARGETS.items():
            for target in targets:
                owner, attr = _resolve(target)
                raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
                if isinstance(raw, classmethod):
                    patched = classmethod(self.wrap(name, raw.__func__, observers.get(name)))
                else:
                    patched = self.wrap(name, raw, observers.get(name))
                self._patches.append((owner, attr, raw))
                setattr(owner, attr, patched)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, raw = self._patches.pop()
            setattr(owner, attr, raw)

    # -- observers (outside the timed region of the call) -------------------------

    def _observe_walk(self, result) -> None:
        self.walks += 1
        self.walk_hops += result.hops
        self.walks_ok += bool(result.succeeded())

    def _observe_trim(self, victims) -> None:
        self.victims += len(victims)

    def _observe_crawl(self, snapshot) -> None:
        self.queries += snapshot.queries_sent

    def _observe_poll(self, _snapshot) -> None:
        if self.engine is not None:
            self.pending_peak = max(self.pending_peak, self.engine.pending())

    # -- output --------------------------------------------------------------------

    def durations_ms(self, name: str) -> List[float]:
        return sorted(span[5] / 1e6 for span in self.spans if span[2] == name)

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span_id, parent_id, name, parent, start, elapsed, own in self.spans:
                handle.write(json.dumps({
                    "id": span_id, "parent_id": parent_id, "name": name, "parent": parent,
                    "start_ns": start, "duration_ns": elapsed, "self_ns": own,
                }) + "\n")
            for name, stat in sorted(self.stats.items()):
                handle.write(json.dumps({
                    "aggregate": name, "calls": stat.calls, "incl_ns": stat.incl_ns,
                    "self_ns": stat.self_ns, "parents": dict(sorted(stat.parents.items())),
                }) + "\n")
