"""Layer table of the benchmark: what the traced run wraps, and what each
per-layer metric is expected to move.

``TARGETS`` maps a span name to the functions it wraps.  Each target is
``"module:attr"`` or ``"module:Class.attr"`` and names the function *where its
caller looks it up*: ``repro.simulation.behaviors`` imports
``iterative_find_providers`` by name, so the walk is wrapped there, not in
``repro.kademlia.dht``.  Spans named ``sweep.*`` and ``analysis.*`` are opened
by the benchmark itself around its own calls (see ``workloads.py``).

``ROLES`` gives, for every per-layer metric ``BENCHMARK.json`` declares, the
end-to-end metric and workload it should move and the (metric, workload)
pairing on which it should stay flat.
"""

from __future__ import annotations

from typing import Dict, Tuple

_NET = "repro.simulation.network:SimulatedNetwork"
_IPFS = "repro.ipfs.node:IpfsNode"
_HEAD = "repro.hydra.head:HydraHead"
_NETMODEL = "repro.netmodel.runtime:NetModelRuntime"
_BANDWIDTH = "repro.bandwidth.runtime:BandwidthRuntime"
_METRICS = "repro.obs.runtime:MetricsRuntime"
_HUB = "repro.obs.hub:MetricsHub"
_SPANS = "repro.obs.spans:SpanTracer"

TARGETS: Dict[str, Tuple[str, ...]] = {
    "population.generate": ("repro.simulation.scenario:generate_population",),
    "network.construct": (f"{_NET}.__init__",),
    "network.start": (f"{_NET}.start",),
    "routing_table.add_peer": ("repro.kademlia.routing_table:RoutingTable.add_peer",),
    "routing_table.closest_peers": (
        "repro.kademlia.routing_table:RoutingTable.closest_peers",
    ),
    "dht.find_providers": ("repro.simulation.behaviors:iterative_find_providers",),
    "dht.provide": (
        "repro.simulation.behaviors:iterative_provide",
        "repro.adversary.behaviors:iterative_provide",
    ),
    "bitswap.fetch": ("repro.ipfs.bitswap:BitswapEngine.fetch_from",),
    "netmodel.hooks": tuple(
        f"{_NETMODEL}.{name}"
        for name in ("on_dial", "on_rpc", "on_timed_rpc", "identify_delay", "dial", "clock")
    ) + ("repro.netmodel.runtime:WalkClock.finish",),
    "bandwidth.hooks": tuple(
        f"{_BANDWIDTH}.{name}"
        for name in (
            "on_rpc", "on_timed_rpc", "identify_delay", "plan_transfer", "commit_transfer"
        )
    ),
    "obs.metrics_hooks": tuple(
        f"{_METRICS}.{name}"
        for name in (
            "on_contact", "note_contact_made", "on_dial", "on_rpc", "on_timed_rpc",
            "on_identify_delivered",
        )
    ) + tuple(f"{_HUB}.{name}" for name in ("inc", "inc_at", "gauge", "observe", "advance")),
    "obs.spans": tuple(
        f"{_SPANS}.{name}"
        for name in (
            "begin", "begin_identify", "push", "pop", "leaf", "finish_root", "hop",
            "set_attempt", "backoff", "rpc", "transfer", "finish_identify",
        )
    ),
    "obs.finalize": (f"{_METRICS}.finalize", f"{_SPANS}.finalize"),
    "node.inbound": tuple(
        f"{owner}.{name}" for owner in (_IPFS, _HEAD)
        for name in ("handle_inbound_connection", "dial")
    ),
    "node.close": (f"{_IPFS}.close_connection", f"{_HEAD}.close_connection"),
    "node.identify": (f"{_IPFS}.receive_identify", f"{_HEAD}.receive_identify"),
    "node.tick": (f"{_IPFS}.tick", f"{_HEAD}.tick"),
    "connmgr.trim": ("repro.libp2p.connmgr:ConnectionManager.trim",),
    "measurement.record": (
        "repro.core.measurement:MeasurementRecorder.on_connected",
        "repro.core.measurement:MeasurementRecorder.on_disconnected",
    ),
    "measurement.poll": ("repro.core.measurement:PassiveMeasurement.poll",),
    "measurement.finalize": ("repro.core.measurement:PassiveMeasurement.finalize",),
    "crawler.crawl": ("repro.crawler.crawler:Crawler.crawl",),
    "network.dht_query": (f"{_NET}.dht_query",),
    "dataset.union": ("repro.core.records:MeasurementDataset.union",),
}

#: spans whose every call is kept as a record (for percentiles and the span
#: file); all other spans are aggregated per name, so millions of
#: ``add_peer`` calls cost a counter, not a list entry
KEPT = frozenset({
    "population.generate", "network.construct", "network.start",
    "dht.find_providers", "dht.provide", "bitswap.fetch", "crawler.crawl",
    "measurement.finalize", "dataset.union", "obs.finalize", "sweep.summarize",
    "analysis.netsize", "analysis.churn", "analysis.metadata", "analysis.timeseries",
})

#: layer groups whose drain self time the report compares, and the group each
#: drain-bound workload is built to load (setup-scale's target is its setup)
GROUPS: Dict[str, Tuple[str, ...]] = {
    "walks": ("dht.", "routing_table.closest_peers"),
    "bitswap": ("bitswap.",),
    "passive": ("node.", "connmgr.", "measurement."),
    "fabric": ("netmodel.", "bandwidth.", "obs."),
    "crawler": ("crawler.", "network.dht_query"),
}
TARGET_GROUP = {"passive-churn": "passive", "content-walks": "walks"}
FABRIC_HOOKS = ("netmodel.hooks_s", "bandwidth.hooks_s", "obs.metrics_hooks_s", "obs.spans_s")


_SETUP = ("setup_s and peak_rss_mb on setup-scale", "events_per_s on passive-churn")
_WALK = ("events_per_s on content-walks", "events_per_s on passive-churn")
_HOOK = ("events_per_s on content-walks", "events_per_s on passive-churn (hooks read 0 there)")
_PASSIVE = ("events_per_s on passive-churn", "setup_s on setup-scale")
_CRAWL = ("events_per_s on passive-churn", "events_per_s on content-walks (no crawler)")
_REPORT = ("report_s on passive-churn", "events_per_s on content-walks")
_ANALYZE = ("analyze_s on passive-churn", "events_per_s on content-walks")
_GC = ("setup_s and events_per_s on setup-scale", "setup_s on passive-churn")
_DIAG = ("none (a property of the trace)", "every end-to-end metric")


def _timed(name: str, role: Tuple[str, str], calls: bool = True) -> Dict[str, Tuple[str, str]]:
    names = [f"{name}_s"] + ([f"{name}.calls"] if calls else [])
    return dict.fromkeys(names, role)


def _walk(name: str) -> Dict[str, Tuple[str, str]]:
    return dict.fromkeys(
        [f"{name}_s", f"{name}.calls", f"{name}.p50_ms", f"{name}.p99_ms"], _WALK
    )


ROLES: Dict[str, Tuple[str, str]] = {
    **_timed("population.generate", _SETUP, calls=False),
    **_timed("network.construct", _SETUP, calls=False),
    **_timed("network.start", _SETUP, calls=False),
    **_timed("routing_table.add_peer", _SETUP),
    **_timed("routing_table.closest_peers", _WALK),
    **_walk("dht.find_providers"),
    **_walk("dht.provide"),
    "dht.hops_per_walk": _WALK,
    "dht.walk_ok_ratio": _WALK,
    **_timed("bitswap.fetch", _WALK),
    **_timed("netmodel.hooks", _HOOK),
    **_timed("bandwidth.hooks", _HOOK),
    **_timed("obs.metrics_hooks", _HOOK),
    **_timed("obs.spans", _HOOK),
    "obs.finalize_s": ("report_s on content-walks", "report_s on passive-churn"),
    **_timed("node.inbound", _PASSIVE),
    **_timed("node.close", _PASSIVE),
    **_timed("node.identify", _PASSIVE),
    **_timed("node.tick", _PASSIVE),
    **_timed("connmgr.trim", _PASSIVE),
    "connmgr.victims": _PASSIVE,
    **_timed("measurement.record", _PASSIVE),
    **_timed("measurement.poll", _PASSIVE),
    **_timed("crawler.crawl", _CRAWL),
    "crawler.queries": _CRAWL,
    **_timed("network.dht_query", _CRAWL),
    "engine.events": _PASSIVE,
    "engine.pending_peak": _PASSIVE,
    "engine.unattributed_s": _PASSIVE,
    **_timed("measurement.finalize", _REPORT, calls=False),
    **_timed("dataset.union", _REPORT, calls=False),
    **_timed("sweep.summarize", _REPORT, calls=False),
    **_timed("analysis.netsize", _ANALYZE, calls=False),
    **_timed("analysis.churn", _ANALYZE, calls=False),
    **_timed("analysis.metadata", _ANALYZE, calls=False),
    **_timed("analysis.timeseries", _ANALYZE, calls=False),
    **_timed("gc.full", _GC),
    "attrib.drain_share": _DIAG,
    "attrib.target_share": _DIAG,
    "trace.overhead_s": _DIAG,
}
