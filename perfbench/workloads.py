"""The benchmark's workloads and one timed scenario run.

A run goes through the program's public entry points only: the registry
builds the config, ``Scenario(config).run()`` simulates (its engine's
``run_until`` is wrapped on the instance to mark where the drain starts and
ends), ``repro.sweep.summarize_result`` reduces the result, and the ``core``
estimators analyse every dataset.  Phases:

* ``setup_s``: ``Scenario(config)`` up to the first drained event
  (population, network, ``SimulatedNetwork.start``, behaviour scheduling);
* ``drain_s``: ``Engine.run_until``;
* ``report_s``: drain end through finalize, the dataset union and
  ``summarize_result``;
* ``analyze_s``: ``estimate_network_size``, ``connection_statistics``,
  ``analyze_metadata`` and ``summarize_timeseries`` over every dataset.
  An untraced run makes the workload's ``analyze_passes`` passes and
  reports the mean pass, so a small analysis is not one noisy reading;
  ``wall_s`` counts that one mean pass.  The count is
  fixed, not timed, so a full collection in the analysis is always shared
  by the same number of passes.

``wall_s`` is the sum of the phases.  Full collections of the garbage
collector count in the phase they run in, as program cost; ``PhaseClock``
also sums them apart for the per-layer ``gc.full_s``.  The two phases that
grow the heap, setup (the network) and the drain (the records), each end
with a full collection timed in that phase.  Otherwise the collection their
objects are due lands, by the collector's counters, in whichever later phase
crosses its threshold: at 30,000 peers it costs about 0.5 s, more than the
whole report or analysis, and it fell in one or the other from seed to seed.

Host speed on a shared machine drifts by a quarter and more within a second,
as neighbours load the same cores and memory, so an untraced repetition's
times are *scaled* to a reference speed by ``ScaledClock``: a timer signal
runs the fixed ``reference_kernel`` every ``SAMPLE_EVERY_S`` host seconds,
its own time is left out of every phase, and each stretch between two runs
of it counts its host seconds times ``REFERENCE_S`` over the kernel's recent
time.  A change to the program moves its own stretches, never the kernel; a
host slowdown moves both.

content-walks is built as ``repro.sweep`` builds a cell with a metrics window
and a trace sample: the windowed metrics and the sampled traces are written
to JSONL files under ``OUT``, so their export is timed too.
"""

from __future__ import annotations

import dataclasses
import gc
import heapq
import random
import signal
import time
from array import array
from pathlib import Path
from typing import Callable, Dict, List, NamedTuple, Optional

from repro.core.churn import connection_statistics
from repro.core.metadata import analyze_metadata
from repro.core.netsize import estimate_network_size
from repro.core.timeseries import summarize_timeseries
from repro.obs.config import ObsConfig
from repro.obs.spans import TraceConfig
from repro.scenarios.registry import build_scenario_config
from repro.simulation.scenario import HYDRA_LABEL_PREFIX, HYDRA_UNION_LABEL, Scenario
from repro.sweep import summarize_result

#: where runs write their export, detail and span files (ignored by git)
OUT = Path(__file__).resolve().parent / "out"


class Workload(NamedTuple):
    name: str
    scenario: str
    peers: int
    days: float
    #: analysis passes an untraced repetition makes
    analyze_passes: int
    metrics_window: Optional[float] = None
    trace_sample: Optional[float] = None

    def config(self, seed: int, peers: int, days: float):
        """The scenario config, built as ``repro.sweep.summarize_cell`` builds
        a cell's, with its export files under ``OUT``."""
        config = build_scenario_config(
            self.scenario, n_peers=peers, duration_days=days, seed=seed
        )
        population = config.population
        stem = OUT / f"{self.name}__{seed}"
        if self.metrics_window is not None or self.trace_sample is not None:
            OUT.mkdir(exist_ok=True)
        if self.metrics_window is not None:
            obs = ObsConfig(window=self.metrics_window, jsonl_path=f"{stem}.metrics.jsonl")
            population = dataclasses.replace(population, obs=obs)
        if self.trace_sample is not None:
            trace = TraceConfig(sample=self.trace_sample, jsonl_path=f"{stem}.traces.jsonl")
            population = dataclasses.replace(population, trace=trace)
        return dataclasses.replace(config, population=population)


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        # why each was chosen: see "workloads" in BENCHMARK.json
        Workload("passive-churn", "p0", 1200, 1.0, analyze_passes=1),
        Workload(
            "content-walks", "flash-crowd-large-blocks", 1500, 0.5, analyze_passes=12,
            metrics_window=300.0, trace_sample=0.1,
        ),
        Workload("setup-scale", "p2", 30_000, 0.01, analyze_passes=3),
    )
}


#: scenario seeds a run cycles through, more than a run has repetitions
SCENARIO_SEEDS = 12


def scenario_seeds(seed: int) -> List[int]:
    """The scenario seeds a run cycles through.  Each repetition draws a new
    one, so no seed's draw sets a run's median: content-walks' cost per
    event varies by about a sixth from seed to seed, several times the
    host noise left after scaling."""
    return [seed + 1000 * offset for offset in range(SCENARIO_SEEDS)]


#: size of the untimed warm-up run (loads every module and lazy path)
WARMUP_PEERS = 150
WARMUP_DAYS = 0.02


def _plain(name: str, fn: Callable, *args):
    return fn(*args)


#: the reference kernel's host seconds at the speed scaled times are given in:
#: its median on the host the benchmark was defined on (2 vCPUs of a shared
#: Intel Xeon VM, Python 3.11.7).  It fixes the scale only.
REFERENCE_S = 0.0013
#: host seconds from the end of one reference sample to the next
SAMPLE_EVERY_S = 0.02

# a dict bigger than the L2 cache and random probe keys into it, and one
# cycle through an array bigger than the last-level cache (a full-period
# linear congruential step), walked one dependent load at a time; ints only,
# so none is tracked by the garbage collector
_REF_TABLE = {key: key * 7 for key in range(1 << 16)}
_REF_KEYS = [random.Random(1).randrange(1 << 16) for _ in range(4096)]
_REF_CHAIN = array("i", ((i * 1103515245 + 12345) & ((1 << 21) - 1) for i in range(1 << 21)))
_REF_HEAP: List[int] = []


def reference_kernel() -> float:
    """Host seconds of a fixed piece of interpreter work like the program's
    own: dict probes, loads that miss the caches, heap pushes and pops.  It
    allocates no object the garbage collector tracks, so it never starts a
    collection."""
    table, keys, chain, heap = _REF_TABLE, _REF_KEYS, _REF_CHAIN, _REF_HEAP
    heap.clear()
    acc = link = 0
    start = time.perf_counter()
    for i in range(3000):
        link = chain[link]
        acc += table[keys[i & 4095] ^ (i & 1023)]
        heapq.heappush(heap, (acc + link) & 0xFFFF)
        if len(heap) > 64:
            heapq.heappop(heap)
    return time.perf_counter() - start


class ScaledClock:
    """Seconds at the reference speed, sampled from a timer signal.

    ``now()`` is piecewise linear in host time: each stretch between two
    reference samples advances it by its host seconds times ``REFERENCE_S``
    over the mean of the last two kernel times, and the samples themselves
    do not advance it.  Only one may run at a time (it owns ``SIGALRM``).
    """

    def __init__(self) -> None:
        self.samples = 0
        self._scaled = 0.0
        self._recent = reference_kernel()
        self._rate = REFERENCE_S / self._recent
        self._since = time.perf_counter()
        self._previous = None

    def now(self) -> float:
        while True:
            samples = self.samples
            value = self._scaled + (time.perf_counter() - self._since) * self._rate
            if samples == self.samples:  # no sample ran in between
                return value

    def _sample(self, signum, frame) -> None:
        start = time.perf_counter()
        self._scaled += (start - self._since) * self._rate
        kernel = reference_kernel()
        self._rate = 2 * REFERENCE_S / (self._recent + kernel)
        self._recent = kernel
        self._since = time.perf_counter()
        self.samples += 1
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S)

    def __enter__(self) -> "ScaledClock":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)


class PhaseClock:
    """Time per phase, and the full (generation-2) collections in it.

    A full collection counts in the phase it runs in; ``phase_gc`` also sums
    it per phase, for the per-layer ``gc.full_s``.  With ``scaled`` every
    time is read from a ``ScaledClock``, else in host seconds.
    """

    def __init__(self, tracer=None, scaled: bool = False) -> None:
        self.tracer = tracer
        self.phases: Dict[str, float] = {}
        #: full-collection seconds per phase
        self.phase_gc: Dict[str, float] = {}
        self.gc_s = 0.0
        self.full_collections = 0
        self._gc_start = 0.0
        self._phase: Optional[str] = None
        self._phase_start = 0.0
        self._phase_gc = 0.0
        self._scaled = ScaledClock() if scaled else None
        self._now = self._scaled.now if scaled else time.perf_counter

    def _on_gc(self, stage: str, info: Dict) -> None:
        if info["generation"] != 2:
            return
        if stage == "start":
            self._gc_start = self._now()
        else:
            elapsed = self._now() - self._gc_start
            self.gc_s += elapsed
            self.full_collections += 1
            if self.tracer is not None:
                self.tracer.note_gc(int(elapsed * 1e9))

    def __enter__(self) -> "PhaseClock":
        if self._scaled is not None:
            self._scaled.__enter__()
        gc.callbacks.append(self._on_gc)
        return self

    def __exit__(self, *exc) -> None:
        gc.callbacks.remove(self._on_gc)
        if self._scaled is not None:
            self._scaled.__exit__(*exc)

    def settle(self, name: str) -> None:
        """End a phase that grew the heap with a full collection, timed in
        that phase, and start ``name``."""
        gc.collect()
        self.enter(name)

    def enter(self, name: str) -> None:
        """End the current phase (if any) and start ``name``."""
        now = self._now()
        if self._phase is not None:
            self.phases[self._phase] = now - self._phase_start
            self.phase_gc[self._phase] = self.gc_s - self._phase_gc
        if self.tracer is not None:
            self.tracer.enter_phase(name)
        self._phase, self._phase_start, self._phase_gc = name, now, self.gc_s


class Rep(NamedTuple):
    """One timed scenario run: host seconds per phase plus its fingerprint."""

    setup_s: float
    drain_s: float
    report_s: float
    analyze_s: float
    gc_s: float
    full_collections: int
    events: int
    fingerprint: Dict

    @property
    def wall_s(self) -> float:
        return self.setup_s + self.drain_s + self.report_s + self.analyze_s


def run_once(
    workload: Workload,
    seed: int,
    tracer=None,
    peers: Optional[int] = None,
    days: Optional[float] = None,
    scaled: bool = False,
) -> Rep:
    """Run the workload once; ``tracer`` (a ``tracer.Tracer``) must already
    be installed when given.  ``scaled`` gives times at the reference speed
    (see the module docstring); an untimed warm-up or a traced run does not
    scale."""
    call = tracer.call if tracer is not None else _plain
    peers = peers or workload.peers
    days = days or workload.days
    config = workload.config(seed, peers, days)
    with PhaseClock(tracer, scaled) as clock:
        clock.enter("setup")
        scenario = Scenario(config)
        engine = scenario.engine
        run_until = engine.run_until

        def timed_run_until(end_time: float) -> None:
            clock.settle("drain")
            run_until(end_time)
            clock.settle("report")

        engine.run_until = timed_run_until
        if tracer is not None:
            tracer.engine = engine
        result = scenario.run()
        summary = call(
            "sweep.summarize", summarize_result, workload.scenario, peers, days, seed, result
        )
        clock.enter("analyze")
        netsize = analyze(result.datasets, call)
        passes = 1 if tracer is not None else workload.analyze_passes
        for _ in range(passes - 1):
            if analyze(result.datasets, call) != netsize:
                raise RuntimeError("a repeated analysis pass gave another result")
        clock.enter("done")
    phases = clock.phases
    if "report" not in phases:
        raise RuntimeError("the scenario ran without draining its engine")
    timed = ("setup", "drain", "report", "analyze")
    return Rep(
        setup_s=phases["setup"],
        drain_s=phases["drain"],
        report_s=phases["report"],
        analyze_s=phases["analyze"] / passes,
        gc_s=sum(clock.phase_gc[phase] for phase in timed),
        full_collections=clock.full_collections,
        events=result.events_processed,
        fingerprint=fingerprint(summary, netsize),
    )


def analyze(datasets: Dict, call: Callable) -> Dict:
    """One analysis pass over every dataset; returns the network sizes."""
    netsize = {}
    for label in sorted(datasets):
        dataset = datasets[label]
        report = call("analysis.netsize", estimate_network_size, dataset)
        netsize[label] = [report.estimated_network_size, report.core_network_size]
        call("analysis.churn", connection_statistics, dataset)
        call("analysis.metadata", analyze_metadata, dataset)
        call("analysis.timeseries", summarize_timeseries, dataset)
    return netsize


class _SetupDone(Exception):
    """Raised by the drain stub of a setup-only run."""


def time_setup(workload: Workload, seed: int) -> float:
    """Scaled seconds of the workload's setup alone, like ``Rep.setup_s``:
    the run stops where the drain would start."""
    config = workload.config(seed, workload.peers, workload.days)
    with PhaseClock(scaled=True) as clock:
        clock.enter("setup")
        scenario = Scenario(config)

        def stop(end_time: float) -> None:
            clock.settle("drain")
            raise _SetupDone

        scenario.engine.run_until = stop
        try:
            scenario.run()
        except _SetupDone:
            return clock.phases["setup"]
    raise RuntimeError("the scenario ran without draining its engine")


def fingerprint(summary: Dict, netsize: Dict) -> Dict:
    """The simulated outputs a perf-only change must leave identical."""
    content = summary["content"]
    if content is not None:
        content = {
            "provides": content["provides"],
            "provide_success_rate": content["provide_success_rate"],
            "retrievals": content["retrievals"],
            "retrieval_successes": content["retrieval_successes"],
            "retrieve_latency_p50": content["retrieve_latency"]["p50"],
            "retrieve_latency_p90": content["retrieve_latency"]["p90"],
        }
    return {
        "events_processed": summary["events_processed"],
        "datasets": summary["datasets"],
        "netsize": netsize,
        "crawler_queries": summary["queries_sent"],
        "content": content,
        "churn": summary["churn"],
    }


def sane(fp: Dict) -> bool:
    """Shape checks that hold for every seed (pinned or not)."""
    datasets = fp["datasets"]
    return (
        fp["events_processed"] > 0
        and bool(datasets)
        and all(counts["connections"] > 0 for counts in datasets.values())
        and all(size > 0 for size, _ in fp["netsize"].values())
        and _union_adds_up(datasets)
    )


def _union_adds_up(datasets: Dict) -> bool:
    """The hydra union concatenates its heads' records and merges their peers."""
    heads = [counts for label, counts in datasets.items() if label.startswith(HYDRA_LABEL_PREFIX)]
    if not heads:
        return HYDRA_UNION_LABEL not in datasets
    union = datasets.get(HYDRA_UNION_LABEL)
    peers = [head["peers"] for head in heads]
    return (
        union is not None
        and all(
            union[key] == sum(head[key] for head in heads)
            for key in ("connections", "changes", "snapshots")
        )
        and max(peers) <= union["peers"] <= sum(peers)
    )
