"""Run one benchmark workload and print its metrics as one JSON line.

Usage (from the repository root)::

    python3 perfbench/run.py --workload passive-churn --seed 7 --seconds 40 --trace 0

The program is imported from ``src/`` of the checkout and run in this one
process: no worker pool, the default engine, and ``REPRO_BENCH_WORKERS`` /
``REPRO_PROGRESS`` removed from the environment first.  After an untimed
warm-up at tiny scale, the workload runs closed-loop, one scenario at a time,
for ``--seconds`` (at least three runs), cycling through the
``workloads.SCENARIO_SEEDS`` scenario seeds derived from ``--seed``.  Every
run's simulated outputs must equal its scenario seed's fingerprint: pinned in
``fingerprints.json`` for the pinned benchmark seeds, else that seed's first
run in the process.

``--trace 0`` reports the end-to-end metrics, each the median over the
repetitions, in seconds scaled to a reference host speed (see
``workloads.py``; full garbage collections count in the phase they run in);
setup-only repetitions between the full ones add samples to
``setup_s``, and ``peak_rss_mb`` is read after the first repetition.
``--trace 1`` alternates untraced and traced repetitions, both in plain host
seconds, and reports the per-layer metrics of the traced ones (medians), the
tracing overhead, and checks that traced and untraced fingerprints agree.
Either mode writes a detail file (and, traced, the span file) under
``perfbench/out/``; ``perfbench/report.py`` prints them as tables.

Metric names and units come from ``BENCHMARK.json`` at the repository root.
The last line of standard output is
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.
``--pin`` instead records the fingerprints of ``--seed`` in ``fingerprints.json``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

from layers import GROUPS, TARGET_GROUP
from tracer import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PINS = HERE / "fingerprints.json"
MIN_REPS = 3
#: share of an untraced run spent on setup-only repetitions
SETUP_SHARE = 0.08


def declared(section: str):
    """Metric name -> unit for one section of ``BENCHMARK.json``, in its order."""
    entries = json.loads((ROOT / "BENCHMARK.json").read_text())[section]
    return {entry["name"]: entry["unit"] for entry in entries}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--pin", action="store_true",
                        help="record this seed's fingerprints instead of measuring")
    return parser.parse_args(argv)


def median(values):
    return statistics.median(values) if values else 0.0


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Bench:
    """Runs repetitions of one workload and checks each one's outputs."""

    def __init__(self, workload, seeds, pinned, scaled: bool) -> None:
        self.workload = workload
        self.seeds = seeds
        #: untraced repetitions give times at the reference speed
        self.scaled = scaled
        #: scenario seed -> fingerprint (pinned, else the seed's first run)
        self.references = {int(seed): fp for seed, fp in pinned.items()}
        self.attempted = 0
        self.failed = 0
        #: peak RSS (MB) once the first repetition has run: later repetitions
        #: add allocator fragmentation that depends on how many fit the run
        self.peak_rss_mb = None

    def seed(self, index: int) -> int:
        return self.seeds[index % len(self.seeds)]

    def attempt(self, seed: int, traced: bool):
        """One repetition; returns (rep, tracer) or None when it failed."""
        from workloads import run_once, sane

        self.attempted += 1
        gc.collect()
        tracer = Tracer() if traced else None
        try:
            if tracer is not None:
                tracer.install()
            rep = run_once(self.workload, seed, tracer, scaled=self.scaled and not traced)
        except Exception:  # noqa: BLE001 - a failed run is counted, not fatal
            traceback.print_exc()
            self.failed += 1
            return None
        finally:
            if tracer is not None:
                tracer.uninstall()
        if self.peak_rss_mb is None:
            self.peak_rss_mb = peak_rss_mb()
        fp = rep.fingerprint
        if seed not in self.references and sane(fp):
            self.references[seed] = fp
        if not sane(fp) or fp != self.references.get(seed):
            print(f"perfbench: {'traced' if traced else 'untraced'} run of "
                  f"{self.workload.name} scenario seed {seed} does not match its "
                  f"fingerprint: {json.dumps(fp, sort_keys=True)}", file=sys.stderr)
            self.failed += 1
            return None
        return rep, tracer


def end_to_end(reps, setups, peak_rss_mb):
    columns = {
        "setup_s": [r.setup_s for r in reps] + setups,
        "events_per_s": [r.events / r.drain_s for r in reps],
        "report_s": [r.report_s for r in reps],
        "analyze_s": [r.analyze_s for r in reps],
        "wall_s": [r.wall_s for r in reps],
    }
    values = {name: median(column) for name, column in columns.items()}
    values["peak_rss_mb"] = peak_rss_mb
    return values, columns


def group_shares(tracer, drain_s):
    """Drain self time per layer group (and full collections), as shares of
    the attributed drain: wrapped calls plus full collections."""
    drain = tracer.phase_self_ns.get("drain", {})
    attributed = tracer.phase_attributed_ns.get("drain", 0) / 1e9
    busy = {
        group: sum(ns for name, ns in drain.items() if name.startswith(prefixes)) / 1e9
        for group, prefixes in GROUPS.items()
    }
    busy["gc.full"] = tracer.phase_gc_ns.get("drain", 0) / 1e9
    groups = {
        group: {"busy_s": seconds, "share": seconds / attributed if attributed else 0.0}
        for group, seconds in busy.items()
    }
    return {"drain_s": drain_s, "attributed_s": attributed, "groups": groups}


def per_layer(workload, rep, tracer):
    """Every per-layer metric of one traced repetition, by name."""
    values = {}
    for name, stat in tracer.stats.items():
        values[f"{name}_s"] = stat.self_ns / 1e9
        values[f"{name}.calls"] = stat.calls
    for walk in ("dht.find_providers", "dht.provide"):
        samples = tracer.durations_ms(walk)
        values[f"{walk}.p50_ms"] = median(samples)
        values[f"{walk}.p99_ms"] = (
            statistics.quantiles(samples, n=100)[98] if len(samples) > 1 else median(samples)
        )
    walks = tracer.walks
    values["dht.hops_per_walk"] = tracer.walk_hops / walks if walks else 0.0
    values["dht.walk_ok_ratio"] = tracer.walks_ok / walks if walks else 0.0
    values["connmgr.victims"] = tracer.victims
    values["crawler.queries"] = tracer.queries
    values["engine.events"] = rep.events
    values["engine.pending_peak"] = tracer.pending_peak
    values["gc.full_s"] = rep.gc_s
    values["gc.full.calls"] = rep.full_collections
    wall = {phase: ns / 1e9 for phase, ns in tracer.phase_wall_ns.items()}
    attributed = tracer.phase_attributed_ns.get("drain", 0) / 1e9
    values["engine.unattributed_s"] = wall["drain"] - attributed
    values["attrib.drain_share"] = attributed / wall["drain"]
    shares = group_shares(tracer, wall["drain"])
    target = TARGET_GROUP.get(workload.name)
    if target is None:
        setup_work = (
            tracer.stats["population.generate"].incl_ns + tracer.stats["network.start"].incl_ns
        ) / 1e9
        values["attrib.target_share"] = setup_work / wall["setup"]
        shares["setup_s"] = wall["setup"]
        shares["setup_work_s"] = setup_work
    else:
        values["attrib.target_share"] = shares["groups"][target]["share"]
    values["trace.overhead_s"] = 0.0  # filled in from the paired runs
    return values, shares


def measure(bench, seconds: float, traced: bool):
    """Closed loop, one scenario seed after the other, until the next round
    would overrun ``seconds``.

    Untraced, each round is one full repetition followed by setup-only
    repetitions worth about ``SETUP_SHARE`` of the round.  Host speed on a
    shared machine shifts in episodes of a second or two, so setup samples
    spread over the whole run vary less than the same number taken back to
    back.
    """
    from workloads import time_setup

    start = time.perf_counter()
    untraced, traced_reps, setups = [], [], []
    rounds = 0
    credit = setup_cost = 0.0
    while True:
        round_start = time.perf_counter()
        seed = bench.seed(rounds)
        rounds += 1
        outcome = bench.attempt(seed, False)
        if outcome is not None:
            untraced.append(outcome[0])
        if traced:
            outcome = bench.attempt(seed, True)
            if outcome is not None:
                traced_reps.append(outcome)
        else:
            credit += SETUP_SHARE / (1 - SETUP_SHARE) * (time.perf_counter() - round_start)
            # host seconds of one setup-only repetition, collection included
            cost = setup_cost or (untraced[-1].setup_s if untraced else seconds)
            while credit >= cost and time.perf_counter() - start + cost <= seconds:
                setup_start = time.perf_counter()
                gc.collect()
                setups.append(time_setup(bench.workload, bench.seed(rounds + len(setups))))
                setup_cost = time.perf_counter() - setup_start
                credit -= setup_cost
                cost = setup_cost
        elapsed = time.perf_counter() - start
        enough = rounds >= (1 if traced else MIN_REPS)
        if enough and elapsed + elapsed / rounds > seconds:
            break
    return untraced, traced_reps, setups


def select(values, units):
    """The declared metrics, in ``BENCHMARK.json`` order."""
    missing = [name for name in units if name not in values]
    if missing:
        raise SystemExit(f"perfbench: BENCHMARK.json declares metrics this run "
                         f"does not compute: {missing}")
    return {name: values[name] for name in units}


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in ("REPRO_BENCH_WORKERS", "REPRO_PROGRESS"):
        os.environ.pop(var, None)
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import workloads
    except ImportError as exc:
        print(f"perfbench: cannot import the program from {ROOT / 'src'}: {exc}",
              file=sys.stderr)
        return 2
    import repro

    if Path(repro.__file__).resolve().parent.parent != ROOT / "src":
        print(f"perfbench: repro was imported from {repro.__file__}, not from "
              f"{ROOT / 'src'}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS.get(args.workload)
    if workload is None:
        print(f"perfbench: unknown workload {args.workload!r}; known: "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    units = declared("per_layer" if args.trace else "end_to_end")
    pins = json.loads(PINS.read_text()) if PINS.exists() else {}
    pinned = pins.get(workload.name, {}).get(str(args.seed), {})
    seeds = workloads.scenario_seeds(args.seed)

    if args.pin:
        pinned = {str(seed): workloads.run_once(workload, seed).fingerprint for seed in seeds}
        pins.setdefault(workload.name, {})[str(args.seed)] = pinned
        PINS.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
        print(json.dumps(pinned, sort_keys=True))
        return 0

    workloads.run_once(workload, args.seed, peers=workloads.WARMUP_PEERS,
                       days=workloads.WARMUP_DAYS)
    bench = Bench(workload, seeds, pinned, scaled=not args.trace)
    untraced, traced, setups = measure(bench, args.seconds, bool(args.trace))
    e2e, columns = end_to_end(untraced, setups, bench.peak_rss_mb or peak_rss_mb())
    detail = {
        "workload": workload.name, "seed": args.seed, "scenario_seeds": seeds,
        "trace": args.trace, "pinned": bool(pinned),
        "attempted": bench.attempted, "failed": bench.failed,
        "untraced": columns,
        "end_to_end": e2e,
    }
    out = workloads.OUT
    out.mkdir(exist_ok=True)
    if args.trace:
        layer_reps = [per_layer(workload, rep, tracer) for rep, tracer in traced]
        layer_reps = [(select(values, units), shares) for values, shares in layer_reps]
        metrics = {name: median([values[name] for values, _ in layer_reps]) for name in units}
        if traced:
            metrics["trace.overhead_s"] = (
                median([rep.wall_s for rep, _ in traced]) - e2e["wall_s"]
            )
            detail["shares"] = layer_reps[-1][1]
            traced[-1][1].write_spans(str(out / f"spans__{workload.name}__s{args.seed}.jsonl"))
        detail["traced_wall_s"] = [rep.wall_s for rep, _ in traced]
        detail["per_layer"] = metrics
    else:
        metrics = select(e2e, units)
    (out / f"{workload.name}__s{args.seed}__t{args.trace}.json").write_text(
        json.dumps(detail, indent=1) + "\n"
    )
    print(json.dumps({
        "correct": bench.failed == 0 and bench.attempted > 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
