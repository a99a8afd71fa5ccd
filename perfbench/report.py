"""Print every benchmark metric as tables, one workload after another.

Usage (from the repository root)::

    python3 perfbench/report.py [--seed 7] [--seconds 40]

For each workload ``BENCHMARK.json`` lists, this runs ``perfbench/run.py``
twice, one process at a time: untraced, for the end-to-end metrics with their
median and quartiles over the run's repetitions, then traced, for the per-layer
table (metric names and units from ``BENCHMARK.json``).  It ends
with the attribution checks: the share of the work each workload's target
layers account for, with the base each share is taken of.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys

from layers import FABRIC_HOOKS, ROLES, TARGET_GROUP
from run import HERE, ROOT, declared


def run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    command = [sys.executable, str(HERE / "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    completed = subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
    if completed.returncode != 0:
        sys.stderr.write(completed.stderr)
        raise SystemExit(f"{' '.join(command)} exited {completed.returncode}")
    detail = HERE / "out" / f"{workload}__s{seed}__t{trace}.json"
    return json.loads(detail.read_text())


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def end_to_end_table(detail: dict) -> None:
    units = declared("end_to_end")
    reps = len(detail["untraced"]["wall_s"])
    print(f"\n== {detail['workload']}  seed {detail['seed']} (scenario seeds "
          f"{', '.join(map(str, detail['scenario_seeds']))}; "
          f"{'pinned' if detail['pinned'] else 'unpinned'} fingerprints, {reps} repetitions)")
    print(f"{'metric':<14}{'unit':>6}{'median':>14}{'q1':>12}{'q3':>12}{'spread':>9}")
    for name, value in detail["end_to_end"].items():
        column = detail["untraced"].get(name)
        if column is None:  # one reading per run (peak RSS)
            print(f"{name:<14}{units[name]:>6}{value:>14.4f}   (one reading per run)")
            continue
        q1, q3 = quartiles(column)
        print(f"{name:<14}{units[name]:>6}{value:>14.4f}{q1:>12.4f}{q3:>12.4f}"
              f"{(q3 - q1) / value if value else 0.0:>9.2%}")
    failed_share = detail["failed"] / detail["attempted"]
    print(f"{'failed_share':<14}{'ratio':>6}{failed_share:>14.4f}"
          f"   ({detail['failed']} of {detail['attempted']} runs)")


def per_layer_table(detail: dict) -> None:
    metrics = detail["per_layer"]
    traced = detail["traced_wall_s"]
    print(f"\n-- {detail['workload']} traced per-layer ({len(traced)} traced repetitions; "
          f"traced wall {statistics.median(traced):.3f} s, overhead "
          f"{metrics['trace.overhead_s']:.3f} s)")
    print(f"{'metric':<36}{'unit':>6}{'value':>14}  should move / stay flat on")
    for name, unit in declared("per_layer").items():
        moves, flat = ROLES[name]
        print(f"{name:<36}{unit:>6}{metrics[name]:>14.4f}  {moves} / {flat}")


def attribution(detail: dict) -> None:
    workload = detail["workload"]
    metrics = detail["per_layer"]
    shares = detail["shares"]
    print(f"\n-- {workload} attribution (last traced repetition)")
    print(f"drain {shares['drain_s']:.3f} s, of which wrapped calls and full collections "
          f"{shares['attributed_s']:.3f} s ({shares['attributed_s'] / shares['drain_s']:.1%}); "
          f"shares of that attributed drain:")
    for group, row in sorted(shares["groups"].items(), key=lambda kv: -kv[1]["busy_s"]):
        print(f"  {group:<10}{row['busy_s']:>10.3f} s{row['share']:>9.1%}")
    target = TARGET_GROUP.get(workload)
    if target is None:
        share = shares["setup_work_s"] / shares["setup_s"]
        print(f"population.generate + network.start (inclusive) = "
              f"{shares['setup_work_s']:.3f} s = {share:.1%} of the traced setup "
              f"({shares['setup_s']:.3f} s, full collections included)")
        ok = share > 0.5
    else:
        groups = {name: row for name, row in shares["groups"].items() if name != "gc.full"}
        largest = max(groups, key=lambda g: groups[g]["busy_s"])
        print(f"target group {target!r}: {shares['groups'][target]['share']:.1%} of the "
              f"attributed drain; largest layer group: {largest!r}")
        ok = largest == target
        if workload == "passive-churn":
            hooks = {name: metrics[name] for name in FABRIC_HOOKS}
            print(f"fabric hooks (must be 0): {hooks}")
            ok = ok and not any(hooks.values())
    print(f"target layers dominate: {'yes' if ok else 'NO'}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=40.0)
    args = parser.parse_args(argv)
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [workload["name"] for workload in benchmark["workloads"]]
    untraced = [run(name, args.seed, args.seconds, 0) for name in names]
    traced = [run(name, args.seed, args.seconds, 1) for name in names]
    for detail in untraced:
        end_to_end_table(detail)
    for detail in traced:
        per_layer_table(detail)
    for detail in traced:
        attribution(detail)
    failures = sum(d["failed"] for d in untraced + traced)
    print(f"\nfailed runs: {failures} of {sum(d['attempted'] for d in untraced + traced)}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
