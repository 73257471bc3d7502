"""What the benchmark measures: workloads, metrics, and how they relate.

This table is the single source for ``BENCHMARK.json`` (regenerate it with
``python3 perfbench/run.py --write-benchmark-json``) and for the
``--describe`` listing, which also prints which end-to-end metric each
layer metric is expected to move and on which workload.

End-to-end metrics are host-side (what a user of the reproduction waits
for or pays in memory) and every workload reports every one of them.  All
*simulated* quantities -- makespans, event counts, per-rank bytes -- are
correctness checks against goldens, never metrics.
"""

from __future__ import annotations

import json
import re

#: Seconds one benchmark run measures (whole iterations that fit).
RUN_SECONDS = 30

WORKLOADS = [
    {
        "name": "reference",
        "why": (
            "ROADMAP yardstick: one cold audikw_1 32x32 shifted DES run "
            "(1.13M events); pure simulate/core.pselinv/comm time, bypasses "
            "runner, obs and the volume engine"
        ),
    },
    {
        "name": "sweep",
        "why": (
            "40-spec Fig. 8 sweep (tiny proxy, 5 grids, 4 schemes x 2 jitter "
            "seeds) via run_experiments at jobs=nproc into a fresh store, "
            "then replayed: pool, memo caches, store"
        ),
    },
    {
        "name": "volumes",
        "why": (
            "Tables I/II: communication_volumes for 4 trees on audikw_1 8x8 "
            "(sym+unsym plans) and DG_PNF14000 32x32; no DES at all, the "
            "no-change control for every DES optimisation"
        ),
    },
    {
        "name": "variants",
        "why": (
            "DES paths the sweep skips: numeric vs oracle, unsymmetric, "
            "telemetry on/off; obs.overhead_pct supersedes BENCH_runner.json "
            "telemetry_overhead and network_hot_path"
        ),
    },
]

# name, unit, better, bound (share of the parent's median).
# Host speed on the shared 2-vCPU VM the bounds were set on swings by up
# to +-20% between 2-second windows, so medians of whole 30-second runs
# still differ by ~10%; the time bounds are the largest allowed.
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("wall_s", "s", "lower", 0.25),
    ("work_per_s", "1/s", "higher", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.15),
]

END_TO_END_MEANING = {
    "setup_s": (
        "make_workload + analyze + plans (+ factorize and the oracle in "
        "variants) before the timed body; median over the run's iterations"
    ),
    "wall_s": "the workload's timed body; median over the run's iterations",
    "work_per_s": (
        "DES events per DES host second (ROADMAP yardstick); on volumes, "
        "collectives evaluated per core.volume second"
    ),
    "peak_rss_mb": (
        "peak RSS of the iteration process plus the largest of its pool "
        "workers; median over iterations"
    ),
}

# name, unit, better, end-to-end metrics it should move, mostly on, flat on.
PER_LAYER = [
    ("workloads.make_s", "s", "lower", "setup_s", "volumes", "reference"),
    ("sparse.analyze_s", "s", "lower", "setup_s", "volumes", "reference"),
    ("core.plan.plans_s", "s", "lower", "setup_s", "volumes", "reference"),
    ("sparse.factorize_s", "s", "lower", "setup_s", "variants", "others"),
    ("sparse.selinv_s", "s", "lower", "setup_s", "variants", "others"),
    ("core.pselinv.init_s", "s", "lower", "wall_s work_per_s",
     "reference sweep", "volumes"),
    ("core.pselinv.run_s", "s", "lower", "wall_s work_per_s",
     "reference sweep", "volumes"),
    ("simulate.events_per_s", "1/s", "higher", "wall_s work_per_s",
     "reference sweep", "volumes"),
    ("core.pselinv_unsym.init_s", "s", "lower", "wall_s", "variants",
     "reference sweep"),
    ("core.pselinv_unsym.run_s", "s", "lower", "wall_s", "variants",
     "reference sweep"),
    ("simulate.events", "count", "lower", "none: speed-only changes keep it",
     "all DES", "-"),
    ("simulate.messages", "count", "lower", "none: speed-only changes keep it",
     "all DES", "-"),
    ("simulate.mbytes", "MB", "lower", "none: speed-only changes keep it",
     "all DES", "-"),
    ("core.plan.collectives", "count", "lower",
     "none: speed-only changes keep it", "all", "-"),
    ("comm.trees.build_s", "s", "lower", "wall_s", "volumes", "reference"),
    ("comm.trees.hits", "count", "higher", "wall_s", "volumes", "reference"),
    ("comm.trees.misses", "count", "lower", "wall_s", "volumes", "reference"),
    ("comm.trees.hit_rate", "ratio", "higher", "wall_s", "volumes",
     "reference"),
    ("core.volume_s", "s", "lower", "wall_s work_per_s", "volumes", "all DES"),
    ("runner.prewarm_s", "s", "lower", "setup_s", "sweep", "reference"),
    ("runner.busy_s", "s", "lower", "wall_s", "sweep", "reference"),
    ("runner.idle_frac", "ratio", "lower", "wall_s", "sweep", "reference"),
    ("runner.memo.hit_rate", "ratio", "higher", "wall_s", "sweep",
     "reference"),
    ("runner.store.put_s", "s", "lower", "wall_s", "sweep", "reference"),
    ("runner.store.get_s", "s", "lower", "wall_s", "sweep", "reference"),
    ("runner.store.hit_rate", "ratio", "higher", "wall_s", "sweep",
     "reference"),
    ("phase.replay_s", "s", "lower", "wall_s", "sweep", "others"),
    ("phase.numeric_s", "s", "lower", "wall_s", "variants", "others"),
    ("phase.unsym_s", "s", "lower", "wall_s", "variants", "others"),
    ("phase.telemetry_s", "s", "lower", "wall_s", "variants", "others"),
    ("obs.off_s", "s", "lower", "wall_s", "variants", "others"),
    ("obs.on_s", "s", "lower", "wall_s", "variants", "others"),
    ("obs.overhead_pct", "%", "lower", "wall_s", "variants", "others"),
    ("obs.export_s", "s", "lower", "wall_s", "variants", "others"),
    ("obs.trace_events", "count", "higher", "none: speed-only changes keep it",
     "variants", "others"),
    ("trace.overhead_pct", "%", "lower", "none: checks the traced run", "all",
     "-"),
    ("trace.unattributed_s", "s", "lower", "none: checks the traced run",
     "all", "-"),
]

_NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
_UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def metric_names() -> list[str]:
    """Every metric name, end-to-end first."""
    return [m[0] for m in END_TO_END] + [m[0] for m in PER_LAYER]


def check_catalog() -> None:
    """Raise ValueError if a name or unit breaks the BENCHMARK.json rules."""
    names = [w["name"] for w in WORKLOADS] + metric_names()
    if len(set(names)) != len(names):
        raise ValueError("duplicate workload or metric name")
    for name in names:
        if not _NAME.match(name):
            raise ValueError(f"bad name {name!r}")
    for m in END_TO_END + PER_LAYER:
        if not _UNIT.match(m[1]):
            raise ValueError(f"bad unit {m[1]!r} for {m[0]}")
    for w in WORKLOADS:
        if len(w["why"]) > 200 or "\n" in w["why"]:
            raise ValueError(f"why of {w['name']} is not one short line")


def benchmark_json() -> dict:
    """The content of ``BENCHMARK.json``."""
    check_catalog()
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": WORKLOADS,
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound}
            for n, u, b, bound in END_TO_END
        ],
        "per_layer": [
            {"name": n, "unit": u, "better": b} for n, u, b, *_ in PER_LAYER
        ],
    }


def describe() -> str:
    """Human-readable catalog: metrics, units and expected interactions."""
    lines = ["workloads:"]
    for w in WORKLOADS:
        lines.append(f"  {w['name']:10s} {w['why']}")
    lines.append("end-to-end metrics (every workload):")
    for n, u, b, bound in END_TO_END:
        lines.append(
            f"  {n:12s} [{u}] {b} is better, bound {bound:.0%}: "
            f"{END_TO_END_MEANING[n]}"
        )
    lines.append("per-layer metrics (--trace 1): moves | mostly on | flat on")
    for n, u, _b, moves, mostly, flat in PER_LAYER:
        lines.append(f"  {n:26s} [{u}] {moves} | {mostly} | {flat}")
    return "\n".join(lines)


if __name__ == "__main__":
    print(json.dumps(benchmark_json(), indent=2))
