"""Parallel experiment runner: wall-clock scaling, engines, telemetry.

Measurements recorded here:

0. *Engine head-to-head* -- the reference run on the legacy binary-heap
   engine vs the vectorized engine (native kernel, compiled collective
   state machines), alternated round-robin with best-of per engine,
   asserting bitwise-identical outcomes and a vectorized-over-legacy
   speedup floor.

1. *Process-pool fan-out* -- the exact Fig. 8 quick sweep (imported from
   :mod:`bench_fig8_scaling`, so this measures the real workload, not a
   synthetic one) is executed serially and with 2 and 4 workers.  The
   records must be bit-identical in every configuration; on a >= 4-core
   host the 4-worker sweep must be >= 2.5x faster than serial.  On
   smaller hosts (CI containers are often 1-2 cores) the timings are
   still recorded but the speedup floor is not asserted -- pool overhead
   with one core is real and expected.
2. *Telemetry overhead* -- the same reference run on the default engine
   with full telemetry (timeline + metrics + hot-spot monitor) on and
   off, alternated best-of-2.  Telemetry must not change the DES
   outcome; the overhead is recorded for reference.

Results land in ``benchmarks/results/BENCH_runner.json``.
"""

from __future__ import annotations

import json
import os
from time import perf_counter

from repro.analysis import Table
from repro.obs import Telemetry
from repro.runner import cache, run_experiments
from repro.simulate import DEFAULT_ENGINE
from repro.core import ProcessorGrid, SimulatedPSelInv

from bench_fig8_scaling import sweep_specs
from _harness import (
    RESULTS_DIR,
    SCALE,
    default_scale,
    emit,
    get_plans,
    get_problem,
    record_throughput,
    run_once,
    scaling_processor_counts,
    timing_network,
)


def _cpu_count() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def _timed_sweep(specs, jobs):
    t0 = perf_counter()
    # force_jobs: this sweep deliberately measures fixed worker counts
    # (including oversubscription on small CI hosts); the runner's
    # clamp-to-cores guard would silently change what is being timed.
    records = run_experiments(specs, jobs=jobs, prewarm=False, force_jobs=True)
    return records, perf_counter() - t0


def _timed_single_run(*, telemetry=None, engine=DEFAULT_ENGINE):
    """One reference run (the largest scaling grid, shifted tree, jitter
    0.2) on ``engine``; returns the result and the drain's wall time."""
    side = scaling_processor_counts()[-1]
    prob = get_problem("audikw_1")
    grid = ProcessorGrid(side, side)
    plans = get_plans(prob, grid)
    sim = SimulatedPSelInv(
        prob.struct,
        grid,
        "shifted",
        network=timing_network(jitter_sigma=0.2),
        seed=20160523,
        plans=plans,
        lookahead=4,
        telemetry=telemetry,
        engine=engine,
    )
    t0 = perf_counter()
    res = sim.run()
    return res, perf_counter() - t0


def _reference_side() -> int:
    return scaling_processor_counts()[-1]


def test_runner_scaling(benchmark):
    specs = sweep_specs()
    cache.prewarm(specs)  # pay analysis once, outside every timer
    jobs_grid = [1, 2, 4]
    cores = _cpu_count()

    def compute():
        out = {}
        for jobs in jobs_grid:
            out[jobs] = _timed_sweep(specs, jobs)
        return out

    results = run_once(benchmark, compute)

    base_records, base_time = results[1]
    total_events = sum(r.events for r in base_records)
    table = Table(
        f"Parallel runner -- Fig. 8 {SCALE} sweep ({len(specs)} runs, "
        f"{total_events} DES events, host has {cores} core(s))",
        ["jobs", "wall s", "speedup", "events/s", "identical"],
    )
    rows = []
    for jobs in jobs_grid:
        records, wall = results[jobs]
        identical = len(records) == len(base_records) and all(
            a.same_outcome(b) for a, b in zip(base_records, records)
        )
        rows.append(
            dict(
                jobs=jobs,
                wall_seconds=round(wall, 4),
                speedup=round(base_time / wall, 3),
                events_per_sec=round(total_events / wall),
                identical=identical,
            )
        )
        table.add(
            jobs,
            f"{wall:.2f}",
            f"{base_time / wall:.2f}x",
            f"{total_events / wall:,.0f}",
            identical,
        )

    # Engine head-to-head: the same reference run on the legacy heapq
    # engine and the vectorized engine (native kernel, compiled
    # collective state machines).  Alternated
    # round-robin with best-of per engine: single-shot wall clock on
    # shared hosts swings by 20%+, and in-process heap growth penalizes
    # whichever run goes last, so no ordering is allowed to decide the
    # comparison.
    engines = ("legacy", "vectorized")
    best = {e: float("inf") for e in engines}
    eng_res = {}
    for _ in range(3):
        for eng in engines:
            r, dt = _timed_single_run(engine=eng)
            eng_res[eng] = r
            best[eng] = min(best[eng], dt)
    ref = eng_res["legacy"]
    engine_cmp = dict(
        run=f"audikw_1 {_reference_side()}^2 ranks, shifted, jitter 0.2",
        events=ref.events,
        legacy_seconds=round(best["legacy"], 4),
        vectorized_seconds=round(best["vectorized"], 4),
        legacy_events_per_sec=round(ref.events / best["legacy"]),
        vectorized_events_per_sec=round(ref.events / best["vectorized"]),
        vectorized_vs_legacy=round(best["legacy"] / best["vectorized"], 3),
        outcome_bit_identical=bool(
            all(eng_res[e].events == ref.events for e in engines)
            and all(eng_res[e].makespan == ref.makespan for e in engines)
        ),
    )

    # Telemetry overhead on the same reference run and the same
    # (default) engine, on vs off, alternated best-of-2 so host load
    # drifting between the two blocks cannot fabricate overhead.
    nranks = _reference_side() ** 2
    dt_off = dt_on = float("inf")
    for _ in range(2):
        res_off, dt = _timed_single_run()
        dt_off = min(dt_off, dt)
        res_on, dt = _timed_single_run(telemetry=Telemetry.full(
            nranks, workload="audikw_1", scheme="shifted"))
        dt_on = min(dt_on, dt)
    tel_cmp = dict(
        run=engine_cmp["run"],
        engine=DEFAULT_ENGINE,
        off_seconds=round(dt_off, 4),
        on_seconds=round(dt_on, 4),
        overhead_pct=round((dt_on / dt_off - 1) * 100, 2),
        outcome_bit_identical=bool(
            res_on.events == res_off.events == ref.events
            and res_on.makespan == res_off.makespan == ref.makespan
        ),
    )

    throughput_note = record_throughput(
        "runner_scaling",
        wall_seconds=base_time,
        events=total_events,
        extra=dict(jobs=1, specs=len(specs)),
    )
    lines = [
        table.render(),
        "",
        "engine head-to-head (reference run, best of 3 alternated rounds):",
        f"  legacy (heapq):          {engine_cmp['legacy_events_per_sec']:,}/s"
        f" ({best['legacy']:.2f}s)",
        "  vectorized (compiled):   "
        f"{engine_cmp['vectorized_events_per_sec']:,}/s"
        f" ({best['vectorized']:.2f}s)"
        f"  -> {engine_cmp['vectorized_vs_legacy']:.2f}x",
        f"  outcome bit-identical:   {engine_cmp['outcome_bit_identical']}",
        "",
        f"telemetry overhead (same reference run, {DEFAULT_ENGINE} engine, "
        "on vs off):",
        f"  off: {dt_off:.2f}s",
        f"  on (full bundle): {dt_on:.2f}s"
        f"  ({tel_cmp['overhead_pct']:+.1f}%)",
        f"  outcome bit-identical: {tel_cmp['outcome_bit_identical']}",
        "",
        throughput_note,
    ]
    emit("runner_scaling", "\n".join(lines))

    payload = dict(
        bench="runner_scaling_fig8_sweep",
        scale=SCALE,
        workload_scale=default_scale(),
        cpu_count=cores,
        specs=len(specs),
        total_events=total_events,
        sweeps=rows,
        engine_head_to_head=engine_cmp,
        telemetry_overhead=tel_cmp,
    )
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "BENCH_runner.json").write_text(
        json.dumps(payload, indent=2) + "\n"
    )

    # Bit-identity is unconditional; the speedup floor needs real cores.
    assert all(r["identical"] for r in rows)
    # The vectorized engine must beat the heapq engine on its outcome-
    # preserving reference run.  With the symbolic protocol inside the
    # native kernel the recorded ratio is ~10x on a 2-vCPU VM; with the
    # protocol in Python callbacks it was 4.18x.  The 2.0x floor catches
    # a silent fall-back to the Python protocol without tripping on
    # shared-host noise.
    assert engine_cmp["outcome_bit_identical"], engine_cmp
    assert engine_cmp["vectorized_vs_legacy"] >= 2.0, engine_cmp
    if cores >= 4:
        four = next(r for r in rows if r["jobs"] == 4)
        assert four["speedup"] >= 2.5, four
    # Telemetry must never perturb the simulated outcome.
    assert tel_cmp["outcome_bit_identical"], tel_cmp
