"""Per-engine bit-identity smoke over the Fig. 8 quick sweep.

Runs the exact Fig. 8 sweep specs once under each simulation engine
(``legacy``, ``vectorized``) and asserts every
:class:`~repro.runner.RunRecord` agrees bitwise with the legacy
reference (:meth:`RunRecord.same_outcome`: makespan, event count,
compute and communication split, and every per-rank byte/message/
busy-time array).  This is the CI guard for the vectorized engine: the
native kernel and the compiled collective state machines are
optimizations, never behavior changes.  The result store is turned
off first: it does not hash the engine, so a stored record would answer
for either engine and the comparison would prove nothing.

A few numeric runs follow: flat/binary/shifted trees on 2x4 and 4x4
grids, with the sweep's workload, network and seeds on its ``tiny``
proxy (numeric runs on the sweep's own proxy take over a minute).  The
runner's specs carry no factor, so these run in-process.  Each must
agree bitwise across engines -- the same record comparison, plus every
entry of the distributed inverse -- and its inverse must match the
sequential selected-inversion oracle
(:func:`repro.sparse.selected_inversion`) within 1e-9.

Run from ``benchmarks/`` with ``PYTHONPATH=../src:.``:

    REPRO_BENCH_SCALE=quick python check_engine_identity.py --limit 12

``--limit`` caps the spec count for CI time budgets (specs are ordered
smallest grid first, so a prefix still covers every scheme).  Exits
non-zero and names the offending specs on any mismatch.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from time import perf_counter

import numpy as np
from bench_fig8_scaling import sweep_specs

from repro.core import ProcessorGrid, SimulatedPSelInv
from repro.runner import RunRecord, run_experiments, store
from repro.sparse import factorize, normalize, selected_inversion

from _harness import get_problem

ENGINES = ("legacy", "vectorized")
REFERENCE = ENGINES[0]
NUMERIC_SCHEMES = ("flat", "binary", "shifted")
NUMERIC_GRIDS = ((2, 4), (4, 4))
NUMERIC_SCALE = "tiny"
ORACLE_TOL = 1e-9


def check_numeric(spec0) -> tuple[list[dict], list[dict]]:
    """Numeric runs of ``spec0``'s workload (at :data:`NUMERIC_SCALE`)
    on every engine.

    Returns one summary row per (scheme, grid) and the mismatches
    (cross-engine or against the oracle) in the sweep's format.
    """
    spec0 = replace(spec0, scale=NUMERIC_SCALE, label="numeric")
    prob = get_problem(
        spec0.workload, spec0.scale, max_supernode=spec0.max_supernode
    )
    raw = factorize(prob.matrix, prob.struct)
    for_oracle = factorize(prob.matrix, prob.struct)
    normalize(for_oracle)
    want = selected_inversion(for_oracle).to_dense_at_structure()
    rows, mismatches = [], []
    for grid in NUMERIC_GRIDS:
        for scheme in NUMERIC_SCHEMES:
            spec = replace(spec0, grid=grid, scheme=scheme)
            records, inverses = {}, {}
            for engine in ENGINES:
                res = SimulatedPSelInv(
                    prob.struct, ProcessorGrid(*grid), scheme, factor=raw,
                    network=spec.network, seed=spec.seed,
                    jitter_seed=spec.jitter_seed,
                    placement_seed=spec.placement_seed,
                    lookahead=spec.lookahead,
                    hybrid_threshold=spec.hybrid_threshold,
                    per_message_cpu_overhead=spec.per_message_cpu_overhead,
                    engine=engine,
                ).run()
                records[engine] = RunRecord.from_result(spec, res)
                inverses[engine] = res.inverse.to_dense_at_structure()
            ref = records[REFERENCE]
            err = float(np.abs(inverses[REFERENCE] - want).max())
            row = dict(
                spec=spec.describe(), events=ref.events,
                oracle_max_abs_err=err,
            )
            rows.append(row)
            for engine in ENGINES[1:]:
                rec = records[engine]
                if not (
                    ref.same_outcome(rec)
                    and np.array_equal(inverses[REFERENCE], inverses[engine])
                ):
                    mismatches.append(dict(
                        spec=row["spec"], engine=engine,
                        reference=dict(makespan=ref.makespan, events=ref.events),
                        candidate=dict(makespan=rec.makespan, events=rec.events),
                    ))
            if not err <= ORACLE_TOL:
                mismatches.append(dict(
                    spec=row["spec"], engine=REFERENCE,
                    reference=dict(oracle_tolerance=ORACLE_TOL),
                    candidate=dict(oracle_max_abs_err=err),
                ))
    return rows, mismatches


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument(
        "--limit",
        type=int,
        default=None,
        help="cap the number of sweep specs (CI time budget)",
    )
    ap.add_argument(
        "--jobs",
        type=int,
        default=None,
        help="worker processes per sweep (default: REPRO_JOBS / all cores)",
    )
    ap.add_argument(
        "-o",
        "--output",
        default=None,
        help="write a JSON summary of the comparison here",
    )
    args = ap.parse_args(argv)
    store.configure(enabled=False)  # also governs the pool workers

    specs = sweep_specs()
    if args.limit is not None:
        specs = specs[: args.limit]

    records = {}
    timings = {}
    for engine in ENGINES:
        eng_specs = [replace(s, engine=engine) for s in specs]
        t0 = perf_counter()
        records[engine] = run_experiments(eng_specs, jobs=args.jobs)
        timings[engine] = perf_counter() - t0
        events = sum(r.events for r in records[engine])
        print(
            f"engine={engine:10s}  {len(specs)} specs, {events:,} events, "
            f"{timings[engine]:.1f}s wall",
            flush=True,
        )

    mismatches = []
    for engine in ENGINES[1:]:
        for spec, ref, rec in zip(specs, records[REFERENCE], records[engine]):
            if not ref.same_outcome(rec):
                mismatches.append(
                    dict(
                        spec=spec.describe(),
                        engine=engine,
                        reference=dict(makespan=ref.makespan, events=ref.events),
                        candidate=dict(makespan=rec.makespan, events=rec.events),
                    )
                )

    t0 = perf_counter()
    numeric, numeric_mismatches = check_numeric(specs[0])
    print(
        f"numeric    {len(numeric)} runs x {len(ENGINES)} engines, "
        f"max oracle error "
        f"{max(r['oracle_max_abs_err'] for r in numeric):.1e}, "
        f"{perf_counter() - t0:.1f}s wall",
        flush=True,
    )
    mismatches += numeric_mismatches

    summary = dict(
        specs=len(specs),
        engines=list(ENGINES),
        events=sum(r.events for r in records[REFERENCE]),
        wall_seconds={e: round(timings[e], 3) for e in ENGINES},
        numeric=numeric,
        outcome_bit_identical=not mismatches,
        mismatches=mismatches,
    )
    if args.output:
        with open(args.output, "w") as fh:
            json.dump(summary, fh, indent=2)
            fh.write("\n")

    if mismatches:
        print(f"ENGINE MISMATCH on {len(mismatches)} spec/engine pairs:")
        for m in mismatches:
            print(
                f"  {m['spec']} [{m['engine']}]: "
                f"reference={m['reference']} candidate={m['candidate']}"
            )
        return 1
    walls = ", ".join(f"{e} {timings[e]:.1f}s" for e in ENGINES)
    print(
        f"OK: {len(specs)} specs and {len(numeric)} numeric runs "
        f"bitwise-identical across engines ({walls}); numeric inverses "
        f"within {ORACLE_TOL:g} of the oracle"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
