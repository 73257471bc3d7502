"""The four benchmark workloads, driven only through the public API.

Each workload function receives an :class:`Iteration` and does three
things: set-up (timed as ``setup_s``), the timed body (``wall_s``) and,
after the clock stops, the correctness checks.  Every call into a layer
of the program is wrapped in a span named after that layer, so the same
code serves the untraced run (spans off) and the traced run (spans on).

No workload passes ``engine=``: the benchmark measures whatever engine
the program uses by default.  The ``seed`` argument picks the tree,
jitter and placement seeds; the matrices are the fixed registry proxies.
"""

from __future__ import annotations

import os
import shutil
import statistics
from contextlib import contextmanager
from time import perf_counter
from typing import Callable, Iterator

import numpy as np

from repro.comm import tree_arrays, tree_cache_info
from repro.core import (
    ProcessorGrid,
    SimulatedPSelInv,
    SimulatedPSelInvUnsym,
    collective_seed,
    communication_volumes,
    iter_plans,
    iter_unsym_plans,
)
from repro.obs import Telemetry, TraceSchemaError, validate_chrome_trace
from repro.runner import ExperimentSpec, ParallelRunner, available_cpus, cache
from repro.runner import store as run_store
from repro.runner.store import RunStore
from repro.simulate import NetworkConfig
from repro.sparse import analyze, factorize, normalize, selected_inversion
from repro.workloads import make_workload

from golden import des_digest, volume_digest
from tracing import SpanRecorder

# The Fig. 8 timing network (the network of the repository's timing
# benchmarks): bandwidth/fan-out bound at the grids simulated here.
TIMING_NET = dict(
    latency_intra_node=1.5e-7,
    latency_intra_group=4e-7,
    latency_inter_group=7e-7,
    injection_overhead=3e-7,
    receive_overhead=2e-7,
    task_overhead=1.5e-7,
    injection_bandwidth=1.5e9,
    ejection_bandwidth=1.5e9,
    bw_intra_node=6e9,
    bw_intra_group=2.0e9,
    bw_inter_group=1.5e9,
    flop_rate=8e9,
)
JITTER = 0.2
LOOKAHEAD = 4
MAX_SUPERNODE = 8
# v0.7.3: the flat tree plus un-optimised per-message handling (Fig. 8).
V073_OVERHEAD = 2.0e-6
ORACLE_TOL = 1e-9


def seeds(seed: int) -> tuple[int, int, int]:
    """(tree, jitter, placement) seeds for benchmark seed ``seed``."""
    return 20160523 + seed, seed, 1000 + seed


def network() -> NetworkConfig:
    return NetworkConfig(jitter_sigma=JITTER, **TIMING_NET)


class Iteration:
    """State of one workload iteration: timings, counters and checks."""

    def __init__(self, seed: int, rec: SpanRecorder, work_dir: str) -> None:
        self.seed = seed
        self.rec = rec
        self.work_dir = work_dir
        self.setup_s = 0.0
        self.wall_s = 0.0
        # Throughput: DES events over DES seconds, or (volumes) evaluated
        # collectives over core.volume seconds.
        self.work = 0
        self.work_s = 0.0
        self.layers: dict[str, float] = {}
        self.digests: dict[str, dict] = {}
        self.attempted = 0
        self.failures: list[str] = []
        self._trees0 = tree_cache_info()

    # -- timing ---------------------------------------------------------------

    @contextmanager
    def _timed(self, attr: str, span: str) -> Iterator[None]:
        t0 = perf_counter()
        try:
            with self.rec.span(span):
                yield
        finally:
            setattr(self, attr, getattr(self, attr) + perf_counter() - t0)

    def setup(self):
        """Times set-up; its span is a root of the traced run."""
        return self._timed("setup_s", "setup")

    def body(self):
        """Times the body; its span is a root of the traced run."""
        return self._timed("wall_s", "body")

    @contextmanager
    def phase(self, name: str) -> Iterator[None]:
        """Adds the block's seconds to layer metric ``phase.<name>_s``."""
        t0 = perf_counter()
        try:
            yield
        finally:
            self.add(f"phase.{name}_s", perf_counter() - t0)

    def call(self, layer: str, fn: Callable, *args, **kwargs):
        """``fn(*args, **kwargs)`` inside a span named ``layer``."""
        with self.rec.span(layer):
            return fn(*args, **kwargs)

    def add(self, metric: str, value: float) -> None:
        self.layers[metric] = self.layers.get(metric, 0.0) + value

    def des(self, layer: str, make: Callable):
        """Construct a simulation with ``make()`` and run it, as spans
        ``<layer>.init`` and ``<layer>.run``; counts its traffic."""
        t0 = perf_counter()
        sim = self.call(f"{layer}.init", make)
        res = self.call(f"{layer}.run", sim.run)
        self.work_s += perf_counter() - t0
        self.work += res.events
        self.count_traffic(res.events, res.stats)
        return res

    def count_traffic(self, events: int, stats) -> None:
        self.add("simulate.events", events)
        self.add(
            "simulate.messages",
            sum(int(np.sum(a)) for a in stats.messages_sent.values()),
        )
        self.add(
            "simulate.mbytes",
            sum(float(np.sum(a)) for a in stats.sent.values()) / 1e6,
        )

    def count_collectives(self, plans) -> None:
        self.add(
            "core.plan.collectives",
            sum(1 for p in plans for _ in p.collectives()),
        )

    # -- checks ---------------------------------------------------------------

    def check(self, name: str, ok: bool) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(name)

    def finish_tree_counts(self, hits: int | None = None,
                           misses: int | None = None) -> None:
        """Record tree-cache counters (this process's delta by default)."""
        if hits is None:
            now = tree_cache_info()
            hits = now["hits"] - self._trees0["hits"]
            misses = now["misses"] - self._trees0["misses"]
        self.layers["comm.trees.hits"] = hits
        self.layers["comm.trees.misses"] = misses
        lookups = hits + misses
        self.layers["comm.trees.hit_rate"] = hits / lookups if lookups else 0.0


def same_traffic(stats, report) -> bool:
    """DES per-rank bytes sent and received equal the analytic report."""
    cats = {k for k, a in stats.sent.items() if np.any(a)}
    if cats != {k for k, a in report.sent.items() if np.any(a)}:
        return False
    return all(
        np.array_equal(np.asarray(stats.sent[k]), report.sent[k])
        and np.array_equal(np.asarray(stats.received[k]), report.received[k])
        for k in cats
    )


def _problem(it: Iteration, workload: str, scale: str):
    matrix = it.call("workloads.make", make_workload, workload, scale)
    return it.call("sparse.analyze", analyze, matrix,
                   max_supernode=MAX_SUPERNODE)


def _plans(it: Iteration, struct, grid, unsym: bool = False) -> list:
    make = iter_unsym_plans if unsym else iter_plans
    return it.call("core.plan.plans", lambda: list(make(struct, grid)))


# -- reference ----------------------------------------------------------------


def reference(it: Iteration) -> None:
    tree_seed, jitter_seed, placement_seed = seeds(it.seed)
    grid = ProcessorGrid(32, 32)
    with it.setup():
        prob = _problem(it, "audikw_1", "small")
        plans = _plans(it, prob.struct, grid)
    with it.body():
        res = it.des("core.pselinv", lambda: SimulatedPSelInv(
            prob.struct, grid, "shifted", network=network(), seed=tree_seed,
            jitter_seed=jitter_seed, placement_seed=placement_seed,
            lookahead=LOOKAHEAD, plans=plans,
        ))
    it.count_collectives(plans)
    it.finish_tree_counts()
    it.digests["shifted-32x32"] = des_digest(res.makespan, res.events,
                                             res.stats)
    report = communication_volumes(
        prob.struct, grid, "shifted", seed=tree_seed, plans=plans
    )
    it.check("reference DES traffic equals communication_volumes",
             same_traffic(res.stats, report))


# -- sweep --------------------------------------------------------------------

SWEEP_SIDES = (4, 8, 16, 23, 32)
# (label, tree scheme, per-message CPU overhead)
SWEEP_SCHEMES = (
    ("flat", "flat", 0.0),
    ("binary", "binary", 0.0),
    ("shifted", "shifted", 0.0),
    ("v0.7.3-flat", "flat", V073_OVERHEAD),
)


def sweep_specs(seed: int) -> list[ExperimentSpec]:
    """Fig. 8 quick sweep structure (5 grids, 4 schemes, 2 jitter seeds)
    on the tiny proxy so a whole cold pass fits in a few seconds."""
    tree_seed, jitter_seed, placement_seed = seeds(seed)
    specs = []
    for p in SWEEP_SIDES:
        for run in range(2):
            for label, scheme, overhead in SWEEP_SCHEMES:
                specs.append(ExperimentSpec(
                    "audikw_1", (p, p), scheme,
                    scale="tiny",
                    max_supernode=MAX_SUPERNODE,
                    network=network(),
                    seed=tree_seed,
                    jitter_seed=2 * jitter_seed + run,
                    placement_seed=2 * placement_seed + run,
                    lookahead=LOOKAHEAD,
                    per_message_cpu_overhead=overhead,
                    label=label,
                ))
    return specs


def _spec_name(spec: ExperimentSpec) -> str:
    return f"{spec.label}-{spec.grid[0]}x{spec.grid[1]}-j{spec.jitter_seed}"


def _runner_counts(stats: dict[str, int], prefix: str) -> tuple[int, int]:
    hits = sum(v for k, v in stats.items()
               if k.startswith(prefix) and k.endswith("hits"))
    misses = sum(v for k, v in stats.items()
                 if k.startswith(prefix) and k.endswith("misses"))
    return hits, misses


def sweep(it: Iteration) -> None:
    specs = sweep_specs(it.seed)
    jobs = available_cpus()
    store_dir = os.path.join(it.work_dir, "store")
    copy_dir = os.path.join(it.work_dir, "store-copy")
    run_store.configure(enabled=True, refresh=False, directory=store_dir)
    try:
        with it.setup():
            it.call("runner.prewarm", cache.prewarm, specs)
        cold_runner = ParallelRunner(jobs)
        replay_runner = ParallelRunner(jobs)
        with it.body():
            t0 = perf_counter()
            cold = it.call("runner.cold", cold_runner.run, specs)
            cold_s = perf_counter() - t0
            with it.phase("replay"):
                replay = it.call("runner.replay", replay_runner.run, specs)
            direct = RunStore(store_dir)
            got = it.call("runner.store.get",
                          lambda: [direct.get(s) for s in specs])
            copy = RunStore(copy_dir)
            it.call("runner.store.put",
                    lambda: [copy.put(s, r) for s, r in zip(specs, cold)])
    finally:
        run_store.configure(enabled=False)
        shutil.rmtree(store_dir, ignore_errors=True)
        shutil.rmtree(copy_dir, ignore_errors=True)

    busy = sum(r.wall_seconds for r in cold)
    it.work = sum(r.events for r in cold)
    it.work_s = busy
    for r in cold:
        it.count_traffic(r.events, r)
    seen = set()
    for s in specs:
        if s.grid not in seen:
            seen.add(s.grid)
            it.count_collectives(cache.get_plans(
                cache.get_problem(s.workload, s.scale, s.max_supernode),
                ProcessorGrid(*s.grid),
            ))
    it.add("runner.busy_s", busy)
    it.add("runner.idle_frac", max(0.0, 1.0 - busy / (jobs * cold_s)))
    both = dict(cold_runner.stats)
    for k, v in replay_runner.stats.items():
        both[k] = both.get(k, 0) + v
    hits, misses = _runner_counts(both, "memo.")
    it.add("runner.memo.hit_rate",
           hits / (hits + misses) if hits + misses else 0.0)
    it.finish_tree_counts(*_runner_counts(both, "tree_cache."))
    store_hits, misses = _runner_counts(replay_runner.stats, "store.")
    it.add("runner.store.hit_rate",
           store_hits / (store_hits + misses) if store_hits + misses else 0.0)

    for s, r in zip(specs, cold):
        it.digests[_spec_name(s)] = des_digest(r.makespan, r.events, r)
    it.check("every replayed record comes from the store",
             store_hits == len(specs))
    for s, c, r, g in zip(specs, cold, replay, got):
        name = _spec_name(s)
        it.check(f"replay of {name} has the cold outcome", c.same_outcome(r))
        it.check(f"stored {name} has the cold outcome",
                 g is not None and c.same_outcome(g))


# -- volumes ------------------------------------------------------------------

VOLUME_SCHEMES = ("flat", "binary", "binomial", "shifted")
# (workload, grid sides with symmetric plans, sides with unsymmetric plans):
# sparse FE at the Table I grid and dense DG at the largest one, trimmed
# so that two cold iterations fit in one run.
VOLUME_CASES = (
    ("audikw_1", (8,), (8,)),
    ("DG_PNF14000", (32,), ()),
)
_BCAST = ("diag-bcast", "col-bcast")
_REDUCE = ("row-reduce", "col-reduce")


def _volume_invariants(it: Iteration, name: str, reports: dict) -> None:
    """Seed-independent: bytes are conserved, and every participant
    receives each broadcast (sends each reduction) exactly once whatever
    the tree, so those per-rank arrays cannot depend on the scheme."""
    base = reports[VOLUME_SCHEMES[0]]
    for scheme, rep in reports.items():
        it.check(
            f"{name} {scheme}: bytes sent equal bytes received",
            all(rep.sent[k].sum() == rep.received[k].sum() for k in rep.sent),
        )
        it.check(
            f"{name} {scheme}: per-rank broadcast receipts and reduction "
            "sends are tree-independent",
            all(np.array_equal(rep.received_by(k), base.received_by(k))
                for k in _BCAST)
            and all(np.array_equal(rep.sent_by(k), base.sent_by(k))
                    for k in _REDUCE),
        )


def volumes(it: Iteration) -> None:
    tree_seed = seeds(it.seed)[0]
    cases = []
    with it.setup():
        for workload, sides, unsym_sides in VOLUME_CASES:
            prob = _problem(it, workload, "small")
            for p in sides:
                grid = ProcessorGrid(p, p)
                cases.append((f"{workload}-{p}x{p}", prob, grid,
                              _plans(it, prob.struct, grid)))
            for p in unsym_sides:
                grid = ProcessorGrid(p, p)
                cases.append((f"{workload}-{p}x{p}-unsym", prob, grid,
                              _plans(it, prob.struct, grid, unsym=True)))
    results = []
    with it.body():
        for name, prob, grid, plans in cases:
            colls = [c for p in plans for c in p.collectives()]
            # Per-collective tree construction as the DES does it, for the
            # scheme with the most distinct trees.
            with it.rec.span("comm.trees.build"):
                for c in colls:
                    tree_arrays("shifted", c.root, c.participants,
                                collective_seed(tree_seed, c.key))
            reports = {}
            for scheme in VOLUME_SCHEMES:
                t0 = perf_counter()
                reports[scheme] = it.call(
                    "core.volume", communication_volumes, prob.struct, grid,
                    scheme, seed=tree_seed, plans=plans,
                )
                it.work_s += perf_counter() - t0
                it.work += len(colls)
            results.append((name, reports))
    for name, prob, grid, plans in cases:
        it.count_collectives(plans)
    it.finish_tree_counts()
    for name, reports in results:
        for scheme, rep in reports.items():
            it.digests[f"{name}-{scheme}"] = volume_digest(rep)
        _volume_invariants(it, name, reports)


# -- variants -----------------------------------------------------------------

NUMERIC_SIDES = (4, 8)
UNSYM_SIDES = (4, 8, 16)
TELEMETRY_SIDE = 16
TELEMETRY_PAIRS = 3


def variants(it: Iteration) -> None:
    tree_seed, jitter_seed, placement_seed = seeds(it.seed)
    net = network()
    common = dict(network=net, seed=tree_seed, jitter_seed=jitter_seed,
                  placement_seed=placement_seed, lookahead=LOOKAHEAD)
    with it.setup():
        prob = _problem(it, "audikw_1", "tiny")
        struct = prob.struct
        raw = it.call("sparse.factorize", factorize, prob.matrix, struct)
        for_oracle = it.call("sparse.factorize", factorize, prob.matrix, struct)

        def oracle():
            normalize(for_oracle)
            return selected_inversion(for_oracle).to_dense_at_structure()

        want = it.call("sparse.selinv", oracle)
        grids = {p: ProcessorGrid(p, p)
                 for p in {*NUMERIC_SIDES, *UNSYM_SIDES, TELEMETRY_SIDE}}
        plans = {p: _plans(it, struct, grids[p])
                 for p in (*NUMERIC_SIDES, TELEMETRY_SIDE)}
        unsym_plans = {p: _plans(it, struct, grids[p], unsym=True)
                       for p in UNSYM_SIDES}

    offs, ons, off_res, on_res = [], [], [], []
    with it.body():
        with it.phase("numeric"):
            numeric = {
                p: it.des("core.pselinv", lambda p=p: SimulatedPSelInv(
                    struct, grids[p], "shifted", factor=raw,
                    plans=plans[p], **common))
                for p in NUMERIC_SIDES
            }
        with it.phase("unsym"):
            unsym = {
                p: it.des("core.pselinv_unsym", lambda p=p: SimulatedPSelInvUnsym(
                    struct, grids[p], "shifted", plans=unsym_plans[p],
                    **common))
                for p in UNSYM_SIDES
            }
        with it.phase("telemetry"):
            grid = grids[TELEMETRY_SIDE]
            for _ in range(TELEMETRY_PAIRS):
                t0 = perf_counter()
                off_res.append(it.des("core.pselinv", lambda: SimulatedPSelInv(
                    struct, grid, "shifted", plans=plans[TELEMETRY_SIDE],
                    **common)))
                offs.append(perf_counter() - t0)
                tel = Telemetry.full(grid.size)
                t0 = perf_counter()
                on_res.append(it.des("core.pselinv", lambda: SimulatedPSelInv(
                    struct, grid, "shifted", plans=plans[TELEMETRY_SIDE],
                    telemetry=tel, **common)))
                ons.append(perf_counter() - t0)
                trace = it.call("obs.export", tel.timeline.to_chrome_trace)

    off_s, on_s = statistics.median(offs), statistics.median(ons)
    it.add("obs.off_s", off_s)
    it.add("obs.on_s", on_s)
    it.add("obs.overhead_pct", 100.0 * (on_s - off_s) / off_s)
    it.add("obs.trace_events", len(trace["traceEvents"]))
    for p in UNSYM_SIDES:
        it.count_collectives(unsym_plans[p])
    for p in (*NUMERIC_SIDES, TELEMETRY_SIDE):
        it.count_collectives(plans[p])
    it.finish_tree_counts()

    for p, res in numeric.items():
        it.digests[f"numeric-{p}x{p}"] = des_digest(res.makespan, res.events,
                                                    res.stats)
        err = np.abs(res.inverse.to_dense_at_structure() - want).max()
        it.check(f"numeric {p}x{p} matches the sequential oracle",
                 bool(err <= ORACLE_TOL))
    for p, res in unsym.items():
        it.digests[f"unsym-{p}x{p}"] = des_digest(res.makespan, res.events,
                                                  res.stats)
        report = communication_volumes(struct, grids[p], "shifted",
                                       seed=tree_seed, plans=unsym_plans[p])
        it.check(f"unsym {p}x{p} DES traffic equals communication_volumes",
                 same_traffic(res.stats, report))
    off_digest = des_digest(off_res[0].makespan, off_res[0].events,
                            off_res[0].stats)
    it.digests[f"telemetry-off-{TELEMETRY_SIDE}x{TELEMETRY_SIDE}"] = off_digest
    for res in off_res[1:] + on_res:
        it.check("telemetry on is bit-identical to telemetry off",
                 des_digest(res.makespan, res.events, res.stats) == off_digest)
    try:
        validate_chrome_trace(trace)
        valid = True
    except TraceSchemaError:
        valid = False
    it.check("the exported Chrome trace passes validate_chrome_trace", valid)


WORKLOADS = {
    "reference": reference,
    "sweep": sweep,
    "volumes": volumes,
    "variants": variants,
}
