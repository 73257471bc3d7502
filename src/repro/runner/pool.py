"""Deterministic process-pool fan-out for experiment sweeps.

The paper's figures are reproduced by sweeping (workload x grid x scheme
x seed) discrete-event simulations that are independent by construction,
so they fan out across a :class:`concurrent.futures.ProcessPoolExecutor`
-- the embarrassingly-parallel analogue of the asynchronous task
parallelism the underlying solvers exploit.  Three properties are
load-bearing:

* **Bit-identical to serial.**  Every simulation is deterministic given
  its spec, workers execute the same ``run_experiment`` the serial path
  does, and results are merged back in submission order -- so
  ``jobs=N`` and ``jobs=1`` produce byte-for-byte identical records.
* **Cheap boundaries.**  Only specs (primitives) and records (floats +
  numpy arrays) are pickled; problems, plans, and trees live in the
  per-worker caches of :mod:`repro.runner.cache`, pre-warmed in the
  parent so fork-start workers inherit them copy-on-write.
* **Graceful degradation.**  ``REPRO_JOBS=1`` (or any platform where a
  process pool cannot be created) falls back to a plain in-process loop
  with identical semantics, and a failing experiment raises
  :class:`ExperimentError` naming the exact spec that failed.

``REPRO_JOBS`` selects the worker count everywhere (benchmarks,
``repro check``, ``repro bench``); unset or ``auto`` means "all
available cores".
"""

from __future__ import annotations

import multiprocessing
import os
import sys
import traceback
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from functools import partial
from time import perf_counter
from typing import Any, Callable, Iterable, Sequence

from . import cache, store
from .spec import ExperimentSpec, RunRecord, VolumeSpec

__all__ = [
    "ExperimentError",
    "ParallelRunner",
    "available_cpus",
    "default_jobs",
    "run_experiment",
    "run_experiments",
    "run_volume",
]

#: Progress callback: (done, total, item, result, elapsed_seconds).
ProgressFn = Callable[[int, int, Any, Any, float], None]


class ExperimentError(RuntimeError):
    """An experiment failed; the message names the offending spec."""


@dataclass
class _Failure:
    """Picklable carrier for a worker-side exception."""

    item: str  # describe()/repr of the failing work item
    error: str  # repr of the exception
    tb: str  # formatted traceback from the worker

    def raise_(self) -> None:
        raise ExperimentError(
            f"experiment failed for {self.item}: {self.error}\n"
            f"--- worker traceback ---\n{self.tb}"
        )


def available_cpus() -> int:
    """CPUs this process may actually run on (affinity-aware)."""
    try:
        return max(1, len(os.sched_getaffinity(0)))
    except (AttributeError, OSError):  # pragma: no cover - non-Linux
        return max(1, os.cpu_count() or 1)


def default_jobs() -> int:
    """Worker count from ``REPRO_JOBS`` (unset/``auto``/``0`` = all cores)."""
    raw = os.environ.get("REPRO_JOBS", "").strip().lower()
    if raw not in ("", "auto", "0"):
        try:
            return max(1, int(raw))
        except ValueError:
            pass  # unparseable -> fall through to the core count
    return available_cpus()


def _describe(item: Any) -> str:
    describe = getattr(item, "describe", None)
    if callable(describe):
        return describe()
    text = repr(item)
    return text if len(text) <= 200 else text[:197] + "..."


@dataclass
class _Shipped:
    """Result wrapper carrying per-item cache/store counter deltas.

    The memo caches (:mod:`repro.runner.cache`), the tree-structure
    cache (:mod:`repro.comm.trees`), and the result store
    (:mod:`repro.runner.store`) keep *per-process* cumulative counters.
    Pool workers are separate processes, so without shipping, their
    counters would vanish when the pool exits.  Each work item therefore
    returns the counter *delta* accrued since the previous item in the
    same process; the parent folds deltas in any order into one
    sweep-level total.
    """

    value: Any
    stats: dict[str, int]


def _stats_totals() -> dict[str, int]:
    """Cumulative cache/store counters of this process, flat-named."""
    from ..comm.trees import tree_cache_info

    totals: dict[str, int] = {}
    info = tree_cache_info()
    for k in ("hits", "misses", "evictions"):
        totals[f"tree_cache.{k}"] = info[k]
    for k, v in cache.cache_stats().items():
        totals[f"memo.{k}"] = v
    for k, v in store.store_stats().items():
        totals[f"store.{k}"] = v
    return totals


# Counter values already shipped by this process (baseline for the next
# delta).  Forked workers inherit the parent's baseline, which equals
# the parent's pre-fork totals -- so worker deltas count only work done
# in the worker, never the inherited warm-cache history.
_SHIPPED: dict[str, int] = {}


def _stats_delta() -> dict[str, int]:
    """Counter movement since the last call (and advance the baseline)."""
    totals = _stats_totals()
    delta = {
        k: v - _SHIPPED.get(k, 0) for k, v in totals.items()
    }
    _SHIPPED.clear()
    _SHIPPED.update(totals)
    return {k: v for k, v in delta.items() if v}


def _guarded(fn: Callable[[Any], Any], item: Any) -> Any:
    """Run ``fn(item)``, converting failure into a picklable record and
    attaching the cache/store counter delta this item accrued."""
    try:
        value = fn(item)
    except Exception as exc:
        value = _Failure(_describe(item), repr(exc), traceback.format_exc())
    return _Shipped(value, _stats_delta())


def _worker_init() -> None:
    """Pool initializer: warm the heavy imports once per worker.

    The memo caches in :mod:`repro.runner.cache` are module-level, so on
    fork platforms they arrive pre-populated from the parent; importing
    the simulation stack here keeps even spawn-start workers from paying
    import latency inside the first timed experiment.
    """
    from .. import comm, core, simulate, sparse  # noqa: F401


def run_experiment(spec: ExperimentSpec) -> RunRecord:
    """Execute one DES experiment (in this process) and record it.

    This is the single execution path for serial and parallel runs
    alike; determinism of the parallel runner reduces to determinism of
    the simulation itself.  When the result store is active
    (``REPRO_STORE``, see :mod:`repro.runner.store`) and the spec is
    cacheable, a stored record is returned without simulating -- valid
    precisely because the simulation is deterministic given its spec.
    """
    from ..core.grid import ProcessorGrid
    from ..core.pselinv import SimulatedPSelInv

    rs = store.open_store() if store.cacheable(spec) else None
    if rs is not None and not store.store_refresh():
        stored = rs.get(spec)
        if stored is not None:
            return stored

    prob = cache.get_problem(spec.workload, spec.scale, spec.max_supernode)
    grid = ProcessorGrid(*spec.grid)
    plans = cache.get_plans(prob, grid)
    tree_cache = cache.get_tree_cache(
        prob, grid, spec.scheme, spec.seed, spec.hybrid_threshold
    )
    telemetry = None
    if spec.telemetry:
        from ..obs import HotSpotMonitor, MetricsRegistry, Telemetry

        telemetry = Telemetry(
            metrics=MetricsRegistry(
                workload=spec.workload, scheme=spec.scheme
            ),
            hotspots=HotSpotMonitor(grid.size),
        )
    # Host wall clock for throughput metrics only -- never enters the
    # simulated outcome.
    t0 = perf_counter()  # det: allow(DET003)
    res = SimulatedPSelInv(
        prob.struct,
        grid,
        spec.scheme,
        network=spec.network,
        seed=spec.seed,
        placement_seed=spec.placement_seed,
        jitter_seed=spec.jitter_seed,
        hybrid_threshold=spec.hybrid_threshold,
        per_message_cpu_overhead=spec.per_message_cpu_overhead,
        lookahead=spec.lookahead,
        plans=plans,
        tree_cache=tree_cache,
        telemetry=telemetry,
        engine=spec.engine,
    ).run(max_events=spec.max_events)
    wall = perf_counter() - t0  # det: allow(DET003)
    record = RunRecord.from_result(spec, res)
    record.wall_seconds = wall
    if telemetry is not None:
        reg = telemetry.metrics
        reg.counter("runner.experiments").inc()
        reg.counter("runner.wall_seconds_total").inc(wall)
        for name, count in cache.cache_stats().items():
            reg.gauge(f"runner.cache_{name}").update_max(count)
        mon = telemetry.hotspots
        # "TOTAL" keys the all-category aggregate (JSON-safe, unlike None).
        cats = {"TOTAL": None, **{c: c for c in mon.categories}}
        record.metrics = {
            "snapshot": reg.snapshot(),
            "hotspots": {name: mon.imbalance(c) for name, c in cats.items()},
            "top_ranks": {name: mon.top_ranks(5, c) for name, c in cats.items()},
        }
    if rs is not None:
        rs.put(spec, record)
    return record


def run_volume(spec: VolumeSpec):
    """Execute one analytic volume computation; returns a VolumeReport."""
    from ..core.grid import ProcessorGrid
    from ..core.volume import communication_volumes

    prob = cache.get_problem(spec.workload, spec.scale, spec.max_supernode)
    grid = ProcessorGrid(*spec.grid)
    plans = cache.get_plans(prob, grid)
    return communication_volumes(
        prob.struct, grid, spec.scheme, seed=spec.seed, plans=plans
    )


def _execute(spec: Any) -> Any:
    """Spec dispatch (module-level so it pickles)."""
    if isinstance(spec, ExperimentSpec):
        return run_experiment(spec)
    if isinstance(spec, VolumeSpec):
        return run_volume(spec)
    raise TypeError(f"not an experiment spec: {spec!r}")


class ParallelRunner:
    """Ordered, deterministic fan-out of picklable work items.

    ``jobs=None`` resolves through :func:`default_jobs` (the
    ``REPRO_JOBS`` knob); ``jobs=1`` runs everything in-process.
    Requests above :func:`available_cpus` are clamped (with a one-line
    warning on stderr) -- oversubscribed pools only add scheduler churn
    to CPU-bound simulation workers.  Pass ``force_jobs=True`` to keep
    an oversubscribed count anyway (the jobs-sweep benchmark does, since
    measuring oversubscription is its point).
    ``progress`` is invoked after each completed item, in submission
    order, as ``progress(done, total, item, result, elapsed)``.

    ``stats`` accumulates the cache/store counter deltas shipped back
    from every executed item -- worker-side counters included, which
    would otherwise die with the pool.  :meth:`metrics_snapshot` exports
    them in the obs registry's snapshot shape for merging/printing.
    """

    def __init__(
        self,
        jobs: int | None = None,
        *,
        chunksize: int | None = None,
        progress: ProgressFn | None = None,
        force_jobs: bool = False,
    ) -> None:
        jobs = default_jobs() if jobs is None else max(1, int(jobs))
        cpus = available_cpus()
        if jobs > cpus and not force_jobs:
            print(
                f"repro.runner: clamping jobs={jobs} to {cpus} available "
                "CPUs (pass force_jobs=True / --force-jobs to override)",
                file=sys.stderr,
            )
            jobs = cpus
        self.jobs = jobs
        self.chunksize = chunksize
        self.progress = progress
        self.stats: dict[str, int] = {}

    def _fold(self, delta: dict[str, int]) -> None:
        for k, v in delta.items():
            self.stats[k] = self.stats.get(k, 0) + v

    def metrics_snapshot(self) -> dict:
        """Accumulated sweep counters as an obs-style metrics snapshot.

        Canonical series names: ``comm.tree_cache.*`` (structure cache),
        ``runner.cache.*`` (per-process memo tables), ``runner.store.*``
        (result store), plus guarded ``*.hit_rate`` gauges (0.0 when the
        cache was never consulted -- no division by zero on an idle
        sweep).
        """
        prefix_map = {
            "tree_cache.": "comm.tree_cache.",
            "memo.": "runner.cache.",
            "store.": "runner.store.",
        }
        counters: dict[str, int] = {}
        for k, v in self.stats.items():
            for short, canon in prefix_map.items():
                if k.startswith(short):
                    counters[canon + k[len(short):]] = v
                    break
        gauges: dict[str, float] = {}
        for name, hits_key, miss_key in (
            ("comm.tree_cache.hit_rate", "comm.tree_cache.hits",
             "comm.tree_cache.misses"),
            ("runner.store.hit_rate", "runner.store.hits",
             "runner.store.misses"),
        ):
            hits = counters.get(hits_key, 0)
            lookups = hits + counters.get(miss_key, 0)
            gauges[name] = hits / lookups if lookups else 0.0
        return {
            "counters": {k: counters[k] for k in sorted(counters)},
            "gauges": gauges,
            "histograms": {},
        }

    # -- generic ordered map ------------------------------------------------

    def map(self, fn: Callable[[Any], Any], items: Iterable[Any]) -> list:
        """``[fn(x) for x in items]``, fanned out across the pool.

        Results come back in item order regardless of completion order.
        ``fn`` must be a picklable module-level callable.  A failing
        item raises :class:`ExperimentError` naming it; a broken or
        unavailable pool falls back to an in-process loop (same results,
        deterministically).
        """
        items = list(items)
        n = len(items)
        # Attribute parent-side work done since the last ship (prewarm,
        # planner activity) to this sweep, and -- critically -- advance
        # the process baseline *before* the pool forks: workers inherit
        # the advanced baseline, so their first item's delta counts only
        # worker-side work, not the parent's warm-cache history (once
        # per worker, which would multiply-count it).
        self._fold(_stats_delta())
        jobs = min(self.jobs, n)
        if jobs <= 1:
            return self._map_serial(fn, items)
        # Snapshot accumulated stats so a mid-sweep pool collapse can
        # roll back the partial fold -- the serial retry re-executes
        # every item and would otherwise double-count the finished ones.
        stats_before = dict(self.stats)
        try:
            return self._map_pool(fn, items, jobs)
        except ExperimentError:
            raise
        except (BrokenProcessPool, ImportError, NotImplementedError, OSError,
                PermissionError, ValueError):
            # Pool could not be created or died wholesale (sandboxes,
            # missing /dev/shm, fork limits): redo serially from scratch
            # -- determinism makes the retry safe.
            self.stats = stats_before
            return self._map_serial(fn, items)

    def _map_serial(self, fn: Callable[[Any], Any], items: list) -> list:
        # Host wall clock for progress reporting only -- never enters
        # results or the simulation's virtual timeline.
        t0 = perf_counter()  # det: allow(DET003)
        out = []
        for i, item in enumerate(items):
            out.append(self._accept(_guarded(fn, item), i, len(items), item, t0))
        return out

    def _map_pool(self, fn: Callable[[Any], Any], items: list, jobs: int) -> list:
        t0 = perf_counter()  # det: allow(DET003) -- progress timing only
        n = len(items)
        # Chunked dispatch: amortize pickling/IPC without starving the
        # tail -- ~4 chunks per worker balances both.
        chunk = self.chunksize or max(1, n // (jobs * 4) or 1)
        try:
            ctx = multiprocessing.get_context("fork")
        except ValueError:  # pragma: no cover - fork-less platform
            ctx = multiprocessing.get_context()
        out = []
        with ProcessPoolExecutor(
            max_workers=jobs, mp_context=ctx, initializer=_worker_init
        ) as pool:
            for i, result in enumerate(
                pool.map(partial(_guarded, fn), items, chunksize=chunk)
            ):
                out.append(self._accept(result, i, n, items[i], t0))
        return out

    def _accept(self, result: Any, i: int, n: int, item: Any, t0: float) -> Any:
        if isinstance(result, _Shipped):
            self._fold(result.stats)
            result = result.value
        if isinstance(result, _Failure):
            result.raise_()
        if self.progress is not None:
            elapsed = perf_counter() - t0  # det: allow(DET003)
            self.progress(i + 1, n, item, result, elapsed)
        return result

    # -- experiment sweeps ---------------------------------------------------

    def run(self, specs: Sequence[Any], *, prewarm: bool = True) -> list:
        """Execute a sweep of specs; records return in spec order.

        ``prewarm`` populates the parent-process problem/plan caches
        first (fork-start workers then inherit them copy-on-write; it is
        also simply the serial path's memoization).
        """
        specs = list(specs)
        if prewarm:
            cache.prewarm(specs)
        return self.map(_execute, specs)


def run_experiments(
    specs: Sequence[Any],
    jobs: int | None = None,
    *,
    progress: ProgressFn | None = None,
    prewarm: bool = True,
    force_jobs: bool = False,
) -> list:
    """Convenience wrapper: one sweep through a :class:`ParallelRunner`."""
    runner = ParallelRunner(jobs, progress=progress, force_jobs=force_jobs)
    return runner.run(specs, prewarm=prewarm)
