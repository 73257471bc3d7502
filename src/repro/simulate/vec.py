"""Vectorized DES engine: calendar queue, SoA machine, slice dispatch.

The default execution engine (``engine="vectorized"``).  The heapq
:class:`~repro.simulate.engine.Simulator` and the per-message
:class:`~repro.simulate.machine.Machine` are its oracle
(``engine="legacy"``); this module is the one fast path:

* :class:`VecSimulator` -- a calendar-queue scheduler: events bucketed
  by a fixed time width, per-event state in struct-of-arrays columns
  indexed by sequence number, dispatch through an integer handler
  table, analytic fast-forward over empty buckets, and a *batch
  handler table*: a handler id may register a companion
  ``fn(batch, lo, hi)`` that consumes a whole contiguous same-handler
  slice of a sorted bucket in one call, instead of one dispatch per
  event.  Scalar semantics are unchanged -- the slice handler replays
  the exact per-event arithmetic in a tight loop with the per-slice
  work (argument gathers, ejection costs, stats scatter, bucket ids)
  vectorized, and bounded/instrumented runs use scalar loops.
* :class:`VecCommStats` stores the per-category byte/count tables as
  preallocated numpy columns, so slice handlers accumulate with one
  batched scatter-add (``np.add.at``); integer-valued float tallies
  below 2^53 are exact, so the scatter order cannot change a bit.
* :class:`VecMachine` -- the machine on that scheduler: free-listed SoA
  message records, fused network arithmetic, delivery callbacks, plus
  three hot-path primitives used by the compiled collectives and the
  vectorized protocol layer (:mod:`repro.comm.vec_collectives`):

  - :meth:`~VecMachine.send_pt` -- a *point* send for payload-less
    collective traffic: the in-flight message is a 5-tuple ``(dst,
    nbytes, cid, cb, aux)`` carried directly in the event-argument
    column, skipping the 8-column SoA record and its free-list round
    trip;
  - :meth:`~VecMachine.send_batch` -- emits one rank's whole fan-out as
    a column batch: the NIC injection chain is an ``np.add.accumulate``
    (bit-identical to the scalar chained adds) and the per-pair
    ``(latency, 1/bw, jitter)`` arithmetic is elementwise numpy;
  - :meth:`~VecMachine.post_named` -- a closure-free
    :meth:`Machine.post_compute`: the completion is a pre-registered
    handler id plus argument with a precomputed duration, so protocol
    layers schedule millions of compute finishes without allocating a
    lambda each.

Every timestamp expression is term-for-term identical to the legacy
machine's; the engine-identity suite drives both engines over the fig8
sweep and asserts bit-identical outcomes.
"""

from __future__ import annotations

import time
from bisect import insort
from heapq import heappop, heappush
from typing import Any, Callable

import numpy as np

from .engine import _NO_ARG
from .machine import CommStats, Machine, Message, TraceEvent
from .network import Network

__all__ = ["VecSimulator", "VecCommStats", "VecMachine"]


class VecSimulator:
    """Calendar-queue event loop with slice dispatch, drop-in for
    :class:`~repro.simulate.engine.Simulator`.

    Layout:

    * **Buckets** -- events are grouped by ``int(time / bucket_width)``
      into a dict of bucket index -> list of sequence numbers; a
      min-heap of occupied bucket indices orders the buckets.  Popping
      the heap *is* the analytic fast-forward: the clock jumps straight
      to the next occupied bucket instead of draining empty time.
    * **Struct-of-arrays event records** -- per-event state lives in
      three flat columns indexed by the sequence number:
      ``_times[seq]``, ``_hids[seq]`` (an integer handler id) and
      ``_args[seq]``.  Buckets hold bare seq ints; no per-event tuple
      is allocated anywhere.
    * **Handler table** -- :meth:`register_handler` interns a callable
      once and returns its integer id; the hot path then schedules
      ``(time, hid, arg)`` records via :meth:`schedule_msg` and the
      drain loop dispatches ``table[hid](arg)``.  Ids 0 and 1 are
      reserved for the generic :meth:`schedule` / :meth:`schedule_at`
      paths (0 = argless callable, 1 = ``(fn, arg)`` pair).
    * **Bucket dispatch** -- a bucket is sorted once by timestamp
      (stable C timsort keyed on the times column) and executed in one
      pass; the events-processed and pending counters are written back
      once per bucket, not once per event.  Stability gives exact
      ``(time, seq)`` order: a bucket list always holds any two
      equal-time seqs in ascending-seq order (appends allocate
      monotonically increasing seqs, and a re-parked prefix is already
      ``(time, seq)``-sorted with seqs below every later append).  A
      callback that schedules into the *active* bucket inserts in
      sorted position via ``bisect.insort`` with the same key (the new
      seq always lands after the in-flight index because its time is
      >= ``now`` and it is the largest seq yet, and ``insort_right``
      places it after existing equal-time entries).
    * **Slice dispatch** -- the unbounded drain scans each sorted bucket
      for runs of events sharing one handler id; a run at least
      :attr:`MIN_RUN` long whose handler registered a batch companion
      is handed over as one ``fn(batch, lo, hi)`` call.  The companion
      owns the slice: it must read times/args itself, clear the
      argument cells, leave ``now`` at the slice's last timestamp, and
      only schedule into *later* buckets (the machine layer guarantees
      this by gating installation on ``receive_overhead >=
      bucket_width``).  Shorter runs and foreign handler ids take the
      scalar path, re-checking the handler id per event -- an executed
      event may insort new work into the active bucket, so a
      precomputed run length cannot be trusted across scalar
      dispatches.

    Semantics are identical to :class:`~repro.simulate.engine.Simulator`:
    FIFO tie-breaking by seq, the same negative-delay / past-time
    errors, ``max_events`` checked before each event, and a bounded
    ``run(until=...)`` leaving ``now`` at the last executed event
    (unexecuted tails are re-parked).

    Per-bucket occupancy is tallied (`buckets_drained`,
    `max_bucket_events`) so benchmarks can report the scheduler-vs-
    handler split instead of inferring it.

    :class:`VecMachine` inlines the push sequence of :meth:`_push`
    directly into its send/receive stages -- any change to the
    scheduling invariants here must be mirrored there.
    """

    #: Default bucket width in virtual seconds.  Event spacing in the
    #: PSelInv runs is set by sub-microsecond NIC/latency constants, so
    #: 100ns buckets keep batches small (tens of events) while still
    #: amortizing the per-bucket heap pop and sort.
    DEFAULT_BUCKET_WIDTH = 1.0e-7

    #: Minimum same-handler run length worth a batch dispatch; below
    #: this the slice setup (gathers, ndarray round trips) costs more
    #: than it saves.
    MIN_RUN = 8

    def __init__(self, bucket_width: float | None = None) -> None:
        self.now: float = 0.0
        width = bucket_width if bucket_width else self.DEFAULT_BUCKET_WIDTH
        if width <= 0:
            raise ValueError(f"bucket width must be positive, got {width}")
        self.bucket_width = width
        self._inv_width = 1.0 / width
        # Calendar: bucket index -> sorted-on-demand [seq, ...].
        self._buckets: dict[int, list[int]] = {}
        self._bucket_heap: list[int] = []
        # SoA event columns, indexed by seq (monotonic, never recycled:
        # recycling would break FIFO tie order).  Args are cleared after
        # execution so payloads do not outlive their event.
        self._times: list[float] = []
        self._hids: list[int] = []
        self._args: list[Any] = []
        # Handler table; ids 0/1 are the generic-callable paths.  The
        # batch companions run parallel to it (ids 0/1 never batch).
        self._table: list[Callable[..., Any] | None] = [None, None]
        self._btable: list[Any] = [None, None]
        self._seq = 0
        self._events_processed = 0
        self._npending = 0
        # Active-bucket state: schedules landing in the bucket currently
        # draining must join it in sorted position (see class docstring).
        self._active_bucket = -1
        self._active_list: list[int] | None = None
        self._metrics = None
        self.buckets_drained = 0
        self.max_bucket_events = 0

    @property
    def events_processed(self) -> int:
        """Number of callbacks executed so far (for perf reporting).

        Updated once per drained bucket on the fast path (per event on
        the instrumented path), so mid-bucket reads from callbacks lag by
        up to one bucket.
        """
        return self._events_processed

    def attach_metrics(self, registry) -> None:
        """Enable loop telemetry (same series as :class:`Simulator`)."""
        self._metrics = registry

    # -- handler table -------------------------------------------------------

    def register_handler(self, fn: Callable[[Any], None]) -> int:
        """Intern ``fn`` and return its integer handler id (>= 2).

        The hot path pairs this with :meth:`schedule_msg`: the machine
        registers its per-message stages once and schedules plain
        ``(time, hid, record-index)`` triples, no closures or bound
        methods per event.
        """
        self._table.append(fn)
        self._btable.append(None)
        return len(self._table) - 1

    def register_batch_handler(self, hid: int, fn) -> None:
        """Install ``fn(batch, lo, hi)`` as handler ``hid``'s slice
        companion (see the class docstring for the contract)."""
        self._btable[hid] = fn

    # -- scheduling ----------------------------------------------------------

    def schedule(
        self, delay: float, fn: Callable[..., Any], arg: Any = _NO_ARG
    ) -> None:
        """Run ``fn`` (optionally as ``fn(arg)``) at ``now + delay``."""
        if delay < 0:
            raise ValueError(f"negative delay {delay}")
        self.schedule_at(self.now + delay, fn, arg)

    def schedule_at(
        self, time: float, fn: Callable[..., Any], arg: Any = _NO_ARG
    ) -> None:
        """Run ``fn`` (optionally as ``fn(arg)``) at absolute ``time``."""
        if time < self.now:
            raise ValueError(
                f"cannot schedule in the past (t={time} < now={self.now})"
            )
        if arg is _NO_ARG:
            self._push(time, 0, fn)
        else:
            self._push(time, 1, (fn, arg))

    def schedule_msg(self, time: float, hid: int, arg: Any) -> None:
        """Hot-path schedule: dispatch ``table[hid](arg)`` at ``time``."""
        if time < self.now:
            raise ValueError(
                f"cannot schedule in the past (t={time} < now={self.now})"
            )
        self._push(time, hid, arg)

    def _push(self, time: float, hid: int, arg: Any) -> None:
        s = self._seq
        self._seq = s + 1
        times = self._times
        times.append(time)
        self._hids.append(hid)
        self._args.append(arg)
        self._npending += 1
        b = int(time * self._inv_width)
        if b == self._active_bucket:
            # Always lands after the in-flight index: time >= now and
            # seq is the largest allocated, so insort_right on the
            # times key places it last among equal-time entries.
            insort(self._active_list, s, key=times.__getitem__)
            return
        try:
            self._buckets[b].append(s)
        except KeyError:
            self._buckets[b] = [s]
            heappush(self._bucket_heap, b)

    # -- draining ------------------------------------------------------------

    def _repark(self, b: int, batch: list, i: int, executed: int) -> None:
        """Bounded-run exit: return ``batch[i:]`` to the calendar."""
        tail = batch[i:]
        if tail:
            self._buckets[b] = tail
            heappush(self._bucket_heap, b)
        self._active_bucket = -1
        self._active_list = None
        self._events_processed += executed
        self._npending -= executed

    def run(self, until: float | None = None, max_events: int | None = None) -> float:
        """Drain the calendar; returns the final clock value.

        Same bounded-run contract as :meth:`Simulator.run`: ``until``
        leaves ``now`` at the last *executed* event (the fast-forward
        never jumps past the horizon to an unexecuted bucket), and
        ``max_events`` raises with the queue intact.  Bounded and
        instrumented runs take the scalar loops -- identical outcomes,
        no slice dispatch.
        """
        if self._metrics is not None:
            return self._run_instrumented(until, max_events)
        if until is not None or max_events is not None:
            return self._run_bounded(until, max_events)
        buckets = self._buckets
        heap = self._bucket_heap
        times = self._times
        hids = self._hids
        args = self._args
        table = self._table
        btable = self._btable
        minrun = self.MIN_RUN
        key = times.__getitem__
        drained = 0
        maxb = self.max_bucket_events
        while heap:
            b = heappop(heap)
            batch = buckets.pop(b, None)
            if batch is None:  # pragma: no cover - defensive
                continue
            if len(batch) > 1:
                batch.sort(key=key)
            self._active_bucket = b
            self._active_list = batch
            drained += 1
            # The C-level list iterator survives mid-drain growth (an
            # insort always lands strictly after the in-flight position;
            # see the class docstring).  A slice dispatch consumes events
            # *ahead* of the iterator; those are marked with hid -1 (seqs
            # are never recycled, so the sentinel cannot collide) and
            # skipped when the iterator reaches them.
            for i, s in enumerate(batch):
                h = hids[s]
                if h >= 2:
                    bh = btable[h]
                    if bh is not None:
                        nb = len(batch)
                        j = i + 1
                        while j < nb and hids[batch[j]] == h:
                            j += 1
                        if j - i >= minrun:
                            bh(batch, i, j)
                            for x in range(i + 1, j):
                                hids[batch[x]] = -1
                            continue
                    self.now = times[s]
                    a = args[s]
                    args[s] = None
                    table[h](a)
                elif h == 0:
                    self.now = times[s]
                    a = args[s]
                    args[s] = None
                    a()
                elif h == 1:
                    self.now = times[s]
                    f, x = args[s]
                    args[s] = None
                    f(x)
                # h == -1: already consumed by a slice dispatch above.
            self._active_bucket = -1
            self._active_list = None
            n = len(batch)
            if n > maxb:
                maxb = n
            self._events_processed += n
            self._npending -= n
        self.buckets_drained += drained
        self.max_bucket_events = maxb
        return self.now

    def _run_bounded(
        self, until: float | None, max_events: int | None
    ) -> float:
        """The :meth:`run` loop with a horizon and/or event budget.

        A separate copy so the unbounded fast path carries no per-event
        checks; this one re-parks the unexecuted tail on exit and never
        enters a slice companion (a slice could jump the horizon).
        """
        buckets = self._buckets
        heap = self._bucket_heap
        times = self._times
        hids = self._hids
        args = self._args
        table = self._table
        while heap:
            b = heappop(heap)
            batch = buckets.pop(b, None)
            if batch is None:  # pragma: no cover - defensive
                continue
            if len(batch) > 1:
                batch.sort(key=times.__getitem__)
            self._active_bucket = b
            self._active_list = batch
            i = 0
            done = self._events_processed
            while i < len(batch):
                s = batch[i]
                t = times[s]
                if until is not None and t > until:
                    self._repark(b, batch, i, i)
                    return self.now
                if max_events is not None and done + i >= max_events:
                    self._repark(b, batch, i, i)
                    raise RuntimeError(
                        f"simulation exceeded {max_events} events -- likely a "
                        "protocol bug (deadlock would drain, livelock would not)"
                    )
                i += 1
                self.now = t
                h = hids[s]
                a = args[s]
                args[s] = None
                if h >= 2:
                    table[h](a)
                elif h == 0:
                    a()
                else:
                    f, x = a
                    f(x)
            self._active_bucket = -1
            self._active_list = None
            self._events_processed = done + i
            self._npending -= i
        return self.now

    def _run_instrumented(
        self, until: float | None, max_events: int | None
    ) -> float:
        """The :meth:`run` loop plus telemetry (metrics attached).

        Counters update per event here (so the queue-depth high-water
        mark is exact), mirroring :meth:`Simulator._run_instrumented`'s
        series: ``sim.events``, ``sim.queue_depth_high_water``,
        ``sim.wall_seconds``, ``sim.events_per_sec``.
        """
        metrics = self._metrics
        buckets = self._buckets
        heap = self._bucket_heap
        times = self._times
        hids = self._hids
        args = self._args
        table = self._table
        depth_hw = self._npending
        start_events = self._events_processed
        start_wall = time.perf_counter()  # det: allow(DET003) observation-only
        while heap:
            b = heappop(heap)
            batch = buckets.pop(b, None)
            if batch is None:  # pragma: no cover - defensive
                continue
            if len(batch) > 1:
                batch.sort(key=times.__getitem__)
            self._active_bucket = b
            self._active_list = batch
            i = 0
            while i < len(batch):
                s = batch[i]
                t = times[s]
                if until is not None and t > until:
                    self._repark(b, batch, i, 0)
                    return self.now
                if max_events is not None and self._events_processed >= max_events:
                    self._repark(b, batch, i, 0)
                    raise RuntimeError(
                        f"simulation exceeded {max_events} events -- likely a "
                        "protocol bug (deadlock would drain, livelock would not)"
                    )
                if self._npending > depth_hw:
                    depth_hw = self._npending
                i += 1
                self.now = t
                self._events_processed += 1
                self._npending -= 1
                h = hids[s]
                a = args[s]
                args[s] = None
                if h >= 2:
                    table[h](a)
                elif h == 0:
                    a()
                else:
                    f, x = a
                    f(x)
            self._active_bucket = -1
            self._active_list = None
        wall = time.perf_counter() - start_wall  # det: allow(DET003)
        n = self._events_processed - start_events
        metrics.counter("sim.events").inc(n)
        metrics.gauge("sim.queue_depth_high_water").update_max(depth_hw)
        metrics.gauge("sim.wall_seconds").set(wall)
        if wall > 0.0:
            metrics.gauge("sim.events_per_sec").set(n / wall)
        return self.now

    def occupancy_stats(self) -> dict[str, float]:
        """Per-bucket occupancy summary of the unbounded drains so far."""
        drained = self.buckets_drained
        events = self._events_processed
        return {
            "buckets_drained": drained,
            "events": events,
            "mean_bucket_events": events / drained if drained else 0.0,
            "max_bucket_events": self.max_bucket_events,
        }

    def pending(self) -> int:
        """Number of events still queued.

        Exact between :meth:`run` calls; mid-bucket reads from callbacks
        lag by up to one bucket on the fast path.
        """
        return self._npending


class VecCommStats(CommStats):
    """Per-category tables as preallocated numpy columns.

    Scalar paths update single cells (``col[rank] += nbytes``); slice
    handlers scatter-add whole batches (``np.add.at``).  Byte and count
    tallies are integer-valued and far below 2^53, so both orders give
    exactly the same floats.  Busy-time accumulators stay plain Python
    lists: they are chained-float state updated once per event on the
    scalar path, where list indexing wins.
    """

    def _get(self, table, category):
        arr = table.get(category)
        if arr is None:
            arr = np.zeros(self.nranks)
            table[category] = arr
        return arr

    def _get_counts(self, table, category):
        arr = table.get(category)
        if arr is None:
            arr = np.zeros(self.nranks, dtype=np.int64)
            table[category] = arr
        return arr

    # The read-out views copy: the base class's np.asarray would alias
    # the live accumulator columns.

    @property
    def sent(self) -> dict[str, np.ndarray]:
        return {k: v.copy() for k, v in self._sent.items()}

    @property
    def received(self) -> dict[str, np.ndarray]:
        return {k: v.copy() for k, v in self._received.items()}

    @property
    def messages_sent(self) -> dict[str, np.ndarray]:
        return {k: v.copy() for k, v in self._messages_sent.items()}

    def total_sent(self, category: str | None = None) -> np.ndarray:
        if category is not None:
            col = self._sent.get(category)
            return col.copy() if col is not None else np.zeros(self.nranks)
        out = np.zeros(self.nranks)
        for arr in self._sent.values():
            out += arr
        return out

    def total_received(self, category: str | None = None) -> np.ndarray:
        if category is not None:
            col = self._received.get(category)
            return col.copy() if col is not None else np.zeros(self.nranks)
        out = np.zeros(self.nranks)
        for arr in self._received.values():
            out += arr
        return out


class VecMachine(Machine):
    """The machine on the vectorized engine: SoA records, fused costs.

    Same cost model and same API surface as :class:`Machine` (it *is*
    one, for :meth:`post_compute`, :meth:`set_handler`, stats, and the
    telemetry hooks), but
    the per-message hot path is restructured around
    :class:`VecSimulator`:

    * **Struct-of-arrays message records** -- an in-flight message is an
      integer index into parallel columns (``src``/``dst``/``tag``/
      ``nbytes``/``category-id``/``payload``/``callback``/``aux``)
      recycled through a free list; no :class:`Message` object exists on
      the fast path (one is materialized only for the legacy
      :meth:`set_handler` path and the telemetry hooks).  Payload-less
      collective traffic skips even that: :meth:`send_pt` carries a
      5-tuple in the event-argument column (see the module docstring).
    * **Integer handler dispatch** -- the receive and deliver stages are
      registered once in the engine's handler table; every schedule is a
      flat ``(time, hid, record)`` triple.
    * **Fused network arithmetic** -- injection/ejection/transit costs
      are inlined from the network's flattened constants, with the
      per-pair ``(latency, 1/bandwidth, jitter)`` triple memoized in a
      dense table (see :meth:`Network.pair_params` for the bit-identity
      argument).  When the network is instrumented for telemetry the
      machine falls back to the query methods so the tallies still fire.
    * **Direct delivery callbacks** -- a send may carry ``cb(dst,
      payload, aux)``, letting the collective layer route a message to
      its own continuation without any per-rank tag dispatch; ``aux``
      carries the receiver's tree position.  Messages without a callback
      fall back to the rank's fast handler ``fn(tag, payload, aux)`` or
      the legacy ``fn(msg)`` handler.

    ``deliver_cpu_overhead`` charges a fixed CPU cost on the destination
    rank per delivered message (the protocol layer's
    ``per_message_cpu_overhead``, hoisted into the machine so the
    engine needs no wrapper handler).

    Configurations that are not fast-path eligible (telemetry recorder,
    trace log, instrumented network, per-delivery CPU tax, dict
    channels) keep the generic methods below; the closure-specialized
    fast path (:meth:`_install_fast_path`) has identical outcomes.
    """

    _stats_cls = VecCommStats

    def __init__(
        self,
        nranks: int,
        network: Network,
        sim: VecSimulator | None = None,
        *,
        event_log: list | None = None,
        recorder=None,
        metrics=None,
        deliver_cpu_overhead: float = 0.0,
        bucket_width: float | None = None,
    ):
        super().__init__(
            nranks,
            network,
            sim or VecSimulator(bucket_width),
            event_log=event_log,
            recorder=recorder,
            metrics=metrics,
        )
        sim_ = self.sim
        self._hid_receive = sim_.register_handler(self._receive_rec)
        self._hid_deliver = sim_.register_handler(self._deliver_rec)
        self._hid_receive_pt = sim_.register_handler(self._receive_pt)
        self._hid_deliver_pt = sim_.register_handler(self._deliver_pt)
        # SoA message columns (parallel lists indexed by record id).
        self._msrc: list[int] = []
        self._mdst: list[int] = []
        self._mtag: list[Any] = []
        self._mnbytes: list[int] = []
        self._mcid: list[int] = []
        self._mpayload: list[Any] = []
        self._mcb: list[Any] = []
        self._maux: list[int] = []
        self._mfree: list[int] = []
        # Category interning: id -> name, and per-id stats columns bound
        # lazily on first use so the CommStats dicts gain keys in the
        # exact order the legacy machine would (bit-identity).
        self._cat_ids: dict[str, int] = {}
        self._cat_names: list[str] = []
        self._sent_cols: list[list[float] | None] = []
        self._sent_counts: list[list[int] | None] = []
        self._recv_cols: list[list[float] | None] = []
        # Fused network constants + per-pair memo (dense under the same
        # rank bound as the channel clocks, dict above it).  Skipped
        # when the network is instrumented: the query methods must run
        # so the net.* telemetry tallies fire.
        self._inline_net = not getattr(network, "_instrumented", False)
        self._inj_oh = network._inj_overhead
        self._inj_bw_inv = network._inj_ibw
        self._ej_bw_inv = network._ej_ibw
        self._pairs: Any
        if self._flat_channels:
            self._pairs = [None] * (nranks * nranks)
        else:
            self._pairs = {}
        self._pair_params = network.pair_params
        self._deliver_oh = float(deliver_cpu_overhead)
        # Fast per-rank handlers: fn(tag, payload, aux) -> None.
        self._fast_handlers: list[Any] = [None] * nranks
        # Engine internals, bound for the scheduling sequence inlined
        # into send/_receive_rec (it mirrors VecSimulator._push; the
        # VecSimulator docstring records the coupling).  The columns, bucket
        # dict and heap are stable objects; the scalar cursor state
        # (_seq, _npending, _active_bucket/_list) stays on the sim.
        # The past-time guard is elided: every machine-scheduled time
        # is ``now`` plus non-negative cost terms.
        self._s_times = sim_._times
        self._s_hids = sim_._hids
        self._s_args = sim_._args
        self._s_buckets = sim_._buckets
        self._s_heap = sim_._bucket_heap
        self._s_inv_width = sim_._inv_width
        # Busy-time columns bound once (self.stats.X costs two lookups
        # per event on the hot path).
        self._nic_out_col = self.stats._nic_out_busy
        self._nic_in_col = self.stats._nic_in_busy
        self._recv_oh_col = self.stats._recv_overhead_busy
        # Contention-free configuration (no telemetry, no trace log, no
        # per-delivery CPU tax, un-instrumented network, dense channel
        # tables): swap the per-message stages for closure-specialized
        # versions with every hook test resolved away.
        if (
            self._rec is None
            and self._event_log is None
            and self._inline_net
            and self._deliver_oh == 0.0
            and self._flat_channels
        ):
            self._install_fast_path()

    # -- wiring --------------------------------------------------------------

    def category_id(self, category: str) -> int:
        """Intern a message category; returns its integer id."""
        cid = self._cat_ids.get(category)
        if cid is None:
            cid = len(self._cat_names)
            self._cat_ids[category] = cid
            self._cat_names.append(category)
            self._sent_cols.append(None)
            self._sent_counts.append(None)
            self._recv_cols.append(None)
        return cid

    def set_fast_handler(self, rank: int, fn) -> None:
        """Install ``rank``'s fast handler ``fn(tag, payload, aux)``.

        Takes precedence over the legacy :meth:`set_handler` handler for
        messages sent without a delivery callback.
        """
        self._fast_handlers[rank] = fn

    def _bind_sent(self, cid: int) -> None:
        name = self._cat_names[cid]
        stats = self.stats
        self._sent_cols[cid] = stats._get(stats._sent, name)
        self._sent_counts[cid] = stats._get_counts(stats._messages_sent, name)

    def _bind_recv(self, cid: int) -> None:
        stats = self.stats
        self._recv_cols[cid] = stats._get(stats._received, self._cat_names[cid])

    def close(self) -> None:
        super().close()
        self._pairs.clear()
        # The scheduler's per-event columns grow with the run (one entry
        # per event ever scheduled); the machine holds the same lists.
        del self._s_times[:]
        del self._s_hids[:]
        del self._s_args[:]

    def _message_view(self, i: int, payload: Any) -> Message:
        """Materialize a :class:`Message` for the telemetry hooks."""
        return Message(
            self._msrc[i],
            self._mdst[i],
            self._mtag[i],
            self._mnbytes[i],
            self._cat_names[self._mcid[i]],
            payload,
        )

    # -- communication ---------------------------------------------------------

    def post_send(
        self,
        src: int,
        dst: int,
        tag: Any,
        nbytes: int,
        category: str,
        payload: Any = None,
    ) -> None:
        """Legacy-signature send (resolves the category per call)."""
        self.send(src, dst, tag, nbytes, self.category_id(category), payload)

    def send(
        self,
        src: int,
        dst: int,
        tag: Any,
        nbytes: int,
        cid: int,
        payload: Any = None,
        cb=None,
        aux: int = 0,
    ) -> None:
        """Fast-path send: pre-interned category, optional delivery
        callback ``cb(dst, payload, aux)``.  Cost model identical to
        :meth:`Machine.post_send`."""
        nbytes = int(nbytes)
        sim = self.sim
        now = sim.now
        if self._event_log is not None:
            self._event_log.append(
                TraceEvent("send", now, src, dst, tag, nbytes)
            )
        # Allocate an SoA record (free-list recycling).
        free = self._mfree
        if free:
            i = free.pop()
            self._msrc[i] = src
            self._mdst[i] = dst
            self._mtag[i] = tag
            self._mnbytes[i] = nbytes
            self._mcid[i] = cid
            self._mpayload[i] = payload
            self._mcb[i] = cb
            self._maux[i] = aux
        else:
            i = len(self._msrc)
            self._msrc.append(src)
            self._mdst.append(dst)
            self._mtag.append(tag)
            self._mnbytes.append(nbytes)
            self._mcid.append(cid)
            self._mpayload.append(payload)
            self._mcb.append(cb)
            self._maux.append(aux)
        if src == dst:
            if self._rec is not None:
                self._rec.record_local(self._message_view(i, payload), now)
            arrival = now
            hid = self._hid_deliver
        else:
            col = self._sent_cols[cid]
            if col is None:
                self._bind_sent(cid)
                col = self._sent_cols[cid]
            col[src] += nbytes
            self._sent_counts[cid][src] += 1
            inline = self._inline_net
            if inline:
                inj = self._inj_oh + nbytes * self._inj_bw_inv
            else:
                inj = self._injection_time(nbytes)
            nic = self._nic_free[src]
            start = nic if nic > now else now
            finish = start + inj
            self._nic_free[src] = finish
            self._nic_out_col[src] += inj
            flat = self._flat_channels
            pidx = src * self.nranks + dst if flat else (src, dst)
            if inline:
                pairs = self._pairs
                pp = pairs[pidx] if flat else pairs.get(pidx)
                if pp is None:
                    pp = self._pair_params(src, dst)
                    pairs[pidx] = pp
                lat, ibw, jit = pp
                arrival = finish + (lat + nbytes * ibw) * jit
            else:
                arrival = finish + self._transit_time(src, dst, nbytes)
            # Enforce MPI-style non-overtaking per (src, dst) channel.
            ch = self._channel_last
            if flat:
                if arrival < ch[pidx]:
                    arrival = ch[pidx]
                ch[pidx] = arrival
            else:
                last = ch.get(pidx, 0.0)
                if arrival < last:
                    arrival = last
                ch[pidx] = arrival
            if self._rec is not None:
                self._rec.record_send(
                    self._message_view(i, payload), now, start, finish, arrival
                )
            hid = self._hid_receive
        # Inlined VecSimulator._push(arrival, hid, i).
        s = sim._seq
        sim._seq = s + 1
        st = self._s_times
        st.append(arrival)
        self._s_hids.append(hid)
        self._s_args.append(i)
        sim._npending += 1
        b = int(arrival * self._s_inv_width)
        if b == sim._active_bucket:
            insort(sim._active_list, s, key=st.__getitem__)
        else:
            sbk = self._s_buckets
            try:
                sbk[b].append(s)
            except KeyError:
                sbk[b] = [s]
                heappush(self._s_heap, b)

    def _receive_rec(self, i: int) -> None:
        dst = self._mdst[i]
        nbytes = self._mnbytes[i]
        cid = self._mcid[i]
        col = self._recv_cols[cid]
        if col is None:
            self._bind_recv(cid)
            col = self._recv_cols[cid]
        col[dst] += nbytes
        sim = self.sim
        now = sim.now
        if self._inline_net:
            eject = nbytes * self._ej_bw_inv
        else:
            eject = self._ejection_time(nbytes)
        nic = self._nic_in_free[dst]
        nic_start = nic if nic > now else now
        nic_done = nic_start + eject
        self._nic_in_free[dst] = nic_done
        self._nic_in_col[dst] += eject
        oh = self._recv_overhead
        cpu = self._cpu_free[dst]
        start = cpu if cpu > nic_done else nic_done
        deliver_at = start + oh
        self._cpu_free[dst] = deliver_at
        self._recv_oh_col[dst] += oh
        if self._rec is not None:
            self._rec.record_receive(
                self._message_view(i, self._mpayload[i]),
                nic_start,
                nic_done,
                start,
                deliver_at,
            )
        # Inlined VecSimulator._push(deliver_at, self._hid_deliver, i).
        s = sim._seq
        sim._seq = s + 1
        st = self._s_times
        st.append(deliver_at)
        self._s_hids.append(self._hid_deliver)
        self._s_args.append(i)
        sim._npending += 1
        b = int(deliver_at * self._s_inv_width)
        if b == sim._active_bucket:
            insort(sim._active_list, s, key=st.__getitem__)
        else:
            sbk = self._s_buckets
            try:
                sbk[b].append(s)
            except KeyError:
                sbk[b] = [s]
                heappush(self._s_heap, b)

    def _deliver_rec(self, i: int) -> None:
        src = self._msrc[i]
        dst = self._mdst[i]
        tag = self._mtag[i]
        nbytes = self._mnbytes[i]
        cid = self._mcid[i]
        payload = self._mpayload[i]
        cb = self._mcb[i]
        aux = self._maux[i]
        # Release the record before dispatch: the callback may send.
        self._mtag[i] = None
        self._mpayload[i] = None
        self._mcb[i] = None
        self._mfree.append(i)
        if self._rec is not None:
            self._rec.record_deliver(
                Message(src, dst, tag, nbytes, self._cat_names[cid], payload),
                self.sim.now,
            )
        if self._event_log is not None:
            self._event_log.append(
                TraceEvent("deliver", self.sim.now, src, dst, tag, nbytes)
            )
        if self._deliver_oh > 0.0:
            self.post_compute(dst, self._deliver_oh, label="msg-overhead")
        if cb is not None:
            cb(dst, payload, aux)
            return
        fh = self._fast_handlers[dst]
        if fh is not None:
            fh(tag, payload, aux)
            return
        fn = self._handlers[dst]
        if fn is None:
            raise RuntimeError(f"no handler installed on rank {dst}")
        fn(Message(src, dst, tag, nbytes, self._cat_names[cid], payload))

    # -- generic primitives (identical outcomes, no specialization) --------

    def send_pt(self, src, dst, tag, nbytes, cid, cb, aux=0) -> None:
        """Point send for payload-less collective traffic.

        Generic fallback: routes through the SoA :meth:`send` (which
        also feeds the trace log / telemetry hooks when active).  The
        fast path replaces this with the tuple-record closure.
        """
        self.send(src, dst, tag, nbytes, cid, None, cb, aux)

    def send_batch(self, src, dsts, tag, nbytes, cid, cb, auxs) -> None:
        """Emit one rank's fan-out; generic fallback sends per child."""
        send = self.send_pt
        for dst, aux in zip(dsts, auxs):
            send(src, dst, tag, nbytes, cid, cb, aux)

    def post_named(self, rank, seconds, hid, arg) -> None:
        """Closure-free compute: dispatch ``table[hid](arg)`` after
        occupying ``rank``'s CPU for the precomputed ``seconds``.

        Timestamp arithmetic is identical to :meth:`Machine.post_compute`
        with a callback; the protocol layer precomputes ``seconds`` with
        the exact ``compute_time`` expression.
        """
        sim = self.sim
        now = sim.now
        cpu = self._cpu_free[rank]
        start = cpu if cpu > now else now
        finish = start + seconds
        self._cpu_free[rank] = finish
        self.stats._compute_busy[rank] += seconds
        sim.schedule_msg(finish, hid, arg)

    def _receive_pt(self, rec) -> None:
        """Receive stage of the point route (rec = (dst, nbytes, cid,
        cb, aux)); mirrors :meth:`_receive_rec` sans record columns."""
        dst = rec[0]
        nbytes = rec[1]
        cid = rec[2]
        col = self._recv_cols[cid]
        if col is None:
            self._bind_recv(cid)
            col = self._recv_cols[cid]
        col[dst] += nbytes
        sim = self.sim
        now = sim.now
        if self._inline_net:
            eject = nbytes * self._ej_bw_inv
        else:
            eject = self._ejection_time(nbytes)
        nic = self._nic_in_free[dst]
        nic_start = nic if nic > now else now
        nic_done = nic_start + eject
        self._nic_in_free[dst] = nic_done
        self._nic_in_col[dst] += eject
        oh = self._recv_overhead
        cpu = self._cpu_free[dst]
        start = cpu if cpu > nic_done else nic_done
        deliver_at = start + oh
        self._cpu_free[dst] = deliver_at
        self._recv_oh_col[dst] += oh
        sim.schedule_msg(deliver_at, self._hid_deliver_pt, rec)

    def _deliver_pt(self, rec) -> None:
        """Deliver stage of the point route: straight to the callback."""
        rec[3](rec[0], None, rec[4])

    # -- closure-specialized fast path --------------------------------------

    # -- closure-specialized fast path ----------------------------------------

    def _install_fast_path(self) -> None:
        """Specialize the per-message stages for the hook-free configuration.

        Rebuilds :meth:`send`, :meth:`send_pt`, :meth:`send_batch`,
        :meth:`post_named`, :meth:`post_compute` and the receive/deliver
        handler-table entries of both routes as closures with every
        per-event branch (telemetry recorder, trace log, instrumented
        network, delivery overhead, dense-vs-dict channels) resolved at
        construction time and all stable state -- the SoA message
        columns, the engine's time/hid/arg columns, the calendar buckets
        and heap, the resource clocks and stats columns -- bound as
        closure cells (``LOAD_DEREF`` beats two ``LOAD_ATTR`` per
        access, and on a path run a few million times per simulation
        that is the difference that shows up on the profile).  Only the
        engine's scalar cursor state (``_seq``/``_npending``/
        ``_active_bucket``/``_active_list``) stays behind attribute
        loads: it must be visible to the engine's own drain loop.

        The closures shadow the methods as instance attributes -- the
        same pattern as :meth:`Network.instrument` -- and replace the
        handler-table slots registered in ``__init__``, so the callable
        ids seen by the collective layer do not change.  All hooks are
        constructor arguments, so the specialization decision is final
        for the machine's lifetime.  Timestamp arithmetic is expression-
        for-expression identical to the generic stages (and therefore to
        :class:`Machine`): same terms, same order, bit-identical floats.

        When the receive-side CPU overhead spans at least one bucket, so
        a pushed delivery can never land in the *active* bucket, the
        slice receive dispatchers for both the SoA and the point route
        are installed as batch companions too.
        """
        sim = self.sim
        nranks = self.nranks
        msrc = self._msrc
        mdst = self._mdst
        mtag = self._mtag
        mnbytes = self._mnbytes
        mcid = self._mcid
        mpayload = self._mpayload
        mcb = self._mcb
        maux = self._maux
        free = self._mfree
        sent_cols = self._sent_cols
        sent_counts = self._sent_counts
        recv_cols = self._recv_cols
        bind_sent = self._bind_sent
        bind_recv = self._bind_recv
        nic_free = self._nic_free
        nic_in_free = self._nic_in_free
        cpu_free = self._cpu_free
        nic_out_col = self._nic_out_col
        nic_in_col = self._nic_in_col
        recv_oh_col = self._recv_oh_col
        compute_busy = self.stats._compute_busy
        ch = self._channel_last
        pairs = self._pairs
        pair_params = self._pair_params
        inj_oh = self._inj_oh
        inj_bw_inv = self._inj_bw_inv
        ej_bw_inv = self._ej_bw_inv
        recv_oh = self._recv_overhead
        task_oh = self.network.config.task_overhead
        flop_rate = self.network.config.flop_rate
        hid_receive = self._hid_receive
        hid_deliver = self._hid_deliver
        hid_receive_pt = self._hid_receive_pt
        hid_deliver_pt = self._hid_deliver_pt
        fast_handlers = self._fast_handlers
        handlers = self._handlers
        cat_names = self._cat_names
        # Engine internals (the inlined _push; see the VecSimulator docstring).
        st = self._s_times
        shids = self._s_hids
        sargs = self._s_args
        sbk = self._s_buckets
        sheap = self._s_heap
        inv_width = self._s_inv_width
        key = st.__getitem__

        def fast_send(src, dst, tag, nbytes, cid, payload=None, cb=None,
                      aux=0):
            nbytes = int(nbytes)
            now = sim.now
            if free:
                i = free.pop()
                msrc[i] = src
                mdst[i] = dst
                mtag[i] = tag
                mnbytes[i] = nbytes
                mcid[i] = cid
                mpayload[i] = payload
                mcb[i] = cb
                maux[i] = aux
            else:
                i = len(msrc)
                msrc.append(src)
                mdst.append(dst)
                mtag.append(tag)
                mnbytes.append(nbytes)
                mcid.append(cid)
                mpayload.append(payload)
                mcb.append(cb)
                maux.append(aux)
            if src == dst:
                arrival = now
                hid = hid_deliver
            else:
                col = sent_cols[cid]
                if col is None:
                    bind_sent(cid)
                    col = sent_cols[cid]
                col[src] += nbytes
                sent_counts[cid][src] += 1
                inj = inj_oh + nbytes * inj_bw_inv
                nic = nic_free[src]
                start = nic if nic > now else now
                finish = start + inj
                nic_free[src] = finish
                nic_out_col[src] += inj
                pidx = src * nranks + dst
                pp = pairs[pidx]
                if pp is None:
                    pp = pair_params(src, dst)
                    pairs[pidx] = pp
                lat, ibw, jit = pp
                arrival = finish + (lat + nbytes * ibw) * jit
                last = ch[pidx]
                if arrival < last:
                    arrival = last
                ch[pidx] = arrival
                hid = hid_receive
            s = sim._seq
            sim._seq = s + 1
            st.append(arrival)
            shids.append(hid)
            sargs.append(i)
            sim._npending += 1
            b = int(arrival * inv_width)
            if b == sim._active_bucket:
                insort(sim._active_list, s, key=key)
            else:
                try:
                    sbk[b].append(s)
                except KeyError:
                    sbk[b] = [s]
                    heappush(sheap, b)

        def fast_receive(i):
            dst = mdst[i]
            nbytes = mnbytes[i]
            col = recv_cols[mcid[i]]
            if col is None:
                bind_recv(mcid[i])
                col = recv_cols[mcid[i]]
            col[dst] += nbytes
            now = sim.now
            eject = nbytes * ej_bw_inv
            nic = nic_in_free[dst]
            nic_start = nic if nic > now else now
            nic_done = nic_start + eject
            nic_in_free[dst] = nic_done
            nic_in_col[dst] += eject
            cpu = cpu_free[dst]
            start = cpu if cpu > nic_done else nic_done
            deliver_at = start + recv_oh
            cpu_free[dst] = deliver_at
            recv_oh_col[dst] += recv_oh
            s = sim._seq
            sim._seq = s + 1
            st.append(deliver_at)
            shids.append(hid_deliver)
            sargs.append(i)
            sim._npending += 1
            b = int(deliver_at * inv_width)
            if b == sim._active_bucket:
                insort(sim._active_list, s, key=key)
            else:
                try:
                    sbk[b].append(s)
                except KeyError:
                    sbk[b] = [s]
                    heappush(sheap, b)

        def fast_deliver(i):
            dst = mdst[i]
            tag = mtag[i]
            payload = mpayload[i]
            cb = mcb[i]
            aux = maux[i]
            # Release the record before dispatch: the callback may send.
            mtag[i] = None
            mpayload[i] = None
            mcb[i] = None
            free.append(i)
            if cb is not None:
                cb(dst, payload, aux)
                return
            fh = fast_handlers[dst]
            if fh is not None:
                fh(tag, payload, aux)
                return
            fn = handlers[dst]
            if fn is None:
                raise RuntimeError(f"no handler installed on rank {dst}")
            # Record i cannot have been recycled yet (nothing ran since
            # its release), so the remaining columns are still valid.
            fn(Message(msrc[i], dst, tag, mnbytes[i],
                       cat_names[mcid[i]], payload))

        def fast_post_compute(rank, seconds, fn=None, *, flops=None,
                              label=None):
            if flops is not None:
                seconds = task_oh + flops / flop_rate
            if seconds < 0:
                raise ValueError("negative compute time")
            now = sim.now
            cpu = cpu_free[rank]
            start = cpu if cpu > now else now
            finish = start + seconds
            cpu_free[rank] = finish
            compute_busy[rank] += seconds
            if fn is not None:
                s = sim._seq
                sim._seq = s + 1
                st.append(finish)
                shids.append(0)
                sargs.append(fn)
                sim._npending += 1
                b = int(finish * inv_width)
                if b == sim._active_bucket:
                    insort(sim._active_list, s, key=key)
                else:
                    try:
                        sbk[b].append(s)
                    except KeyError:
                        sbk[b] = [s]
                        heappush(sheap, b)

        def fast_send_pt(src, dst, tag, nbytes, cid, cb, aux=0):
            now = sim.now
            if src == dst:
                arrival = now
                hid = hid_deliver_pt
            else:
                col = sent_cols[cid]
                if col is None:
                    bind_sent(cid)
                    col = sent_cols[cid]
                col[src] += nbytes
                sent_counts[cid][src] += 1
                inj = inj_oh + nbytes * inj_bw_inv
                nic = nic_free[src]
                start = nic if nic > now else now
                finish = start + inj
                nic_free[src] = finish
                nic_out_col[src] += inj
                pidx = src * nranks + dst
                pp = pairs[pidx]
                if pp is None:
                    pp = pair_params(src, dst)
                    pairs[pidx] = pp
                lat, ibw, jit = pp
                arrival = finish + (lat + nbytes * ibw) * jit
                last = ch[pidx]
                if arrival < last:
                    arrival = last
                ch[pidx] = arrival
                hid = hid_receive_pt
            s = sim._seq
            sim._seq = s + 1
            st.append(arrival)
            shids.append(hid)
            sargs.append((dst, nbytes, cid, cb, aux))
            sim._npending += 1
            b = int(arrival * inv_width)
            if b == sim._active_bucket:
                insort(sim._active_list, s, key=key)
            else:
                try:
                    sbk[b].append(s)
                except KeyError:
                    sbk[b] = [s]
                    heappush(sheap, b)

        def fast_receive_pt(rec):
            dst = rec[0]
            nbytes = rec[1]
            col = recv_cols[rec[2]]
            if col is None:
                bind_recv(rec[2])
                col = recv_cols[rec[2]]
            col[dst] += nbytes
            now = sim.now
            eject = nbytes * ej_bw_inv
            nic = nic_in_free[dst]
            nic_start = nic if nic > now else now
            nic_done = nic_start + eject
            nic_in_free[dst] = nic_done
            nic_in_col[dst] += eject
            cpu = cpu_free[dst]
            start = cpu if cpu > nic_done else nic_done
            deliver_at = start + recv_oh
            cpu_free[dst] = deliver_at
            recv_oh_col[dst] += recv_oh
            s = sim._seq
            sim._seq = s + 1
            st.append(deliver_at)
            shids.append(hid_deliver_pt)
            sargs.append(rec)
            sim._npending += 1
            b = int(deliver_at * inv_width)
            if b == sim._active_bucket:
                insort(sim._active_list, s, key=key)
            else:
                try:
                    sbk[b].append(s)
                except KeyError:
                    sbk[b] = [s]
                    heappush(sheap, b)

        def fast_deliver_pt(rec):
            rec[3](rec[0], None, rec[4])

        def fast_post_named(rank, seconds, hid, arg):
            now = sim.now
            cpu = cpu_free[rank]
            start = cpu if cpu > now else now
            finish = start + seconds
            cpu_free[rank] = finish
            compute_busy[rank] += seconds
            s = sim._seq
            sim._seq = s + 1
            st.append(finish)
            shids.append(hid)
            sargs.append(arg)
            sim._npending += 1
            b = int(finish * inv_width)
            if b == sim._active_bucket:
                insort(sim._active_list, s, key=key)
            else:
                try:
                    sbk[b].append(s)
                except KeyError:
                    sbk[b] = [s]
                    heappush(sheap, b)

        def fast_send_batch(src, dsts, tag, nbytes, cid, cb, auxs):
            n = len(dsts)
            now = sim.now
            col = sent_cols[cid]
            if col is None:
                bind_sent(cid)
                col = sent_cols[cid]
            # n integer-valued adds collapse to one (exact below 2^53).
            col[src] += nbytes * n
            sent_counts[cid][src] += n
            inj = inj_oh + nbytes * inj_bw_inv
            nic = nic_free[src]
            start = nic if nic > now else now
            # NIC injection chain: finish_k = finish_{k-1} + inj.
            # np.add.accumulate is a sequential left fold -- bit-identical
            # to the scalar chained adds (and start + inj > now always,
            # so the scalar max() never rebases mid-chain).
            steps = np.full(n, inj)
            steps[0] = start + inj
            fins = np.add.accumulate(steps)
            nic_free[src] = float(fins[-1])
            bsteps = np.full(n, inj)
            bsteps[0] = nic_out_col[src] + inj
            nic_out_col[src] = float(np.add.accumulate(bsteps)[-1])
            pidxs = [src * nranks + d for d in dsts]
            pps = []
            app = pps.append
            for x in range(n):
                pi = pidxs[x]
                pp = pairs[pi]
                if pp is None:
                    pp = pair_params(src, dsts[x])
                    pairs[pi] = pp
                app(pp)
            lats = np.array([p[0] for p in pps])
            ibws = np.array([p[1] for p in pps])
            jits = np.array([p[2] for p in pps])
            arrl = (fins + (lats + nbytes * ibws) * jits).tolist()
            # Channel FIFO clamps stay scalar (stateful per pair).
            for x in range(n):
                pi = pidxs[x]
                a = arrl[x]
                last = ch[pi]
                if a < last:
                    a = last
                    arrl[x] = a
                ch[pi] = a
            s0 = sim._seq
            sim._seq = s0 + n
            st.extend(arrl)
            shids.extend([hid_receive_pt] * n)
            sargs.extend(
                [(dsts[x], nbytes, cid, cb, auxs[x]) for x in range(n)]
            )
            sim._npending += n
            ab = sim._active_bucket
            al = sim._active_list
            for x in range(n):
                b = int(arrl[x] * inv_width)
                if b == ab:
                    insort(al, s0 + x, key=key)
                else:
                    try:
                        sbk[b].append(s0 + x)
                    except KeyError:
                        sbk[b] = [s0 + x]
                        heappush(sheap, b)

        self.send = fast_send
        self.send_pt = fast_send_pt
        self.send_batch = fast_send_batch
        self.post_named = fast_post_named
        self.post_compute = fast_post_compute
        sim._table[hid_receive] = fast_receive
        sim._table[hid_deliver] = fast_deliver
        sim._table[hid_receive_pt] = fast_receive_pt
        sim._table[hid_deliver_pt] = fast_deliver_pt

        if recv_oh < sim.bucket_width:
            # Slice dispatch requires pushed deliveries to land strictly
            # past the active bucket: deliver_at >= now + recv_oh, so
            # recv_oh >= bucket_width guarantees it.  Otherwise the
            # scalar closures above remain the only receive path.
            return

        def fast_receive_pt_batch(batch, lo, hi):
            idx = batch[lo:hi]
            recs = [sargs[s] for s in idx]
            ts = [st[s] for s in idx]
            for s in idx:
                sargs[s] = None
            n = hi - lo
            nbl = [r[1] for r in recs]
            dsts = [r[0] for r in recs]
            ej = (np.array(nbl, dtype=np.float64) * ej_bw_inv).tolist()
            # Category byte tallies: scatter-add of exact integers
            # (order-free); single-category slices take one np.add.at.
            c0 = recs[0][2]
            mixed = False
            for r in recs:
                if r[2] != c0:
                    mixed = True
                    break
            if mixed:
                for x in range(n):
                    c = recs[x][2]
                    col = recv_cols[c]
                    if col is None:
                        bind_recv(c)
                        col = recv_cols[c]
                    col[dsts[x]] += nbl[x]
            else:
                col = recv_cols[c0]
                if col is None:
                    bind_recv(c0)
                    col = recv_cols[c0]
                np.add.at(col, dsts, np.array(nbl, dtype=np.float64))
            deliver = [0.0] * n
            for x in range(n):
                dst = dsts[x]
                now = ts[x]
                e = ej[x]
                nic = nic_in_free[dst]
                if nic <= now:
                    nic = now
                nic_done = nic + e
                nic_in_free[dst] = nic_done
                nic_in_col[dst] += e
                cpu = cpu_free[dst]
                d = (cpu if cpu > nic_done else nic_done) + recv_oh
                cpu_free[dst] = d
                recv_oh_col[dst] += recv_oh
                deliver[x] = d
            s0 = sim._seq
            sim._seq = s0 + n
            st.extend(deliver)
            shids.extend([hid_deliver_pt] * n)
            sargs.extend(recs)
            sim._npending += n
            bids = (
                (np.array(deliver) * inv_width).astype(np.int64).tolist()
            )
            for x in range(n):
                b = bids[x]
                try:
                    sbk[b].append(s0 + x)
                except KeyError:
                    sbk[b] = [s0 + x]
                    heappush(sheap, b)
            sim.now = ts[n - 1]

        def fast_receive_batch(batch, lo, hi):
            idx = batch[lo:hi]
            recs = [sargs[s] for s in idx]
            ts = [st[s] for s in idx]
            for s in idx:
                sargs[s] = None
            n = hi - lo
            dsts = [mdst[i] for i in recs]
            nbl = [mnbytes[i] for i in recs]
            ej = (np.array(nbl, dtype=np.float64) * ej_bw_inv).tolist()
            c0 = mcid[recs[0]]
            mixed = False
            for i in recs:
                if mcid[i] != c0:
                    mixed = True
                    break
            if mixed:
                for x in range(n):
                    c = mcid[recs[x]]
                    col = recv_cols[c]
                    if col is None:
                        bind_recv(c)
                        col = recv_cols[c]
                    col[dsts[x]] += nbl[x]
            else:
                col = recv_cols[c0]
                if col is None:
                    bind_recv(c0)
                    col = recv_cols[c0]
                np.add.at(col, dsts, np.array(nbl, dtype=np.float64))
            deliver = [0.0] * n
            for x in range(n):
                dst = dsts[x]
                now = ts[x]
                e = ej[x]
                nic = nic_in_free[dst]
                if nic <= now:
                    nic = now
                nic_done = nic + e
                nic_in_free[dst] = nic_done
                nic_in_col[dst] += e
                cpu = cpu_free[dst]
                d = (cpu if cpu > nic_done else nic_done) + recv_oh
                cpu_free[dst] = d
                recv_oh_col[dst] += recv_oh
                deliver[x] = d
            s0 = sim._seq
            sim._seq = s0 + n
            st.extend(deliver)
            shids.extend([hid_deliver] * n)
            sargs.extend(recs)
            sim._npending += n
            bids = (
                (np.array(deliver) * inv_width).astype(np.int64).tolist()
            )
            for x in range(n):
                b = bids[x]
                try:
                    sbk[b].append(s0 + x)
                except KeyError:
                    sbk[b] = [s0 + x]
                    heappush(sheap, b)
            sim.now = ts[n - 1]

        sim.register_batch_handler(hid_receive_pt, fast_receive_pt_batch)
        sim.register_batch_handler(hid_receive, fast_receive_batch)
