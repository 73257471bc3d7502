"""Vectorized DES engine: the native kernel and the machine around it.

The default execution engine (``engine="vectorized"``).  The heapq
:class:`~repro.simulate.engine.Simulator` and the per-message
:class:`~repro.simulate.machine.Machine` are its oracle
(``engine="legacy"``); this module is the one fast path:

* :class:`VecSimulator` -- the event queue of the C kernel
  (``_kernel.c``, built by :mod:`repro.simulate._native`): one binary
  heap of pending events in ``(time, seq)`` order, dispatch through an
  integer handler table, and the bounded-run contract of
  :meth:`Simulator.run`.
* :class:`VecCommStats` -- the per-category byte/count tables and the
  busy columns as preallocated numpy columns, which the kernel updates
  in place.
* :class:`VecMachine` -- the machine on that kernel.  Its resource
  clocks and per-pair network parameters live in the kernel, and so
  does the *point route* for payload-less traffic: a send whose receive
  stage runs in C.  Symbolic PSelInv runs the whole protocol on it
  inside the kernel (:meth:`SimulatedPSelInv._load_native
  <repro.core.pselinv.SimulatedPSelInv._load_native>` hands it each
  supernode's tables); ``send_pt`` exposes the route with a Python
  delivery callback.

  Every other run -- numeric, hooked (telemetry recorder, trace log,
  instrumented network) or unsymmetric -- runs the one Python protocol
  (the closure handlers over :class:`~repro.comm.collectives.TreeBroadcast`
  / :class:`~repro.comm.collectives.TreeReduce`, exactly as on the
  legacy machine) over the *generic route*: :meth:`VecMachine.post_send`
  carries a :class:`Message` through Python stages that call the kernel
  for their clock and stats updates and schedule through its one push.

Every timestamp expression is term-for-term identical to the legacy
machine's; the engine-identity suite drives both engines over the fig8
sweep and asserts bit-identical outcomes.
"""

from __future__ import annotations

import time
from typing import Any

import numpy as np

from ._native import kernel as _kernel
from ._native import require as _require_kernel
from .machine import CommStats, Machine, Message, TraceEvent
from .network import Network

__all__ = ["VecSimulator", "VecCommStats", "VecMachine"]


class _NoKernel:
    """Stand-in base when the kernel could not be built."""

    def __init__(self, *args, **kwargs) -> None:
        _require_kernel()


_Kernel: Any = _kernel.Kernel if _kernel is not None else _NoKernel


class VecSimulator(_Kernel):
    """The native event loop, drop-in for
    :class:`~repro.simulate.engine.Simulator`.

    Pending events sit in one binary heap in the C kernel, ordered by
    ``(time, seq)`` with ``seq`` stamped at push time -- the heapq
    loop's order exactly, so every outcome is bit-identical.  The heap
    holds only pending events; nothing grows with the length of a run.

    * :meth:`register_handler` interns a callable once and returns its
      integer id (>= 2); :meth:`schedule_msg` then schedules ``(time,
      id, arg)`` and the drain calls ``table[id](arg)``.  Ids 0 and 1
      are the generic :meth:`schedule` / :meth:`schedule_at` paths
      (``fn()`` and ``fn(arg)``).
    * :meth:`run` keeps :meth:`Simulator.run`'s contract: the horizon
      is checked before the budget, ``max_events`` raises with the
      queue intact, and a bounded run leaves ``now`` at the last
      executed event.
    * ``schedule``/``schedule_at``/``schedule_msg`` raise the same
      negative-delay / past-time errors as the heapq loop.
    """

    def __init__(self) -> None:
        super().__init__()
        self._metrics = None

    def attach_metrics(self, registry) -> None:
        """Enable loop telemetry (same series as :class:`Simulator`)."""
        self._metrics = registry

    def run(self, until: float | None = None, max_events: int | None = None) -> float:
        """Drain the queue; returns the final clock value (see class
        docstring).  With metrics attached, also records ``sim.events``,
        ``sim.queue_depth_high_water``, ``sim.wall_seconds`` and
        ``sim.events_per_sec``."""
        metrics = self._metrics
        if metrics is None:
            return super().run(until, max_events)
        start_events = self.events_processed
        start_wall = time.perf_counter()  # det: allow(DET003) observation-only
        now = super().run(until, max_events)
        wall = time.perf_counter() - start_wall  # det: allow(DET003)
        n = self.events_processed - start_events
        metrics.counter("sim.events").inc(n)
        metrics.gauge("sim.queue_depth_high_water").update_max(
            self.depth_high_water
        )
        metrics.gauge("sim.wall_seconds").set(wall)
        if wall > 0.0:
            metrics.gauge("sim.events_per_sec").set(n / wall)
        return now


class VecCommStats(CommStats):
    """Per-category tables and busy columns as numpy columns.

    The kernel adds into these buffers in place.  Byte and count tallies
    are integer-valued and far below 2^53, so they are exact whatever
    the order; busy times are chained float sums in event order, exactly
    as the legacy lists accumulate them.  Read-outs copy, so callers
    never alias a live column.
    """

    def __init__(self, nranks: int) -> None:
        super().__init__(nranks)
        self._compute_busy = np.zeros(nranks)
        self._recv_overhead_busy = np.zeros(nranks)
        self._nic_out_busy = np.zeros(nranks)
        self._nic_in_busy = np.zeros(nranks)

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

    @property
    def sent(self) -> dict[str, np.ndarray]:
        return {k: v.copy() for k, v in self._sent.items()}

    @property
    def received(self) -> dict[str, np.ndarray]:
        return {k: v.copy() for k, v in self._received.items()}

    @property
    def messages_sent(self) -> dict[str, np.ndarray]:
        return {k: v.copy() for k, v in self._messages_sent.items()}

    @property
    def compute_busy(self) -> np.ndarray:
        return self._compute_busy.copy()

    @property
    def recv_overhead_busy(self) -> np.ndarray:
        return self._recv_overhead_busy.copy()

    @property
    def nic_out_busy(self) -> np.ndarray:
        return self._nic_out_busy.copy()

    @property
    def nic_in_busy(self) -> np.ndarray:
        return self._nic_in_busy.copy()

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
    """The machine on the native kernel: same cost model, same API.

    It *is* a :class:`Machine` (for :meth:`post_compute`,
    :meth:`set_handler`, stats and the telemetry hooks), but its state
    lives in the kernel of its :class:`VecSimulator`:

    * **Clocks and stats** -- the NIC-out, NIC-in and CPU clocks are
      numpy columns the kernel updates in place, as are the
      :class:`VecCommStats` columns (bound per category on first use,
      so the stats dicts gain keys in the legacy machine's order).
    * **Pair map** -- one open-addressing map from ``src * n + dst`` to
      ``(latency, 1/bandwidth, jitter, channel FIFO clock)``, filled
      from :meth:`Network.pair_params` once per *node* pair (the
      parameters depend only on the two nodes; see there for the
      bit-identity argument).
    * **Point route** -- the kernel's payload-less sends: the receive
      stage runs in C and the delivery runs the kernel's protocol or,
      through ``send_pt`` (bound only when no hook is attached), calls
      ``cb(dst, None, aux)``.  The per-delivery CPU tax
      (``deliver_cpu_overhead``) is charged there too.
    * **Generic route** -- :meth:`post_send` carries the
      :class:`Message` it builds; its Python stages feed the trace log
      and telemetry hooks, call the kernel
      (``transmit``/``receive``/``compute``) for clocks and stats, and
      deliver through :meth:`Machine._deliver` to the rank's
      :meth:`set_handler` handler.
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
    ):
        super().__init__(
            nranks,
            network,
            sim if sim is not None else VecSimulator(),
            event_log=event_log,
            recorder=recorder,
            metrics=metrics,
            deliver_cpu_overhead=deliver_cpu_overhead,
        )
        k = self.sim
        stats = self.stats
        # An instrumented network must be queried through its methods,
        # so the net.* telemetry tallies fire.
        self._inline_net = not network._instrumented
        # Category interning: id -> name.
        self._cat_ids: dict[str, int] = {}
        self._cat_names: list[str] = []
        k.attach_machine(
            nranks,
            network._inj_overhead,
            network._inj_ibw,
            network._ej_ibw,
            self._recv_overhead,
            self._deliver_oh,
            (network.pair_params, self._bind_columns, network.node_of.tolist()),
            (
                self._nic_free,
                self._nic_in_free,
                self._cpu_free,
                stats._nic_out_busy,
                stats._nic_in_busy,
                stats._recv_overhead_busy,
                stats._compute_busy,
            ),
        )
        self._hid_receive = k.register_handler(self._receive)
        self._hid_deliver = k.register_handler(self._deliver)
        if self._rec is None and self._event_log is None and self._inline_net:
            self.send_pt = k.send_pt

    def _init_resources(self, nranks: int) -> None:
        # Clocks as numpy columns for the kernel; the channel clocks
        # live in its pair map.
        self._nic_free = np.zeros(nranks)
        self._nic_in_free = np.zeros(nranks)
        self._cpu_free = np.zeros(nranks)

    # -- wiring --------------------------------------------------------------

    def category_id(self, category: str) -> int:
        """Intern a message category; returns its integer id."""
        cid = self._cat_ids.get(category)
        if cid is None:
            cid = len(self._cat_names)
            self._cat_ids[category] = cid
            self._cat_names.append(category)
        return cid

    def _bind_columns(self, cid: int, received: int):
        """The kernel's first use of category ``cid``: create its stats
        columns -- ``(sent, counts)``, or the received column."""
        name = self._cat_names[cid]
        stats = self.stats
        if received:
            return stats._get(stats._received, name)
        return (
            stats._get(stats._sent, name),
            stats._get_counts(stats._messages_sent, name),
        )

    def close(self) -> None:
        """Release the kernel's pending events and pair map (see
        :meth:`Machine.close`)."""
        self._closed = True
        self.sim.clear()

    # -- generic route -------------------------------------------------------

    def post_send(
        self,
        src: int,
        dst: int,
        tag: Any,
        nbytes: int,
        category: str,
        payload: Any = None,
    ) -> None:
        """:meth:`Machine.post_send` on the kernel's clocks and stats:
        the same :class:`Message`, hooks and cost model."""
        nbytes = int(nbytes)
        msg = Message(src, dst, tag, nbytes, category, payload)
        k = self.sim
        now = k.now
        if self._event_log is not None:
            self._event_log.append(TraceEvent("send", now, src, dst, tag, nbytes))
        if src == dst:
            if self._rec is not None:
                self._rec.record_local(msg, now)
            k.schedule_msg(now, self._hid_deliver, msg)
            return
        cid = self.category_id(category)
        if self._inline_net:
            start, finish, arrival = k.transmit(src, dst, nbytes, cid)
        else:
            start, finish, arrival = k.transmit(
                src, dst, nbytes, cid,
                self._injection_time(nbytes),
                self._transit_time(src, dst, nbytes),
            )
        if self._rec is not None:
            self._rec.record_send(msg, now, start, finish, arrival)
        k.schedule_msg(arrival, self._hid_receive, msg)

    def _receive(self, msg: Message) -> None:
        dst, nbytes = msg.dst, msg.nbytes
        cid = self._cat_ids[msg.category]
        k = self.sim
        if self._inline_net:
            nic_start, nic_done, start, deliver_at = k.receive(dst, nbytes, cid)
        else:
            nic_start, nic_done, start, deliver_at = k.receive(
                dst, nbytes, cid, self._ejection_time(nbytes)
            )
        if self._rec is not None:
            self._rec.record_receive(msg, nic_start, nic_done, start, deliver_at)
        k.schedule_msg(deliver_at, self._hid_deliver, msg)

    def post_compute(
        self,
        rank: int,
        seconds: float,
        fn=None,
        *,
        flops: float | None = None,
        label: str | None = None,
    ) -> None:
        """:meth:`Machine.post_compute` on the kernel's CPU clocks."""
        if flops is not None:
            seconds = self.network.compute_time(flops)
        if seconds < 0:
            raise ValueError("negative compute time")
        k = self.sim
        start = k.compute(rank, seconds)
        finish = start + seconds
        if self._rec is not None:
            self._rec.record_compute(rank, start, finish, label)
        if fn is not None:
            k.schedule_msg(finish, 0, fn)
