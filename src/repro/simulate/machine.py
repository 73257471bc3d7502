"""Simulated message-passing machine: ranks, NICs, and delivery.

Binds the :class:`~repro.simulate.engine.Simulator` clock to the
:class:`~repro.simulate.network.Network` cost model and exposes the small
asynchronous API the PSelInv layers program against:

* :meth:`Machine.post_send` -- non-blocking tagged send.  The sender's NIC
  is occupied for the injection time (messages queue FIFO behind each
  other -- the flat-tree hot-spot mechanism), then the message transits
  and is delivered to the receiver's handler, respecting per
  ``(src, dst)`` channel FIFO order like MPI's non-overtaking rule.
  Converging messages additionally serialize through the receiver's
  NIC-in port (what a flat *reduce* root saturates).
* :meth:`Machine.post_compute` -- enqueue a compute task on a rank's CPU;
  tasks on one rank serialize (one core per rank, as in the paper's
  flat-MPI runs).

Every byte movement is tallied per rank *and per category* in
:class:`CommStats`, which is what the Table I / Table II / heat-map
benchmarks read out.

:class:`Machine` is the legacy engine's machine and the bit-identity
oracle; :class:`~repro.simulate.vec.VecMachine` (the default engine)
subclasses it with the same cost model.

Implementation note: this is the simulator's innermost loop (millions of
messages per run), so per-rank clocks and counters are plain Python lists
-- scalar indexing on ndarrays is several times slower.
"""

from __future__ import annotations

import gc
from typing import Any, Callable, NamedTuple

import numpy as np

from .engine import Simulator
from .network import Network

__all__ = ["Message", "CommStats", "Machine", "TraceEvent"]


class TraceEvent(NamedTuple):
    """One structured event-log record (the ``repro check`` trace hook).

    ``kind`` is ``"send"`` (stamped when :meth:`Machine.post_send` accepts
    the message, self-sends included) or ``"deliver"`` (stamped when the
    receiver's handler is about to run).  Times are virtual-clock seconds.
    The happens-before trace validator (:func:`repro.check.validate_trace`)
    replays these records against the static plan model.
    """

    kind: str
    time: float
    src: int
    dst: int
    tag: Any
    nbytes: int


class Message:
    """An in-flight message (payload is opaque to the machine)."""

    __slots__ = ("src", "dst", "tag", "nbytes", "category", "payload")

    def __init__(self, src, dst, tag, nbytes, category, payload=None):
        self.src = src
        self.dst = dst
        self.tag = tag
        self.nbytes = nbytes
        self.category = category
        self.payload = payload

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Message({self.src}->{self.dst}, tag={self.tag!r}, "
            f"{self.nbytes}B, {self.category})"
        )


class CommStats:
    """Per-rank byte and time counters, split by message category."""

    def __init__(self, nranks: int) -> None:
        self.nranks = nranks
        self._sent: dict[str, list[float]] = {}
        self._received: dict[str, list[float]] = {}
        # Message *counts* are integers and stay integers all the way to
        # the read-out (the heat-map layer asserts the dtype).
        self._messages_sent: dict[str, list[int]] = {}
        self._compute_busy = [0.0] * nranks
        self._recv_overhead_busy = [0.0] * nranks
        self._nic_out_busy = [0.0] * nranks
        self._nic_in_busy = [0.0] * nranks

    # -- hot-path accumulators (lists, not ndarrays) -----------------------

    def _get(self, table: dict[str, list[float]], category: str) -> list[float]:
        arr = table.get(category)
        if arr is None:
            arr = [0.0] * self.nranks
            table[category] = arr
        return arr

    def _get_counts(self, table: dict[str, list[int]], category: str) -> list[int]:
        arr = table.get(category)
        if arr is None:
            arr = [0] * self.nranks
            table[category] = arr
        return arr

    def on_send(self, msg: Message) -> None:
        self._get(self._sent, msg.category)[msg.src] += msg.nbytes
        self._get_counts(self._messages_sent, msg.category)[msg.src] += 1

    def on_receive(self, msg: Message) -> None:
        self._get(self._received, msg.category)[msg.dst] += msg.nbytes

    # -- read-out views ------------------------------------------------------

    @property
    def sent(self) -> dict[str, np.ndarray]:
        return {k: np.asarray(v) for k, v in self._sent.items()}

    @property
    def received(self) -> dict[str, np.ndarray]:
        return {k: np.asarray(v) for k, v in self._received.items()}

    @property
    def messages_sent(self) -> dict[str, np.ndarray]:
        """Per-rank message counts by category (integer dtype)."""
        return {
            k: np.asarray(v, dtype=np.int64)
            for k, v in self._messages_sent.items()
        }

    @property
    def compute_busy(self) -> np.ndarray:
        return np.asarray(self._compute_busy)

    @property
    def recv_overhead_busy(self) -> np.ndarray:
        return np.asarray(self._recv_overhead_busy)

    @property
    def nic_out_busy(self) -> np.ndarray:
        return np.asarray(self._nic_out_busy)

    @property
    def nic_in_busy(self) -> np.ndarray:
        return np.asarray(self._nic_in_busy)

    def total_sent(self, category: str | None = None) -> np.ndarray:
        """Bytes sent per rank (one category, or all summed)."""
        if category is not None:
            return np.asarray(self._sent.get(category, [0.0] * self.nranks))
        out = np.zeros(self.nranks)
        for arr in self._sent.values():
            out += arr
        return out

    def total_received(self, category: str | None = None) -> np.ndarray:
        """Bytes received per rank (one category, or all summed)."""
        if category is not None:
            return np.asarray(self._received.get(category, [0.0] * self.nranks))
        out = np.zeros(self.nranks)
        for arr in self._received.values():
            out += arr
        return out


class Machine:
    """The simulated distributed-memory machine."""

    # Below this rank count the per-(src, dst) channel clocks live in a
    # flat dense list (no tuple allocation / hashing per message); above
    # it the dense table would waste memory and a dict takes over.
    _FLAT_CHANNEL_MAX_RANKS = 1024

    # Stats container, overridable per machine flavor (the vectorized
    # machine swaps in numpy-column accumulators).
    _stats_cls = CommStats

    def __init__(
        self,
        nranks: int,
        network: Network,
        sim: Simulator | None = None,
        *,
        event_log: list | None = None,
        recorder=None,
        metrics=None,
        deliver_cpu_overhead: float = 0.0,
    ):
        if network.nranks < nranks:
            raise ValueError("network sized for fewer ranks than requested")
        self.nranks = nranks
        self.network = network
        self.sim = sim or Simulator()
        self.stats = self._stats_cls(nranks)
        # Optional structured trace: when a list is supplied, every send
        # and delivery appends a TraceEvent.  Off (None) on the hot path.
        self._event_log = event_log
        # Optional telemetry sink (a repro.obs.TelemetrySink, duck-typed
        # so the simulator never imports the obs package): receives the
        # same times the machine computes for its own scheduling.  Off
        # (None) on the hot path -- one identity test per message.
        self._rec = recorder
        # Optional MetricsRegistry, exposed so the protocol layers
        # (collectives) can cache instruments at construction.
        self.metrics = metrics
        self._init_resources(nranks)
        self._recv_overhead = network.config.receive_overhead
        # Software tax charged on the receiver's CPU per delivered
        # message, just before its handler runs (models the
        # less-optimized v0.7.3 code path).
        self._deliver_oh = float(deliver_cpu_overhead)
        # Pre-bound network queries: post_send/_receive run once per
        # message, and the two attribute hops per call add up.
        self._injection_time = network.injection_time
        self._transit_time = network.transit_time
        self._ejection_time = network.ejection_time
        # Message handler per rank: fn(msg) -> None.
        self._handlers: list[Callable[[Message], None] | None] = [None] * nranks
        self._closed = False

    def _init_resources(self, nranks: int) -> None:
        """Allocate the resource clocks (overridden by the vectorized
        machine, whose clocks live in its kernel)."""
        # Resource availability clocks (plain lists -- hot path).
        self._nic_free = [0.0] * nranks  # outgoing (injection) port
        self._nic_in_free = [0.0] * nranks  # incoming (ejection) port
        self._cpu_free = [0.0] * nranks
        # FIFO channel clocks: last delivery time per (src, dst).
        self._flat_channels = nranks <= self._FLAT_CHANNEL_MAX_RANKS
        if self._flat_channels:
            self._channel_last: Any = [0.0] * (nranks * nranks)
        else:
            self._channel_last = {}

    # -- wiring --------------------------------------------------------------

    def set_handler(self, rank: int, fn: Callable[[Message], None]) -> None:
        """Install the message handler for ``rank``."""
        self._handlers[rank] = fn

    # -- time accessors --------------------------------------------------------

    @property
    def now(self) -> float:
        return self.sim.now

    def cpu_busy_until(self, rank: int) -> float:
        return self._cpu_free[rank]

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
        """Non-blocking send; delivery invokes the receiver's handler.

        Self-sends short-circuit through the handler with zero network
        cost (a rank "sending to itself" is just a local hand-off, and the
        paper's per-rank volume counters only see real messages).
        """
        nbytes = int(nbytes)
        msg = Message(src, dst, tag, nbytes, category, payload)
        sim = self.sim
        if self._event_log is not None:
            self._event_log.append(
                TraceEvent("send", sim.now, src, dst, tag, nbytes)
            )
        if src == dst:
            if self._rec is not None:
                self._rec.record_local(msg, sim.now)
            sim.schedule_at(sim.now, self._deliver, msg)
            return
        self.stats.on_send(msg)
        inj = self._injection_time(nbytes)
        now = sim.now
        nic = self._nic_free[src]
        start = nic if nic > now else now
        finish = start + inj
        self._nic_free[src] = finish
        self.stats._nic_out_busy[src] += inj
        arrival = finish + self._transit_time(src, dst, nbytes)
        # Enforce MPI-style non-overtaking per (src, dst) channel.
        ch = self._channel_last
        if self._flat_channels:
            idx = src * self.nranks + dst
            if arrival < ch[idx]:
                arrival = ch[idx]
            ch[idx] = arrival
        else:
            key = (src, dst)
            last = ch.get(key, 0.0)
            if arrival < last:
                arrival = last
            ch[key] = arrival
        if self._rec is not None:
            self._rec.record_send(msg, now, start, finish, arrival)
        sim.schedule_at(arrival, self._receive, msg)

    def _receive(self, msg: Message) -> None:
        self.stats.on_receive(msg)
        dst = msg.dst
        now = self.sim.now
        # Ejection: converging messages serialize through the receiver's
        # NIC-in port (a flat reduce root pays p-1 of these back to back).
        eject = self._ejection_time(msg.nbytes)
        nic = self._nic_in_free[dst]
        nic_start = nic if nic > now else now
        nic_done = nic_start + eject
        self._nic_in_free[dst] = nic_done
        self.stats._nic_in_busy[dst] += eject
        # Then receive-side software overhead occupies the receiver's CPU.
        oh = self._recv_overhead
        cpu = self._cpu_free[dst]
        start = cpu if cpu > nic_done else nic_done
        self._cpu_free[dst] = start + oh
        self.stats._recv_overhead_busy[dst] += oh
        if self._rec is not None:
            self._rec.record_receive(msg, nic_start, nic_done, start, start + oh)
        self.sim.schedule_at(start + oh, self._deliver, msg)

    def _deliver(self, msg: Message) -> None:
        if self._rec is not None:
            self._rec.record_deliver(msg, self.sim.now)
        if self._event_log is not None:
            self._event_log.append(
                TraceEvent(
                    "deliver", self.sim.now, msg.src, msg.dst, msg.tag,
                    msg.nbytes,
                )
            )
        fn = self._handlers[msg.dst]
        if fn is None:
            raise RuntimeError(f"no handler installed on rank {msg.dst}")
        if self._deliver_oh > 0.0:
            self.post_compute(msg.dst, self._deliver_oh, label="msg-overhead")
        fn(msg)

    # -- computation -------------------------------------------------------------

    def post_compute(
        self,
        rank: int,
        seconds: float,
        fn: Callable[[], None] | None = None,
        *,
        flops: float | None = None,
        label: str | None = None,
    ) -> None:
        """Occupy ``rank``'s CPU for ``seconds`` (or a flop count), then
        run ``fn`` at completion.  ``label`` names the task on the
        telemetry timeline (ignored when no recorder is attached)."""
        if flops is not None:
            seconds = self.network.compute_time(flops)
        if seconds < 0:
            raise ValueError("negative compute time")
        now = self.sim.now
        cpu = self._cpu_free[rank]
        start = cpu if cpu > now else now
        finish = start + seconds
        self._cpu_free[rank] = finish
        self.stats._compute_busy[rank] += seconds
        if self._rec is not None:
            self._rec.record_compute(rank, start, finish, label)
        if fn is not None:
            self.sim.schedule_at(finish, fn)

    # -- lifecycle ---------------------------------------------------------------

    def run(self, max_events: int | None = None) -> float:
        """Drain all events; returns the makespan (final virtual time).

        The cyclic garbage collector is paused for the drain and the
        caller's setting restored afterwards (also when a handler
        raises).  A drain allocates millions of short-lived objects and
        creates no reference cycles -- retired protocol state is freed
        by refcounting -- so every full collection it would trigger
        walks the live heap for nothing.
        """
        if self._closed:
            raise RuntimeError("machine is closed")
        enabled = gc.isenabled()
        gc.disable()
        try:
            return self.sim.run(max_events=max_events)
        finally:
            if enabled:
                gc.enable()

    def close(self) -> None:
        """Release the per-run buffers once the simulation is over.

        A finished simulation is a reference cycle (the scheduler's
        handler table points back at the machine and the protocol), so
        it is only reclaimed by a full collection -- which the paused
        drains make rare.  Emptying the O(nranks^2) channel clocks (and,
        on the vectorized machine, the kernel's pair map and pending
        events) here keeps a dead run small until then.
        Stats, counters and the clock stay readable; a closed machine
        refuses to run again.
        """
        self._closed = True
        self._channel_last.clear()
