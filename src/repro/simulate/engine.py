"""Deterministic discrete-event simulation kernel.

A minimal priority-queue event loop: events are ``(time, seq, callback,
arg)`` slots, executed in nondecreasing time order with FIFO tie-breaking
via the monotonically increasing sequence number.  Determinism matters
here -- the PSelInv experiments compare schemes on identical task streams
and attribute run-to-run variation *only* to the seeded network-jitter
model, exactly as the paper attributes it to the physical network.

The optional ``arg`` slot exists for the hot path: the machine layer
schedules millions of per-message callbacks, and passing the message as
an argument avoids allocating a closure per event.

Two engines share this contract:

* :class:`Simulator` -- the reference heapq loop (``engine="legacy"``),
  kept small on purpose: it is the oracle.
* :class:`~repro.simulate.vec.VecSimulator` -- the native C kernel's
  binary heap of the default ``engine="vectorized"`` (an integer
  handler table, the machine's point route in C).

Both drain any schedule stream in the exact same ``(time, seq)`` order
(pinned by a Hypothesis equivalence test), so every simulated outcome is
bit-identical across engines.
"""

from __future__ import annotations

import heapq
import time
from typing import Any, Callable

__all__ = ["Simulator"]

# Sentinel distinguishing "no argument" from a legitimate None argument.
_NO_ARG = object()


class Simulator:
    """Event loop with a virtual clock.

    Use :meth:`schedule` / :meth:`schedule_at` to enqueue callbacks and
    :meth:`run` to drain the queue.  Callbacks receive no arguments
    unless scheduled with an explicit ``arg`` (the zero-allocation hot
    path); closures and ``functools.partial`` work as before.
    """

    def __init__(self) -> None:
        self.now: float = 0.0
        self._queue: list[tuple[float, int, Callable[..., Any], Any]] = []
        self._seq = 0
        self._events_processed = 0
        # Optional telemetry (a MetricsRegistry); None keeps the default
        # loop untouched -- run() only branches once, before draining.
        self._metrics = None

    @property
    def events_processed(self) -> int:
        """Number of callbacks executed so far (for perf reporting)."""
        return self._events_processed

    def attach_metrics(self, registry) -> None:
        """Enable loop telemetry: events/sec and queue-depth high-water.

        The wall-clock read is observation-only (it never feeds back into
        the virtual clock), so determinism of outcomes is preserved.
        """
        self._metrics = registry

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
        heapq.heappush(self._queue, (time, self._seq, fn, arg))
        self._seq += 1

    def run(self, until: float | None = None, max_events: int | None = None) -> float:
        """Drain the event queue; returns the final clock value.

        ``until`` stops the clock at a horizon (events beyond it stay
        queued); ``max_events`` guards against runaway simulations.

        Contract of a bounded run: ``now`` is left at the timestamp of
        the *last executed event*, NOT advanced to the ``until`` horizon
        (an event-driven clock only moves when events execute).  Callers
        issuing repeated bounded ``run(until=...)`` calls must therefore
        pass absolute horizons, not increments relative to ``now``.
        Both engines honor this; it is pinned by tests.
        """
        if self._metrics is not None:
            return self._run_instrumented(until, max_events)
        queue = self._queue
        pop = heapq.heappop
        no_arg = _NO_ARG
        while queue:
            t = queue[0][0]
            # Horizon first: an event beyond ``until`` would never
            # execute, so it must not trip the event budget (the native
            # kernel orders the checks this way; pinned by the bounded-
            # run equivalence property).
            if until is not None and t > until:
                break
            if max_events is not None and self._events_processed >= max_events:
                raise RuntimeError(
                    f"simulation exceeded {max_events} events -- likely a "
                    "protocol bug (deadlock would drain, livelock would not)"
                )
            _, _, fn, arg = pop(queue)
            self.now = t
            self._events_processed += 1
            if arg is no_arg:
                fn()
            else:
                fn(arg)
        return self.now

    def _run_instrumented(
        self, until: float | None, max_events: int | None
    ) -> float:
        """The :meth:`run` loop plus telemetry (metrics attached).

        A separate copy so the default loop carries zero extra work; this
        one additionally tracks the queue-depth high-water mark and, at
        the end, wall-clock throughput.  Only wall time is read -- the
        event order and virtual clock are untouched.
        """
        metrics = self._metrics
        queue = self._queue
        pop = heapq.heappop
        no_arg = _NO_ARG
        depth_hw = len(queue)
        start_events = self._events_processed
        start_wall = time.perf_counter()  # det: allow(DET003) observation-only
        while queue:
            depth = len(queue)
            if depth > depth_hw:
                depth_hw = depth
            t = queue[0][0]
            # Horizon before budget, mirroring the uninstrumented loop.
            if until is not None and t > until:
                break
            if max_events is not None and self._events_processed >= max_events:
                raise RuntimeError(
                    f"simulation exceeded {max_events} events -- likely a "
                    "protocol bug (deadlock would drain, livelock would not)"
                )
            _, _, fn, arg = pop(queue)
            self.now = t
            self._events_processed += 1
            if arg is no_arg:
                fn()
            else:
                fn(arg)
        wall = time.perf_counter() - start_wall  # det: allow(DET003)
        n = self._events_processed - start_events
        metrics.counter("sim.events").inc(n)
        metrics.gauge("sim.queue_depth_high_water").update_max(depth_hw)
        metrics.gauge("sim.wall_seconds").set(wall)
        if wall > 0.0:
            metrics.gauge("sim.events_per_sec").set(n / wall)
        return self.now

    def pending(self) -> int:
        """Number of events still queued."""
        return len(self._queue)
