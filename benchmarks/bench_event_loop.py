"""Scheduler microbenchmark: the native kernel heap vs Python's heapq.

Pure schedule/drain churn through :class:`repro.simulate.Simulator`
(heapq reference) and :class:`repro.simulate.VecSimulator` (the C
kernel's binary heap + handler table), with no machine, network, or
protocol on top -- this isolates the event-loop cost.  Both loops call
a Python handler per event, so the measured gap is the scheduler's own
bookkeeping: tuple allocation, heap sifts and dispatch.

Three traffic shapes bracket the design space:

* ``convergent`` -- hop times snap to a microsecond grid with thousands
  of events in flight, so many events collide on identical timestamps
  (exercising the ``seq`` tie-break) and the heap is deep.  This is the
  shape of collective traffic, and the gated one.
* ``sparse`` -- sub-microsecond hop deltas with only 64 events in
  flight: a shallow heap, where the per-event sift cost is smallest.
* ``collective`` -- handler-inclusive: overlapping binary-tree
  broadcast waves where every delivery runs a real forwarding handler
  (child-index arithmetic + two downstream schedules), the event mix of
  the PSelInv collectives.

Both loops consume an identical precomputed delta stream, so they
execute the same virtual schedule; each run asserts the engines agree
on the event count and final virtual time before timing is recorded.
Results land in ``results/BENCH_throughput.json``.
"""

from __future__ import annotations

from time import perf_counter

from _harness import emit, record_throughput, run_once

from repro.analysis import Table
from repro.simulate import Simulator, VecSimulator

# Events per measured drain (small enough for the quick tier; the
# per-event cost is flat in N well before this point).
N_EVENTS = 200_000
_PAIRS = 3  # alternated measurement pairs; best-of is reported


def _delta_stream(shape: str, n: int) -> list[float]:
    """Deterministic hop-time stream (LCG; no RNG state at run time)."""
    deltas = []
    x = 123456789
    for _ in range(n):
        x = (1103515245 * x + 12345) % (1 << 31)
        if shape == "convergent":
            # 1-8 us, snapped to the microsecond grid: heavy timestamp
            # collision across the in-flight population.
            deltas.append((1 + x % 8) * 1e-6)
        else:
            # 0-1 us continuous: almost never collides.
            deltas.append((x % 1000) * 1e-9)
    return deltas


def _shape_actors(shape: str) -> int:
    return 8192 if shape == "convergent" else 64


def _run_legacy(shape: str) -> tuple[float, int, float]:
    deltas = _delta_stream(shape, N_EVENTS + _shape_actors(shape))
    sim = Simulator()
    it = iter(deltas)
    left = [N_EVENTS]

    def hop(_):
        if left[0] > 0:
            left[0] -= 1
            sim.schedule_at(sim.now + next(it), hop, None)

    for _ in range(_shape_actors(shape)):
        sim.schedule_at(next(it), hop, None)
    t0 = perf_counter()
    end = sim.run()
    return perf_counter() - t0, sim.events_processed, end


def _run_kernel(shape: str) -> tuple[float, int, float]:
    deltas = _delta_stream(shape, N_EVENTS + _shape_actors(shape))
    sim = VecSimulator()
    it = iter(deltas)
    left = [N_EVENTS]

    def hop(_):
        if left[0] > 0:
            left[0] -= 1
            sim.schedule_msg(sim.now + next(it), hid, None)

    hid = sim.register_handler(hop)
    for _ in range(_shape_actors(shape)):
        sim.schedule_msg(next(it), hid, None)
    t0 = perf_counter()
    end = sim.run()
    return perf_counter() - t0, sim.events_processed, end


# Collective shape: _WAVES overlapping binary-tree broadcasts over
# _TREE_RANKS positions; every delivery runs the forwarding handler.
_TREE_RANKS = 4096
_WAVES = 50


def _hop_delta(wave: int, pos: int) -> float:
    """Deterministic per-edge hop time, 1-8 us on the microsecond grid."""
    x = (1103515245 * (wave * _TREE_RANKS + pos) + 12345) % (1 << 31)
    return (1 + x % 8) * 1e-6


def _run_collective_legacy() -> tuple[float, int, float]:
    sim = Simulator()

    def deliver(arg):
        wave, pos = arg
        now = sim.now
        c = 2 * pos + 1
        if c < _TREE_RANKS:
            sim.schedule_at(now + _hop_delta(wave, c), deliver, (wave, c))
        c += 1
        if c < _TREE_RANKS:
            sim.schedule_at(now + _hop_delta(wave, c), deliver, (wave, c))

    for wave in range(_WAVES):
        sim.schedule_at(wave * 64e-6 + _hop_delta(wave, 0), deliver, (wave, 0))
    t0 = perf_counter()
    end = sim.run()
    return perf_counter() - t0, sim.events_processed, end


def _run_collective_kernel() -> tuple[float, int, float]:
    sim = VecSimulator()

    def deliver(arg):
        wave, pos = arg
        now = sim.now
        c = 2 * pos + 1
        if c < _TREE_RANKS:
            sim.schedule_msg(now + _hop_delta(wave, c), hid, (wave, c))
        c += 1
        if c < _TREE_RANKS:
            sim.schedule_msg(now + _hop_delta(wave, c), hid, (wave, c))

    hid = sim.register_handler(deliver)
    for wave in range(_WAVES):
        sim.schedule_msg(wave * 64e-6 + _hop_delta(wave, 0), hid, (wave, 0))
    t0 = perf_counter()
    end = sim.run()
    return perf_counter() - t0, sim.events_processed, end


def _collective_case() -> dict:
    """Best-of alternated rounds of the handler-inclusive broadcast mix."""
    best_l = best_c = float("inf")
    for _ in range(_PAIRS):
        dt_l, ev_l, end_l = _run_collective_legacy()
        dt_c, ev_c, end_c = _run_collective_kernel()
        assert ev_l == ev_c == _WAVES * _TREE_RANKS, (ev_l, ev_c)
        assert end_l == end_c, (end_l, end_c)
        best_l = min(best_l, dt_l)
        best_c = min(best_c, dt_c)
    events = _WAVES * _TREE_RANKS
    return dict(
        events=events,
        legacy_seconds=best_l,
        kernel_seconds=best_c,
        legacy_events_per_sec=round(events / best_l),
        kernel_events_per_sec=round(events / best_c),
        speedup=round(best_l / best_c, 3),
    )


def test_event_loop_throughput(benchmark):
    def compute():
        out = {}
        for shape in ("convergent", "sparse"):
            best_l = best_c = float("inf")
            for _ in range(_PAIRS):
                dt_l, ev_l, end_l = _run_legacy(shape)
                dt_c, ev_c, end_c = _run_kernel(shape)
                # Same schedule -> same count and same final clock.
                assert ev_l == ev_c and end_l == end_c, (shape, ev_l, ev_c)
                best_l = min(best_l, dt_l)
                best_c = min(best_c, dt_c)
            out[shape] = dict(
                events=ev_l,
                legacy_seconds=best_l,
                kernel_seconds=best_c,
                legacy_events_per_sec=round(ev_l / best_l),
                kernel_events_per_sec=round(ev_c / best_c),
                speedup=round(best_l / best_c, 3),
            )
        out["collective"] = _collective_case()
        return out

    results = run_once(benchmark, compute)

    table = Table(
        f"Event-loop churn (best of {_PAIRS} alternated rounds)",
        ["shape", "events", "heapq ev/s", "kernel ev/s", "speedup"],
    )
    for shape, r in results.items():
        table.add(
            shape,
            f"{r['events']:,}",
            f"{r['legacy_events_per_sec']:,}",
            f"{r['kernel_events_per_sec']:,}",
            f"{r['speedup']:.2f}x",
        )
    conv = results["convergent"]
    note = record_throughput(
        "event_loop",
        wall_seconds=conv["kernel_seconds"],
        events=conv["events"],
        extra={f"{s}_{k}": v for s, r in results.items()
               for k, v in r.items() if k != "events"},
    )
    emit("event_loop", table.render() + "\n\n" + note)

    # The kernel must win decisively on collective-shaped traffic; the
    # other shapes are informational.
    assert conv["speedup"] >= 1.3, conv
