"""Native DES kernel: scheduler order, kernel machine, engine parity.

Three layers of guarantees, mirroring the engine's design contract:

* The kernel's :class:`VecSimulator` executes ANY mix of
  ``schedule``/``schedule_at``/``schedule_msg`` calls in exactly the
  (time, seq) order of the heapq :class:`Simulator` -- pinned by a
  Hypothesis property over random schedules, including mid-run
  scheduling at and near the time currently executing.
* The bounded-run contract (``until`` leaves ``now`` at the last
  executed event; ``max_events`` raises with the queue intact) holds
  identically on both schedulers.
* :class:`VecMachine` reproduces :class:`Machine` bit-for-bit: same
  timestamps, same stats dicts, same trace events, for the same
  traffic -- and full protocol runs are bit-identical across engines.
  Unknown engine names are rejected at every entry point.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import build_parser
from repro.core import ProcessorGrid, SimulatedPSelInv
from repro.runner import ExperimentSpec
from repro.simulate import (
    ENGINES,
    Machine,
    Network,
    NetworkConfig,
    Simulator,
    VecMachine,
    VecSimulator,
)
from repro.sparse import analyze
from repro.workloads import dg_hamiltonian


# ---------------------------------------------------------------------------
# Kernel heap vs heapq: exact execution-order equivalence
# ---------------------------------------------------------------------------

# Times spanning sub-100ns spacing, exact ties, and larger jumps: the
# regimes where a scheduler's tie-breaking or ordering can break.
_time_st = st.one_of(
    st.sampled_from([0.0, 1e-9, 5e-8, 1e-7, 1.0000001e-7, 2e-7, 1e-6, 3.7e-6]),
    st.floats(min_value=0.0, max_value=1e-5, allow_nan=False),
)

# A schedule program: initial events, each optionally chaining one
# follow-up event at now + delta when it executes (exercises mid-drain
# scheduling, including at the current time).
_program_st = st.lists(
    st.tuples(_time_st, st.one_of(st.none(), _time_st)),
    min_size=0,
    max_size=40,
)


def _execute(sim, program, use_msg_api: bool):
    """Run ``program`` on ``sim``; returns the (label, now) trace."""
    trace = []

    def make_cb(idx, chain):
        def cb(_arg=None):
            trace.append((idx, sim.now))
            if chain is not None:
                if use_msg_api:
                    sim.schedule_msg(sim.now + chain, hid, (idx, "chained"))
                else:
                    sim.schedule(chain, chained, (idx, "chained"))

        return cb

    def chained(tag):
        trace.append((tag, sim.now))

    if use_msg_api:
        hid = sim.register_handler(chained)
    cbs = [make_cb(i, chain) for i, (t, chain) in enumerate(program)]
    for i, (t, _chain) in enumerate(program):
        sim.schedule_at(t, cbs[i])
    end = sim.run()
    return trace, end, sim.events_processed


@settings(max_examples=200, deadline=None)
@given(program=_program_st)
def test_calendar_queue_matches_heapq_order(program):
    legacy = _execute(Simulator(), program, use_msg_api=False)
    native = _execute(VecSimulator(), program, use_msg_api=False)
    assert native == legacy


@settings(max_examples=100, deadline=None)
@given(program=_program_st)
def test_schedule_msg_matches_heapq_order(program):
    legacy = _execute(Simulator(), program, use_msg_api=False)
    native = _execute(VecSimulator(), program, use_msg_api=True)
    assert native == legacy


@settings(max_examples=100, deadline=None)
@given(
    program=_program_st,
    until=st.one_of(st.none(), _time_st),
    max_events=st.one_of(st.none(), st.integers(min_value=1, max_value=50)),
)
def test_bounded_run_equivalence(program, until, max_events):
    """until/max_events behave identically: same trace, same now, same
    error, and the queue survives a max_events abort intact."""
    results = []
    for sim in (Simulator(), VecSimulator()):
        trace = []
        for i, (t, _chain) in enumerate(program):
            sim.schedule_at(t, lambda i=i: trace.append((i, sim.now)))
        try:
            sim.run(until=until, max_events=max_events)
            err = None
        except RuntimeError as e:
            err = str(e)
        # Draining the remainder must pick up exactly where the bounded
        # run stopped, in the same order.
        sim.run()
        results.append((trace, sim.now, sim.events_processed, err))
    assert results[0] == results[1]


class TestCalendarSimulatorUnit:
    def test_tie_break_is_schedule_order(self):
        sim = VecSimulator()
        log = []
        for i in range(5):
            sim.schedule(1.0, lambda i=i: log.append(i))
        sim.run()
        assert log == [0, 1, 2, 3, 4]

    def test_same_bucket_different_times_sorted(self):
        # Distinct timestamps 80 ns apart must execute in time order,
        # not schedule order.
        sim = VecSimulator()
        w = 1e-7
        log = []
        sim.schedule_at(0.9 * w, lambda: log.append("late"))
        sim.schedule_at(0.1 * w, lambda: log.append("early"))
        sim.run()
        assert log == ["early", "late"]

    def test_mid_drain_insert_runs_in_time_order(self):
        # An event scheduled mid-drain, earlier than one already queued,
        # must run before it.
        sim = VecSimulator()
        w = 1e-7
        log = []

        def first():
            log.append(("first", sim.now))
            sim.schedule_at(0.5 * w, lambda: log.append(("mid", sim.now)))

        sim.schedule_at(0.1 * w, first)
        sim.schedule_at(0.9 * w, lambda: log.append(("last", sim.now)))
        sim.run()
        assert log == [
            ("first", 0.1 * w), ("mid", 0.5 * w), ("last", 0.9 * w)
        ]

    def test_negative_delay_rejected(self):
        sim = VecSimulator()
        with pytest.raises(ValueError, match="negative delay"):
            sim.schedule(-1e-9, lambda: None)

    def test_past_scheduling_rejected(self):
        sim = VecSimulator()
        sim.schedule(5.0, lambda: sim.schedule_at(1.0, lambda: None))
        with pytest.raises(ValueError, match="in the past"):
            sim.run()

    def test_max_events_guard_message(self):
        sim = VecSimulator()

        def loop():
            sim.schedule(1.0, loop)

        sim.schedule(0.0, loop)
        with pytest.raises(RuntimeError, match="exceeded 100 events"):
            sim.run(max_events=100)

    def test_until_leaves_now_at_last_executed_event(self):
        # The documented bounded-run contract: now is the timestamp of
        # the last executed event, never advanced to the horizon.
        for sim in (Simulator(), VecSimulator()):
            sim.schedule_at(1.0, lambda: None)
            sim.schedule_at(10.0, lambda: None)
            assert sim.run(until=5.0) == 1.0
            assert sim.now == 1.0
            assert sim.pending() == 1
            # Horizons are absolute: a second bounded run resumes.
            assert sim.run(until=10.0) == 10.0
            assert sim.pending() == 0

    def test_repeated_bounded_runs_drain_everything(self):
        for cls in (Simulator, VecSimulator):
            sim = cls()
            log = []
            for i in range(10):
                sim.schedule_at(float(i), lambda i=i: log.append(i))
            for horizon in (2.5, 4.0, 100.0):
                sim.run(until=horizon)
            assert log == list(range(10))
            assert sim.events_processed == 10

    def test_handler_table_dispatch(self):
        sim = VecSimulator()
        got = []
        hid = sim.register_handler(got.append)
        assert hid >= 2
        sim.schedule_msg(1e-6, hid, "payload")
        sim.run()
        assert got == ["payload"]


# ---------------------------------------------------------------------------
# VecMachine vs Machine: identical behavior on scripted traffic
# ---------------------------------------------------------------------------


def _machines(n=4, **cfg):
    net_cfg = NetworkConfig(**cfg)
    return (
        Machine(n, Network(n, net_cfg)),
        VecMachine(n, Network(n, net_cfg)),
    )


class TestVecMachineParity:
    def test_legacy_handler_compat(self):
        # set_handler-based delivery (Message view) works on both.
        for m in _machines():
            got = []
            m.set_handler(1, lambda msg: got.append((msg.src, msg.payload)))
            m.post_send(0, 1, "t", 100, "test", payload="hello")
            m.run()
            assert got == [(0, "hello")]

    def test_missing_handler_raises(self):
        for m in _machines():
            m.post_send(0, 1, "t", 10, "x")
            with pytest.raises(RuntimeError, match="no handler"):
                m.run()

    def test_identical_timestamps_and_stats(self):
        # A deterministic traffic script (fan-in, fan-out, self-sends,
        # repeated channels) must produce bit-identical delivery times
        # and stats dicts on both machines.
        mlegacy, mvec = _machines(8, jitter_sigma=0.0)
        outs = []
        for m in (mlegacy, mvec):
            log = []
            for r in range(8):
                m.set_handler(r, lambda msg, m=m: log.append(
                    (msg.src, msg.dst, msg.tag, m.now)))
            for i in range(6):
                m.post_send(0, 1 + i % 3, ("msg", i), 1000 * (i + 1), "a")
                m.post_send(i % 4, 5, ("fan", i), 512, "b")
                m.post_send(2, 2, ("self", i), 9999, "c")
            m.post_compute(3, 0.0, flops=1e6)
            end = m.run()
            outs.append((
                log,
                end,
                {k: list(v) for k, v in m.stats._sent.items()},
                {k: list(v) for k, v in m.stats._messages_sent.items()},
                {k: list(v) for k, v in m.stats._received.items()},
                list(m.stats._compute_busy),
                list(m.stats._nic_out_busy),
                list(m.stats._nic_in_busy),
                list(m.stats._recv_overhead_busy),
            ))
        assert outs[0] == outs[1]

    def test_trace_event_log_identical(self):
        # The HB-checker hook: both machines emit the same TraceEvents.
        net_cfg = NetworkConfig()
        log_a, log_b = [], []
        ma = Machine(4, Network(4, net_cfg), event_log=log_a)
        mb = VecMachine(4, Network(4, net_cfg), event_log=log_b)
        for m, log in ((ma, log_a), (mb, log_b)):
            m.set_handler(1, lambda msg: None)
            m.set_handler(2, lambda msg: None)
            m.post_send(0, 1, "x", 100, "cat")
            m.post_send(0, 2, "y", 200, "cat")
            m.post_send(1, 1, "self", 50, "cat")
            m.run()
        assert log_a == log_b

    def test_negative_compute_rejected(self):
        for m in _machines():
            with pytest.raises(ValueError, match="negative compute"):
                m.post_compute(0, -1.0)


# ---------------------------------------------------------------------------
# Full-protocol engine equivalence
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def problem():
    m = dg_hamiltonian((6, 6), 20, neighbor_hops=1,
                       rng=np.random.default_rng(5))
    return analyze(m, ordering="nd", max_supernode=8)


def _outcome(problem, scheme, grid, engine, event_log=None):
    sim = SimulatedPSelInv(
        problem.struct,
        ProcessorGrid(*grid),
        scheme,
        network=NetworkConfig(jitter_sigma=0.3),
        jitter_seed=77,
        seed=123,
        engine=engine,
        event_log=event_log,
    )
    res = sim.run()
    st = sim.machine.stats
    return (
        res.makespan,
        res.events,
        {k: list(v) for k, v in st._sent.items()},
        {k: list(v) for k, v in st._messages_sent.items()},
        {k: list(v) for k, v in st._received.items()},
        list(st._compute_busy),
        list(st._nic_out_busy),
        list(st._nic_in_busy),
        list(st._recv_overhead_busy),
    )


@pytest.mark.parametrize("scheme", ["shifted", "binary", "flat", "hybrid"])
def test_engines_bit_identical(problem, scheme):
    for grid in ((2, 2), (4, 4), (1, 1)):
        legacy = _outcome(problem, scheme, grid, "legacy")
        vec = _outcome(problem, scheme, grid, "vectorized")
        assert vec == legacy, (scheme, grid)


def test_engines_identical_event_log(problem):
    """The repro-check trace hook sees the same send/deliver stream."""
    log_l: list = []
    log_v: list = []
    _outcome(problem, "shifted", (2, 2), "legacy", event_log=log_l)
    _outcome(problem, "shifted", (2, 2), "vectorized", event_log=log_v)
    assert log_l == log_v
    assert log_l  # non-vacuous: the stream exists


# A removed engine name and a made-up one: both must fail at the
# boundary that receives them, not later inside a pool worker.
_REJECTED = ["batch", "turbo"]


def test_unknown_engine_rejected(problem):
    for engine in _REJECTED:
        assert engine not in ENGINES
        with pytest.raises(ValueError, match="unknown engine"):
            SimulatedPSelInv(
                problem.struct, ProcessorGrid(2, 2), "shifted", engine=engine
            )


@pytest.mark.parametrize("engine", _REJECTED)
def test_unknown_engine_rejected_by_spec(engine):
    with pytest.raises(ValueError, match="unknown engine"):
        ExperimentSpec("audikw_1", (2, 2), "shifted", engine=engine)


@pytest.mark.parametrize("engine", _REJECTED)
def test_unknown_engine_rejected_by_cli(engine, capsys):
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(["scaling", "--engine", engine])
    assert exc.value.code == 2  # argparse usage error
    assert "invalid choice" in capsys.readouterr().err
