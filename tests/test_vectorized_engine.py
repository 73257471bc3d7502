"""Vectorized engine: native kernel and protocol, bit-identity.

The vectorized engine's contract is the legacy engine's, verbatim: it
is an optimization, never a behavior change.  Three layers pin it:

* **Randomized end-to-end identity.**  Hypothesis draws simulation
  parameters (scheme -- all six tree families -- grid shape, seeds,
  jitter, lookahead), the real planner generates the supernode plans,
  and the full run must agree bit-for-bit with the legacy heapq
  engine: makespan, event count, every stats table, and (separately)
  the send/deliver trace-event stream.
* **Bounded runs.**  ``until``/``max_events`` on the kernel's queue
  behave exactly like the heapq reference.
* **Column stats.**  :class:`VecCommStats` keeps numpy columns but the
  read-out views and totals match :class:`CommStats` exactly.
"""

import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import ProcessorGrid, SimulatedPSelInv
from repro.simulate import (
    CommStats,
    NetworkConfig,
    Simulator,
    VecCommStats,
    VecMachine,
    VecSimulator,
)
from repro.simulate.machine import Message
from repro.sparse import analyze
from repro.workloads import dg_hamiltonian, make_workload

ALL_SCHEMES = ("flat", "binary", "binomial", "shifted", "randperm", "hybrid")


@pytest.fixture(scope="module")
def problem():
    m = dg_hamiltonian((5, 5), 16, neighbor_hops=1,
                       rng=np.random.default_rng(11))
    return analyze(m, ordering="nd", max_supernode=8)


def _outcome(problem, engine, *, scheme, grid, seed, jitter_seed,
             jitter_sigma, lookahead, overhead=0.0, event_log=None):
    sim = SimulatedPSelInv(
        problem.struct,
        ProcessorGrid(*grid),
        scheme,
        network=NetworkConfig(jitter_sigma=jitter_sigma),
        seed=seed,
        jitter_seed=jitter_seed,
        lookahead=lookahead,
        per_message_cpu_overhead=overhead,
        engine=engine,
        event_log=event_log,
    )
    res = sim.run()
    st_ = sim.machine.stats
    return (
        res.makespan,
        res.events,
        {k: list(v) for k, v in st_._sent.items()},
        {k: list(v) for k, v in st_._messages_sent.items()},
        {k: list(v) for k, v in st_._received.items()},
        list(st_._compute_busy),
        list(st_._nic_out_busy),
        list(st_._nic_in_busy),
        list(st_._recv_overhead_busy),
    )


# ---------------------------------------------------------------------------
# Randomized end-to-end identity (real planner, all six schemes)
# ---------------------------------------------------------------------------


@settings(max_examples=12, deadline=None)
@given(
    scheme=st.sampled_from(ALL_SCHEMES),
    grid=st.sampled_from([(1, 1), (2, 2), (2, 4), (4, 4)]),
    seed=st.integers(min_value=0, max_value=2**20),
    jitter_seed=st.integers(min_value=0, max_value=1000),
    jitter_sigma=st.sampled_from([0.0, 0.3, 1.5]),
    lookahead=st.sampled_from([2, 8, 32]),
)
def test_vectorized_matches_legacy_random_plans(
    problem, scheme, grid, seed, jitter_seed, jitter_sigma, lookahead
):
    kwargs = dict(scheme=scheme, grid=grid, seed=seed,
                  jitter_seed=jitter_seed, jitter_sigma=jitter_sigma,
                  lookahead=lookahead)
    legacy = _outcome(problem, "legacy", **kwargs)
    vec = _outcome(problem, "vectorized", **kwargs)
    assert vec == legacy


@pytest.mark.parametrize("scheme", ALL_SCHEMES)
def test_vectorized_matches_legacy(problem, scheme):
    kwargs = dict(scheme=scheme, grid=(2, 4), seed=123, jitter_seed=7,
                  jitter_sigma=0.4, lookahead=4)
    legacy = _outcome(problem, "legacy", **kwargs)
    vec = _outcome(problem, "vectorized", **kwargs)
    assert vec == legacy


def test_vectorized_trace_log_identical(problem):
    """The repro-check trace hook sees the same send/deliver stream
    (the trace path disables the fast closures but not the compiled
    protocol -- both layers must agree with the legacy engine)."""
    logs = {}
    for engine in ("legacy", "vectorized"):
        log: list = []
        _outcome(problem, engine, scheme="shifted", grid=(2, 2), seed=5,
                 jitter_seed=3, jitter_sigma=0.2, lookahead=32,
                 event_log=log)
        logs[engine] = log
    assert logs["vectorized"] == logs["legacy"]
    assert logs["legacy"]  # non-vacuous: the stream exists


def test_vectorized_with_per_message_overhead(problem):
    """A per-delivery CPU tax disables the fast path; the generic
    primitives must still match the legacy engine exactly."""
    kwargs = dict(scheme="shifted", grid=(2, 2), seed=9, jitter_seed=1,
                  jitter_sigma=0.1, lookahead=32, overhead=2e-7)
    assert (_outcome(problem, "vectorized", **kwargs)
            == _outcome(problem, "legacy", **kwargs))


# ---------------------------------------------------------------------------
# The kernel's native protocol (symbolic runs without hooks)
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("overhead", [0.0, 2e-6])
@pytest.mark.parametrize("lookahead", [1, 4, None])
@pytest.mark.parametrize("grid", [(1, 8), (8, 1), (8, 8)])
@pytest.mark.parametrize("scheme", ALL_SCHEMES)
def test_native_route_matches_legacy(problem, scheme, grid, lookahead,
                                     overhead):
    kwargs = dict(scheme=scheme, grid=grid, seed=77, jitter_seed=5,
                  jitter_sigma=0.3, lookahead=lookahead, overhead=overhead)
    vec = _outcome(problem, "vectorized", **kwargs)
    legacy = _outcome(problem, "legacy", **kwargs)
    assert float(vec[0]).hex() == float(legacy[0]).hex()
    assert vec == legacy


def test_native_route_bounded_run_raises_like_legacy(problem):
    """A ``max_events`` budget stops both engines at the same event with
    the same error, clock and queue."""
    seen = []
    for engine in ("vectorized", "legacy"):
        sim = SimulatedPSelInv(problem.struct, ProcessorGrid(4, 4), "shifted",
                               lookahead=4, engine=engine)
        assert sim._native == (engine == "vectorized")
        with pytest.raises(RuntimeError, match="exceeded 1500 events") as exc:
            sim.run(max_events=1500)
        k = sim.machine.sim
        seen.append((str(exc.value), k.events_processed, k.now,
                     k.pending()))
    assert seen[0] == seen[1]
    assert seen[0][3] > 0  # stopped mid-run, queue intact


def test_trace_log_run_takes_the_generic_route(problem):
    """An ``event_log`` hook moves a symbolic run off the native route,
    and the default engine's trace log is still the legacy one."""
    logs = {}
    for engine in ("legacy", "vectorized"):
        log: list = []
        sim = SimulatedPSelInv(
            problem.struct, ProcessorGrid(8, 8), "binary", lookahead=4,
            per_message_cpu_overhead=2e-6, event_log=log, engine=engine,
        )
        assert not sim._native
        sim.run()
        logs[engine] = log
    assert logs["vectorized"] == logs["legacy"]
    assert logs["legacy"]


def test_native_route_makes_few_python_calls():
    """The kernel runs the dataflow: during ``run()`` Python sees only
    window entry and retirement, < 0.05 function calls per event on a
    quick-tier run.  Trees come from a shared run-level cache (the
    runner's sweep setting); the cold tree build is not counted."""
    prob = analyze(make_workload("audikw_1", "small"))
    cache: dict = {}
    SimulatedPSelInv(prob.struct, ProcessorGrid(8, 8), "shifted",
                     tree_cache=cache).run()
    sim = SimulatedPSelInv(prob.struct, ProcessorGrid(8, 8), "shifted",
                           tree_cache=cache)
    assert sim._native
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        if event == "call":
            calls += 1

    sys.setprofile(count)
    try:
        res = sim.run()
    finally:
        sys.setprofile(None)
    assert res.events > 10_000
    assert calls / res.events < 0.05, (calls, res.events)


# ---------------------------------------------------------------------------
# VecSimulator bounded-run contract
# ---------------------------------------------------------------------------

_time_st = st.floats(min_value=0.0, max_value=1e-5, allow_nan=False)


@settings(max_examples=60, deadline=None)
@given(
    times=st.lists(_time_st, min_size=0, max_size=30),
    until=st.one_of(st.none(), _time_st),
    max_events=st.one_of(st.none(), st.integers(min_value=1, max_value=40)),
)
def test_vec_bounded_run_matches_heapq(times, until, max_events):
    """The kernel's bounded-run contract equals the heapq
    reference: same executed order, same final clock, same error, and
    the queue survives to a full drain."""
    results = []
    for sim in (Simulator(), VecSimulator()):
        trace = []
        for i, t in enumerate(times):
            sim.schedule_at(t, lambda i=i: trace.append((i, sim.now)))
        try:
            sim.run(until=until, max_events=max_events)
            err = None
        except RuntimeError as e:
            err = str(e)
        sim.run()
        results.append((trace, sim.now, sim.events_processed, err))
    assert results[0] == results[1]


# ---------------------------------------------------------------------------
# VecCommStats: numpy columns, CommStats-identical read-outs
# ---------------------------------------------------------------------------


def test_vec_stats_columns_match_commstats():
    a, b = CommStats(4), VecCommStats(4)
    traffic = [
        Message(1, 3, "t0", 100, "x"),
        Message(1, 2, "t1", 50, "x"),
        Message(2, 0, "t2", 7, "y"),
    ]
    for s in (a, b):
        for msg in traffic:
            s.on_send(msg)
        s.on_receive(traffic[0])
    assert isinstance(b._sent["x"], np.ndarray)
    for k in ("x", "y"):
        assert list(b.sent[k]) == list(a.sent[k])
        assert list(b.messages_sent[k]) == list(a.messages_sent[k])
    assert b.messages_sent["x"].dtype == np.int64
    assert list(b.received["x"]) == list(a.received["x"])
    assert list(b.total_sent()) == list(a.total_sent())
    assert list(b.total_sent("x")) == list(a.total_sent("x"))
    assert list(b.total_sent("missing")) == [0.0] * 4
    assert list(b.total_received("x")) == list(a.total_received("x"))
    # Read-outs are copies, not aliases of the live columns.
    view = b.sent["x"]
    view[1] = 999.0
    assert b._sent["x"][1] != 999.0


def test_vec_machine_uses_column_stats(problem):
    sim = SimulatedPSelInv(
        problem.struct, ProcessorGrid(2, 2), "shifted", engine="vectorized"
    )
    assert isinstance(sim.machine, VecMachine)
    assert isinstance(sim.machine.stats, VecCommStats)
    assert isinstance(sim.machine.sim, VecSimulator)
    res = sim.run()
    assert res.events > 0
    assert sim.machine.sim.events_processed == res.events
    assert sim.machine.sim.pending() == 0
