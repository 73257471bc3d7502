"""The DES heap contract: window-bounded retirement, a paused collector,
and one default engine.

A drain creates no reference cycles -- everything a retired supernode
owned is freed by refcounting -- which is what lets ``Machine.run``
pause the cyclic collector for the drain without leaking.  These tests
pin both halves of that contract on every engine, the release of
per-run buffers once a simulation is over, and the single default
engine every entry point agrees on.
"""

import argparse
import gc
import inspect
from contextlib import contextmanager

import pytest

from repro.cli import build_parser
from repro.core import ProcessorGrid, SimulatedPSelInv
from repro.runner import ExperimentSpec, cache
from repro.simulate import (
    DEFAULT_ENGINE,
    ENGINES,
    BatchMachine,
    Machine,
    Network,
    VecMachine,
)
from repro.sparse import analyze
from repro.workloads import make_workload

COMPILED_TABLES = ("rr_info", "norm_vec", "bcast_gemms", "gemms_left", "diag_left")


@pytest.fixture(scope="module")
def problem():
    return analyze(make_workload("audikw_1", "tiny"))


@contextmanager
def collector(enabled: bool):
    """Run the block with the cyclic collector on or off, then restore."""
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        yield
    finally:
        (gc.enable if was else gc.disable)()


# -- window-bounded retirement ------------------------------------------------


@pytest.mark.parametrize("engine", ENGINES)
def test_run_leaves_no_cyclic_garbage(problem, engine):
    """With the collector off, a whole run leaves nothing for it to find."""
    with collector(False):
        gc.collect()
        sim = SimulatedPSelInv(
            problem.struct, ProcessorGrid(8, 8), "shifted", engine=engine
        )
        res = sim.run()
        unreachable = gc.collect()
    assert res.events > 0
    assert unreachable == 0


def test_compiled_tables_live_only_inside_the_window(problem):
    lookahead = 4
    sim = SimulatedPSelInv(
        problem.struct, ProcessorGrid(8, 8), "shifted", lookahead=lookahead
    )
    setup = sim._setup_supernode_vec
    peak = 0

    def counting_setup(plan):
        nonlocal peak
        setup(plan)
        live = sum(1 for st in sim.states if getattr(st, "rr_info", None))
        peak = max(peak, live)

    sim._setup_supernode_vec = counting_setup
    sim.run()
    assert 0 < peak <= lookahead
    for st in sim.states:
        for name in COMPILED_TABLES:
            assert not getattr(st, name), (st.plan.k, name)


def test_late_colbcast_delivery_finds_an_empty_table(problem):
    sim = SimulatedPSelInv(problem.struct, ProcessorGrid(8, 8), "shifted")
    sim.run()
    st = next(st for st in sim.states if st.plan.col_bcasts)
    i = st.plan.col_bcasts[0].key[2]
    scheduled = sim.machine.sim._seq
    for rank in range(sim.grid.size):
        sim._on_colbcast_delivery_vec((st, [], i), rank, None)
    assert not sim._vwaiters
    assert sim.machine.sim._seq == scheduled  # no GEMM was posted


# -- the paused collector -------------------------------------------------------


def _machine(machine_cls, handler):
    m = machine_cls(4, Network(4))
    for r in range(4):
        m.set_handler(r, handler)
    for r in range(1, 4):
        m.post_send(0, r, ("t", r), 64, "x")
    return m


@pytest.mark.parametrize("enabled", [True, False])
@pytest.mark.parametrize("machine_cls", [Machine, BatchMachine, VecMachine])
class TestMachineRunRestoresCollector:
    def test_unbounded_run(self, machine_cls, enabled):
        during = []
        m = _machine(machine_cls, lambda msg: during.append(gc.isenabled()))
        with collector(enabled):
            m.run()
            after = gc.isenabled()
        assert during == [False, False, False]
        assert after is enabled

    def test_bounded_run(self, machine_cls, enabled):
        m = _machine(machine_cls, lambda msg: None)
        with collector(enabled):
            with pytest.raises(RuntimeError, match="exceeded"):
                m.run(max_events=1)
            after = gc.isenabled()
        assert after is enabled

    def test_handler_raises(self, machine_cls, enabled):
        def handler(msg):
            raise ValueError("boom")

        m = _machine(machine_cls, handler)
        with collector(enabled):
            with pytest.raises(ValueError, match="boom"):
                m.run()
            after = gc.isenabled()
        assert after is enabled


# -- per-run buffers --------------------------------------------------------------


@pytest.mark.parametrize("engine", ENGINES)
def test_finished_run_closes_its_machine(problem, engine):
    sim = SimulatedPSelInv(
        problem.struct, ProcessorGrid(4, 4), "shifted", engine=engine
    )
    res = sim.run()
    assert res.stats.total_sent().sum() > 0
    if engine != "legacy":
        assert not sim.machine.sim._times  # per-event columns released
    with pytest.raises(RuntimeError, match="closed"):
        sim.machine.run()


# -- one default engine ----------------------------------------------------------


def test_every_entry_point_defaults_to_one_engine(problem):
    assert DEFAULT_ENGINE == "vectorized"
    assert DEFAULT_ENGINE in ENGINES
    assert (
        inspect.signature(SimulatedPSelInv).parameters["engine"].default
        == DEFAULT_ENGINE
    )
    assert ExperimentSpec("audikw_1", (2, 2), "shifted").engine == DEFAULT_ENGINE
    assert (
        inspect.signature(cache.get_tree_cache).parameters["engine"].default
        == DEFAULT_ENGINE
    )
    subparsers = next(
        a for a in build_parser()._actions
        if isinstance(a, argparse._SubParsersAction)
    )
    cli_defaults = {
        name: sp.get_default("engine")
        for name, sp in subparsers.choices.items()
        if sp.get_default("engine") is not None
    }
    assert set(cli_defaults) == {"scaling", "bench", "trace", "hotspots"}
    assert set(cli_defaults.values()) == {DEFAULT_ENGINE}
    sim = SimulatedPSelInv(problem.struct, ProcessorGrid(2, 2), "shifted")
    assert isinstance(sim.machine, VecMachine)
