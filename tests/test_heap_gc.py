"""The DES heap contract: window-bounded retirement, a paused collector,
and one default engine.

A drain creates no reference cycles -- everything a retired supernode
owned is freed when it retires (the kernel's protocol tables) or by
refcounting -- which is what lets ``Machine.run`` pause the cyclic
collector for the drain without leaking.  These tests pin both halves of
that contract on every engine (and on numeric runs, which take the
Python protocol), the release of per-run buffers once a simulation is
over -- a closed machine's kernel holds no pending event arguments and
no protocol tables, and the kernel is visible to the collector -- and
the single default engine every entry point agrees on.
"""

import argparse
import gc
import inspect
import weakref
from contextlib import contextmanager

import pytest

from repro.cli import build_parser
from repro.core import ProcessorGrid, SimulatedPSelInv
from repro.runner import ExperimentSpec, cache
from repro.simulate import (
    DEFAULT_ENGINE,
    ENGINES,
    Machine,
    Network,
    VecMachine,
)
from repro.sparse import analyze, factorize
from repro.workloads import make_workload

# Each engine, plus "generic": the default engine serving a numeric run,
# which runs the Python handler protocol (TreeBroadcast/TreeReduce) on
# the kernel's machine instead of the kernel's own protocol, and
# "legacy-numeric": the legacy engine serving a numeric run.
RUNS = (*ENGINES, "generic", "legacy-numeric")


@pytest.fixture(scope="module")
def problem():
    return analyze(make_workload("audikw_1", "tiny"))


def _simulation(problem, run, grid):
    engine, factor = run, None
    if run in ("generic", "legacy-numeric"):
        engine = DEFAULT_ENGINE if run == "generic" else "legacy"
        factor = factorize(problem.matrix, problem.struct)
    sim = SimulatedPSelInv(
        problem.struct, ProcessorGrid(*grid), "shifted", engine=engine,
        factor=factor,
    )
    assert sim._native == (run == DEFAULT_ENGINE)
    return sim


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


@pytest.mark.parametrize("run", RUNS)
def test_run_leaves_no_cyclic_garbage(problem, run):
    """With the collector off, a whole run leaves nothing for it to find."""
    with collector(False):
        gc.collect()
        sim = _simulation(problem, run, (8, 8))
        res = sim.run()
        unreachable = gc.collect()
    assert res.events > 0
    assert unreachable == 0


class _Watched(SimulatedPSelInv):
    """Calls ``on_retire(sim)`` at every retirement, before the window
    moves on (the kernel's one call back into Python)."""

    on_retire = None

    def _supernode_finished(self) -> None:
        self.on_retire(self)
        super()._supernode_finished()


def test_compiled_tables_live_only_inside_the_window(problem):
    """The kernel's live supernode tables peak at ``lookahead`` and a
    supernode's tables are gone by the time it retires."""
    lookahead = 4
    sim = _Watched(
        problem.struct, ProcessorGrid(8, 8), "shifted", lookahead=lookahead
    )
    kernel = sim.machine.sim
    peak = 0
    retired = []

    def on_retire(s):
        # The retiring supernode's tables are already freed.
        assert kernel.live_tables < s._outstanding
        retired.append(kernel.live_tables)

    load = sim._load_native

    def counting_load(plan):
        nonlocal peak
        load(plan)
        peak = max(peak, kernel.live_tables)

    sim._load_native = counting_load
    sim.on_retire = on_retire
    sim.run()
    assert 0 < peak <= lookahead
    assert len(retired) == problem.struct.nsup
    assert kernel.live_tables == 0


def test_late_colbcast_delivery_finds_an_empty_table(problem):
    """A relay delivery for a retired supernode posts nothing."""
    sim = _Watched(problem.struct, ProcessorGrid(8, 8), "shifted", lookahead=1)
    kernel = sim.machine.sim
    checked = []

    def on_retire(s):
        k = s._release_order[s._release_ptr - 1]  # the one outstanding
        plan = s.plans[k]
        if not plan.col_bcasts:
            return
        before = kernel.pending()
        for c, spec in enumerate(plan.col_bcasts, start=1):
            for y in range(spec.size):
                kernel.deliver(k, c, y)
        assert kernel.pending() == before  # no send, no GEMM
        checked.append(k)

    sim.on_retire = on_retire
    sim.run()
    assert checked


def test_close_frees_the_protocol_tables(problem):
    """A run stopped by its event budget leaves live tables; closing the
    machine frees them (and the kernel's pending events)."""
    sim = SimulatedPSelInv(problem.struct, ProcessorGrid(8, 8), "shifted")
    with pytest.raises(RuntimeError, match="exceeded"):
        sim.run(max_events=2000)
    kernel = sim.machine.sim
    assert kernel.live_tables > 0 and kernel.pending() > 0
    sim.machine.close()
    assert kernel.live_tables == 0 and kernel.pending() == 0
    with pytest.raises(RuntimeError, match="no protocol attached"):
        kernel.load(0, [], [], [], [], [])


# -- the paused collector -------------------------------------------------------


def _machine(machine_cls, handler):
    m = machine_cls(4, Network(4))
    for r in range(4):
        m.set_handler(r, handler)
    for r in range(1, 4):
        m.post_send(0, r, ("t", r), 64, "x")
    return m


@pytest.mark.parametrize("enabled", [True, False])
@pytest.mark.parametrize("machine_cls", [Machine, VecMachine])
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


@pytest.mark.parametrize("run", RUNS)
def test_finished_run_closes_its_machine(problem, run):
    sim = _simulation(problem, run, (4, 4))
    res = sim.run()
    assert res.stats.total_sent().sum() > 0
    assert sim.machine.sim.pending() == 0
    with pytest.raises(RuntimeError, match="closed"):
        sim.machine.run()


class _Arg:
    """A weakly referenceable handler argument."""


def test_closed_machine_drops_pending_event_args():
    """``close()`` empties the kernel's heap: the arguments of events
    that never ran are released, not kept alive by the finished run."""
    m = VecMachine(4, Network(4))
    hid = m.sim.register_handler(lambda arg: None)
    arg, fn_arg = _Arg(), _Arg()
    m.sim.schedule_msg(1e-6, hid, arg)
    m.sim.schedule(2e-6, lambda a: None, fn_arg)
    m.send_pt(0, 2, "t", 64, m.category_id("x"), lambda *a: None, 0)
    refs = [weakref.ref(arg), weakref.ref(fn_arg)]
    del arg, fn_arg
    assert m.sim.pending() == 3
    assert all(r() is not None for r in refs)  # held by the pending events
    m.close()
    assert m.sim.pending() == 0
    assert all(r() is None for r in refs)


def test_kernel_is_gc_tracked():
    """The kernel's handler table points back at the machine, so the
    pair is a cycle the collector must be able to see and break."""
    m = VecMachine(4, Network(4))
    assert gc.is_tracked(m.sim)
    ref = weakref.ref(m)
    with collector(False):
        del m
        assert ref() is not None  # a cycle: refcounting cannot free it
        gc.collect()
    assert ref() is None


# -- one default engine ----------------------------------------------------------


def test_every_entry_point_defaults_to_one_engine(problem):
    assert DEFAULT_ENGINE == "vectorized"
    assert ENGINES == (DEFAULT_ENGINE, "legacy")
    assert (
        inspect.signature(SimulatedPSelInv).parameters["engine"].default
        == DEFAULT_ENGINE
    )
    assert ExperimentSpec("audikw_1", (2, 2), "shifted").engine == DEFAULT_ENGINE
    # Trees do not depend on the engine, so neither does their cache.
    assert "engine" not in inspect.signature(cache.get_tree_cache).parameters
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
