"""The native DES kernel: loading, fallback, and its machine routes.

* Where a C compiler is available the kernel must load and the default
  engine must be the vectorized one -- a silent fallback to the legacy
  engine would otherwise pass every parity test.
* Without a compiler (a copy of the package imported with an empty
  ``PATH``) the package falls back to the legacy engine with exactly one
  warning, and an explicit ``engine="vectorized"`` fails with a clear
  error instead of running something else.
* The kernel's point route (``send_pt`` with the receive
  stage in C, per-delivery CPU tax included) and its pair map (which
  also serves machines above the legacy dense-channel bound) reproduce
  the generic Python route and the legacy machine bit-for-bit.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import sysconfig
import textwrap
from pathlib import Path

import pytest

import repro
from repro.simulate import (
    DEFAULT_ENGINE,
    Machine,
    Network,
    NetworkConfig,
    VecMachine,
    VecSimulator,
    _native,
)

PACKAGE = Path(repro.__file__).resolve().parent


@pytest.mark.skipif(shutil.which("cc") is None, reason="no C compiler on PATH")
def test_kernel_loads_where_a_compiler_exists():
    assert _native.kernel is not None, _native.error
    assert DEFAULT_ENGINE == "vectorized"
    assert issubclass(VecSimulator, _native.kernel.Kernel)


def test_build_cache_key():
    target = _native._target()
    assert target.parent == PACKAGE / "simulate" / "__pycache__"
    assert target.name.endswith(sysconfig.get_config_var("EXT_SUFFIX"))
    assert "-ffp-contract=off" in _native.FLAGS
    assert "-fno-fast-math" in _native.FLAGS


_FALLBACK_SCRIPT = textwrap.dedent(
    """
    import repro.simulate as simulate
    from repro.core import ProcessorGrid, SimulatedPSelInv
    from repro.runner import ExperimentSpec
    from repro.sparse import analyze
    from repro.workloads import make_workload

    print("default", simulate.DEFAULT_ENGINE)
    prob = analyze(make_workload("audikw_1", "tiny"))
    res = SimulatedPSelInv(prob.struct, ProcessorGrid(2, 2), "shifted").run()
    print("events", res.events)
    for make in (
        lambda: SimulatedPSelInv(
            prob.struct, ProcessorGrid(2, 2), "shifted", engine="vectorized"
        ),
        lambda: ExperimentSpec("audikw_1", (2, 2), "shifted",
                               engine="vectorized"),
        simulate.VecSimulator,
    ):
        try:
            make()
            print("no error")
        except RuntimeError as exc:
            print("error", exc)
    """
)


def test_fallback_without_a_compiler(tmp_path):
    """A copy of the package with no cached kernel and no ``cc`` on
    PATH: legacy default, one warning, clear errors."""
    shutil.copytree(
        PACKAGE, tmp_path / "repro",
        ignore=shutil.ignore_patterns("__pycache__", "*.so"),
    )
    proc = subprocess.run(
        [sys.executable, "-c", _FALLBACK_SCRIPT],
        env={"PATH": "", "PYTHONPATH": str(tmp_path)},
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    out = proc.stdout.splitlines()
    assert out[0] == "default legacy"
    assert out[1].startswith("events ") and int(out[1].split()[1]) > 0
    assert len(out) == 5
    for line in out[2:]:
        assert line.startswith("error engine='vectorized' needs the native DES kernel")
        assert "no C compiler" in line
    assert proc.stderr.count("native DES kernel could not be built") == 1
    assert not list((tmp_path / "repro" / "simulate").rglob("_kernel-*"))


_PRUNE_SCRIPT = textwrap.dedent(
    """
    from repro.simulate import _native
    print(_native.kernel is not None, _native._target().name)
    """
)


@pytest.mark.skipif(shutil.which("cc") is None, reason="no C compiler on PATH")
def test_build_prunes_stale_kernels(tmp_path):
    """A fresh build deletes older builds for this interpreter and keeps
    other Python versions' builds."""
    shutil.copytree(
        PACKAGE, tmp_path / "repro",
        ignore=shutil.ignore_patterns("__pycache__", "*.so"),
    )
    cache = tmp_path / "repro" / "simulate" / "__pycache__"
    cache.mkdir()
    suffix = sysconfig.get_config_var("EXT_SUFFIX")
    stale = cache / f"_kernel-0123456789abcdef{suffix}"
    other = cache / "_kernel-0123456789abcdef.cpython-30-other.so"
    stale.write_bytes(b"stale")
    other.write_bytes(b"other")
    proc = subprocess.run(
        [sys.executable, "-c", _PRUNE_SCRIPT],
        env={"PATH": os.environ.get("PATH", ""), "PYTHONPATH": str(tmp_path)},
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    loaded, name = proc.stdout.split()
    assert loaded == "True"
    assert not stale.exists()
    assert other.exists()
    assert sorted(p.name for p in cache.glob(f"_kernel-*{suffix}")) == [name]


# -- the kernel's machine routes ---------------------------------------------------

# Two ranks per node and two nodes per group: all three distance
# classes, with jitter on the inter-node pairs.
_NET = dict(cores_per_node=2, nodes_per_group=2, jitter_sigma=0.3)


def _traffic(m, send_pt, got):
    """A scripted point-route mix: fan-outs, fan-in, self-sends,
    repeated channels and sizes spanning the latency/bandwidth regimes."""
    n = m.nranks

    def cb(dst, payload, aux):
        got.append((dst, m.now, aux, payload))

    cids = [m.category_id(c) for c in ("a", "b")]
    for i in range(5):
        for d in range(1, n):
            send_pt(i % n, (i + d) % n, ("b", i), 64 << i, cids[i % 2], cb,
                    99 + d)
        for src in range(n):
            send_pt(src, (3 * i) % n, ("p", i, src), 4096 * (i + 1),
                    cids[(i + src) % 2], cb, src)
        send_pt(2, 2, ("self", i), 999, cids[0], cb, -i)


def _outcome(m, got):
    st = m.stats
    return (
        got,
        m.now,
        {k: list(v) for k, v in st._sent.items()},
        {k: list(v) for k, v in st._messages_sent.items()},
        {k: list(v) for k, v in st._received.items()},
        [list(map(float, c)) for c in (
            st._compute_busy, st._nic_out_busy, st._nic_in_busy,
            st._recv_overhead_busy)],
        [float(m.cpu_busy_until(r)) for r in range(m.nranks)],
    )


@pytest.mark.parametrize("overhead", [0.0, 3e-7])
def test_point_route_matches_generic_route(overhead):
    """Native point route == the Python generic route (forced by a trace
    log: ``post_send`` plus a rank handler calling the same callback,
    ``aux`` carried in the tag), per-delivery tax included."""
    outs = []
    for event_log in (None, []):
        m = VecMachine(8, Network(8, NetworkConfig(**_NET), jitter_seed=4),
                       event_log=event_log, deliver_cpu_overhead=overhead)
        native = event_log is None
        assert hasattr(m, "send_pt") == native
        got: list = []
        if native:
            assert m.send_pt == m.sim.send_pt
            send_pt = m.send_pt
        else:
            names = {m.category_id(c): c for c in ("a", "b")}

            def handler(msg):
                _, (cb, aux) = msg.tag
                cb(msg.dst, msg.payload, aux)

            for r in range(m.nranks):
                m.set_handler(r, handler)

            def send_pt(src, dst, tag, nbytes, cid, cb, aux, m=m):
                m.post_send(src, dst, (tag, (cb, aux)), nbytes, names[cid])
        _traffic(m, send_pt, got)
        m.run()
        outs.append(_outcome(m, got))
    assert outs[0] == outs[1]


def test_point_route_matches_legacy_machine():
    """Native point route == legacy Machine.post_send + handlers."""
    net = NetworkConfig(**_NET)
    mv = VecMachine(8, Network(8, net, jitter_seed=4))
    got_v: list = []
    _traffic(mv, mv.send_pt, got_v)
    mv.run()

    ml = Machine(8, Network(8, net, jitter_seed=4))
    got_l: list = []
    for r in range(8):
        ml.set_handler(r, lambda msg: got_l.append(
            (msg.dst, ml.now, msg.tag[1], None)))

    def send_pt(src, dst, tag, nbytes, cid, cb, aux):
        ml.post_send(src, dst, (tag, aux), nbytes, "ab"[cid])

    ml.category_id = mv.category_id
    _traffic(ml, send_pt, got_l)
    ml.run()
    assert _outcome(mv, got_v) == _outcome(ml, got_l)


def test_pair_map_beyond_the_dense_channel_bound():
    """Above ``_FLAT_CHANNEL_MAX_RANKS`` the legacy machine keeps its
    channel clocks in a dict; the kernel's one pair map serves both."""
    n = Machine._FLAT_CHANNEL_MAX_RANKS + 76
    net = NetworkConfig(jitter_sigma=0.5)
    logs = []
    for cls in (Machine, VecMachine):
        m = cls(n, Network(n, net, jitter_seed=9))
        if cls is Machine:
            assert not m._flat_channels
        log: list = []
        for r in (0, 7, n - 1, n // 2):
            m.set_handler(r, lambda msg, m=m, log=log: log.append(
                (msg.src, msg.dst, msg.tag, m.now)))
        for i in range(6):
            m.post_send(n - 1, 0, ("far", i), 1 << (10 + i), "x")
            m.post_send(3, n - 1, ("near", i), 100, "x")
            m.post_send(n // 2, 7, ("mid", i), 50_000, "y")
        m.run()
        logs.append((log, m.now, {k: list(v) for k, v in m.stats._sent.items()}))
    assert logs[0] == logs[1]


def test_kernel_rejects_bad_arguments():
    m = VecMachine(4, Network(4))
    cid = m.category_id("x")
    with pytest.raises(IndexError, match="rank 4 out of range"):
        m.send_pt(0, 4, "t", 8, cid, print, 0)
    with pytest.raises(IndexError, match="rank -1 out of range"):
        m.send_pt(-1, 1, "t", 8, cid, print, 0)
    with pytest.raises(ValueError, match="unknown handler id 99"):
        m.sim.schedule_msg(1e-6, 99, None)
    with pytest.raises(RuntimeError, match="no machine attached"):
        VecSimulator().send_pt(0, 1, "t", 8, 0, print, 0)
    with pytest.raises(RuntimeError, match="already attached"):
        VecMachine(4, Network(4), sim=m.sim)
    assert m.sim.pending() == 0


def test_protocol_rejects_malformed_tables():
    """The protocol tables come from the planner; malformed ones are
    refused with an error, never read out of bounds.  The fixture is a
    2x2 grid with two supernodes; supernode 0 has one block (snode 1)."""
    m = VecMachine(4, Network(4))
    k = m.sim
    head = (2, 2, (0, 1, 2, 3, 4, 5), 1e-7, 1e9)
    with pytest.raises(ValueError, match="grid does not match"):
        k.attach_protocol(1, 2, *head[2:], [1, 1], [0, 1, 1], [1], [2], print)
    with pytest.raises(ValueError, match="malformed block CSR"):
        k.attach_protocol(*head, [1, 1], [0, 1, 1], [0], [2], print)
    with pytest.raises(ValueError, match="blksn|attach_protocol"):
        k.attach_protocol(*head, [1, 1], [0, 1, 1], [5], [2], print)
    k.attach_protocol(*head, [1, 1], [0, 1, 1], [1], [2], print)
    with pytest.raises(ValueError, match="already attached"):
        k.attach_protocol(*head, [1, 1], [0, 1, 1], [1], [2], print)
    sizes, nbytes, xbytes = [2, 2, 2, 2], [8] * 4, [8, 8]
    ranks = [0, 2, 1, 3, 2, 3, 0, 2]
    parents = [-1, 0] * 4
    with pytest.raises(ValueError, match="cannot load supernode 7"):
        k.load(7, sizes, ranks, parents, nbytes, xbytes)
    with pytest.raises(ValueError, match="ranks"):
        k.load(0, sizes, [0, 9, *ranks[2:]], parents, nbytes, xbytes)
    with pytest.raises(ValueError, match="malformed collective trees"):
        k.load(0, sizes, ranks, [-1, 0, -1, 0, -1, 1, -1, 0], nbytes, xbytes)
    with pytest.raises(ValueError, match="malformed collective trees"):
        k.load(0, [3, 2, 2, 1], ranks, parents, nbytes, xbytes)
    with pytest.raises(ValueError, match="contributor is not in its tree"):
        k.load(0, sizes, [0, 2, 1, 3, 2, 1, 0, 2], parents, nbytes, xbytes)
    assert k.live_tables == 0 and k.pending() == 0
    k.load(0, sizes, ranks, parents, nbytes, xbytes)
    assert k.live_tables == 1 and k.pending() == 1  # the diag-bcast start
    with pytest.raises(IndexError, match="no position 2 in collective 1"):
        k.deliver(0, 1, 2)
