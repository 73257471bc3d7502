"""Golden outcomes: the cost model's results on a few quick runs, pinned.

The DES is deterministic, so a run's event count, its makespan (as
``float.hex``) and a canonical digest of its per-rank ``CommStats``
identify the cost model that produced it.  The values below were
recorded before the native kernel replaced the Python scheduler, and
every engine must still reproduce them bit-for-bit.

A drift here means the simulated outcome changed.  If that is intended,
records in the persistent result store were made under the old model:
bump ``repro.runner.store.FORMAT_VERSION`` and re-record with::

    PYTHONPATH=src python tests/test_golden_outcomes.py
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.core import ProcessorGrid, SimulatedPSelInv
from repro.core.pselinv_unsym import SimulatedPSelInvUnsym
from repro.simulate import DEFAULT_ENGINE, ENGINES, NetworkConfig
from repro.sparse import analyze, factorize
from repro.workloads import make_workload

_BUSY = ("compute_busy", "recv_overhead_busy", "nic_out_busy", "nic_in_busy")

# name -> (scheme, grid, numeric, per-message CPU overhead, unsymmetric)
CASES = {
    "flat-4x4": ("flat", (4, 4), False, 0.0, False),
    "binary-4x4": ("binary", (4, 4), False, 0.0, False),
    "shifted-8x8": ("shifted", (8, 8), False, 0.0, False),
    "flat-8x8-overhead": ("flat", (8, 8), False, 2e-6, False),
    "shifted-4x4-numeric": ("shifted", (4, 4), True, 0.0, False),
    "binary-2x4-numeric": ("binary", (2, 4), True, 0.0, False),
    "unsym-shifted-4x4": ("shifted", (4, 4), False, 0.0, True),
}

# name -> (events, float.hex(makespan), stats digest)
GOLDEN = {
    "binary-2x4-numeric": (1902, "0x1.1c9a57017d794p-11", "1f437b21649066fc5dfd805a"),
    "binary-4x4": (2422, "0x1.2c5c2f79ece15p-11", "a028e6141926f759fcfb670a"),
    "flat-4x4": (2422, "0x1.1ed9d7d65a966p-11", "f1176a2f2f42d0793994151b"),
    "flat-8x8-overhead": (2686, "0x1.6a2a8c454b701p-11", "464e5fc99f91f8061ba2b168"),
    "shifted-4x4-numeric": (2422, "0x1.28d4e5dd48c7ep-11", "e596a5ec218c7746dcbc9fc9"),
    "shifted-8x8": (2686, "0x1.4862042bffa74p-11", "2441732bf5b6ad1c216ae514"),
    "unsym-shifted-4x4": (4147, "0x1.6b67fc5dba5e5p-11", "54e848360267b630d9de1d92"),
}


def stats_digest(stats) -> str:
    """Container-independent digest: categories sorted, all-zero ones
    dropped, byte/message counts as int64, busy times as float64."""
    h = hashlib.sha256()
    for name in ("sent", "received", "messages_sent"):
        table = getattr(stats, name)
        for key in sorted(table):
            arr = np.asarray(table[key], dtype=np.float64)
            if arr.any():
                h.update(key.encode())
                h.update(arr.astype(np.int64).tobytes())
        h.update(b"|")
    for name in _BUSY:
        h.update(np.asarray(getattr(stats, name), dtype=np.float64).tobytes())
    return h.hexdigest()[:24]


_PROBLEM = None


def _problem():
    global _PROBLEM
    if _PROBLEM is None:
        _PROBLEM = analyze(make_workload("audikw_1", "tiny"))
    return _PROBLEM


def outcome(
    name: str, engine: str, tree_cache: dict | None = None
) -> tuple[int, str, str]:
    scheme, grid, numeric, overhead, unsym = CASES[name]
    prob = _problem()
    common = dict(
        network=NetworkConfig(jitter_sigma=0.2), seed=3, jitter_seed=5,
        placement_seed=7, lookahead=4,
    )
    factor = factorize(prob.matrix, prob.struct) if numeric else None
    if unsym:
        # No ``engine=``: the unsymmetric simulation runs on the default
        # engine's machine.
        assert engine == DEFAULT_ENGINE
        sim = SimulatedPSelInvUnsym(
            prob.struct, ProcessorGrid(*grid), scheme, **common
        )
    else:
        sim = SimulatedPSelInv(
            prob.struct, ProcessorGrid(*grid), scheme, factor=factor,
            per_message_cpu_overhead=overhead, engine=engine,
            tree_cache=tree_cache, **common,
        )
    res = sim.run()
    return res.events, float(res.makespan).hex(), stats_digest(res.stats)


# The unsymmetric simulation runs on the default engine's machine (its
# golden was recorded on the legacy one).
RUNS = [
    (name, engine)
    for name in sorted(CASES)
    for engine in ((DEFAULT_ENGINE,) if CASES[name][4] else ENGINES)
]


@pytest.mark.parametrize("name,engine", RUNS)
def test_golden_outcome(name, engine):
    got = outcome(name, engine)
    assert got == GOLDEN[name], (
        f"{name} on engine={engine!r}: {got} != {GOLDEN[name]} -- "
        "cost model changed: bump runner.store.FORMAT_VERSION and "
        "re-record the golden outcomes"
    )


class _CountingCache(dict):
    """A tree cache that counts the Python protocol's lookups."""

    hits = misses = 0

    def get(self, key, default=None):
        if key in self:
            self.hits += 1
        else:
            self.misses += 1
        return super().get(key, default)


def test_tree_cache_is_shared_across_engines():
    """Trees built by a legacy numeric run serve a vectorized numeric run
    of the same configuration: every lookup hits, nothing is rebuilt, and
    the outcome is still the golden one."""
    name = "shifted-4x4-numeric"
    cache = _CountingCache()
    assert outcome(name, "legacy", cache) == GOLDEN[name]
    built = dict(cache)
    assert cache.misses == len(built) - 1 > 0  # one build per tree
    cache.hits = cache.misses = 0
    assert outcome(name, "vectorized", cache) == GOLDEN[name]
    assert cache.misses == 0 and cache.hits == len(built) - 1
    assert all(cache[k] is v for k, v in built.items())


if __name__ == "__main__":
    for case in sorted(CASES):
        engine = DEFAULT_ENGINE if CASES[case][4] else "legacy"
        print(f"    {case!r}: {outcome(case, engine)!r},")
