"""Outcome digests and the golden comparison.

A DES run is summarised by its makespan (``float.hex``), its event count
and a digest of its per-rank ``CommStats`` arrays; a ``VolumeReport`` by
a digest of its counters.  Arrays are brought to a canonical form first
-- byte and message counts as int64, busy times as float64, all-zero
categories dropped -- so two engines that simulate the same outcome but
store it in different containers digest alike.

``goldens.json`` holds the digests of the default seed, recorded from the
code the benchmark was defined against.  A mismatch is a failed check.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

GOLDENS_PATH = Path(__file__).resolve().parent / "goldens.json"

_BUSY = ("compute_busy", "recv_overhead_busy", "nic_out_busy", "nic_in_busy")


def _feed_counts(h, table: dict) -> None:
    for key in sorted(table):
        arr = np.asarray(table[key], dtype=np.float64)
        if not arr.any():
            continue
        h.update(key.encode())
        h.update(arr.astype(np.int64).tobytes())
    h.update(b"|")


def stats_digest(stats) -> str:
    """Digest of a ``CommStats`` (or a ``RunRecord``, same attributes)."""
    h = hashlib.sha256()
    for name in ("sent", "received", "messages_sent"):
        _feed_counts(h, getattr(stats, name))
    for name in _BUSY:
        h.update(np.asarray(getattr(stats, name), dtype=np.float64).tobytes())
    return h.hexdigest()[:24]


def des_digest(makespan: float, events: int, stats) -> dict:
    return {
        "makespan": float(makespan).hex(),
        "events": int(events),
        "stats": stats_digest(stats),
    }


def volume_digest(report) -> dict:
    h = hashlib.sha256()
    for name in ("sent", "received", "messages"):
        _feed_counts(h, getattr(report, name))
    h.update(json.dumps(sorted(report.max_degree.items())).encode())
    return {"counters": h.hexdigest()[:24]}


def load_goldens() -> dict:
    """``{workload: {seed: {entry: digest}}}`` (empty if none recorded)."""
    if not GOLDENS_PATH.exists():
        return {}
    with open(GOLDENS_PATH) as fh:
        return json.load(fh)


def compare(expected: dict, got: dict) -> list[str]:
    """Names of the entries that differ; an entry missing on either side
    is a difference too."""
    return sorted(
        name
        for name in set(expected) | set(got)
        if expected.get(name) != got.get(name)
    )
