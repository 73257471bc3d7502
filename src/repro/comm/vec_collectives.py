"""Compiled collective state machines for the vectorized engine.

The batch-engine collectives (:class:`~repro.comm.collectives.ArrayBroadcast`
/ :class:`~repro.comm.collectives.ArrayReduce`) already route deliveries
through direct callbacks, but they still pay for per-collective closures in
the protocol layer, per-message metrics tests, dict-based contributor
lookups, and full SoA message records for payload-less symbolic traffic.

The classes here are their ``engine="vectorized"`` counterparts, compiled
against a :class:`~repro.comm.trees.CompiledTree`:

* positions, adjacency and child counts come straight from the shared
  structure cache and per-shape memos (shared across every tree of the
  same family and size);
* forwarded messages travel on the machine's *point* route
  (:meth:`VecMachine.send_pt`) -- a 5-tuple record instead of an 8-column
  SoA slot, since symbolic collective traffic never carries a payload;
* completion callbacks receive a caller-supplied ``ctx`` object, so the
  protocol layer binds no lambdas per collective;
* reductions are driven by contributor *positions* precomputed by the
  protocol (:meth:`VecReduce.contribute_pos`), eliminating the per-call
  rank -> position dict lookup;
* wide fan-outs (flat/hybrid trees) are emitted as one column batch via
  :meth:`VecMachine.send_batch`, which vectorizes the per-pair network
  arithmetic;
* no collective stores a bound method of itself (its delivery callback
  is looked up per forward instead), so a collective forms no reference
  cycle and is freed by refcounting as soon as its supernode retires
  and its last message lands.

Send order, finish order, and degenerate-tree behavior replicate the
array classes exactly (children forward in ascending position; zero-input
positions finish at construction in ascending position), which is what
keeps vectorized runs bit-identical to the legacy and batch engines.
Symbolic mode only: payloads are always ``None`` and no value bookkeeping
exists (numeric runs fall back to the array collectives).
"""

from __future__ import annotations

from typing import Any, Callable

from .trees import CompiledTree

__all__ = ["VecBroadcast", "VecReduce", "BATCH_FANOUT_MIN"]

#: Fan-outs at or above this go through the machine's column-batch send
#: (numpy injection chain + per-pair gather); below it, the scalar
#: per-child send is cheaper than the array round trip.
BATCH_FANOUT_MIN = 6


class VecBroadcast:
    """Restricted broadcast over a :class:`CompiledTree` (symbolic)."""

    __slots__ = (
        "machine",
        "tree",
        "tag",
        "nbytes",
        "cid",
        "on_delivery",
        "ctx",
        "_started",
        "_ranks",
        "_indptr",
        "_childpos",
        "_send",
    )

    def __init__(
        self,
        machine,
        tree: CompiledTree,
        tag: Any,
        nbytes: int,
        cid: int,
        on_delivery: Callable[[Any, int, Any], None],
        ctx: Any,
    ) -> None:
        self.machine = machine
        self.tree = tree
        self.tag = tag
        self.nbytes = int(nbytes)
        self.cid = cid
        self.on_delivery = on_delivery
        self.ctx = ctx
        self._started = False
        self._ranks = tree.ranks
        self._indptr = tree.indptr
        self._childpos = tree.childpos
        # The machine's send closures exist before any collective does,
        # so they can be captured once per collective instead of looked
        # up per forwarded message.
        self._send = machine.send_pt

    def start(self, payload: Any = None) -> None:
        """Called (once) on the root when its data is ready."""
        if self._started:
            raise RuntimeError(f"broadcast {self.tag!r} started twice")
        self._started = True
        self.on_message(self._ranks[0], payload, 0)

    def on_message(self, dst: int, payload: Any, aux: int) -> None:
        """Delivery callback: a tree parent forwarded us the payload."""
        indptr = self._indptr
        lo = indptr[aux]
        hi = indptr[aux + 1]
        if hi > lo:
            ranks = self._ranks
            childpos = self._childpos
            if hi - lo >= BATCH_FANOUT_MIN:
                auxs = childpos[lo:hi]
                self.machine.send_batch(
                    dst,
                    [ranks[c] for c in auxs],
                    self.tag,
                    self.nbytes,
                    self.cid,
                    self.on_message,
                    auxs,
                )
            else:
                send = self._send
                tag = self.tag
                nbytes = self.nbytes
                cid = self.cid
                om = self.on_message
                for ci in range(lo, hi):
                    child = childpos[ci]
                    send(dst, ranks[child], tag, nbytes, cid, om, child)
        self.on_delivery(self.ctx, dst, payload)


class VecReduce:
    """Restricted reduction over a :class:`CompiledTree` (symbolic).

    The protocol layer supplies contributor *positions* up front and
    drives progress through :meth:`contribute_pos`; per-position pending
    counters start from the shared child-count list.  Zero-input
    positions (degenerate trees) finish at construction in ascending
    position order, exactly like the array classes.
    """

    __slots__ = (
        "machine",
        "tree",
        "tag",
        "nbytes",
        "cid",
        "on_complete",
        "ctx",
        "_ranks",
        "_parents",
        "_pending",
        "_send",
    )

    def __init__(
        self,
        machine,
        tree: CompiledTree,
        tag: Any,
        nbytes: int,
        cid: int,
        contributor_pos,
        on_complete: Callable[[Any, Any], None],
        ctx: Any,
    ) -> None:
        self.machine = machine
        self.tree = tree
        self.tag = tag
        self.nbytes = int(nbytes)
        self.cid = cid
        self.on_complete = on_complete
        self.ctx = ctx
        self._ranks = tree.ranks
        self._parents = tree.parentpos
        pending = tree.child_counts.tolist()
        for p in contributor_pos:
            pending[p] += 1
        self._pending = pending
        self._send = machine.send_pt
        for i, expected in enumerate(pending):
            if expected == 0:
                # A pure relay with no children and no contribution can
                # only happen for a degenerate tree; fire immediately.
                self._finish(i)

    def contribute_pos(self, pos: int) -> None:
        """Provide the contribution of the rank at ``pos`` (exactly once)."""
        pending = self._pending
        n = pending[pos] - 1
        pending[pos] = n
        if n == 0:
            self._finish(pos)

    def on_message(self, dst: int, payload: Any, aux: int) -> None:
        """Delivery callback: a child sent us its partial result."""
        pending = self._pending
        n = pending[aux] - 1
        pending[aux] = n
        if n == 0:
            self._finish(aux)

    def _finish(self, pos: int) -> None:
        if pos:
            parent = self._parents[pos]
            ranks = self._ranks
            self._send(
                ranks[pos],
                ranks[parent],
                self.tag,
                self.nbytes,
                self.cid,
                self.on_message,
                parent,
            )
        else:
            self.on_complete(self.ctx, None)
