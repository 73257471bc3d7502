"""Simulated parallel selected inversion for UNSYMMETRIC matrices.

The paper treats symmetric matrices and names the asymmetric extension as
work in progress ("the same communication strategy can be naturally
extended to asymmetric matrices"); this module is that extension, built
on the same tree collectives.  Without ``Uhat = Lhat^T``, the U panels
carry independent data, so every L-side pipeline stage gains a mirrored
U-side stage (see :mod:`repro.core.plan_unsym` for the event table):

* the diagonal block is broadcast twice -- down grid column ``K mod Pc``
  (L normalization) and along grid row ``K mod Pr`` (U normalization);
* ``Lhat(I,K)`` cross-ships L->U and is *column*-broadcast for the
  GEMM-L pipeline producing the lower blocks ``Ainv(C,K)``;
* ``Uhat(K,I)`` cross-ships U->L and is *row*-broadcast for the GEMM-U
  pipeline producing the upper blocks ``Ainv(K,C)`` in place at their
  owners (the symmetric algorithm's cross-backs disappear);
* the diagonal update reduces ``Ainv(K,J) Lhat(J,K)`` along grid row
  ``K mod Pr`` -- the ``Lhat`` factor is already present at each upper
  owner because it was that block's column-broadcast root.

Numeric mode is verified against the sequential unsymmetric oracle
exactly, which is the strongest evidence the mirrored dataflow is right.
"""

from __future__ import annotations

from typing import Any

import numpy as np
from scipy.linalg import solve_triangular

from ..comm.collectives import TreeBroadcast, TreeReduce
from ..comm.trees import build_tree
from ..simulate.machine import Machine, Message
from ..simulate.network import Network, NetworkConfig
from ..sparse.factor import SupernodalFactor
from ..sparse.selinv import SelectedInverse
from ..sparse.supernodes import SupernodalStructure
from .grid import ProcessorGrid
from .plan import BYTES_PER_ENTRY
from .plan_unsym import UnsymSupernodePlan, iter_unsym_plans
from .pselinv import PSelInvResult
from .volume import collective_seed

__all__ = ["SimulatedPSelInvUnsym", "run_pselinv_unsym"]


class _UnsymState:
    """Per-supernode bookkeeping for the mirrored pipelines."""

    __slots__ = (
        "plan",
        "lhat",       # I -> Lhat(I,K) at L owner
        "uhat",       # I -> Uhat(K,I) at U owner
        "lhat_at_u",  # I -> Lhat(I,K) stashed at its col-bcast root
        "bcast_l",    # (I, rank) -> Lhat payload from col-bcast
        "bcast_u",    # (I, rank) -> Uhat payload from row-bcast
        "ainv_low",   # J -> Ainv(J,K)
        "ainv_up",    # J -> Ainv(K,J)
        "rowp",       # (J, rank) -> GEMM-L partial
        "colp",       # (J, rank) -> GEMM-U partial
        "gl_left",
        "gu_left",
        "diag_partial",
        "diag_left",
        "base",
        "diag_value",
        "norm_l",
        "norm_u",
        "gemms_l",
        "gemms_u",
        "nrows",
        "l2u_nbytes",
        "u2l_nbytes",
        "diag_fired",
    )

    def __init__(self, plan: UnsymSupernodePlan):
        self.plan = plan
        self.lhat: dict[int, Any] = {}
        self.uhat: dict[int, Any] = {}
        self.lhat_at_u: dict[int, Any] = {}
        self.bcast_l: dict[tuple[int, int], Any] = {}
        self.bcast_u: dict[tuple[int, int], Any] = {}
        self.ainv_low: dict[int, Any] = {}
        self.ainv_up: dict[int, Any] = {}
        self.rowp: dict[tuple[int, int], Any] = {}
        self.colp: dict[tuple[int, int], Any] = {}
        self.gl_left: dict[tuple[int, int], int] = {}
        self.gu_left: dict[tuple[int, int], int] = {}
        self.diag_partial: dict[int, Any] = {}
        self.diag_left: dict[int, int] = {}
        self.base: Any = None
        self.diag_value: Any = None
        self.norm_l: dict[int, list] = {}
        self.norm_u: dict[int, list] = {}
        self.gemms_l: dict[tuple[int, int], list[int]] = {}
        self.gemms_u: dict[tuple[int, int], list[int]] = {}
        self.nrows: dict[int, int] = {b.snode: b.nrows for b in plan.blocks}
        self.l2u_nbytes = {p.key[2]: p.nbytes for p in plan.cross_l2u}
        self.u2l_nbytes = {p.key[2]: p.nbytes for p in plan.cross_u2l}
        self.diag_fired: set[int] = set()


class SimulatedPSelInvUnsym:
    """One configured unsymmetric PSelInv simulation; call :meth:`run`."""

    def __init__(
        self,
        struct: SupernodalStructure,
        grid: ProcessorGrid,
        scheme: str = "shifted",
        *,
        factor: SupernodalFactor | None = None,
        network: NetworkConfig | None = None,
        seed: int = 0,
        placement_seed: int | None = None,
        jitter_seed: int = 0,
        hybrid_threshold: int = 8,
        lookahead: int | None = 32,
        plans: list[UnsymSupernodePlan] | None = None,
    ) -> None:
        self.struct = struct
        self.grid = grid
        self.scheme = scheme
        self.factor = factor
        self.numeric = factor is not None
        self.seed = seed
        self.hybrid_threshold = hybrid_threshold
        self.lookahead = lookahead
        net = Network(
            grid.size, network,
            placement_seed=placement_seed, jitter_seed=jitter_seed,
        )
        self.machine = Machine(grid.size, net)
        if plans is not None:
            self.plans = plans
        else:
            bpe = BYTES_PER_ENTRY
            if factor is not None and factor.LX and np.iscomplexobj(factor.LX[0]):
                bpe = 2 * BYTES_PER_ENTRY
            self.plans = list(
                iter_unsym_plans(struct, grid, bytes_per_entry=bpe)
            )
        self.states = [_UnsymState(p) for p in self.plans]
        self.collectives: dict[tuple, Any] = {}
        self.ainv_ready: set[tuple[int, int]] = set()
        self.ainv_data: dict[tuple[int, int], Any] = {}
        self.waiters: dict[tuple[int, int], list] = {}
        self.done_diag = 0
        self._ran = False
        for r in range(grid.size):
            self.machine.set_handler(r, self._make_handler(r))

    # -- wiring -------------------------------------------------------------

    def _tree(self, spec):
        return build_tree(
            self.scheme, spec.root, spec.participants,
            collective_seed(self.seed, spec.key),
            hybrid_threshold=self.hybrid_threshold,
        )

    def _make_handler(self, rank: int):
        def handler(msg: Message) -> None:
            key = msg.tag
            kind = key[0]
            if kind in ("db", "dr", "cb", "rb", "rr", "cu2", "dq"):
                self.collectives[key].on_message(msg)
            elif kind == "cl":
                self._on_cross_l2u(key[1], key[2], msg.payload)
            elif kind == "cu":
                self._on_cross_u2l(key[1], key[2], msg.payload)
            else:  # pragma: no cover - protocol safety net
                raise RuntimeError(f"unknown message tag {key!r}")

        return handler

    def _build_collectives(self, plan: UnsymSupernodePlan) -> None:
        m = self.machine
        k = plan.k
        pr, pc = self.grid.pr, self.grid.pc
        c_rows = sorted({b.snode % pr for b in plan.blocks})
        c_cols = sorted({b.snode % pc for b in plan.blocks})
        kr, kc = k % pr, k % pc

        spec = plan.diag_bcast
        self.collectives[spec.key] = TreeBroadcast(
            m, self._tree(spec), spec.key, spec.nbytes, spec.kind,
            lambda rank, payload, k=k: self._on_diag_col(k, rank, payload),
        )
        spec = plan.diag_rbcast
        self.collectives[spec.key] = TreeBroadcast(
            m, self._tree(spec), spec.key, spec.nbytes, spec.kind,
            lambda rank, payload, k=k: self._on_diag_row(k, rank, payload),
        )
        for spec in plan.col_bcasts:
            i = spec.key[2]
            self.collectives[spec.key] = TreeBroadcast(
                m, self._tree(spec), spec.key, spec.nbytes, spec.kind,
                lambda rank, payload, k=k, i=i: self._on_col_delivery(
                    k, i, rank, payload
                ),
            )
        for spec in plan.row_bcasts:
            i = spec.key[2]
            self.collectives[spec.key] = TreeBroadcast(
                m, self._tree(spec), spec.key, spec.nbytes, spec.kind,
                lambda rank, payload, k=k, i=i: self._on_row_delivery(
                    k, i, rank, payload
                ),
            )
        for spec in plan.row_reduces:
            j = spec.key[2]
            contributors = {self.grid.rank(j % pr, c) for c in c_cols}
            self.collectives[spec.key] = TreeReduce(
                m, self._tree(spec), spec.key, spec.nbytes, spec.kind,
                contributors,
                lambda value, k=k, j=j: self._on_rowreduce(k, j, value),
            )
        for spec in plan.col_ureduces:
            j = spec.key[2]
            contributors = {self.grid.rank(r, j % pc) for r in c_rows}
            self.collectives[spec.key] = TreeReduce(
                m, self._tree(spec), spec.key, spec.nbytes, spec.kind,
                contributors,
                lambda value, k=k, j=j: self._on_col_ureduce(k, j, value),
            )
        spec = plan.diag_rreduce
        contributors = {self.grid.rank(kr, c) for c in c_cols}
        self.collectives[spec.key] = TreeReduce(
            m, self._tree(spec), spec.key, spec.nbytes, spec.kind,
            contributors,
            lambda value, k=k: self._on_diag_rreduce(k, value),
        )

    def _dispatch_tables(self, plan: UnsymSupernodePlan) -> None:
        st = self.states[plan.k]
        pr, pc = self.grid.pr, self.grid.pc
        kr, kc = plan.k % pr, plan.k % pc
        for bj in plan.blocks:
            j = bj.snode
            for bi in plan.blocks:
                i = bi.snode
                rl = self.grid.rank(j % pr, i % pc)  # GEMM-L site
                st.gl_left[(j, rl)] = st.gl_left.get((j, rl), 0) + 1
                st.gemms_l.setdefault((i, rl), []).append(j)
                ru = self.grid.rank(i % pr, j % pc)  # GEMM-U site
                st.gu_left[(j, ru)] = st.gu_left.get((j, ru), 0) + 1
                st.gemms_u.setdefault((i, ru), []).append(j)
            udest = self.grid.rank(kr, j % pc)
            st.diag_left[udest] = st.diag_left.get(udest, 0) + 1
            st.norm_l.setdefault(self.grid.rank(j % pr, kc), []).append(bj)
            st.norm_u.setdefault(udest, []).append(bj)

    # -- kickoff / windowing -----------------------------------------------

    def _kickoff(self) -> None:
        self._release_order = list(range(self.struct.nsup - 1, -1, -1))
        self._release_ptr = 0
        window = self.lookahead if self.lookahead is not None else self.struct.nsup
        self._outstanding = 0
        self._window = max(1, int(window))
        self._release_more()

    def _release_more(self) -> None:
        while (
            self._release_ptr < len(self._release_order)
            and self._outstanding < self._window
        ):
            k = self._release_order[self._release_ptr]
            self._release_ptr += 1
            self._outstanding += 1
            self._start_supernode(k)

    def _supernode_finished(self) -> None:
        self.done_diag += 1
        self._outstanding -= 1
        self._release_more()

    def _start_supernode(self, k: int) -> None:
        st = self.states[k]
        plan = st.plan
        payload = self.factor.diag_block(k) if self.numeric else None
        if not plan.blocks:
            s = plan.width
            self.machine.post_compute(
                plan.diag_owner, 0.0,
                lambda k=k, payload=payload: self._finish_lonely(k, payload),
                flops=s**3,
            )
            return
        self._dispatch_tables(plan)
        self._build_collectives(plan)
        dbc = self.collectives[plan.diag_bcast.key]
        drb = self.collectives[plan.diag_rbcast.key]
        self.machine.sim.schedule(0.0, lambda: dbc.start(payload))
        self.machine.sim.schedule(0.0, lambda: drb.start(payload))

    def _finish_lonely(self, k: int, payload: Any) -> None:
        st = self.states[k]
        if self.numeric:
            s = self.struct.width(k)
            linv = solve_triangular(
                payload, np.eye(s), lower=True, unit_diagonal=True
            )
            st.diag_value = solve_triangular(payload, linv, lower=False)
        self._mark_ready((k, k), st.diag_value)
        self._supernode_finished()

    # -- normalization ------------------------------------------------------

    def _raw_l_block(self, k: int, i: int) -> np.ndarray:
        rows = self.struct.rows_below[k]
        lo = int(np.searchsorted(rows, self.struct.sn_ptr[i]))
        hi = int(np.searchsorted(rows, self.struct.sn_ptr[i + 1]))
        return self.factor.l_panel(k)[lo:hi, :]

    def _raw_u_block(self, k: int, i: int) -> np.ndarray:
        rows = self.struct.rows_below[k]
        lo = int(np.searchsorted(rows, self.struct.sn_ptr[i]))
        hi = int(np.searchsorted(rows, self.struct.sn_ptr[i + 1]))
        return self.factor.u_panel(k)[:, lo:hi]

    def _on_diag_col(self, k: int, rank: int, payload: Any) -> None:
        st = self.states[k]
        plan = st.plan
        s = plan.width
        if rank == plan.diag_owner:
            def fin_base(payload=payload):
                if self.numeric:
                    linv = solve_triangular(
                        payload, np.eye(s), lower=True, unit_diagonal=True
                    )
                    st.base = solve_triangular(payload, linv, lower=False)

            self.machine.post_compute(rank, 0.0, fin_base, flops=s**3)
        pr, pc = self.grid.pr, self.grid.pc
        for b in st.norm_l.get(rank, ()):
            i = b.snode

            def fin(i=i, b=b, payload=payload, rank=rank):
                if self.numeric:
                    raw = self._raw_l_block(k, i)
                    lhat = solve_triangular(
                        payload, raw.T, lower=True, unit_diagonal=True,
                        trans="T",
                    ).T
                else:
                    lhat = None
                st.lhat[i] = lhat
                u_owner = self.grid.rank(k % pr, i % pc)
                self.machine.post_send(
                    rank, u_owner, ("cl", k, i), st.l2u_nbytes[i],
                    "cross-l2u", lhat,
                )

            self.machine.post_compute(rank, 0.0, fin, flops=s * s * b.nrows)

    def _on_diag_row(self, k: int, rank: int, payload: Any) -> None:
        st = self.states[k]
        s = st.plan.width
        pr, pc = self.grid.pr, self.grid.pc
        for b in st.norm_u.get(rank, ()):
            i = b.snode

            def fin(i=i, b=b, payload=payload, rank=rank):
                if self.numeric:
                    raw = self._raw_u_block(k, i)
                    uhat = solve_triangular(payload, raw, lower=False)
                else:
                    uhat = None
                st.uhat[i] = uhat
                l_owner = self.grid.rank(i % pr, k % pc)
                self.machine.post_send(
                    rank, l_owner, ("cu", k, i), st.u2l_nbytes[i],
                    "cross-u2l", uhat,
                )

            self.machine.post_compute(rank, 0.0, fin, flops=s * s * b.nrows)

    # -- cross sends start the panel broadcasts -------------------------------

    def _on_cross_l2u(self, k: int, i: int, payload: Any) -> None:
        st = self.states[k]
        st.lhat_at_u[i] = payload  # kept for the diagonal update
        self.collectives[("cb", k, i)].start(payload)
        # The diagonal contribution joins on {Ainv(K,i) reduced} AND
        # {Lhat(i,K) cross-shipped}; fire if the reduce finished first.
        if i in st.ainv_up:
            self._try_diag_contrib(k, i)

    def _on_cross_u2l(self, k: int, i: int, payload: Any) -> None:
        self.collectives[("rb", k, i)].start(payload)

    # -- GEMM pipelines -------------------------------------------------------

    def _mark_ready(self, key: tuple[int, int], data: Any) -> None:
        self.ainv_ready.add(key)
        self.ainv_data[key] = data
        for item in self.waiters.pop(key, []):
            self._schedule_gemm(*item)

    def _on_col_delivery(self, k: int, i: int, rank: int, payload: Any) -> None:
        st = self.states[k]
        st.bcast_l[(i, rank)] = payload
        for j in st.gemms_l.get((i, rank), ()):
            if (j, i) in self.ainv_ready:
                self._schedule_gemm("L", k, i, j, rank)
            else:
                self.waiters.setdefault((j, i), []).append(("L", k, i, j, rank))

    def _on_row_delivery(self, k: int, i: int, rank: int, payload: Any) -> None:
        st = self.states[k]
        st.bcast_u[(i, rank)] = payload
        for j in st.gemms_u.get((i, rank), ()):
            if (i, j) in self.ainv_ready:
                self._schedule_gemm("U", k, i, j, rank)
            else:
                self.waiters.setdefault((i, j), []).append(("U", k, i, j, rank))

    def _schedule_gemm(self, side: str, k: int, i: int, j: int, rank: int) -> None:
        st = self.states[k]
        s = st.plan.width
        flops = 2.0 * st.nrows[i] * st.nrows[j] * s

        def fin():
            if side == "L":
                if self.numeric:
                    contrib = self._gemm_l(k, i, j, rank)
                    cur = st.rowp.get((j, rank))
                    st.rowp[(j, rank)] = contrib if cur is None else cur + contrib
                st.gl_left[(j, rank)] -= 1
                if st.gl_left[(j, rank)] == 0:
                    self.collectives[("rr", k, j)].contribute(
                        rank, st.rowp.pop((j, rank), None)
                    )
            else:
                if self.numeric:
                    contrib = self._gemm_u(k, i, j, rank)
                    cur = st.colp.get((j, rank))
                    st.colp[(j, rank)] = contrib if cur is None else cur + contrib
                st.gu_left[(j, rank)] -= 1
                if st.gu_left[(j, rank)] == 0:
                    self.collectives[("cu2", k, j)].contribute(
                        rank, st.colp.pop((j, rank), None)
                    )

        self.machine.post_compute(rank, 0.0, fin, flops=flops)

    def _slice_block(self, row_sn: int, col_sn: int, rows_needed, cols_needed):
        """Extract Ainv(row_sn block, col_sn block) at the needed rows/cols."""
        struct = self.struct
        if row_sn > col_sn:
            block = self.ainv_data[(row_sn, col_sn)]
            host_rows = struct.block_row_indices(col_sn, row_sn)
            posr = np.searchsorted(host_rows, rows_needed)
            posc = cols_needed - struct.first_col(col_sn)
        elif row_sn == col_sn:
            block = self.ainv_data[(row_sn, row_sn)]
            posr = rows_needed - struct.first_col(row_sn)
            posc = cols_needed - struct.first_col(row_sn)
        else:
            block = self.ainv_data[(row_sn, col_sn)]
            host_cols = struct.block_row_indices(row_sn, col_sn)
            posr = rows_needed - struct.first_col(row_sn)
            posc = np.searchsorted(host_cols, cols_needed)
        return block[np.ix_(posr, posc)]

    def _gemm_l(self, k: int, i: int, j: int, rank: int) -> np.ndarray:
        rows_j = self.struct.block_row_indices(k, j)
        rows_i = self.struct.block_row_indices(k, i)
        sub = self._slice_block(j, i, rows_j, rows_i)
        lhat = self.states[k].bcast_l[(i, rank)]  # (r_i, s)
        return sub @ lhat

    def _gemm_u(self, k: int, i: int, j: int, rank: int) -> np.ndarray:
        rows_i = self.struct.block_row_indices(k, i)
        rows_j = self.struct.block_row_indices(k, j)
        sub = self._slice_block(i, j, rows_i, rows_j)
        uhat = self.states[k].bcast_u[(i, rank)]  # (s, r_i)
        return uhat @ sub

    # -- reductions -------------------------------------------------------------

    def _on_rowreduce(self, k: int, j: int, value: Any) -> None:
        st = self.states[k]
        ainv_jk = -value if self.numeric else None
        st.ainv_low[j] = ainv_jk
        self._mark_ready((j, k), ainv_jk)

    def _on_col_ureduce(self, k: int, j: int, value: Any) -> None:
        st = self.states[k]
        ainv_kj = -value if self.numeric else None
        st.ainv_up[j] = ainv_kj
        self._mark_ready((k, j), ainv_kj)
        if j in st.lhat_at_u:
            self._try_diag_contrib(k, j)

    def _try_diag_contrib(self, k: int, j: int) -> None:
        """Both inputs of the diagonal contribution for row-block ``j``
        are at the owner of U(K,J); schedule the GEMM once, exactly."""
        st = self.states[k]
        if j in st.diag_fired:
            return
        st.diag_fired.add(j)
        s = st.plan.width
        pr, pc = self.grid.pr, self.grid.pc
        dest = self.grid.rank(k % pr, j % pc)
        rj = st.nrows[j]
        ainv_kj = st.ainv_up[j]

        def fin():
            if self.numeric:
                contrib = ainv_kj @ st.lhat_at_u[j]  # (s, rj) @ (rj, s)
                cur = st.diag_partial.get(dest)
                st.diag_partial[dest] = contrib if cur is None else cur + contrib
            st.diag_left[dest] -= 1
            if st.diag_left[dest] == 0:
                self.collectives[("dq", k)].contribute(
                    dest, st.diag_partial.pop(dest, None)
                )

        self.machine.post_compute(dest, 0.0, fin, flops=2.0 * s * rj * s)

    def _on_diag_rreduce(self, k: int, value: Any) -> None:
        st = self.states[k]
        s = st.plan.width

        def fin():
            if self.numeric:
                st.diag_value = st.base - value
            self._mark_ready((k, k), st.diag_value)
            self._supernode_finished()

        self.machine.post_compute(
            st.plan.diag_owner, 0.0, fin, flops=float(s * s)
        )

    # -- driver -----------------------------------------------------------------

    def run(self, max_events: int | None = None) -> PSelInvResult:
        if self._ran:
            raise RuntimeError("a SimulatedPSelInvUnsym instance runs only once")
        self._ran = True
        self._kickoff()
        makespan = self.machine.run(max_events=max_events)
        nsup = self.struct.nsup
        if self.done_diag != nsup:
            raise RuntimeError(
                f"protocol stalled: {self.done_diag}/{nsup} supernodes finished"
            )
        stats = self.machine.stats
        compute = float(stats.compute_busy.mean())
        inverse = self._gather() if self.numeric else None
        self.machine.close()
        return PSelInvResult(
            scheme=self.scheme,
            grid=self.grid,
            makespan=makespan,
            stats=stats,
            events=self.machine.sim.events_processed,
            numeric=self.numeric,
            compute_time=compute,
            communication_time=float(makespan - compute),
            inverse=inverse,
        )

    def _gather(self) -> SelectedInverse:
        struct = self.struct
        nsup = struct.nsup
        diag: list[np.ndarray] = [None] * nsup  # type: ignore[list-item]
        lpanel: list[np.ndarray] = [None] * nsup  # type: ignore[list-item]
        upanel: list[np.ndarray] = [None] * nsup  # type: ignore[list-item]
        for k in range(nsup):
            st = self.states[k]
            s = struct.width(k)
            diag[k] = np.asarray(st.diag_value)
            if st.plan.blocks:
                lpanel[k] = np.concatenate(
                    [st.ainv_low[b.snode] for b in st.plan.blocks], axis=0
                )
                upanel[k] = np.concatenate(
                    [st.ainv_up[b.snode] for b in st.plan.blocks], axis=1
                )
            else:
                lpanel[k] = np.zeros((0, s))
                upanel[k] = np.zeros((s, 0))
        return SelectedInverse(
            struct=struct, diag=diag, lpanel=lpanel, upanel=upanel
        )


def run_pselinv_unsym(
    struct: SupernodalStructure,
    grid: ProcessorGrid,
    scheme: str = "shifted",
    **kwargs: Any,
) -> PSelInvResult:
    """Convenience wrapper for the unsymmetric simulated PSelInv."""
    return SimulatedPSelInvUnsym(struct, grid, scheme, **kwargs).run()
