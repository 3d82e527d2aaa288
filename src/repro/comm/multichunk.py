"""MultiChunkPort: a decomposed ensemble of ports behind the Port interface.

This is the simulated MPI+X layer: the global mesh is block-decomposed,
each rank owns an ordinary programming-model port on its chunk, halos move
through the :class:`~repro.comm.communicator.Communicator`, and global
reductions are completed with allreduce.  The TeaLeaf solvers drive a
MultiChunkPort exactly as they drive a single-chunk port — inter-node
communication is invisible to the node-level programming model, which is
precisely the division of labour the paper describes (§3).

Coefficient fix-up: single-chunk ports realise the zero-flux wall by
zeroing boundary-face coefficients, but a chunk edge with a neighbour is
*not* a wall — after each ``tea_leaf_init`` the port recomputes the face
coefficients on internal edges from the exchanged density halos, restoring
the exact global operator (conservation tests verify this to the last
bit of the solver tolerance).

Rank-level fault tolerance: chunks are *logical* — ``rank_of_chunk`` maps
each chunk to the physical communicator rank currently computing it, so a
spare rank can adopt a dead rank's chunk without renumbering neighbours.
Every exchange starts with a liveness check (``RankFailureError`` instead
of a deadlock when a peer is dead), a straggler timeout drains and retries
the exchange once, and buddy checkpointing / spare-or-shrink recovery is
delegated to :class:`~repro.resilience.ranks.RankRecovery`.
"""

from __future__ import annotations

import numpy as np

from repro.comm.communicator import Communicator
from repro.comm.decomposition import ChunkWindow, decompose
from repro.comm.halo import Side, pack_edge, reflect_side, unpack_edge
from repro.core import fields as F
from repro.core.chunk import Chunk
from repro.core.grid import Grid2D
from repro.models.base import Port, make_port
from repro.models.plan import KernelCall
from repro.models.tracing import Trace
from repro.util.errors import CommTimeoutError, ModelError, RankFailureError
from repro.util.retry import RetryPolicy, call_with_retries

#: Message tags: (axis, direction) -> tag base; field index is added.
_TAGS = {
    (Side.LEFT): 100,
    (Side.RIGHT): 200,
    (Side.DOWN): 300,
    (Side.UP): 400,
}

_FIELD_TAG = {name: i for i, name in enumerate(F.FIELD_ORDER)}


class MultiChunkPort(Port):
    """A rank-per-chunk ensemble presenting the single-port interface."""

    #: Fields live per-chunk behind the rank boundary; there is no single
    #: device array for a generated body to write, so codegen is refused
    #: (the executor silently falls back to interpreted dispatch).
    supports_codegen = False

    def __init__(
        self,
        grid: Grid2D,
        nranks: int,
        model: str | list[str] = "openmp-f90",
        trace: Trace | None = None,
        rank_policy: str = "none",
        spare_ranks: int = 0,
    ) -> None:
        super().__init__(grid, trace)
        if spare_ranks < 0:
            raise ModelError(f"spare rank count must be >= 0, got {spare_ranks}")
        self.windows: list[ChunkWindow] = decompose(grid.nx, grid.ny, nranks)
        #: Logical chunk count; physical world is nranks + spares.
        self.nchunks = nranks
        self.world = Communicator(nranks + spare_ranks)
        #: chunk id -> physical communicator rank (identity until a spare
        #: adopts a dead rank's chunk).
        self.rank_of_chunk = list(range(nranks))
        self.spare_pool = list(range(nranks, nranks + spare_ranks))
        self.subgrids = [
            grid.subgrid(w.x0, w.x1, w.y0, w.y1) for w in self.windows
        ]
        # Heterogeneous compute (the paper's §8 future-work item): each
        # rank may run a different programming-model port — e.g. CUDA
        # chunks next to OpenMP chunks — because the exchange and reduction
        # protocol only touches the Port interface.
        if isinstance(model, str):
            models = [model] * nranks
        else:
            models = list(model)
            if len(models) != nranks:
                raise ModelError(
                    f"{len(models)} models given for {nranks} ranks"
                )
        self.models = models
        self.model_name = (
            f"{models[0]}+mpi({nranks})"
            if len(set(models)) == 1
            else f"heterogeneous({','.join(models)})"
        )
        self.ports: list[Port] = [
            make_port(m, sg, self.trace) for m, sg in zip(models, self.subgrids)
        ]
        self._dt = 0.0
        self._coefficient = "conductivity"
        #: Optional resilience FaultPlan; when set, outgoing halo messages
        #: may be dropped, delayed or corrupted (see :meth:`attach_resilience`).
        self.fault_plan = None
        #: Optional ResilienceManager (for event records on retried
        #: exchanges); set by :meth:`attach_resilience`.
        self._manager = None
        #: Straggler-timeout retry schedule for halo exchanges (shared
        #: :mod:`repro.util.retry` implementation).  One immediate retry
        #: by default — the historical semantics: a straggler's message
        #: is already late, so the drained re-exchange needs no delay.
        self.halo_retry_policy = RetryPolicy(
            base_seconds=0.0, factor=2.0, jitter=0.0, max_retries=1
        )
        #: Injectable sleep for the (normally zero) halo backoff.
        self._sleep = None
        # Imported lazily: repro.resilience pulls in the solver stack,
        # which the comm layer must not depend on at import time.
        from repro.resilience.ranks import RankRecovery

        self.rank_policy = rank_policy
        self.recovery = RankRecovery(nranks, rank_policy, self.spare_pool)

    def attach_resilience(self, manager) -> None:
        """Wire a ResilienceManager in: fault plan + exchange event log."""
        self._manager = manager
        self.fault_plan = manager.plan

    # ------------------------------------------------------------------ #
    # residency (forwarded: the chunk ports own the device state)
    # ------------------------------------------------------------------ #
    def enable_residency_tracking(self, enabled: bool = True) -> None:
        super().enable_residency_tracking(enabled)
        for chunk_port in self.ports:
            chunk_port.enable_residency_tracking(enabled)

    def invalidate_residency(self, names) -> None:
        names = tuple(names)
        super().invalidate_residency(names)
        for chunk_port in self.ports:
            chunk_port.invalidate_residency(names)

    # ------------------------------------------------------------------ #
    # rank liveness and recovery
    # ------------------------------------------------------------------ #
    def chunk_alive(self, chunk: int) -> bool:
        return self.world.is_alive(self.rank_of_chunk[chunk])

    def dead_chunks(self) -> tuple[int, ...]:
        """Chunks whose current physical rank is fail-stop dead."""
        return tuple(
            c for c in range(self.nchunks) if not self.chunk_alive(c)
        )

    def _check_ranks(self) -> None:
        """Liveness probe before an exchange: fail fast, not deadlock."""
        dead = tuple(
            c
            for c in range(self.nchunks)
            if not self.world.ping(self.rank_of_chunk[c])
        )
        if dead:
            dead_ranks = tuple(self.rank_of_chunk[c] for c in dead)
            raise RankFailureError(
                f"halo exchange aborted: rank(s) "
                f"{', '.join(map(str, dead_ranks))} "
                f"(chunk(s) {', '.join(map(str, dead))}) are dead",
                dead_ranks=dead_ranks,
            )

    def kill_rank(self, chunk: int) -> int:
        """Fail-stop the physical rank computing ``chunk``; returns it."""
        rank = self.rank_of_chunk[chunk]
        self.world.kill(rank)
        return rank

    def capture_rank_checkpoints(self, iteration: int, step: int) -> int:
        """Buddy-checkpoint every chunk (no-op when rank_policy=none)."""
        return self.recovery.capture(self, iteration, step)

    def recover_ranks(self, ex) -> list[str]:
        """Repair dead chunks per the configured policy; returns details.

        ``ex`` is the run's executor over this port.
        """
        return self.recovery.recover(ex)

    def _rebuild(self, nchunks: int, models: list[str]) -> None:
        """Re-decompose over ``nchunks`` fresh ranks (shrink recovery)."""
        self.windows = decompose(self.grid.nx, self.grid.ny, nchunks)
        self.nchunks = nchunks
        self.world = Communicator(nchunks)
        self.rank_of_chunk = list(range(nchunks))
        self.spare_pool = []
        self.subgrids = [
            self.grid.subgrid(w.x0, w.x1, w.y0, w.y1) for w in self.windows
        ]
        self.models = models
        self.model_name = (
            f"{models[0]}+mpi({nchunks})"
            if len(set(models)) == 1
            else f"heterogeneous({','.join(models)})"
        )
        self.ports = [
            make_port(m, sg, self.trace)
            for m, sg in zip(models, self.subgrids)
        ]

    # ------------------------------------------------------------------ #
    # data interface
    # ------------------------------------------------------------------ #
    def _scatter(self, global_array: np.ndarray, window: ChunkWindow) -> np.ndarray:
        """Local (halo-inclusive) slice of a global array for one window."""
        h = self.h
        return global_array[
            window.y0 : window.y1 + 2 * h, window.x0 : window.x1 + 2 * h
        ].copy()

    def set_state(self, density: np.ndarray, energy0: np.ndarray) -> None:
        if density.shape != self.grid.shape:
            raise ModelError(
                f"state shape {density.shape} != grid shape {self.grid.shape}"
            )
        self.chunks: list[Chunk] = []
        for window, subgrid, port in zip(self.windows, self.subgrids, self.ports):
            chunk = Chunk(
                grid=subgrid,
                x0=window.x0,
                y0=window.y0,
                density=self._scatter(density, window),
                energy0=self._scatter(energy0, window),
            )
            self.chunks.append(chunk)
            port.set_state(chunk.density, chunk.energy0)

    def read_field(self, name: str) -> np.ndarray:
        out = self.grid.allocate()
        h = self.h
        for window, port in zip(self.windows, self.ports):
            local = port.read_field(name)
            out[h + window.y0 : h + window.y1, h + window.x0 : h + window.x1] = (
                local[h:-h, h:-h]
            )
        return out

    def write_field(self, name: str, values: np.ndarray) -> None:
        for window, port in zip(self.windows, self.ports):
            port.write_field(name, self._scatter(values, window))

    def _device_array(self, name: str) -> np.ndarray:
        raise ModelError("a decomposed port has no single device array")

    def begin_solve(self) -> None:
        for port in self.ports:
            port.begin_solve()

    def end_solve(self) -> None:
        for port in self.ports:
            port.end_solve()

    # ------------------------------------------------------------------ #
    # halo exchange
    # ------------------------------------------------------------------ #
    def update_halo(self, names, depth: int) -> None:
        self._check_ranks()
        for name in names:
            for lo, hi in ((Side.LEFT, Side.RIGHT), (Side.DOWN, Side.UP)):
                self._retry_exchange(
                    lambda name=name, lo=lo, hi=hi: self._exchange_axis(
                        name, depth, lo, hi
                    ),
                    name,
                )

    def _retry_exchange(self, fn, name: str) -> None:
        """Run one exchange leg under the straggler-timeout retry policy."""

        def repair(attempt: int, delay: float, exc: BaseException) -> None:
            # A dead peer is a rank failure (recovery needs a
            # policy); a straggler just needs the axis drained
            # and retried — re-packing is idempotent.
            self._check_ranks()
            dropped = self.world.drain()
            if self._manager is not None:
                self._manager.record(
                    "detect",
                    f"halo exchange of {name} timed out ({exc}); "
                    f"drained {int(dropped)} message(s) "
                    f"{dict(dropped.per_rank)}",
                )
                self._manager.record(
                    "retry",
                    f"halo exchange of {name} retrying after a "
                    f"straggler timeout (attempt {attempt}, "
                    f"backoff {delay:.3f}s)",
                    backoff_seconds=delay,
                )

        call_with_retries(
            fn,
            policy=self.halo_retry_policy,
            retry_on=CommTimeoutError,
            sleep=self._sleep,
            on_retry=repair,
        )

    # ------------------------------------------------------------------ #
    # async overlap: nonblocking post / wait
    # ------------------------------------------------------------------ #
    def halo_begin(self, names, depth: int):
        """Post the x-axis sends for every field; delivery waits.

        Packing happens *here*, before any interior sweep mutates the
        edge layers — the eager-pack side of the overlap WAR contract
        (the legality pass additionally refuses sweeps that write an
        exchanged field at all).  Only the x legs can be posted early:
        the y-axis pack includes the x halo corners, so the y leg must
        stay behind the x delivery in :meth:`halo_wait`.
        """
        self._check_ranks()
        names = tuple(names)
        for name in names:
            self._post_axis(name, depth, Side.LEFT, Side.RIGHT)
        return (names, depth)

    def halo_wait(self, token) -> None:
        """Deliver the posted x legs, then run the dependent y legs.

        Keeps the existing liveness/timeout semantics: a straggling or
        dropped message times the receive out, the repair hook probes
        ranks and drains the axis, and the retry re-runs the *full*
        exchange — the posted sends were consumed or drained, and
        re-packing is idempotent because no overlapped sweep may write
        an exchanged field.
        """
        names, depth = token
        for name in names:
            posted = {"pending": True}

            def x_leg(name=name, posted=posted):
                if posted["pending"]:
                    posted["pending"] = False
                    self._recv_axis(name, depth, Side.LEFT, Side.RIGHT)
                else:
                    self._exchange_axis(name, depth, Side.LEFT, Side.RIGHT)

            self._retry_exchange(x_leg, name)
            self._retry_exchange(
                lambda name=name: self._exchange_axis(
                    name, depth, Side.DOWN, Side.UP
                ),
                name,
            )

    def overlap_chunks(self):
        return tuple(self.ports)

    def overlap_reduce(self, partials) -> float:
        self._check_ranks()
        return self.world.allreduce_sum(partials, ranks=self.rank_of_chunk)

    def halo_wire_traffic(self, names, depth: int) -> tuple[int, int]:
        """Modelled (bytes, messages) for one exchange of ``names``.

        One message per internal chunk edge per field; x-side buffers
        span all rows (corner layers included) and y-side buffers all
        columns, matching :func:`repro.comm.halo.pack_edge`.
        """
        h = self.h
        nbytes = 0
        messages = 0
        for window, sg in zip(self.windows, self.subgrids):
            for side in (Side.LEFT, Side.RIGHT, Side.DOWN, Side.UP):
                if self._neighbour(window, side) is None:
                    continue
                span = (
                    sg.ny + 2 * h
                    if side in (Side.LEFT, Side.RIGHT)
                    else sg.nx + 2 * h
                )
                messages += 1
                nbytes += span * depth * 8
        n = len(tuple(names))
        return (nbytes * n, messages * n)

    def _neighbour(self, window: ChunkWindow, side: Side) -> int | None:
        return {
            Side.LEFT: window.left,
            Side.RIGHT: window.right,
            Side.DOWN: window.down,
            Side.UP: window.up,
        }[side]

    def _exchange_axis(self, name: str, depth: int, lo: Side, hi: Side) -> None:
        """One axis of exchange: post all sends, then receive/unpack."""
        self._post_axis(name, depth, lo, hi)
        self._recv_axis(name, depth, lo, hi)

    def _post_axis(self, name: str, depth: int, lo: Side, hi: Side) -> None:
        """Pack and send one axis's edge strips (the nonblocking half)."""
        h = self.h
        field_tag = _FIELD_TAG[name]
        for window, port in zip(self.windows, self.ports):
            arr = port._device_array(name)
            src = self.rank_of_chunk[window.rank]
            comm = self.world.rank(src)
            for side in (lo, hi):
                nbr = self._neighbour(window, side)
                if nbr is None:
                    continue
                dst = self.rank_of_chunk[nbr]
                tag = _TAGS[side] + field_tag
                buffer = pack_edge(arr, h, depth, side)
                port._launch("halo_pack", cells=buffer.size)
                if self.fault_plan is not None:
                    verdict = self.fault_plan.halo_verdict(name, buffer)
                    if verdict == "drop":
                        continue  # lost on the wire: receiver deadlocks
                    if verdict == "delay":
                        # Straggler: the receive will miss its deadline.
                        self.world.post_late(src, dst, tag)
                        continue
                comm.Send(buffer, dest=dst, tag=tag)

    def _recv_axis(self, name: str, depth: int, lo: Side, hi: Side) -> None:
        """Receive and unpack one axis (or reflect at a physical wall)."""
        h = self.h
        field_tag = _FIELD_TAG[name]
        for window, port in zip(self.windows, self.ports):
            arr = port._device_array(name)
            comm = self.world.rank(self.rank_of_chunk[window.rank])
            for side, opposite in ((lo, hi), (hi, lo)):
                nbr = self._neighbour(window, side)
                if nbr is None:
                    reflect_side(arr, h, depth, side)
                    port._launch("halo_update", cells=depth * max(arr.shape))
                else:
                    buffer = comm.Recv(
                        source=self.rank_of_chunk[nbr],
                        tag=_TAGS[opposite] + field_tag,
                    )
                    unpack_edge(arr, h, depth, side, buffer)
                    port._launch("halo_unpack", cells=buffer.size)
            if name in (F.KX, F.KY):
                port._invalidate_diag()

    # ------------------------------------------------------------------ #
    # kernels: delegate, allreduce the reductions
    # ------------------------------------------------------------------ #
    def dispatch(self, call: KernelCall):
        """Run ``call`` on every chunk; allreduce a reduction's partials.

        The rank liveness probe runs before any chunk kernel of a
        reduction, so a dead rank fails fast instead of leaving some
        chunks swept.  ``tea_leaf_init`` brackets the chunk kernels with
        the density/energy halo refresh and the internal-edge fix-up.
        """
        if call.op == "tea_leaf_init":
            self._dt, self._coefficient = call.args
            # Coefficients at chunk edges need neighbour densities.
            self.update_halo((F.DENSITY, F.ENERGY1), depth=1)
            for port in self.ports:
                port.dispatch(call)
            self._fixup_internal_edges()
            return None
        if not call.spec.reduction:
            for port in self.ports:
                port.dispatch(call)
            return None
        self._check_ranks()
        partials = [port.dispatch(call) for port in self.ports]
        ranks = self.rank_of_chunk
        if call.op == "field_summary":
            return tuple(
                self.world.allreduce_sum([p[c] for p in partials], ranks=ranks)
                for c in range(4)
            )
        return self.world.allreduce_sum(partials, ranks=ranks)

    def _fixup_internal_edges(self) -> None:
        """Recompute face coefficients zeroed as 'walls' on internal edges."""
        h = self.h
        recip = self._coefficient == "recip_conductivity"
        for window, port, sg in zip(self.windows, self.ports, self.subgrids):
            rx = self._dt / (sg.dx * sg.dx)
            ry = self._dt / (sg.dy * sg.dy)
            density = port._device_array(F.DENSITY)
            w = 1.0 / density if recip else density
            kx = port._device_array(F.KX)
            ky = port._device_array(F.KY)
            rows = slice(h, h + sg.ny)
            cols = slice(h, h + sg.nx)
            if window.left is not None:
                wl, wc = w[rows, h - 1], w[rows, h]
                kx[rows, h] = rx * (wl + wc) / (2.0 * wl * wc)
                port._launch("halo_update", cells=sg.ny)
            if window.right is not None:
                wl, wc = w[rows, h + sg.nx - 1], w[rows, h + sg.nx]
                kx[rows, h + sg.nx] = rx * (wl + wc) / (2.0 * wl * wc)
                port._launch("halo_update", cells=sg.ny)
            if window.down is not None:
                wl, wc = w[h - 1, cols], w[h, cols]
                ky[h, cols] = ry * (wl + wc) / (2.0 * wl * wc)
                port._launch("halo_update", cells=sg.nx)
            if window.up is not None:
                wl, wc = w[h + sg.ny - 1, cols], w[h + sg.ny, cols]
                ky[h + sg.ny, cols] = ry * (wl + wc) / (2.0 * wl * wc)
                port._launch("halo_update", cells=sg.nx)
            port._invalidate_diag()
