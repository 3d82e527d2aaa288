"""Rank-level fault tolerance: buddy checkpoints and ULFM-style recovery.

PR 1's resilience layer assumed every rank of a decomposed
(:class:`~repro.comm.multichunk.MultiChunkPort`) ensemble survives the
solve — it recovered *soft* faults (corrupted data inside a surviving
rank) from globally captured checkpoints.  This module handles *hard*
faults: a rank that fail-stops mid-solve and takes its chunk state with
it, and stragglers whose messages miss the receive deadline.

Buddy checkpointing
-------------------
At checkpoint cadence every rank snapshots its chunk's recovery fields
(:data:`SNAPSHOT_FIELDS`) and mirrors the copy to its **buddy** — the
next chunk in the ring.  When rank *r* dies, its state survives on
``buddy(r)``; no global anchor is needed, which is what makes the scheme
viable on a real distributed machine where "global" state does not exist.
The snapshot set is deliberately minimal: ``density`` and ``energy1``
rebuild ``u0``, ``kx``, ``ky`` exactly through ``tea_leaf_init`` (the
operator is a pure function of density), and CG rebuilds its ``r``/``p``
work vectors from the restored ``u`` in ``cg_init``.

Recovery policies (selected by ``tl_rank_policy``)
--------------------------------------------------
``spare``
    A reserve rank (``tl_spare_ranks`` are held out of the initial
    decomposition) adopts the dead rank's chunk from the buddy copy; the
    chunk→rank mapping is updated and the decomposition is unchanged.
    This mirrors ULFM's "substitute" recovery: fast, but the pool of
    spares is finite.
``shrink``
    The global mesh is re-decomposed over the survivors via
    :func:`~repro.comm.decomposition.decompose`, chunk state is
    redistributed from the buddy snapshots, and the solve resumes from
    the last consistent snapshot iteration.  Slower (full redistribution)
    but never runs out of ranks.

Both policies roll *every* chunk back to the buddy-snapshot iteration so
the ensemble resumes from one consistent cut; survivors lose at most one
checkpoint interval of progress, exactly like PR 1's soft-fault rollback.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.core import fields as F
from repro.models.plan import BarrierStep, Bind, KernelCall, Plan, PlanExecutor
from repro.util.errors import RankFailureError

#: Fields snapshotted per chunk — the minimal set from which
#: ``tea_leaf_init`` + ``cg_init`` rebuild everything else.
SNAPSHOT_FIELDS: tuple[str, ...] = (F.DENSITY, F.ENERGY0, F.ENERGY1, F.U)

#: Recognised values of ``tl_rank_policy``.
RANK_POLICIES = ("none", "spare", "shrink")

#: The bootstrap fragment replayed on a repaired port: enter the solve
#: data region and rebuild u0/kx/ky from the restored density/energy.
#: Recovery re-executes the same compiled :class:`Plan` the driver's
#: prologue uses rather than dispatching calls by hand: through the run's
#: executor after a shrink (so fusion and resilience instrumentation
#: apply), through a fresh one on an adopted spare chunk.
RECOVERY_PLAN = Plan(
    "rank_recovery",
    (
        BarrierStep("begin_solve"),
        KernelCall("tea_leaf_init", (Bind("dt"), Bind("coefficient"))),
    ),
)


@dataclass
class ChunkSnapshot:
    """One chunk's recovery state at one consistent iteration."""

    chunk: int
    iteration: int
    step: int
    fields: dict[str, np.ndarray]


class BuddyStore:
    """Per-chunk snapshots with a mirror on the ring-neighbour chunk.

    The store models where copies physically live: the primary on the
    owning rank, the mirror on the buddy.  :meth:`recall` only returns a
    snapshot that an *alive* rank could actually serve — if both the
    owner and the buddy are dead, the state is genuinely lost.
    """

    def __init__(self, nchunks: int) -> None:
        self.nchunks = nchunks
        self._primary: dict[int, ChunkSnapshot] = {}
        self._mirror: dict[int, ChunkSnapshot] = {}

    def buddy_of(self, chunk: int) -> int:
        return (chunk + 1) % self.nchunks

    def store(self, snapshot: ChunkSnapshot) -> None:
        self._primary[snapshot.chunk] = snapshot
        self._mirror[snapshot.chunk] = snapshot

    def recall(
        self, chunk: int, chunk_alive: Callable[[int], bool]
    ) -> ChunkSnapshot | None:
        """The snapshot of ``chunk`` that a surviving rank can serve."""
        if chunk_alive(chunk):
            return self._primary.get(chunk)
        if chunk_alive(self.buddy_of(chunk)):
            return self._mirror.get(chunk)
        return None


def reflect_ghosts(arr: np.ndarray, h: int) -> None:
    """Fill physical ghost layers of a global array by reflection.

    An assembled global array only has interior data; the scatter in
    ``set_state`` slices halo-inclusive windows out of it, so the ghosts
    must hold the reflective boundary values (zero ghost density would
    divide by zero in the recip-conductivity coefficients).
    """
    height, width = arr.shape
    for d in range(1, h + 1):
        arr[:, h - d] = arr[:, h + d - 1]
        arr[:, width - h + d - 1] = arr[:, width - h - d]
    for d in range(1, h + 1):
        arr[h - d, :] = arr[h + d - 1, :]
        arr[height - h + d - 1, :] = arr[height - h - d, :]


def assemble_global(grid, windows, snapshots) -> dict[str, np.ndarray]:
    """Rebuild global field arrays from one snapshot per chunk window."""
    h = grid.halo
    out = {name: grid.allocate() for name in SNAPSHOT_FIELDS}
    for window in windows:
        snap = snapshots[window.rank]
        for name in SNAPSHOT_FIELDS:
            local = snap.fields[name]
            out[name][
                h + window.y0 : h + window.y1, h + window.x0 : h + window.x1
            ] = local[h:-h, h:-h]
    for arr in out.values():
        reflect_ghosts(arr, h)
    return out


class RankRecovery:
    """Buddy checkpointing + spare/shrink recovery over a MultiChunkPort.

    The port owns this object and passes itself to :meth:`capture` and
    :meth:`recover`; holding no reference back keeps the pair acyclic.
    """

    def __init__(self, nchunks: int, policy: str, spare_pool) -> None:
        if policy not in RANK_POLICIES:
            raise ValueError(
                f"unknown rank policy '{policy}' "
                f"(expected one of {', '.join(RANK_POLICIES)})"
            )
        self.policy = policy
        self.spare_pool = list(spare_pool)
        self.store = BuddyStore(nchunks)

    # ------------------------------------------------------------------ #
    # capture
    # ------------------------------------------------------------------ #
    def capture(self, port, iteration: int, step: int) -> int:
        """Snapshot every chunk of ``port`` to its buddy; returns
        snapshots taken.

        Skipped entirely while a chunk is dead: mixing snapshot
        iterations would make the recovery cut inconsistent, so the last
        complete set is kept until the ensemble is whole again.
        """
        if self.policy == "none" or port.dead_chunks():
            return 0
        for chunk, chunk_port in enumerate(port.ports):
            self.store.store(
                ChunkSnapshot(
                    chunk=chunk,
                    iteration=iteration,
                    step=step,
                    fields={
                        name: chunk_port.read_field(name).copy()
                        for name in SNAPSHOT_FIELDS
                    },
                )
            )
        return port.nchunks

    # ------------------------------------------------------------------ #
    # recovery
    # ------------------------------------------------------------------ #
    def recover(self, ex: PlanExecutor) -> list[str]:
        """Repair the ensemble ``ex.port`` after fail-stop deaths; returns
        details.  ``ex`` is the run's executor.

        Raises :class:`RankFailureError` when repair is impossible: no
        policy configured, a chunk whose owner *and* buddy are both dead,
        no snapshot captured yet, or (spare policy) an empty spare pool.
        """
        port = ex.port
        dead = port.dead_chunks()
        if not dead:
            return []
        dead_ranks = tuple(port.rank_of_chunk[c] for c in dead)
        if self.policy == "none":
            raise RankFailureError(
                f"rank(s) {', '.join(map(str, dead_ranks))} are dead and "
                "tl_rank_policy=none: the ensemble cannot continue",
                dead_ranks=dead_ranks,
            )
        snapshots: dict[int, ChunkSnapshot] = {}
        for chunk in range(port.nchunks):
            snap = self.store.recall(chunk, port.chunk_alive)
            if snap is None:
                why = (
                    "no buddy checkpoint was captured"
                    if port.chunk_alive(chunk)
                    or port.chunk_alive(self.store.buddy_of(chunk))
                    else f"both it and its buddy "
                    f"(chunk {self.store.buddy_of(chunk)}) are dead"
                )
                raise RankFailureError(
                    f"chunk {chunk} is unrecoverable: {why}",
                    dead_ranks=dead_ranks,
                )
            snapshots[chunk] = snap
        if self.policy == "spare":
            return self._recover_spare(port, dead, snapshots)
        return self._recover_shrink(ex, dead, snapshots)

    def _recover_spare(self, port, dead, snapshots) -> list[str]:
        """Reserve ranks adopt the dead chunks from their buddy copies."""
        from repro.models.base import make_port

        details = []
        for chunk in dead:
            if not self.spare_pool:
                raise RankFailureError(
                    f"no spare rank left to adopt chunk {chunk} "
                    f"(tl_spare_ranks exhausted)",
                    dead_ranks=tuple(port.rank_of_chunk[c] for c in dead),
                )
            spare = self.spare_pool.pop(0)
            snap = snapshots[chunk]
            adopted = make_port(
                port.models[chunk], port.subgrids[chunk], port.trace
            )
            adopted.set_state(snap.fields[F.DENSITY], snap.fields[F.ENERGY0])
            adopted.write_field(F.ENERGY1, snap.fields[F.ENERGY1])
            # Rebuilds u0/kx/ky from the snapshot density; the snapshot's
            # halo-inclusive arrays carry the neighbour ghosts, so the
            # coefficients come out bit-identical to the originals.
            PlanExecutor(adopted).run(
                RECOVERY_PLAN,
                {"dt": port._dt, "coefficient": port._coefficient},
            )
            adopted.write_field(F.U, snap.fields[F.U])
            port.ports[chunk] = adopted
            port.rank_of_chunk[chunk] = spare
            details.append(
                f"spare rank {spare} adopted chunk {chunk} from the buddy "
                f"copy on chunk {self.store.buddy_of(chunk)} "
                f"(buddy restore to iteration {snap.iteration})"
            )
        # Survivors roll back to the same snapshot iteration so the
        # ensemble resumes from one consistent cut.
        for chunk, chunk_port in enumerate(port.ports):
            if chunk not in dead:
                chunk_port.write_field(F.U, snapshots[chunk].fields[F.U])
                chunk_port.write_field(
                    F.ENERGY1, snapshots[chunk].fields[F.ENERGY1]
                )
        port._fixup_internal_edges()
        port.update_halo((F.U,), depth=1)
        snap0 = snapshots[dead[0]]
        self.capture(port, snap0.iteration, snap0.step)
        return details

    def _recover_shrink(self, ex, dead, snapshots) -> list[str]:
        """Re-decompose the global mesh over the survivors."""
        port = ex.port
        survivors = [c for c in range(port.nchunks) if c not in dead]
        models = [port.models[c] for c in survivors]
        globals_ = assemble_global(port.grid, port.windows, snapshots)
        snap0 = snapshots[dead[0]]
        old_n = port.nchunks
        port._rebuild(len(survivors), models)
        port.set_state(globals_[F.DENSITY], globals_[F.ENERGY0])
        port.write_field(F.ENERGY1, globals_[F.ENERGY1])
        # _rebuild mutates the ensemble in place, so the run's executor
        # (fusion + resilience instrumentation included) replays the same
        # compiled bootstrap plan over the new layout.
        ex.run(
            RECOVERY_PLAN,
            {"dt": port._dt, "coefficient": port._coefficient},
        )
        port.write_field(F.U, globals_[F.U])
        port.update_halo((F.U,), depth=1)
        self.spare_pool = []
        self.store = BuddyStore(port.nchunks)
        self.capture(port, snap0.iteration, snap0.step)
        return [
            f"shrunk ensemble {old_n}->{port.nchunks} ranks: "
            f"re-decomposed {port.grid.nx}x{port.grid.ny} mesh over the "
            f"survivors and redistributed buddy-restored state "
            f"(buddy restore to iteration {snap0.iteration})"
        ]
