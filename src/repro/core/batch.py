"""Batched multi-deck execution: one arena, N lanes, shared kernel sweeps.

A :class:`BatchRunner` runs N compatible decks ("lanes") concurrently on
one programming-model port family.  All lanes' fields live in a single
:class:`repro.models.arena.FieldArena`, laid out lane-major so the copies
of one field across a contiguous lane range form a strided ``(H, W, k)``
view with the lane axis trailing.  Every lane's :class:`TeaLeaf` instance
runs its normal solve in its own thread; the only cross-lane coupling is
the :class:`BatchConductor`, where codegen-lowered kernel steps
rendezvous so that lanes which reached the *same* generated function can
be swept by one call over the batched views.

Bitwise contract: the lane axis only ever broadcasts.  Elementwise
arithmetic on an ``(H, W, k)`` view computes, per lane, exactly the
float64 operations of the sequential ``(H, W)`` run, and
:meth:`BatchContext.reduce` folds every lane's interior, in the
identical element order, through one ``deterministic_multi_sum`` call —
so every deck's results are bit-for-bit its solo run's, batched or not.

Lanes need not stay in lockstep.  A lane whose CG converges early moves
on to its epilogue (or next timestep) while the others iterate; a round
simply fires whenever *every* still-active lane is either waiting at the
conductor or finished, and groups whatever steps arrived by generated-
function identity.  Progress is structural, not timing-based: no round
composition depends on thread scheduling, so traces and results are
deterministic run to run.
"""

from __future__ import annotations

import hashlib
import threading
import time
from dataclasses import dataclass, field, replace
from typing import Any

import numpy as np

from repro.core.deck import Deck
from repro.models.arena import DIAG_BLOCK
from repro.models.reduction import deterministic_multi_sum
from repro.util.errors import DeckError, ModelError


# --------------------------------------------------------------------- #
# batched evaluation context
# --------------------------------------------------------------------- #
class BatchContext:
    """A CodegenContext look-alike whose arrays carry a trailing lane axis.

    Generated functions (:mod:`repro.models.codegen`) consume ``ctx``
    through a narrow surface — ``array``, ``diag``, the geometry scalars,
    the interior slices, and ``reduce`` — so substituting batched views
    and a per-lane reduction turns every cached single-deck function into
    an N-deck sweep with no recompilation.  ``ports`` are the lanes'
    ports, whose cached diag(A) rows the ``diag`` view spans.
    """

    __slots__ = (
        "array", "diag", "h", "nx", "ny", "dx2", "dy2",
        "I", "Ip", "Im", "J", "Jp", "Jm",
    )

    def __init__(
        self,
        arena: Any,
        lane0: int,
        count: int,
        grid: Any,
        order: str,
        ports: tuple[Any, ...] = (),
    ) -> None:
        shape = grid.shape
        self.array = lambda name: arena.batched(name, lane0, count, shape, order)

        def diag() -> np.ndarray:
            for port in ports:
                port._diag()  # refreshes a stale lane row in place
            return arena.batched(DIAG_BLOCK, lane0, count, shape, order)

        self.diag = diag
        h, nx, ny = grid.halo, grid.nx, grid.ny
        self.h, self.nx, self.ny = h, nx, ny
        self.dx2 = grid.dx * grid.dx
        self.dy2 = grid.dy * grid.dy
        self.I = slice(h, h + ny)
        self.Ip = slice(h + 1, h + ny + 1)
        self.Im = slice(h - 1, h + ny - 1)
        self.J = slice(h, h + nx)
        self.Jp = slice(h + 1, h + nx + 1)
        self.Jm = slice(h - 1, h + nx - 1)

    def reduce(self, values: np.ndarray) -> tuple[float, ...]:
        """Per-lane deterministic interior reductions, folded in one call.

        Row ``l`` of the lane-major ``(k, n)`` view is lane ``l``'s
        interior in C order — the sequence the sequential context reduces
        — so each lane's sum is bitwise its solo result.
        """
        lanes = np.moveaxis(values, -1, 0)
        return deterministic_multi_sum(lanes.reshape(len(lanes), -1))


# --------------------------------------------------------------------- #
# the rendezvous
# --------------------------------------------------------------------- #
class BatchConductor:
    """Collects per-lane compiled-step dispatches into shared sweeps.

    ``PlanExecutor`` routes every :class:`CompiledKernel` dispatch of a
    batched run here.  ``submit`` blocks the lane until a *round* fires;
    a round fires exactly when every active lane is parked (waiting or
    finished), groups the parked steps by generated-function identity,
    sweeps each maximal contiguous lane run of length >= 2 with one
    batched call, dispatches the rest solo, and releases everyone with
    their own results.  The lane that completes the rendezvous executes
    the round on behalf of all — no extra threads, no timing dependence.
    """

    def __init__(self, arena: Any, grid: Any, lanes: int) -> None:
        self._arena = arena
        self._grid = grid
        self._cond = threading.Condition()
        self._active: set[int] = set(range(lanes))
        self._waiting: dict[int, tuple[Any, Any, tuple, Any]] = {}
        self._results: dict[int, tuple] = {}
        #: Telemetry: rounds fired / kernel calls swept batched vs solo.
        self.rounds = 0
        self.batched_calls = 0
        self.solo_calls = 0

    # ------------------------------------------------------------------ #
    def submit(
        self, lane: int, port: Any, step: Any, argv: tuple, ctx: Any
    ) -> tuple:
        """Park ``lane`` at the rendezvous; returns its step's results.

        ``ctx`` is the lane executor's codegen context, used if the step
        ends up dispatched solo.
        """
        with self._cond:
            self._waiting[lane] = (port, step, argv, ctx)
            if self._ready():
                self._fire()
                self._cond.notify_all()
            else:
                self._cond.wait_for(lambda: lane in self._results)
            return self._results.pop(lane)

    def lane_done(self, lane: int) -> None:
        """Retire ``lane``; may complete the rendezvous for the others."""
        with self._cond:
            self._active.discard(lane)
            self._waiting.pop(lane, None)
            if self._waiting and self._ready():
                self._fire()
                self._cond.notify_all()

    # ------------------------------------------------------------------ #
    def _ready(self) -> bool:
        # The previous round must be fully drained (a lane still holding
        # an unclaimed result is between rounds, not parked), and every
        # active lane must have arrived.
        return not self._results and set(self._waiting) == self._active

    def _fire(self) -> None:
        self.rounds += 1
        groups: dict[int, list[int]] = {}
        for lane, (_, step, _, _) in self._waiting.items():
            groups.setdefault(id(step.fn), []).append(lane)
        for lanes in groups.values():
            lanes.sort()
            for run in _contiguous_runs(lanes):
                if len(run) >= 2 and self._batchable(run):
                    self._sweep(run)
                else:
                    for lane in run:
                        self._solo(lane)
        self._waiting.clear()

    def _batchable(self, run: list[int]) -> bool:
        port0, step0, argv0, _ = self._waiting[run[0]]
        if not port0.supports_field_binding:
            return False
        # Differing string args (coefficient mode names) would collapse
        # the generated source's runtime branch to one lane's choice —
        # only numeric divergence batches (it broadcasts).
        for call_idx in range(len(step0.calls)):
            for arg_idx in range(len(argv0[call_idx])):
                vals = [
                    self._waiting[lane][2][call_idx][arg_idx] for lane in run
                ]
                if isinstance(vals[0], str) and any(v != vals[0] for v in vals):
                    return False
        return True

    def _sweep(self, run: list[int]) -> None:
        lane0, count = run[0], len(run)
        port0, step, _, _ = self._waiting[lane0]
        ctx = BatchContext(
            self._arena,
            lane0,
            count,
            self._grid,
            port0.field_memory_order(),
            tuple(self._waiting[lane][0] for lane in run),
        )
        stacked = self._stack_argv(run)
        # Trace + residency fidelity: every lane's port records the same
        # launches and dirty sets its solo dispatch would have (the
        # lane's *own* step object — same fn, possibly distinct plan).
        for lane in run:
            port, lane_step, argv, _ = self._waiting[lane]
            for kernel_name, spec in lane_step.launches:
                port._launch(kernel_name, spec=spec)
            for call, args in zip(lane_step.calls, argv):
                written = call.spec.written(args)
                if written:
                    port._mark_dirty(written)
        results = step.fn(ctx, stacked)
        self.batched_calls += len(step.calls) * count
        for i, lane in enumerate(run):
            self._results[lane] = tuple(
                None if entry is None else float(entry[i]) for entry in results
            )

    def _solo(self, lane: int) -> None:
        port, step, argv, ctx = self._waiting[lane]
        self._results[lane] = port.dispatch_compiled(step, argv, ctx)
        self.solo_calls += len(step.calls)

    def _stack_argv(self, run: list[int]) -> tuple:
        """Merge the lanes' arg vectors: equal stays scalar, else ``(k,)``.

        A differing numeric arg becomes a lane vector that broadcasts on
        the views' trailing axis, so each lane still multiplies by its
        own alpha/beta bit-for-bit.
        """
        _, step, argv0, _ = self._waiting[run[0]]
        stacked = []
        for call_idx in range(len(step.calls)):
            call_args = []
            for arg_idx in range(len(argv0[call_idx])):
                vals = [
                    self._waiting[lane][2][call_idx][arg_idx] for lane in run
                ]
                if all(v == vals[0] for v in vals[1:]) or not vals[1:]:
                    call_args.append(vals[0])
                else:
                    call_args.append(np.array(vals, dtype=np.float64))
            stacked.append(tuple(call_args))
        return tuple(stacked)


def _contiguous_runs(lanes: list[int]) -> list[list[int]]:
    """Split sorted lane indices into maximal consecutive runs."""
    runs: list[list[int]] = []
    for lane in lanes:
        if runs and lane == runs[-1][-1] + 1:
            runs[-1].append(lane)
        else:
            runs.append([lane])
    return runs


# --------------------------------------------------------------------- #
# the runner
# --------------------------------------------------------------------- #
#: Deck settings every lane of a batch must share: geometry and operator
#: structure (one BatchContext serves all lanes), plan shape (so lowered
#: steps can coincide), and executor flags (uniform lowering — mixed
#: codegen would strand waiting lanes).  dt, eps, end_step and the state
#: layers may differ per deck.
_SHARED_KEYS = (
    "x_cells", "y_cells", "xmin", "xmax", "ymin", "ymax",
    "solver", "tl_coefficient", "tl_preconditioner_type",
    "tl_ppcg_inner_steps", "tl_cg_eigen_steps",
    "tl_fuse_kernels", "tl_codegen", "tl_residency_tracking", "tl_overlap",
)


def batch_signature(deck: Deck) -> tuple:
    """The compatibility key decks must agree on to share a batch."""
    return tuple(getattr(deck, key) for key in _SHARED_KEYS)


@dataclass
class BatchResult:
    """One batched campaign: per-lane results plus shared accounting."""

    results: list[Any]
    wall_seconds: float
    arena_stats: dict[str, Any]
    rounds: int
    batched_calls: int
    solo_calls: int
    lanes: int
    #: Per-lane ``sha256(u)[:16]`` after the run — the same digest the
    #: golden-hash smokes compute, so batched results can be checked
    #: against sequential goldens without re-reading fields.
    u_hashes: list[str] = field(default_factory=list)
    errors: list[str] = field(default_factory=list)

    @property
    def decks_per_second(self) -> float:
        return self.lanes / self.wall_seconds if self.wall_seconds > 0 else 0.0


def run_batch(
    decks: list[Deck],
    model: str = "openmp-f90",
    poison: bool = False,
    visit_dir: str | None = None,
) -> BatchResult:
    """Run ``decks`` as one batch on ``model``, one lane per deck.

    Decks must agree on :func:`batch_signature`; each is forced onto the
    arena (``tl_field_arena``) since slot-shared lane-major storage *is*
    the batching substrate.  Raises :class:`ModelError` if the port
    family cannot bind external field storage — batching has no
    persistent-array fallback, run sequentially instead.
    """
    from repro.core.driver import TeaLeaf
    from repro.models.arena import FieldArena, deck_liveness
    from repro.models.base import make_port

    if not decks:
        raise DeckError("run_batch needs at least one deck")
    signature = batch_signature(decks[0])
    for i, deck in enumerate(decks[1:], start=1):
        if batch_signature(deck) != signature:
            for key in _SHARED_KEYS:
                if getattr(deck, key) != getattr(decks[0], key):
                    raise DeckError(
                        f"deck {i} differs from deck 0 in {key} "
                        f"({getattr(deck, key)!r} != {getattr(decks[0], key)!r}); "
                        "batched decks must share mesh, solver and flags"
                    )
    decks = [
        replace(deck, tl_field_arena=True, tl_arena_poison=poison)
        for deck in decks
    ]

    probe = make_port(model, decks[0].grid(), None)
    if not probe.supports_field_binding:
        raise ModelError(
            f"the {model} port cannot bind external field storage; "
            "batched execution needs arena-backed fields"
        )

    grid = decks[0].grid()
    liveness = deck_liveness(decks[0], grid.halo)
    words = int(grid.shape[0]) * int(grid.shape[1])
    lanes = len(decks)
    arena = FieldArena(words, lanes=lanes, liveness=liveness)
    conductor = BatchConductor(arena, grid, lanes)

    # Lane construction is sequential (ports bind their arena rows and
    # upload initial state one at a time); only the solves overlap.
    apps = [
        TeaLeaf(
            deck,
            model=model,
            visit_dir=visit_dir,
            arena=arena,
            arena_lane=lane,
            batch_conductor=conductor,
        )
        for lane, deck in enumerate(decks)
    ]

    results: list[Any] = [None] * lanes
    errors: list[str] = []
    errors_lock = threading.Lock()

    def _lane(lane: int) -> None:
        try:
            results[lane] = apps[lane].run()
        except Exception as exc:  # noqa: BLE001 - reported, not swallowed
            with errors_lock:
                errors.append(f"lane {lane}: {type(exc).__name__}: {exc}")
        finally:
            # Always retire the lane, or the others rendezvous forever.
            conductor.lane_done(lane)

    t0 = time.perf_counter()
    threads = [
        threading.Thread(target=_lane, args=(lane,), name=f"batch-lane-{lane}")
        for lane in range(lanes)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    wall = time.perf_counter() - t0

    from repro.core import fields as F

    u_hashes = [
        hashlib.sha256(app.field(F.U).tobytes()).hexdigest()[:16]
        for app in apps
    ]
    return BatchResult(
        results=results,
        wall_seconds=wall,
        arena_stats=arena.stats(),
        rounds=conductor.rounds,
        batched_calls=conductor.batched_calls,
        solo_calls=conductor.solo_calls,
        lanes=lanes,
        u_hashes=u_hashes,
        errors=errors,
    )
