"""How each workload runs one unit of work and recomputes its reference.

A *unit* is the smallest piece the closed loop issues: one deck
(``ppcg_ranks``) or one ``run_batch`` call (``batch_lanes``).  Units cycle
over the seeded deck pool, and the loop only stops between units, so
every run carries whole batches.
"""

from __future__ import annotations

import dataclasses
import hashlib
import time
from dataclasses import dataclass, field
from typing import Any

from perfbench.calibrate import Calibration
from perfbench.decks import Workload


@dataclass
class Solve:
    """One deck solved on one port, as the gate and the metrics see it."""

    deck: int
    model: str
    u_sha: str | None
    cells: int = 0
    iterations: int = 0
    inner_iterations: int = 0
    step_seconds: list[float] = field(default_factory=list)
    error: str | None = None
    #: The program's RunResult, kept only when the runner keeps results
    #: (traced runs read its trace and comm ledger).
    result: Any = None
    #: Halo messages and bytes the decomposed port's communicator sent.
    comm_messages: int = 0
    comm_bytes: int = 0
    #: The BatchResult, kept like ``result``, on each batch's first lane.
    batch: Any = None
    #: Index of the closed loop's unit that solved this deck.
    unit: int = 0


def u_sha(app: Any) -> str:
    from repro.core import fields as F

    return hashlib.sha256(app.field(F.U).tobytes()).hexdigest()[:16]


def _failed(index: int, model: str, exc: Exception) -> Solve:
    return Solve(index, model, None, error=f"{type(exc).__name__}: {exc}")


class Runner:
    """Runs one workload's units over a fixed deck pool."""

    def __init__(self, workload: Workload, decks: list[Any]) -> None:
        self.workload = workload
        self.decks = decks
        #: Keep each RunResult (and its event trace) on the Solve.  Off in
        #: the measured run, so memory does not grow with decks solved.
        self.keep_results = False

    def _app(self, deck: Any, model: str) -> Any:
        from repro.core.driver import TeaLeaf

        if not self.workload.ranks:
            return TeaLeaf(deck, model=model)
        from repro.comm.multichunk import MultiChunkPort
        from repro.models.tracing import Trace

        trace = Trace()
        port = MultiChunkPort(deck.grid(), self.workload.ranks, model=model, trace=trace)
        return TeaLeaf(deck, port=port, trace=trace)

    def _record(
        self, index: int, model: str, result: Any, sha: str, world: Any = None
    ) -> Solve:
        deck = self.decks[index]
        return Solve(
            deck=index,
            model=model,
            u_sha=sha,
            cells=deck.x_cells * deck.y_cells,
            iterations=result.total_iterations,
            inner_iterations=result.total_inner_iterations,
            step_seconds=[s.wall_seconds for s in result.steps],
            result=result if self.keep_results else None,
            comm_messages=world.messages_sent if world is not None else 0,
            comm_bytes=world.bytes_sent if world is not None else 0,
        )

    def _solo(self, index: int, model: str) -> Solve:
        try:
            app = self._app(self.decks[index], model)
            result = app.run()
        except Exception as exc:  # noqa: BLE001 - counted as a failed deck
            return _failed(index, model, exc)
        return self._record(
            index, model, result, u_sha(app), getattr(app.port, "world", None)
        )

    def unit(self, k: int) -> list[Solve]:
        """Run unit ``k`` (the pool is reused cyclically)."""
        w = self.workload
        if w.lanes:
            return self._batch(k)
        return [self._solo(k % len(self.decks), w.model)]

    def _batch(self, k: int) -> list[Solve]:
        from repro.core.batch import run_batch

        w = self.workload
        batches = len(self.decks) // w.lanes
        first = (k % batches) * w.lanes
        indices = list(range(first, first + w.lanes))
        model = w.model
        try:
            batch = run_batch([self.decks[i] for i in indices], model=model)
        except Exception as exc:  # noqa: BLE001 - counted as failed decks
            return [_failed(i, model, exc) for i in indices]
        out = []
        for lane, index in enumerate(indices):
            result = batch.results[lane]
            if result is None:
                out.append(_failed(index, model, RuntimeError("; ".join(batch.errors))))
                continue
            out.append(self._record(index, model, result, batch.u_hashes[lane]))
        if self.keep_results:
            out[0].batch = batch
        return out

    def loop(
        self, seconds: float, calibration: Calibration
    ) -> tuple[list[Solve], list[float], list[float]]:
        """Closed loop from unit 0 until ``seconds`` have passed.

        A calibration slice runs before the first unit and after every
        unit, so each unit's host speed is read on both sides of it.
        Returns the solves (each tagged with its unit), every unit's wall
        seconds and every slice's wall seconds (one more than units).
        """
        solves: list[Solve] = []
        unit_s: list[float] = []
        slices = [calibration.slice()]
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < seconds:
            k = len(unit_s)
            start = time.perf_counter()
            done = self.unit(k)
            unit_s.append(time.perf_counter() - start)
            slices.append(calibration.slice())
            for s in done:
                s.unit = k
            solves += done
        return solves, unit_s, slices

    def reference_path(self) -> str:
        """How :meth:`reference` runs a deck, for the printout."""
        w = self.workload
        layout = f"synchronous {w.ranks}-chunk" if w.ranks else "single-chunk"
        return (
            f"{w.model}, {layout}, {', '.join(w.flags)} off, "
            "each deck run on its own"
        )

    def reference(self, index: int) -> str:
        """``sha256(u)[:16]`` of deck ``index`` on the workload's reference path.

        The reference turns the workload's flags off (codegen decks run
        interpreted, overlapped decks synchronously) and runs each deck on
        its own, not in a batch.
        """
        deck = dataclasses.replace(
            self.decks[index], **{flag: False for flag in self.workload.flags}
        )
        app = self._app(deck, self.workload.model)
        app.run()
        return u_sha(app)
