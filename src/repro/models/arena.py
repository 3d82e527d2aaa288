"""Live-range field arenas: shared backing storage for solver work fields.

Every port historically allocated one persistent array per canonical
field.  But the liveness pass over the plan IR
(:func:`repro.models.plan.compute_liveness`) proves that the WORK-role
fields are fully re-derived every timestep, and that several of them are
never live at the same time — so their bytes can share *slots* of a
per-batch arena instead of each owning an allocation.  A
:class:`FieldArena` holds those slots (plus private blocks for every
other field) for N batch *lanes* at once, laid out so one generated
kernel can sweep all lanes' copies of a field through a single strided
view (see :mod:`repro.core.batch`).

The arena is also the debugging surface: because the liveness pass knows
exactly when a work field dies, poison mode NaN-fills its slot at the
point of death, turning any read of a dead field into a loud non-finite
failure instead of a silently stale value.
"""

from __future__ import annotations

from typing import Any, Iterable

import numpy as np

from repro.core import fields as F
from repro.models.plan import FieldLiveness, Plan, compute_liveness

#: Block key of the lanes' cached diag(A) rows.  diag(A) is derived
#: state, not a field: it has no liveness slot and is never poisoned.
DIAG_BLOCK = "diag"


def solve_timeline(deck: Any, halo: int) -> list[Plan]:
    """The canonical cyclic plan timeline of one timestep of ``deck``.

    Prologue, the deck's solver fragments — with every contiguous run of
    looping fragments unrolled twice so loop-carried fields interfere
    across the back edge — then the epilogue.  This is the input
    :func:`repro.models.plan.compute_liveness` analyses.
    """
    from repro.core.driver import solve_step_plans
    from repro.core.solvers import solver_timeline

    prologue, epilogue = solve_step_plans(halo)
    timeline: list[Plan] = [prologue]
    rows = solver_timeline(deck)
    i = 0
    while i < len(rows):
        if rows[i][1]:
            j = i
            while j < len(rows) and rows[j][1]:
                j += 1
            run = [plan for plan, _ in rows[i:j]]
            timeline.extend(run)
            timeline.extend(run)
            i = j
        else:
            timeline.append(rows[i][0])
            i += 1
    timeline.append(epilogue)
    return timeline


def deck_liveness(deck: Any, halo: int | None = None) -> FieldLiveness:
    """Per-field live ranges and arena slots for ``deck``'s solve cycle."""
    if halo is None:
        halo = deck.grid().halo
    return compute_liveness(solve_timeline(deck, halo))


class FieldArena:
    """Lane-major backing storage for one batch of field sets.

    Each field's storage across all lanes is one ``(lanes, words)``
    float64 C-order block; lane ``l``'s copy is the contiguous row
    ``block[l]``.  Arena-eligible fields that the liveness coloring
    placed in the same slot share a block — their per-lane rows alias
    the same bytes, which is exactly the point: the coloring proved
    their values never coexist.

    Ports adopt the rows through :meth:`Port.bind_field`; the batch
    conductor sweeps lane ranges through :meth:`batched` views.
    """

    def __init__(self, words: int, lanes: int, liveness: FieldLiveness) -> None:
        self.words = int(words)
        self.lanes = int(lanes)
        self.liveness = liveness
        self._slot_blocks = [
            np.zeros((self.lanes, self.words)) for _ in range(liveness.slot_count)
        ]
        self._blocks: dict[str, np.ndarray] = {}
        for name in F.FIELD_ORDER:
            slot = liveness.slots.get(name)
            if slot is None:
                self._blocks[name] = np.zeros((self.lanes, self.words))
            else:
                self._blocks[name] = self._slot_blocks[slot]
        self._blocks[DIAG_BLOCK] = np.zeros((self.lanes, self.words))
        #: Other fields aliasing each field's bytes (empty for private
        #: blocks) — residency invalidation must cover them on writes.
        self.partners: dict[str, tuple[str, ...]] = {}
        members: dict[int, list[str]] = {}
        for name, slot in liveness.slots.items():
            members.setdefault(slot, []).append(name)
        for slot, names in members.items():
            for name in names:
                others = tuple(m for m in names if m != name)
                if others:
                    self.partners[name] = others

    # ------------------------------------------------------------------ #
    # views
    # ------------------------------------------------------------------ #
    def lane_flat(self, name: str, lane: int) -> np.ndarray:
        """Lane ``lane``'s flat (words,) backing row for ``name``."""
        return self._blocks[name][lane]

    def batched(
        self, name: str, lane0: int, count: int, shape: tuple[int, int], order: str
    ) -> np.ndarray:
        """(H, W, count) view over lanes ``lane0 .. lane0+count-1``.

        The lane axis is trailing, so elementwise expressions written for
        a single (H, W) field broadcast across lanes unchanged and every
        lane's element arithmetic is bitwise what its solo run computes.
        ``order`` is the port's :meth:`field_memory_order`: ``"F"`` lanes
        place element (i, j) at flat ``j*H + i`` (Kokkos LayoutLeft).
        """
        h, w = shape
        block = self._blocks[name][lane0 : lane0 + count]
        if order == "F":
            return block.reshape(count, w, h).transpose(2, 1, 0)
        return block.reshape(count, h, w).transpose(1, 2, 0)

    # ------------------------------------------------------------------ #
    # port binding
    # ------------------------------------------------------------------ #
    def bind_port(self, port: Any, lane: int) -> None:
        """Rebind every field of ``port`` onto this arena's ``lane``.

        Also backs the port's cached diag(A) with the lane's row of the
        diag block, installs the slot-partner map so the port's residency
        dirty-tracking knows a write to one field clobbers the mirrors
        of everything sharing its slot, and drops any existing mirrors —
        the bytes behind every field just changed owners.
        """
        for name in F.FIELD_ORDER:
            port.bind_field(name, self.lane_flat(name, lane))
        port.bind_diag(self.lane_flat(DIAG_BLOCK, lane))
        port._slot_partners = dict(self.partners)
        port.invalidate_residency(F.FIELD_ORDER)

    # ------------------------------------------------------------------ #
    # poison (debug) mode
    # ------------------------------------------------------------------ #
    def poison(
        self, names: Iterable[str], lane: int, port: Any | None = None
    ) -> None:
        """NaN-fill the slots holding ``names`` on ``lane``.

        Used at a field's death point: any later read before the next
        definition surfaces as a non-finite guard failure.  Device
        mirrors of every field sharing the poisoned bytes are dropped.
        """
        affected: list[str] = []
        for name in names:
            if name in self.liveness.slots:
                self.lane_flat(name, lane).fill(np.nan)
                affected.append(name)
                affected.extend(self.partners.get(name, ()))
        if port is not None and affected:
            port.invalidate_residency(affected)

    def poison_work_fields(self, lane: int, port: Any | None = None) -> None:
        """Step-start poison: kill every arena field on ``lane`` at once.

        Sound because arena eligibility *is* the proof that each cycle
        defines the field before reading it.
        """
        self.poison(self.liveness.arena_fields, lane, port)

    # ------------------------------------------------------------------ #
    # accounting
    # ------------------------------------------------------------------ #
    def stats(self) -> dict[str, Any]:
        """Arena footprint vs. what persistent per-field storage costs."""
        field_bytes = self.words * 8
        n_work = len(self.liveness.arena_fields)
        return {
            "lanes": self.lanes,
            "words_per_field": self.words,
            "slot_count": self.liveness.slot_count,
            "arena_fields": list(self.liveness.arena_fields),
            "slots": dict(self.liveness.slots),
            "arena_bytes": self.liveness.slot_count * field_bytes * self.lanes,
            "work_field_bytes": n_work * field_bytes * self.lanes,
            "bytes_ratio": (
                self.liveness.slot_count / n_work if n_work else 1.0
            ),
        }
