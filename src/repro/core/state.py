"""Initial-condition states and chunk generation.

A TeaLeaf input deck defines numbered *states*.  State 1 is the ambient
background applied to every cell; higher states paint density/energy onto
geometric regions (rectangle, circle, or point), later states overriding
earlier ones — exactly the semantics of the reference ``generate_chunk``
kernel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from repro.core.grid import Grid2D
from repro.util.errors import DeckError


class Geometry(Enum):
    """Shape of the region a state applies to."""

    #: State 1 only: the whole domain.
    BACKGROUND = "background"
    RECTANGLE = "rectangle"
    CIRCLE = "circular"
    POINT = "point"


@dataclass(frozen=True)
class State:
    """One ``state`` line from the input deck.

    For ``RECTANGLE`` the region is ``[xmin, xmax) x [ymin, ymax)`` tested
    against cell centres; for ``CIRCLE`` it is the disc of ``radius`` about
    ``(xmin, ymin)``; for ``POINT`` the single cell containing
    ``(xmin, ymin)``.
    """

    index: int
    density: float
    energy: float
    geometry: Geometry = Geometry.BACKGROUND
    xmin: float = 0.0
    xmax: float = 0.0
    ymin: float = 0.0
    ymax: float = 0.0
    radius: float = 0.0

    def __post_init__(self) -> None:
        if self.index < 1:
            raise DeckError(f"state indices start at 1, got {self.index}")
        for key in ("density", "energy", "xmin", "xmax", "ymin", "ymax", "radius"):
            if not math.isfinite(getattr(self, key)):
                raise DeckError(
                    f"state {self.index}: {key} must be finite, "
                    f"got {getattr(self, key)!r}"
                )
        if self.density <= 0.0:
            raise DeckError(f"state {self.index}: density must be positive")
        if self.energy < 0.0:
            raise DeckError(f"state {self.index}: energy must be non-negative")
        if self.index == 1 and self.geometry is not Geometry.BACKGROUND:
            raise DeckError("state 1 must be the background state")
        if self.index > 1 and self.geometry is Geometry.BACKGROUND:
            raise DeckError(f"state {self.index} needs a geometry")
        if self.geometry is Geometry.CIRCLE and self.radius <= 0.0:
            raise DeckError(f"state {self.index}: circle needs a positive radius")
        if self.geometry is Geometry.RECTANGLE and not (
            self.xmax > self.xmin and self.ymax > self.ymin
        ):
            raise DeckError(f"state {self.index}: empty rectangle")


def _region_mask(state: State, grid: Grid2D) -> np.ndarray:
    """Boolean mask (full halo shape) of cells the state paints."""
    cx = grid.cell_centres_x()[np.newaxis, :]
    cy = grid.cell_centres_y()[:, np.newaxis]
    if state.geometry is Geometry.BACKGROUND:
        return np.ones(grid.shape, dtype=bool)
    if state.geometry is Geometry.RECTANGLE:
        return (
            (cx >= state.xmin)
            & (cx < state.xmax)
            & (cy >= state.ymin)
            & (cy < state.ymax)
        )
    if state.geometry is Geometry.CIRCLE:
        return (cx - state.xmin) ** 2 + (cy - state.ymin) ** 2 <= state.radius**2
    if state.geometry is Geometry.POINT:
        jx = int(np.clip((state.xmin - grid.xmin) / grid.dx, 0, grid.nx - 1))
        ky = int(np.clip((state.ymin - grid.ymin) / grid.dy, 0, grid.ny - 1))
        mask = np.zeros(grid.shape, dtype=bool)
        mask[ky + grid.halo, jx + grid.halo] = True
        return mask
    raise DeckError(f"unhandled geometry {state.geometry}")


def generate_chunk(
    states: list[State], grid: Grid2D
) -> tuple[np.ndarray, np.ndarray]:
    """Produce (density, energy0) arrays for a grid from the deck states.

    States are applied in index order; state 1 must be present and first.
    Halo cells receive the background values (they are later overwritten by
    the reflective halo update, but never read uninitialised).
    """
    if not states:
        raise DeckError("at least one state (the background) is required")
    ordered = sorted(states, key=lambda s: s.index)
    if ordered[0].index != 1:
        raise DeckError("state 1 (background) is missing")
    seen = set()
    for s in ordered:
        if s.index in seen:
            raise DeckError(f"duplicate state index {s.index}")
        seen.add(s.index)

    density = grid.allocate(ordered[0].density)
    energy = grid.allocate(ordered[0].energy)
    for state in ordered[1:]:
        mask = _region_mask(state, grid)
        density[mask] = state.density
        energy[mask] = state.energy
    return density, energy
