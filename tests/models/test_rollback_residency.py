"""Checkpoint rollback must compose with device residency tracking.

Restoring a checkpoint writes fields through the port's host interface;
on offload ports the device copy (and any clean host mirror) is stale
the moment that happens.  ``CheckpointManager.restore`` therefore
invalidates the residency state of the restored fields first, so the
next consumer — host probe or device-side kernel — sees the restored
values, never a cached pre-rollback copy.
"""

import dataclasses
from pathlib import Path

import numpy as np
import pytest

from repro.core import fields as F
from repro.core.deck import parse_deck_file
from repro.core.driver import TeaLeaf
from repro.models.plan import KernelCall

DECK = Path(__file__).resolve().parents[2] / "decks" / "tea_bm_short.in"

#: Every offload port: explicit-copy (mirror cache) and data-region kinds.
OFFLOAD_MODELS = ["cuda", "opencl", "openmp4", "openmp45", "openacc"]


def resilient_residency_app(model):
    deck = parse_deck_file(DECK)
    deck = dataclasses.replace(
        deck, tl_resilient=True, tl_residency_tracking=True, end_step=1
    )
    app = TeaLeaf(deck, model=model)
    app.step()
    return app


@pytest.mark.parametrize("model", OFFLOAD_MODELS)
def test_rollback_reuploads_restored_fields(model):
    app = resilient_residency_app(model)
    port, m = app.port, app.resilience
    inner = app.grid.inner()

    # Take a fresh anchor of the current (healthy) state and record a
    # device-side reduction of it.
    u_good = port.read_field(F.U)
    m.checkpoints.capture_anchor(port, m.iteration)
    norm_u = KernelCall("norm2_field", (F.U,))
    norm_good = port.dispatch(norm_u)

    # Corrupt u through the host interface (how field faults land).
    port.write_field(F.U, u_good + 1.0e3)
    assert port.dispatch(norm_u) != norm_good

    m.rollback(port, anchor=True)

    # The host view reflects the restored snapshot...
    restored = port.read_field(F.U)
    np.testing.assert_array_equal(restored[inner], u_good[inner])
    # ...and so does a reduction computed on the device: the restored
    # field was re-uploaded, not served from a stale device array.
    assert port.dispatch(norm_u) == norm_good


@pytest.mark.parametrize("model", ["cuda", "opencl"])
def test_rollback_drops_clean_host_mirrors(model):
    """A clean mirror cached before the rollback must not satisfy the
    first read afterwards (explicit-copy ports only: they are the ones
    with a mirror cache to go stale)."""
    app = resilient_residency_app(model)
    port, m = app.port, app.resilience
    inner = app.grid.inner()

    u_good = port.read_field(F.U)
    m.checkpoints.capture_anchor(port, m.iteration)
    # Two reads in a row: the second is served from the clean mirror,
    # which is exactly the cache that must be invalidated by restore.
    port.read_field(F.U)
    port.read_field(F.U)

    port.write_field(F.U, u_good + 1.0e3)
    m.rollback(port, anchor=True)
    np.testing.assert_array_equal(
        port.read_field(F.U)[inner], u_good[inner]
    )


@pytest.mark.parametrize("model", OFFLOAD_MODELS)
def test_invalidate_residency_marks_fields_dirty(model):
    deck = parse_deck_file(DECK)
    deck = dataclasses.replace(deck, tl_residency_tracking=True, end_step=1)
    app = TeaLeaf(deck, model=model)
    app.step()
    port = app.port
    port.read_field(F.U)  # populate mirror / sync host copy
    port.invalidate_residency((F.U,))
    assert F.U in port._dirty_fields
    assert F.U not in getattr(port, "_host_mirror", {})
