"""The cached diag(A) is recomputed after every write of kx or ky.

Every port computes ``diag(A) = 1 + kxE + kxW + kyN + kyS`` once per
write of the coefficients and its matvec, Jacobi preconditioner and
Jacobi sweep read the cached array.  Each test below changes kx/ky on a
port whose diag(A) is already cached — through a new ``dt``, a
checkpoint rollback, ``write_field`` or an arena rebind — and checks that
every diag(A) reader then matches a fresh port bit for bit.
"""

import dataclasses

import numpy as np
import pytest

from repro.core import fields as F
from repro.core.deck import default_deck
from repro.core.driver import TeaLeaf
from repro.core.state import generate_chunk
from repro.models.arena import FieldArena, deck_liveness
from repro.models.base import available_models, make_port
from repro.models.plan import KernelCall
from repro.models.stencil import flat_diag
from repro.resilience.checkpoint import CheckpointManager

DECK = default_deck(n=12, end_step=1)
GRID = DECK.grid()
DT, DT2 = 0.004, 0.009
MODELS = available_models()
BINDING_MODELS = [m for m in MODELS if make_port(m, GRID).supports_field_binding]


def primed(model: str, dt: float):
    """A fresh port with the deck's state and kx/ky built for ``dt``."""
    port = make_port(model, GRID)
    density, energy0 = generate_chunk(list(DECK.states), GRID)
    port.set_state(density, energy0)
    port.dispatch(KernelCall("set_field"))
    port.dispatch(KernelCall("tea_leaf_init", (dt, DECK.tl_coefficient)))
    port.update_halo(F.PRE_SOLVE_EXCHANGE, depth=1)
    return port


def sweep(port) -> list:
    """Run every diag(A) reader once; returns its scalars and outputs.

    Each output's interior is read right after the op that writes it, and
    ``u`` is put back at the end, so a sweep reads only u, u0, kx and ky
    as inputs and can be repeated.
    """
    inner = GRID.inner()
    u = port.read_field(F.U)
    out = []
    port.dispatch(KernelCall("copy_field", (F.U, F.R)))
    out += [port.dispatch(KernelCall("jacobi_iterate")), port.read_field(F.U)]
    port.write_field(F.U, u)
    out += [port.dispatch(KernelCall("cg_init")), port.read_field(F.W)]
    out += [port.dispatch(KernelCall("cg_calc_w")), port.read_field(F.W)]
    port.dispatch(KernelCall("cg_precon_jacobi"))
    out.append(port.read_field(F.Z))
    port.write_field(F.U, u)
    return [x[inner].tobytes() if isinstance(x, np.ndarray) else x for x in out]


@pytest.mark.parametrize("model", MODELS)
def test_resolve_with_new_dt_matches_fresh_port(model):
    deck = dataclasses.replace(DECK, tl_preconditioner_type="jac_diag")
    port = make_port(model, GRID)
    TeaLeaf(deck, port=port).run()
    redo = dataclasses.replace(deck, initial_timestep=DT2)
    again = TeaLeaf(redo, port=port)
    again.run()
    fresh = TeaLeaf(redo, model=model)
    fresh.run()
    np.testing.assert_array_equal(again.field(F.U), fresh.field(F.U))


@pytest.mark.parametrize("model", MODELS)
def test_new_coefficients_replace_the_cached_diag(model):
    port = primed(model, DT)
    before = sweep(port)
    port.dispatch(KernelCall("tea_leaf_init", (DT2, DECK.tl_coefficient)))
    port.update_halo(F.PRE_SOLVE_EXCHANGE, depth=1)
    after = sweep(port)
    assert after != before
    assert after == sweep(primed(model, DT2))


@pytest.mark.parametrize("model", MODELS)
def test_checkpoint_rollback_restores_the_diag(model):
    port = primed(model, DT)
    checkpoints = CheckpointManager()
    checkpoints.capture_anchor(port, 0)
    port.dispatch(KernelCall("tea_leaf_init", (DT2, DECK.tl_coefficient)))
    port.update_halo(F.PRE_SOLVE_EXCHANGE, depth=1)
    sweep(port)
    checkpoints.restore(port, anchor=True)
    assert sweep(port) == sweep(primed(model, DT))


@pytest.mark.parametrize("model", MODELS)
def test_write_field_of_kx_recomputes_the_diag(model):
    port = primed(model, DT)
    sweep(port)
    kx = port.read_field(F.KX) * 1.5
    port.write_field(F.KX, kx)
    fresh = primed(model, DT)
    fresh.write_field(F.KX, kx)
    assert sweep(port) == sweep(fresh)


@pytest.mark.parametrize("model", BINDING_MODELS)
def test_arena_rebind_recomputes_the_diag(model):
    port = primed(model, DT)
    sweep(port)
    other = primed(model, DT2)
    order = port.field_memory_order()
    arena = FieldArena(GRID.shape[0] * GRID.shape[1], 1, deck_liveness(DECK))
    for name in (F.U, F.U0, F.KX, F.KY):  # the fields a sweep reads
        arena.lane_flat(name, 0)[:] = other.read_field(name).ravel(order=order)
    arena.bind_port(port, 0)
    assert sweep(port) == sweep(other)


@pytest.mark.parametrize("model", BINDING_MODELS)
def test_bind_field_of_a_coefficient_recomputes_the_diag(model):
    port = primed(model, DT)
    sweep(port)
    other = primed(model, DT2)
    order = port.field_memory_order()
    for name in (F.KX, F.KY):
        port.bind_field(name, other.read_field(name).ravel(order=order).copy())
    fresh = primed(model, DT)
    for name in (F.KX, F.KY):
        fresh.write_field(name, other.read_field(name))
    assert sweep(port) == sweep(fresh)


@pytest.mark.parametrize("model", MODELS)
def test_cached_diag_is_the_per_cell_expression(model):
    """The cache holds exactly the flat-index expression's bits."""
    port = primed(model, DT)
    kx, ky = port.read_field(F.KX).ravel(), port.read_field(F.KY).ravel()
    pitch = GRID.shape[1]
    h, nx, ny = GRID.halo, GRID.nx, GRID.ny
    rows, cols = np.meshgrid(
        np.arange(h, h + ny), np.arange(h, h + nx), indexing="ij"
    )
    i = (rows * pitch + cols).ravel()
    inner = GRID.inner()
    np.testing.assert_array_equal(
        port._diag()[inner].ravel(), flat_diag(i, kx, ky, 1, pitch)
    )


def test_decomposed_exchange_and_edge_fixup_drop_chunk_diags():
    """The decomposed port writes chunk kx/ky ghosts and edges directly."""
    from repro.comm.multichunk import MultiChunkPort

    port = MultiChunkPort(GRID, 2, model="openmp-f90")
    density, energy0 = generate_chunk(list(DECK.states), GRID)
    port.set_state(density, energy0)
    port.dispatch(KernelCall("set_field"))
    port.dispatch(KernelCall("tea_leaf_init", (DT, DECK.tl_coefficient)))

    def fresh() -> list[bool]:
        return [chunk._diag_fresh for chunk in port.ports]

    for chunk in port.ports:
        chunk._diag()
    port.update_halo((F.U,), depth=1)
    assert fresh() == [True, True]
    port.update_halo((F.KX,), depth=1)
    assert fresh() == [False, False]
    for chunk in port.ports:
        chunk._diag()
    port._fixup_internal_edges()
    assert fresh() == [False, False]


@pytest.mark.parametrize("model", ["openmp4", "openmp45", "openacc"])
def test_data_region_boundaries_drop_the_diag(model):
    """Opening or closing a data region changes which kx/ky kernels read."""
    port = primed(model, DT)
    port._diag()
    port.begin_solve()
    assert not port._diag_fresh
    port._diag()
    port.end_solve()
    assert not port._diag_fresh
