"""The central cross-port contract: every model computes the same physics.

The paper keeps "TeaLeaf's core solver logic and parameters ... consistent
between ports to ensure that each of the programming models were
objectively compared" — here that is enforced: every registered port must
reproduce the reference-operator results kernel-by-kernel and produce the
same solution fields end-to-end.
"""

import numpy as np
import pytest

from repro.core import fields as F
from repro.core import operators as ops
from repro.core.deck import default_deck
from repro.core.driver import TeaLeaf
from repro.core.state import generate_chunk
from repro.models.base import available_models, make_port
from repro.models.plan import FIELD_SUMMARY, KernelCall

ALL_MODELS = available_models()


def fresh_port(model, n=16):
    deck = default_deck(n=n)
    grid = deck.grid()
    density, energy = generate_chunk(list(deck.states), grid)
    port = make_port(model, grid)
    port.set_state(density, energy)
    # Driver ordering: set_field runs on the host before the solve-scope
    # data region opens (energy0 is never mapped to the device).
    port.dispatch(KernelCall("set_field"))
    port.begin_solve()
    port.dispatch(
        KernelCall("tea_leaf_init", (deck.initial_timestep, deck.tl_coefficient))
    )
    return deck, grid, port


def reference_fields(n=16):
    deck = default_deck(n=n)
    grid = deck.grid()
    density, energy = generate_chunk(list(deck.states), grid)
    u, u0 = grid.allocate(), grid.allocate()
    kx, ky = grid.allocate(), grid.allocate()
    ops.compute_u(density, energy, u)
    u0[...] = u
    ops.init_coefficients(density, grid, deck.initial_timestep, deck.tl_coefficient, kx, ky)
    return grid, density, energy, u, u0, kx, ky


@pytest.mark.parametrize("model", ALL_MODELS)
class TestKernelEquivalence:
    def test_tea_leaf_init_matches_reference(self, model):
        deck, grid, port = fresh_port(model)
        gridr, density, energy, u, u0, kx, ky = reference_fields()
        inner = grid.inner()
        port_u = port.read_field(F.U)
        port_kx = port.read_field(F.KX)
        port_ky = port.read_field(F.KY)
        port.end_solve()
        np.testing.assert_allclose(port_u[inner], u[inner], rtol=1e-14)
        np.testing.assert_allclose(port_kx[inner], kx[inner], rtol=1e-14)
        np.testing.assert_allclose(port_ky[inner], ky[inner], rtol=1e-14)

    def test_matvec_and_reductions_match_reference(self, model):
        deck, grid, port = fresh_port(model)
        rro = port.dispatch(KernelCall("cg_init"))
        # reference: w = A u; r = u0 - w; rro = r.r
        _, density, energy, u, u0, kx, ky = reference_fields()
        w = grid.allocate()
        ops.apply_matrix(u, kx, ky, grid.halo, w)
        r = u0 - w
        expected_rro = ops.norm2(r, grid.halo)
        assert rro == pytest.approx(expected_rro, rel=1e-12)
        pw = port.dispatch(KernelCall("cg_calc_w"))
        ap = grid.allocate()
        ops.apply_matrix(r, kx, ky, grid.halo, ap)  # p == r after cg_init
        expected_pw = ops.dot(r, ap, grid.halo)
        assert pw == pytest.approx(expected_pw, rel=1e-12)
        port.end_solve()

    def test_norm_dot_copy(self, model):
        deck, grid, port = fresh_port(model)
        port.dispatch(KernelCall("cg_init"))
        n2 = port.dispatch(KernelCall("norm2_field", (F.R,)))
        d = port.dispatch(KernelCall("dot_fields", (F.R, F.P)))
        assert n2 == pytest.approx(d, rel=1e-12)  # p == r after cg_init
        port.dispatch(KernelCall("copy_field", (F.R, F.SD)))
        port.end_solve()
        np.testing.assert_array_equal(
            port.read_field(F.SD)[grid.inner()], port.read_field(F.R)[grid.inner()]
        )

    def test_finalise_recovers_energy(self, model):
        deck, grid, port = fresh_port(model)
        port.dispatch(KernelCall("tea_leaf_finalise"))
        port.end_solve()
        u = port.read_field(F.U)
        density = port.read_field(F.DENSITY)
        energy = port.read_field(F.ENERGY1)
        inner = grid.inner()
        np.testing.assert_allclose(
            energy[inner], u[inner] / density[inner], rtol=1e-14
        )

    def test_field_summary_matches_reference(self, model):
        deck, grid, port = fresh_port(model)
        port.dispatch(KernelCall("tea_leaf_finalise"))
        port.end_solve()
        vol, mass, ie, temp = port.dispatch(FIELD_SUMMARY)
        density = port.read_field(F.DENSITY)
        energy = port.read_field(F.ENERGY1)
        u = port.read_field(F.U)
        expected = ops.field_summary(density, energy, u, grid)
        for got, want in zip((vol, mass, ie, temp), expected):
            assert got == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("solver", ["cg", "chebyshev", "ppcg"])
class TestEndToEndEquivalence:
    def test_all_models_reach_the_same_solution(self, solver):
        deck = default_deck(n=20, solver=solver, end_step=2, eps=1e-9)
        grid = deck.grid()
        reference = None
        for model in ALL_MODELS:
            app = TeaLeaf(deck, model=model)
            result = app.run()
            assert result.steps[-1].solve.converged, model
            u = app.field(F.U)[grid.inner()]
            if reference is None:
                reference = u
            np.testing.assert_allclose(
                u, reference, rtol=1e-10, atol=1e-12, err_msg=model
            )

    def test_iteration_counts_identical(self, solver):
        """Identical solver logic implies identical iteration trajectories."""
        deck = default_deck(n=20, solver=solver, end_step=2, eps=1e-9)
        counts = {
            model: TeaLeaf(deck, model=model).run().total_iterations
            for model in ALL_MODELS
        }
        assert len(set(counts.values())) == 1, counts


class TestRecipCoefficient:
    @pytest.mark.parametrize("model", ALL_MODELS)
    def test_recip_conductivity_equivalence(self, model):
        from dataclasses import replace

        deck = replace(
            default_deck(n=16, solver="cg", end_step=1, eps=1e-9),
            tl_coefficient="recip_conductivity",
        )
        ref = TeaLeaf(deck, model="openmp-f90")
        ref.run()
        app = TeaLeaf(deck, model=model)
        app.run()
        grid = deck.grid()
        np.testing.assert_allclose(
            app.field(F.U)[grid.inner()],
            ref.field(F.U)[grid.inner()],
            rtol=1e-11,
        )
