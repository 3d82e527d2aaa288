"""Diagonal-Jacobi preconditioned CG (tl_preconditioner_type jac_diag)."""

from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse.linalg as spla

from repro.core import fields as F
from repro.core import operators as ops
from repro.core.deck import default_deck, parse_deck
from repro.core.driver import TeaLeaf
from repro.models.base import available_models
from repro.models.plan import KernelCall


def decks(n=32, eps=1e-10):
    plain = default_deck(n=n, solver="cg", end_step=1, eps=eps)
    precon = replace(plain, tl_preconditioner_type="jac_diag")
    return plain, precon


class TestDeckOption:
    def test_parse_jac_diag(self):
        deck = parse_deck(
            "*tea\nstate 1 density=1 energy=1\n"
            "tl_preconditioner_type jac_diag\ntl_use_cg\n*endtea"
        )
        assert deck.tl_preconditioner_type == "jac_diag"

    def test_parse_none_default(self):
        deck = parse_deck("*tea\nstate 1 density=1 energy=1\n*endtea")
        assert deck.tl_preconditioner_type == "none"

    def test_unknown_preconditioner_rejected(self):
        from repro.util.errors import DeckError

        with pytest.raises(DeckError, match="preconditioner"):
            replace(default_deck(), tl_preconditioner_type="ilu")


class TestCorrectness:
    def test_matches_direct_solve(self):
        _, precon = decks()
        app = TeaLeaf(precon, model="openmp-f90")
        app.run()
        g = app.grid
        A = ops.assemble_sparse_matrix(
            app.field(F.KX), app.field(F.KY), g
        )
        direct = spla.spsolve(A.tocsc(), app.field(F.U0)[g.inner()].ravel())
        np.testing.assert_allclose(
            app.field(F.U)[g.inner()].ravel(), direct, rtol=1e-6
        )

    def test_matches_plain_cg_solution(self):
        plain, precon = decks()
        a = TeaLeaf(plain, model="openmp-f90")
        a.run()
        b = TeaLeaf(precon, model="openmp-f90")
        b.run()
        g = plain.grid()
        np.testing.assert_allclose(
            b.field(F.U)[g.inner()], a.field(F.U)[g.inner()], rtol=1e-7
        )

    def test_never_more_iterations_than_plain(self):
        """Jacobi preconditioning can only help (or tie) on this SPD,
        diagonally dominant matrix."""
        plain, precon = decks(n=48, eps=1e-10)
        plain_iters = TeaLeaf(plain, model="openmp-f90").run().total_iterations
        precon_iters = TeaLeaf(precon, model="openmp-f90").run().total_iterations
        assert precon_iters <= plain_iters

    @pytest.mark.parametrize("model", ["kokkos", "kokkos-hp", "raja", "cuda", "opencl", "openmp4", "openacc"])
    def test_cross_port_equivalence(self, model):
        _, precon = decks(n=24, eps=1e-9)
        ref = TeaLeaf(precon, model="openmp-f90")
        ref.run()
        other = TeaLeaf(precon, model=model)
        other_result = other.run()
        ref_result = None
        g = precon.grid()
        np.testing.assert_allclose(
            other.field(F.U)[g.inner()],
            ref.field(F.U)[g.inner()],
            rtol=1e-10,
        )

    def test_precon_kernel_in_trace(self):
        _, precon = decks(n=24)
        result = TeaLeaf(precon, model="cuda").run()
        hist = result.trace.kernel_histogram()
        assert hist["cg_precon"] >= result.total_iterations


class TestPreconApplication:
    def test_z_equals_r_over_diagonal(self):
        from repro.models.base import make_port
        from repro.core.state import generate_chunk

        deck, _ = decks(n=16)
        g = deck.grid()
        density, energy = generate_chunk(list(deck.states), g)
        port = make_port("openmp-f90", g)
        port.set_state(density, energy)
        port.dispatch(KernelCall("set_field"))
        port.dispatch(
            KernelCall("tea_leaf_init", (deck.initial_timestep, deck.tl_coefficient))
        )
        port.dispatch(KernelCall("cg_init"))
        port.dispatch(KernelCall("cg_precon_jacobi"))
        kx, ky = port.read_field(F.KX), port.read_field(F.KY)
        r, z = port.read_field(F.R), port.read_field(F.Z)
        h, nx, ny = g.halo, g.nx, g.ny
        diag = (
            1.0
            + kx[h : h + ny, h + 1 : h + nx + 1]
            + kx[h : h + ny, h : h + nx]
            + ky[h + 1 : h + ny + 1, h : h + nx]
            + ky[h : h + ny, h : h + nx]
        )
        np.testing.assert_allclose(
            z[g.inner()], r[g.inner()] / diag, rtol=1e-14
        )


class TestSynthesisSupport:
    def test_stub_replays_preconditioned_flow(self):
        from repro.machine.workload import synthesize_solve_trace, workload_from_run

        _, precon = decks(n=24, eps=1e-8)
        run = TeaLeaf(precon, model="openmp-f90").run()
        synth = synthesize_solve_trace(
            "openmp-f90", precon, workload_from_run(run)
        )
        assert synth.kernel_histogram() == run.trace.kernel_histogram()
