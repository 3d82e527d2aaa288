"""The explicit solver extension and its 1/dx^2 timestep constraint."""

from dataclasses import replace

import numpy as np
import pytest

from repro.core import fields as F
from repro.core.deck import default_deck, parse_deck
from repro.core.driver import TeaLeaf
from repro.core.solvers.explicit import STABILITY_SAFETY, stability_sum
from repro.models.plan import KernelCall
from repro.util.errors import ConvergenceError


def run_explicit(n: int, end_step: int = 1, dt: float = 0.004):
    deck = replace(default_deck(n=n, solver="explicit", end_step=end_step),
                   initial_timestep=dt)
    app = TeaLeaf(deck, model="openmp-f90")
    return app, app.run()


class TestBasics:
    def test_deck_flag(self):
        deck = parse_deck(
            "*tea\nstate 1 density=1 energy=1\ntl_use_explicit\n*endtea"
        )
        assert deck.solver == "explicit"

    def test_runs_and_reports_substeps(self):
        _, result = run_explicit(n=24)
        solve = result.steps[0].solve
        assert solve.converged
        assert solve.iterations >= 1  # sub-step count

    def test_conserves_total_temperature(self):
        """u <- 2u - A u preserves sum(u) (zero-flux operator rows)."""
        deck = replace(
            default_deck(n=24, solver="explicit", end_step=3),
            summary_frequency=1,
        )
        result = TeaLeaf(deck, model="openmp-f90").run()
        temps = [s.summary.temperature for s in result.steps]
        for t in temps[1:]:
            assert t == pytest.approx(temps[0], rel=1e-12)

    def test_stable_no_oscillation(self):
        """Sub-cycled explicit diffusion keeps the solution in bounds
        (a discrete maximum principle check)."""
        app, _ = run_explicit(n=32, end_step=2)
        g = app.grid
        u = app.field(F.U)[g.inner()]
        density = app.field(F.DENSITY)[g.inner()]
        energy0 = 25.0  # hottest initial state
        assert u.max() <= 0.1 * energy0 * 1.0001  # never exceeds initial peak
        assert u.min() >= 0.0


class TestTimestepConstraint:
    def test_substeps_scale_quadratically_with_resolution(self):
        """§1.1: the explicit timestep scales as 1/dx^2, so halving dx
        quadruples the sub-step count — measured, not assumed."""
        _, coarse = run_explicit(n=32)
        _, fine = run_explicit(n=64)
        ratio = fine.steps[0].solve.iterations / coarse.steps[0].solve.iterations
        assert ratio == pytest.approx(4.0, rel=0.25)

    def test_substeps_scale_linearly_with_dt(self):
        _, short = run_explicit(n=48, dt=0.002)
        _, long = run_explicit(n=48, dt=0.008)
        ratio = long.steps[0].solve.iterations / short.steps[0].solve.iterations
        assert ratio == pytest.approx(4.0, rel=0.3)

    def test_impractical_mesh_rejected(self):
        deck = replace(
            default_deck(n=96, solver="explicit", end_step=1),
            tl_max_iters=3,  # tiny sub-step budget
        )
        with pytest.raises(ConvergenceError, match="1/dx"):
            TeaLeaf(deck, model="openmp-f90").run()


class TestAccuracyAgainstImplicit:
    def test_matches_implicit_solution_to_first_order(self):
        """Explicit and implicit integrate the same PDE: for a resolved
        timestep the fields agree to O(dt)."""
        deck_i = default_deck(n=32, solver="cg", end_step=1, eps=1e-11)
        deck_i = replace(deck_i, initial_timestep=0.0005)
        deck_e = replace(deck_i, solver="explicit")
        imp = TeaLeaf(deck_i, model="openmp-f90")
        imp.run()
        exp = TeaLeaf(deck_e, model="openmp-f90")
        exp.run()
        g = deck_i.grid()
        u_i = imp.field(F.U)[g.inner()]
        u_e = exp.field(F.U)[g.inner()]
        scale = np.abs(u_i).max()
        assert np.abs(u_e - u_i).max() / scale < 0.02

    @pytest.mark.parametrize("model", ["kokkos", "cuda", "raja"])
    def test_cross_port_equivalence(self, model):
        """The explicit solver composes from port kernels, so it too must
        be port-invariant."""
        deck = default_deck(n=24, solver="explicit", end_step=1)
        ref = TeaLeaf(deck, model="openmp-f90")
        ref.run()
        other = TeaLeaf(deck, model=model)
        other.run()
        g = deck.grid()
        np.testing.assert_allclose(
            other.field(F.U)[g.inner()], ref.field(F.U)[g.inner()], rtol=1e-12
        )


class TestStabilitySum:
    def test_matches_hand_computation(self):
        deck = default_deck(n=16, solver="explicit", end_step=1)
        app = TeaLeaf(deck, model="openmp-f90")
        app.port.dispatch(KernelCall("set_field"))
        app.port.dispatch(
            KernelCall("tea_leaf_init", (deck.initial_timestep, deck.tl_coefficient))
        )
        s = stability_sum(app.port)
        kx = app.field(F.KX)
        ky = app.field(F.KY)
        h = app.grid.halo
        nx, ny = app.grid.nx, app.grid.ny
        expected = (
            kx[h : h + ny, h : h + nx]
            + kx[h : h + ny, h + 1 : h + nx + 1]
            + ky[h : h + ny, h : h + nx]
            + ky[h + 1 : h + ny + 1, h : h + nx]
        ).max()
        assert s == pytest.approx(float(expected))

    def test_safety_margin_respected(self):
        app, result = run_explicit(n=48)
        solve = result.steps[0].solve
        # per-sub-step stability sum (reported in .error) below the limit
        assert solve.error <= STABILITY_SAFETY * 1.0001
