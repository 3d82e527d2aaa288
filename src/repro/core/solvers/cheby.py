"""Chebyshev solver.

TeaLeaf's Chebyshev solver bootstraps with a short CG phase (which both
makes real progress on ``u`` and yields the Lanczos Ritz values), then
switches to the classic three-term Chebyshev semi-iteration over the
estimated spectral interval (Saad, *Iterative Methods for Sparse Linear
Systems*, alg. 12.1):

.. math::

    d_0 = r_0/\\theta, \\qquad
    d_k = \\rho_k \\rho_{k-1}\\, d_{k-1} + \\frac{2\\rho_k}{\\delta} r_k,
    \\qquad \\rho_k = (2\\sigma - \\rho_{k-1})^{-1}

with ``u += d`` and the residual maintained incrementally
(``r -= A d``).  Convergence is only *checked* every
``tl_check_frequency`` iterations because the residual norm is a global
reduction the pure Chebyshev loop otherwise never needs — this is why the
solver maps so well onto offload models (one kernel per iteration), which
is visible throughout the paper's Figures 8-10.

The rho recurrence lives in the iteration plan as scalar steps, so one
compiled plan replays for every Chebyshev iteration.
"""

from __future__ import annotations

from typing import Mapping

from repro.core import fields as F
from repro.core.deck import Deck
from repro.core.solvers.base import SOLVE_INIT, Solver, SolveResult
from repro.core.solvers.eigenvalue import EigenEstimate, estimate_eigenvalues
from repro.models.plan import (
    Bind,
    HaloStep,
    KernelCall,
    Plan,
    PlanExecutor,
    ScalarStep,
)


def cheby_rho_new(env: Mapping[str, float]) -> float:
    """rho_k = 1 / (2 sigma - rho_{k-1})."""
    return 1.0 / (2.0 * env["sigma"] - env["rho_old"])


def cheby_alpha(env: Mapping[str, float]) -> float:
    """alpha = rho_k rho_{k-1} (the d_{k-1} weight)."""
    return env["rho_new"] * env["rho_old"]


def cheby_beta(env: Mapping[str, float]) -> float:
    """beta = 2 rho_k / delta (the r_k weight)."""
    return 2.0 * env["rho_new"] / env["delta"]


def cheby_advance_rho(env: Mapping[str, float]) -> float:
    """Shift the recurrence: rho_{k-1} <- rho_k."""
    return env["rho_new"]


#: Enter the semi-iteration: fresh residual, d_0 = r/theta, u += d_0.
CHEBY_HEAD = Plan(
    "cheby_head",
    (
        HaloStep((F.U,), depth=1),
        KernelCall("cheby_init", (Bind("theta"),)),
    ),
)

#: One Chebyshev iteration: advance the rho recurrence, refresh the
#: direction halo, sweep.  No reductions — the whole loop is this plan.
CHEBY_STEP = Plan(
    "cheby_step",
    (
        ScalarStep("rho_new", cheby_rho_new),
        ScalarStep("alpha", cheby_alpha),
        ScalarStep("beta", cheby_beta),
        HaloStep((F.SD,), depth=1),
        KernelCall("cheby_iterate", (Bind("alpha"), Bind("beta"))),
        ScalarStep("rho_old", cheby_advance_rho),
    ),
)

#: The periodic convergence probe (the loop's only global reduction).
CHEBY_CHECK = Plan("cheby_check", (KernelCall("norm2_field", (F.R,), out="rrn"),))


class ChebyshevSolver(Solver):
    name = "chebyshev"

    def solve(self, ex: PlanExecutor, deck: Deck) -> SolveResult:
        rro = ex.run(SOLVE_INIT)["rro"]
        result = SolveResult(
            solver=self.name,
            converged=False,
            iterations=0,
            inner_iterations=0,
            error=rro,
            initial_residual=rro,
        )
        rr0 = rro
        if self._converged(rro, rr0, deck.tl_eps) or rro == 0.0:
            result.converged = True
            return result

        # --- CG bootstrap phase: progress + Ritz values ----------------- #
        rro = self.cg_iterations(ex, deck, deck.tl_cg_eigen_steps, rro, rr0, result)
        if result.converged:
            return result
        estimate = estimate_eigenvalues(result.cg_alphas, result.cg_betas)
        if self.eigen_filter is not None:  # resilience fault-injection seam
            estimate = self.eigen_filter(estimate)
        result.eigen_min = estimate.eigen_min
        result.eigen_max = estimate.eigen_max

        # --- Chebyshev phase -------------------------------------------- #
        self.chebyshev_iterations(ex, deck, estimate, rr0, result)
        return self.require_convergence(result, deck)

    @staticmethod
    def chebyshev_iterations(
        ex: PlanExecutor,
        deck: Deck,
        estimate: EigenEstimate,
        rr0: float,
        result: SolveResult,
    ) -> None:
        """The pure Chebyshev loop (shared with tests and ablations)."""
        env = {
            "theta": estimate.theta,
            "delta": estimate.delta,
            "sigma": estimate.sigma,
            "rho_old": 1.0 / estimate.sigma,
        }
        ex.run(CHEBY_HEAD, env)
        result.iterations += 1

        remaining = deck.tl_max_iters - result.iterations
        for it in range(remaining):
            ex.run(CHEBY_STEP, env)
            result.iterations += 1
            if (it + 1) % deck.tl_check_frequency == 0:
                rrn = ex.run(CHEBY_CHECK, env)["rrn"]
                result.error = rrn
                result.history.append((result.iterations, rrn))
                if Solver._converged(rrn, rr0, deck.tl_eps):
                    result.converged = True
                    return
        # Final check so a solve that converged between checkpoints on its
        # last iterations is not misreported.
        rrn = ex.run(CHEBY_CHECK, env)["rrn"]
        result.error = rrn
        result.converged = Solver._converged(rrn, rr0, deck.tl_eps)
