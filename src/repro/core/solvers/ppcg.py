"""Chebyshev Polynomially Preconditioned CG (PPCG).

PPCG wraps CG around a fixed-degree Chebyshev polynomial preconditioner
[Boulton & McIntosh-Smith 2014]: each preconditioner application
``z = P(A) r`` runs ``tl_ppcg_inner_steps`` Chebyshev smoothing steps on
the residual equation ``A e = r`` from a zero initial guess.  The inner
steps are cheap bandwidth-bound stencil sweeps with *no global reductions*,
which is what makes PPCG attractive on devices where reductions and kernel
launches are expensive — the effect the paper observes on the KNC and GPU.

Like the Chebyshev solver, PPCG bootstraps eigenvalue bounds from a short
plain-CG phase before restarting as preconditioned CG.

The preconditioner is built as one flat plan per solve: the rho recurrence
depends only on the eigenvalue estimate, so its alphas/betas are baked in
at plan-build time and the same compiled plan replays for every outer
iteration.
"""

from __future__ import annotations

from repro.core import fields as F
from repro.core.deck import Deck
from repro.core.solvers.base import CG_ITER_HEAD, SOLVE_INIT, Solver, SolveResult
from repro.core.solvers.cg import PCG_ITER_BODY, pcg_beta
from repro.core.solvers.eigenvalue import EigenEstimate, estimate_eigenvalues
from repro.models.plan import (
    Bind,
    HaloStep,
    KernelCall,
    Plan,
    PlanExecutor,
    ScalarStep,
)
from repro.util.errors import SolverError


def polynomial_preconditioner_plan(estimate: EigenEstimate, steps: int) -> Plan:
    """z = P(A) r as a flat plan: ``steps`` Chebyshev iterations on
    A e = r from e0 = 0.

    Uses the w field as the inner residual and sd as the inner direction;
    z accumulates the polynomial image.  Degree = ``steps`` applications
    of A.  The rho recurrence is a pure function of the eigenvalue
    estimate, so each step's alpha/beta are literal arguments — the plan
    carries no scalar state between iterations.
    """
    theta, delta, sigma = estimate.theta, estimate.delta, estimate.sigma
    plan_steps: list = [KernelCall("ppcg_precon_init", (theta,))]
    rho_old = 1.0 / sigma
    for _ in range(steps):
        rho_new = 1.0 / (2.0 * sigma - rho_old)
        alpha = rho_new * rho_old
        beta = 2.0 * rho_new / delta
        plan_steps.append(HaloStep((F.SD,), depth=1))
        plan_steps.append(KernelCall("ppcg_precon_inner", (alpha, beta)))
        rho_old = rho_new
    return Plan(f"ppcg_precon({steps})", tuple(plan_steps))


#: Restart as preconditioned CG: fresh true residual before the first
#: preconditioner application...
PPCG_RESTART = Plan(
    "ppcg_restart",
    (
        HaloStep((F.U,), depth=1),
        KernelCall("tea_leaf_residual"),
    ),
)

#: ...then p = z and the preconditioned inner product.
PPCG_RESTART_TAIL = Plan(
    "ppcg_restart_tail",
    (
        KernelCall("copy_field", (F.Z, F.P)),
        KernelCall("dot_fields", (F.R, F.Z), out="rro", finite=True),
    ),
)

#: After each preconditioner application: r.z, beta, direction update.
PPCG_ITER_TAIL = Plan(
    "ppcg_iter_tail",
    (
        KernelCall("dot_fields", (F.R, F.Z), out="rrz", finite=True),
        ScalarStep("beta", pcg_beta, finite=True),
        KernelCall("ppcg_calc_p", (Bind("beta"),)),
    ),
)


class PPCGSolver(Solver):
    name = "ppcg"

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

        # --- plain-CG bootstrap for the eigenvalue bounds ---------------- #
        self.cg_iterations(ex, deck, deck.tl_cg_eigen_steps, rro, rr0, result)
        if result.converged:
            return result
        estimate = estimate_eigenvalues(result.cg_alphas, result.cg_betas)
        if self.eigen_filter is not None:  # resilience fault-injection seam
            estimate = self.eigen_filter(estimate)
        result.eigen_min = estimate.eigen_min
        result.eigen_max = estimate.eigen_max
        inner = deck.tl_ppcg_inner_steps
        precon = polynomial_preconditioner_plan(estimate, inner)

        # --- restart as preconditioned CG -------------------------------- #
        ex.run(PPCG_RESTART)
        ex.run(precon)
        result.inner_iterations += inner
        env = ex.run(PPCG_RESTART_TAIL)

        while result.iterations < deck.tl_max_iters:
            ex.run(CG_ITER_HEAD, env)
            if env["pw"] == 0.0:
                # Same breakdown rule as the CG paths: p = 0 is only
                # convergence when the true residual says so.
                if self._converged(result.error, rr0, deck.tl_eps):
                    result.converged = True
                    break
                raise SolverError(
                    f"PPCG breakdown: p.Ap = 0 with squared residual "
                    f"{result.error:.3e} still above tolerance"
                )
            ex.run(PCG_ITER_BODY, env)
            rrn = env["rrn"]
            result.iterations += 1
            result.error = rrn
            result.history.append((result.iterations, rrn))
            if self._converged(rrn, rr0, deck.tl_eps):
                result.converged = True
                break
            ex.run(precon)
            result.inner_iterations += inner
            ex.run(PPCG_ITER_TAIL, env)
            env["rro"] = env["rrz"]
        return self.require_convergence(result, deck)
