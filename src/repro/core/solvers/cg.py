"""Conjugate Gradient solver (the paper's baseline solver).

Standard CG over the SPD 5-point conduction matrix, expressed purely
through the reference CG kernels (``cg_init`` / ``cg_calc_w`` /
``cg_calc_ur`` / ``cg_calc_p``).  When the deck selects
``tl_preconditioner_type jac_diag`` (a reference-app option the paper's
runs left at ``none``), each iteration additionally applies the diagonal
Jacobi preconditioner ``z = r / diag(A)`` and the direction update uses z.

The preconditioned fragments below are where kernel fusion pays: the
setup's three elementwise traversals (precondition, p = z, r.z) compile
to one fused launch, and each iteration's precondition + r.z pair to
another — the per-iteration launch count drops from 6 to 5 on
fusion-capable ports with bitwise-identical results.
"""

from __future__ import annotations

from typing import Mapping

from repro.core import fields as F
from repro.core.deck import Deck
from repro.core.solvers.base import (
    CG_ITER_HEAD,
    SOLVE_INIT,
    Solver,
    SolveResult,
    cg_alpha,
)
from repro.models.plan import Bind, KernelCall, Plan, PlanExecutor, ScalarStep
from repro.util.errors import SolverError


def pcg_beta(env: Mapping[str, float]) -> float:
    """beta = rrz / rro (the preconditioned direction update scalar)."""
    return env["rrz"] / env["rro"]


#: PCG restart: z = M^-1 r, p = z, rro = r.z — three elementwise
#: traversals that fuse into a single launch on fusion-capable ports.
PCG_SETUP = Plan(
    "pcg_setup",
    (
        KernelCall("cg_precon_jacobi"),
        KernelCall("ppcg_calc_p", (0.0,)),
        KernelCall("dot_fields", (F.R, F.Z), out="rro", finite=True),
    ),
)

#: The PCG iteration body: like the plain-CG body but beta comes later,
#: from the preconditioned inner product in the tail.
PCG_ITER_BODY = Plan(
    "pcg_iter_body",
    (
        ScalarStep("alpha", cg_alpha, finite=True),
        KernelCall("cg_calc_ur", (Bind("alpha"),), out="rrn", finite=True),
    ),
)

#: Precondition + r.z fuse; the direction update must wait for the
#: reduction scalar, so it stays a separate launch.
PCG_ITER_TAIL = Plan(
    "pcg_iter_tail",
    (
        KernelCall("cg_precon_jacobi"),
        KernelCall("dot_fields", (F.R, F.Z), out="rrz", finite=True),
        ScalarStep("beta", pcg_beta, finite=True),
        KernelCall("ppcg_calc_p", (Bind("beta"),)),
    ),
)


class CGSolver(Solver):
    name = "cg"

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
        if self._converged(rro, rro, deck.tl_eps) or rro == 0.0:
            result.converged = True
            return result
        if deck.tl_preconditioner_type == "jac_diag":
            self._preconditioned_iterations(ex, deck, rro, result)
        else:
            self.cg_iterations(ex, deck, deck.tl_max_iters, rro, rro, result)
        return self.require_convergence(result, deck)

    @staticmethod
    def _preconditioned_iterations(
        ex: PlanExecutor, deck: Deck, rr0: float, result: SolveResult
    ) -> None:
        """Diagonal-Jacobi PCG.  Convergence stays on the true residual
        norm (rrn from cg_calc_ur), as in the reference kernels."""
        env = ex.run(PCG_SETUP)
        for _ in range(deck.tl_max_iters):
            ex.run(CG_ITER_HEAD, env)
            if env["pw"] == 0.0:
                # p.Ap = 0 means p = 0 (A is SPD): legitimate only when
                # the true residual already meets the tolerance.  The old
                # behaviour marked the solve converged unconditionally,
                # silently accepting a broken-down Krylov basis.
                if Solver._converged(result.error, rr0, deck.tl_eps):
                    result.converged = True
                    break
                raise SolverError(
                    f"preconditioned CG breakdown: p.Ap = 0 with squared "
                    f"residual {result.error:.3e} still above tolerance"
                )
            ex.run(PCG_ITER_BODY, env)
            rrn = env["rrn"]
            result.iterations += 1
            result.error = rrn
            result.history.append((result.iterations, rrn))
            if Solver._converged(rrn, rr0, deck.tl_eps):
                result.converged = True
                break
            ex.run(PCG_ITER_TAIL, env)
            env["rro"] = env["rrz"]
