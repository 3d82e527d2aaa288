"""Solver base class, result record, and the shared CG iteration engine.

All solvers share one convergence criterion (relative residual 2-norm) and,
for Chebyshev/PPCG, the same CG-based Lanczos eigenvalue estimation phase —
mirroring the reference TeaLeaf where the Chebyshev family bootstraps from
CG iterations.

The kernel sequences themselves are expressed as :class:`~repro.models.plan.Plan`
fragments (module constants below and in the solver modules) replayed
through the run's :class:`~repro.models.plan.PlanExecutor`, which the
driver hands to :meth:`Solver.solve`.  Control flow that needs a host decision
— breakdown tests, convergence checks — stays in Python between fragments,
so the fragments split exactly at the reduction scalars those decisions
consume.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Mapping

from repro.core import fields as F
from repro.core.deck import Deck
from repro.models.plan import (
    Bind,
    HaloStep,
    KernelCall,
    Plan,
    PlanExecutor,
    ScalarStep,
)
from repro.util.errors import ConvergenceError, SolverError


@dataclass
class SolveResult:
    """Outcome of one implicit solve (one timestep)."""

    solver: str
    converged: bool
    #: Outer iterations performed (CG iterations, Chebyshev iterations...).
    iterations: int
    #: Total inner/preconditioner iterations (PPCG inner Chebyshev steps).
    inner_iterations: int
    #: Final squared residual 2-norm.
    error: float
    #: Squared residual 2-norm at solve start.
    initial_residual: float
    #: Eigenvalue bounds used (Chebyshev/PPCG only).
    eigen_min: float | None = None
    eigen_max: float | None = None
    #: CG step scalars, recorded when the solver runs a CG phase.
    cg_alphas: list[float] = field(default_factory=list)
    cg_betas: list[float] = field(default_factory=list)
    #: (iteration, squared residual norm) samples: every iteration for the
    #: CG family, every checkpoint for Chebyshev.
    history: list[tuple[int, float]] = field(default_factory=list)

    @property
    def relative_residual(self) -> float:
        """sqrt(error / initial_residual); 0 when the start was converged."""
        if self.initial_residual == 0.0:
            return 0.0
        return math.sqrt(self.error / self.initial_residual)


# --------------------------------------------------------------------- #
# shared plan fragments
# --------------------------------------------------------------------- #
def cg_alpha(env: Mapping[str, float]) -> float:
    """alpha = rro / pw (the CG step length)."""
    return env["rro"] / env["pw"]


def cg_beta(env: Mapping[str, float]) -> float:
    """beta = rrn / rro (the plain-CG direction update scalar)."""
    return env["rrn"] / env["rro"]


#: rro = r.r after building w, r, p from the current u.
SOLVE_INIT = Plan("solve_init", (KernelCall("cg_init", out="rro", finite=True),))

#: One CG iteration, split at its two host decision points: the breakdown
#: test needs pw before alpha may be formed, and the convergence test sits
#: between beta and the direction update.  The halo of the search
#: direction is refreshed before every matvec, as the reference app does
#: under MPI.
CG_ITER_HEAD = Plan(
    "cg_iter_head",
    (
        HaloStep((F.P,), depth=1),
        KernelCall("cg_calc_w", out="pw", finite=True),
    ),
)
CG_ITER_BODY = Plan(
    "cg_iter_body",
    (
        ScalarStep("alpha", cg_alpha, finite=True),
        KernelCall("cg_calc_ur", (Bind("alpha"),), out="rrn", finite=True),
        ScalarStep("beta", cg_beta, finite=True),
    ),
)
CG_ITER_TAIL = Plan("cg_iter_tail", (KernelCall("cg_calc_p", (Bind("beta"),)),))


class Solver(ABC):
    """One TeaLeaf solver algorithm, driven through a plan executor."""

    name: str = "?"

    #: Optional seam applied to Chebyshev/PPCG eigenvalue estimates.  The
    #: resilience layer uses it to inject eigenvalue corruption; it is
    #: None (and costs one attribute check) in normal runs.
    eigen_filter = None

    @abstractmethod
    def solve(self, ex: PlanExecutor, deck: Deck) -> SolveResult:
        """Advance ``u`` on ``ex.port`` to the implicit solution of A u = u0."""

    # ------------------------------------------------------------------ #
    # shared machinery
    # ------------------------------------------------------------------ #
    @staticmethod
    def _converged(rrn: float, rr0: float, eps: float) -> bool:
        """Relative residual test: ||r|| <= eps * ||r0||.

        An absolute floor of eps^2 guards the rr0 == 0 case (solving an
        already-converged field).
        """
        if rr0 == 0.0:
            return True
        return rrn <= eps * eps * rr0

    @staticmethod
    def cg_iterations(
        ex: PlanExecutor,
        deck: Deck,
        max_iters: int,
        rro: float,
        rr0: float,
        result: SolveResult,
    ) -> float:
        """Run up to ``max_iters`` CG iterations; returns the final rro.

        Replays the shared CG plan fragments and records alphas/betas into
        ``result`` (consumed by the Lanczos eigenvalue estimate), updating
        ``result.iterations`` / ``.error`` / ``.converged`` in place.
        """
        env = {"rro": rro}
        for _ in range(max_iters):
            ex.run(CG_ITER_HEAD, env)
            if env["pw"] == 0.0:
                # p.Ap = 0 with an SPD matrix means p = 0, which is only
                # legitimate when the residual is already at tolerance;
                # otherwise the Krylov process has broken down and
                # reporting "converged" would silently return garbage.
                if Solver._converged(rro, rr0, deck.tl_eps):
                    result.converged = True
                    break
                raise SolverError(
                    f"CG breakdown: p.Ap = 0 with squared residual "
                    f"{rro:.3e} still above tolerance"
                )
            ex.run(CG_ITER_BODY, env)
            rrn = env["rrn"]
            result.cg_alphas.append(env["alpha"])
            result.cg_betas.append(env["beta"])
            result.iterations += 1
            result.error = rrn
            result.history.append((result.iterations, rrn))
            if Solver._converged(rrn, rr0, deck.tl_eps):
                result.converged = True
                rro = rrn
                break
            ex.run(CG_ITER_TAIL, env)
            rro = rrn
            env["rro"] = rro
        return rro

    @staticmethod
    def require_convergence(result: SolveResult, deck: Deck) -> SolveResult:
        """Raise :class:`ConvergenceError` when the budget was exhausted."""
        if not result.converged:
            raise ConvergenceError(
                f"{result.solver} failed to converge in {result.iterations} "
                f"iterations (relative residual {result.relative_residual:.3e}, "
                f"eps {deck.tl_eps:.1e})",
                iterations=result.iterations,
                residual=math.sqrt(result.error),
            )
        return result
