"""Microbenchmarks of the reproduction's own kernels.

These time the *emulation layer itself* (pure-Python/NumPy wall time), not
the simulated devices — useful for keeping the reproduction fast enough to
measure iteration counts on real meshes.  One benchmark per programming
model's hottest kernel (the CG matvec) plus end-to-end solves.
"""

import pytest

from repro.core import fields as F
from repro.core.deck import default_deck
from repro.core.driver import TeaLeaf
from repro.core.state import generate_chunk
from repro.models.base import available_models, make_port
from repro.models.plan import KernelCall

MODELS = available_models()


def prepared_port(model: str, n: int = 96):
    deck = default_deck(n=n)
    grid = deck.grid()
    density, energy = generate_chunk(list(deck.states), grid)
    port = make_port(model, grid)
    port.set_state(density, energy)
    port.dispatch(KernelCall("set_field"))
    port.begin_solve()
    port.dispatch(
        KernelCall("tea_leaf_init", (deck.initial_timestep, deck.tl_coefficient))
    )
    port.dispatch(KernelCall("cg_init"))
    return port


@pytest.mark.parametrize("model", MODELS)
def test_cg_matvec_kernel(benchmark, model):
    """w = A p + reduce: the bandwidth-critical kernel of every port."""
    port = prepared_port(model)
    pw = benchmark(port.dispatch, KernelCall("cg_calc_w"))
    assert pw > 0.0


@pytest.mark.parametrize("model", ["openmp-f90", "kokkos", "cuda"])
def test_cheby_iterate_kernel(benchmark, model):
    """One Chebyshev sweep pair.  Bounded rounds: repeated sweeps with a
    fixed (alpha, beta) are numerically divergent by design, so correctness
    is asserted in the test-suite, not here."""
    port = prepared_port(model)
    port.dispatch(KernelCall("cheby_init", (2.0,)))
    sweep = KernelCall("cheby_iterate", (0.1, 0.2))
    benchmark.pedantic(port.dispatch, args=(sweep,), rounds=10, iterations=1)
    assert port.trace.kernel_launches() > 0


@pytest.mark.parametrize("solver", ["cg", "chebyshev", "ppcg"])
def test_full_solve_reference_port(benchmark, solver):
    """End-to-end solve wall time of the reference port (n=48)."""
    deck = default_deck(n=48, solver=solver, end_step=1, eps=1e-8)

    def run():
        return TeaLeaf(deck, model="openmp-f90").run()

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    assert result.steps[0].solve.converged
    benchmark.extra_info["iterations"] = result.total_iterations
