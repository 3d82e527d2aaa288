"""Decomposed (MPI+X) runs match single-chunk runs exactly."""

import numpy as np
import pytest

from repro.comm.multichunk import MultiChunkPort
from repro.core import fields as F
from repro.core.deck import default_deck
from repro.core.driver import TeaLeaf
from repro.core.state import generate_chunk
from repro.models.base import make_port
from repro.models.plan import OPS, KernelCall
from repro.util.errors import ModelError, RankFailureError


def run_pair(solver: str, nranks: int, model: str = "openmp-f90", n: int = 32):
    deck = default_deck(n=n, solver=solver, end_step=2, eps=1e-9)
    single = TeaLeaf(deck, model=model)
    single_result = single.run()
    port = MultiChunkPort(deck.grid(), nranks, model=model)
    multi = TeaLeaf(deck, port=port)
    multi_result = multi.run()
    return deck, single, single_result, multi, multi_result, port


class TestEquivalenceWithSingleChunk:
    @pytest.mark.parametrize("solver", ["cg", "chebyshev", "ppcg"])
    @pytest.mark.parametrize("nranks", [2, 4])
    def test_solution_fields_match(self, solver, nranks):
        deck, single, sres, multi, mres, _ = run_pair(solver, nranks)
        g = deck.grid()
        u_single = single.field(F.U)[g.inner()]
        u_multi = multi.field(F.U)[g.inner()]
        np.testing.assert_allclose(u_multi, u_single, rtol=1e-11, atol=1e-13)

    @pytest.mark.parametrize("nranks", [2, 3, 4, 6])
    def test_iteration_counts_match(self, nranks):
        _, _, sres, _, mres, _ = run_pair("cg", nranks)
        assert mres.total_iterations == sres.total_iterations

    def test_summaries_match(self):
        _, _, sres, _, mres, _ = run_pair("cg", 4)
        s, m = sres.final_summary, mres.final_summary
        assert m.temperature == pytest.approx(s.temperature, rel=1e-12)
        assert m.mass == pytest.approx(s.mass, rel=1e-12)
        assert m.volume == pytest.approx(s.volume, rel=1e-12)

    def test_works_with_offload_inner_model(self):
        """MPI+X composes with an offload port per rank (here CUDA)."""
        deck, single, _, multi, _, _ = run_pair("cg", 2, model="cuda", n=24)
        g = deck.grid()
        np.testing.assert_allclose(
            multi.field(F.U)[g.inner()],
            single.field(F.U)[g.inner()],
            rtol=1e-11,
        )

    def test_uneven_decomposition(self):
        """Mesh not divisible by the rank grid still reproduces exactly."""
        deck = default_deck(n=30, solver="cg", end_step=1, eps=1e-9)
        single = TeaLeaf(deck, model="openmp-f90")
        single.run()
        port = MultiChunkPort(deck.grid(), 4, model="openmp-f90")
        multi = TeaLeaf(deck, port=port)
        multi.run()
        g = deck.grid()
        np.testing.assert_allclose(
            multi.field(F.U)[g.inner()],
            single.field(F.U)[g.inner()],
            rtol=1e-11,
        )


class TestCommunicationBehaviour:
    def test_mailboxes_drain(self):
        _, _, _, _, _, port = run_pair("cg", 4)
        for r in range(port.world.size):
            assert port.world.pending(r) == 0

    def test_messages_scale_with_iterations(self):
        _, _, sres, _, _, port = run_pair("cg", 2)
        # one left-edge + one right-edge message pair per halo exchange;
        # at least one exchange (of p) per CG iteration
        assert port.world.messages_sent >= sres.total_iterations

    def test_allreduce_per_reduction(self):
        _, _, sres, _, _, port = run_pair("cg", 2)
        # cg_init + (calc_w + calc_ur) per iteration, plus summary terms
        assert port.world.allreduce_count >= 2 * sres.total_iterations

    def test_conservation_across_chunks(self):
        """The fixed-up internal-edge coefficients conserve total u."""
        deck = default_deck(n=24, solver="cg", end_step=3, eps=1e-11)
        port = MultiChunkPort(deck.grid(), 4)
        from dataclasses import replace

        app = TeaLeaf(replace(deck, summary_frequency=1), port=port)
        result = app.run()
        temps = [s.summary.temperature for s in result.steps]
        for t in temps[1:]:
            assert t == pytest.approx(temps[0], rel=1e-9)


#: Arguments for one dispatch of each op in the kernel table.
DISPATCH_ARGS = {
    "set_field": (),
    "tea_leaf_init": (0.009, "recip_conductivity"),
    "tea_leaf_residual": (),
    "cg_init": (),
    "cg_calc_w": (),
    "cg_calc_ur": (0.3,),
    "cg_calc_p": (0.7,),
    "cheby_init": (2.0,),
    "cheby_iterate": (0.4, 0.6),
    "ppcg_precon_init": (2.0,),
    "ppcg_precon_inner": (0.4, 0.6),
    "ppcg_calc_p": (0.7,),
    "cg_precon_jacobi": (),
    "jacobi_iterate": (),
    "norm2_field": (F.R,),
    "dot_fields": (F.R, F.P),
    "copy_field": (F.R, F.SD),
    "tea_leaf_finalise": (),
    "field_summary": (),
}


class TestDispatchCoversEveryOp:
    """One ``MultiChunkPort.dispatch`` serves the whole kernel table.

    Each op runs once on a 2x2 decomposed port and on a single port
    holding the same (randomised) fields: every interior field must come
    out bit for bit the same, and reductions must allreduce to the single
    port's scalar (the chunk partials are summed in a different order,
    so to rounding) — or to its 4-tuple for ``field_summary``.
    """

    DECK = default_deck(n=16, end_step=1)
    WORK = (F.U, F.U0, F.P, F.R, F.W, F.Z, F.SD, F.ENERGY1)

    def _prepared(self, port):
        grid = self.DECK.grid()
        density, energy = generate_chunk(list(self.DECK.states), grid)
        port.set_state(density, energy)
        port.dispatch(KernelCall("set_field"))
        port.dispatch(KernelCall("tea_leaf_init", (0.004, "conductivity")))
        rng = np.random.default_rng(7)
        for name in self.WORK:
            port.write_field(name, rng.uniform(0.5, 1.5, grid.shape))
        port.update_halo(self.WORK, depth=1)
        return port

    def test_table_is_covered(self):
        assert set(DISPATCH_ARGS) == set(OPS)

    @pytest.mark.parametrize("op", sorted(OPS))
    def test_op_matches_single_port(self, op):
        grid = self.DECK.grid()
        multi = self._prepared(MultiChunkPort(grid, 4, model="openmp-f90"))
        assert {(w.left is None, w.down is None) for w in multi.windows} == {
            (a, b) for a in (True, False) for b in (True, False)
        }
        single = self._prepared(make_port("openmp-f90", grid))
        call = KernelCall(op, DISPATCH_ARGS[op])
        got, want = multi.dispatch(call), single.dispatch(call)
        if OPS[op].reduction:
            assert got == pytest.approx(want, rel=1e-13, abs=0.0)
            if op == "field_summary":
                assert len(got) == 4
        else:
            assert got is None and want is None
        inner = grid.inner()
        for name in F.FIELD_ORDER:
            np.testing.assert_array_equal(
                multi.read_field(name)[inner],
                single.read_field(name)[inner],
                err_msg=f"{op}: field {name}",
            )

    def test_reduction_probes_ranks_before_any_chunk_kernel(self):
        grid = self.DECK.grid()
        port = self._prepared(MultiChunkPort(grid, 4, model="openmp-f90"))
        before = port.trace.kernel_launches()
        port.kill_rank(3)
        with pytest.raises(RankFailureError):
            port.dispatch(KernelCall("cg_init"))
        assert port.trace.kernel_launches() == before


class TestDecompositionProperty:
    """Hypothesis: decomposition is transparent for random configurations."""

    from hypothesis import HealthCheck, given, settings
    from hypothesis import strategies as st

    @given(
        n=st.integers(10, 40),
        nranks=st.integers(2, 6),
        seed=st.integers(0, 1000),
    )
    @settings(
        max_examples=12,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_random_problems_decompose_transparently(self, n, nranks, seed):
        from dataclasses import replace

        from repro.core.state import Geometry, State

        rng = np.random.default_rng(seed)
        # a random hot rectangle inside the domain
        x0, y0 = rng.uniform(0, 5, 2)
        states = (
            State(index=1, density=float(rng.uniform(1, 100)), energy=0.01),
            State(
                index=2,
                density=float(rng.uniform(0.1, 1.0)),
                energy=float(rng.uniform(5, 50)),
                geometry=Geometry.RECTANGLE,
                xmin=float(x0),
                xmax=float(x0 + rng.uniform(1, 4)),
                ymin=float(y0),
                ymax=float(y0 + rng.uniform(1, 4)),
            ),
        )
        deck = replace(
            default_deck(n=n, solver="cg", end_step=1, eps=1e-9), states=states
        )
        single = TeaLeaf(deck, model="openmp-f90")
        sres = single.run()
        port = MultiChunkPort(deck.grid(), nranks)
        multi = TeaLeaf(deck, port=port)
        mres = multi.run()
        g = deck.grid()
        assert mres.total_iterations == sres.total_iterations
        np.testing.assert_allclose(
            multi.field(F.U)[g.inner()],
            single.field(F.U)[g.inner()],
            rtol=1e-10,
            atol=1e-12,
        )


class TestHeterogeneousCompute:
    """§8 future work: different programming models on different ranks."""

    def test_mixed_models_match_single_chunk(self):
        deck = default_deck(n=32, solver="cg", end_step=2, eps=1e-9)
        single = TeaLeaf(deck, model="openmp-f90")
        single.run()
        port = MultiChunkPort(
            deck.grid(), 4, model=["cuda", "openmp-f90", "kokkos", "opencl"]
        )
        multi = TeaLeaf(deck, port=port)
        multi.run()
        g = deck.grid()
        np.testing.assert_allclose(
            multi.field(F.U)[g.inner()],
            single.field(F.U)[g.inner()],
            rtol=1e-11,
        )

    def test_heterogeneous_name(self):
        port = MultiChunkPort(
            default_deck(n=16).grid(), 2, model=["cuda", "raja"]
        )
        assert port.model_name == "heterogeneous(cuda,raja)"
        assert port.models == ["cuda", "raja"]

    def test_uniform_list_keeps_plain_name(self):
        port = MultiChunkPort(
            default_deck(n=16).grid(), 2, model=["kokkos", "kokkos"]
        )
        assert port.model_name == "kokkos+mpi(2)"

    def test_model_list_arity_checked(self):
        with pytest.raises(ModelError, match="2 models given for 4 ranks"):
            MultiChunkPort(default_deck(n=16).grid(), 4, model=["cuda", "raja"])


class TestGuards:
    def test_device_array_not_exposed(self):
        port = MultiChunkPort(default_deck(n=16).grid(), 2)
        with pytest.raises(ModelError, match="no single device array"):
            port._device_array(F.U)

    def test_state_shape_validated(self):
        port = MultiChunkPort(default_deck(n=16).grid(), 2)
        with pytest.raises(ModelError, match="shape"):
            port.set_state(np.zeros((3, 3)), np.zeros((3, 3)))
