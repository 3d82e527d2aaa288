"""Per-solver trace structure: the mechanisms behind the paper's findings.

The paper's per-solver penalties have mechanical explanations in the event
stream — CG launches more kernels and makes more reductions per iteration
than Chebyshev, which is why the offload and manual-reduction models pay
the most on CG.  These tests pin those mechanisms down quantitatively.
"""

import dataclasses
import hashlib
from pathlib import Path

import pytest

from repro.core import fields as F
from repro.core.deck import default_deck, parse_deck_file
from repro.core.driver import TeaLeaf
from repro.harness.goldentrace import event_lines, trace_signature
from repro.models.tracing import EventKind

BENCH_DECK = Path(__file__).resolve().parents[2] / "decks" / "tea_bm_short.in"


def trace_for(model: str, solver: str, n: int = 48):
    deck = default_deck(n=n, solver=solver, end_step=1, eps=1e-9)
    run = TeaLeaf(deck, model=model).run()
    solve = run.steps[0].solve
    return run, solve


def per_iteration(count: int, iterations: int) -> float:
    return count / max(iterations, 1)


class TestKernelEconomy:
    def test_chebyshev_launches_fewest_kernels_per_iteration(self):
        """§4: Chebyshev's iteration is a single stencil sweep — the
        reason it maps best onto launch-expensive models."""
        rates = {}
        for solver in ("cg", "chebyshev"):
            run, solve = trace_for("openmp-f90", solver)
            rates[solver] = per_iteration(
                run.trace.kernel_launches("solve"), solve.iterations
            )
        assert rates["chebyshev"] < rates["cg"]

    def test_cg_reduces_twice_per_iteration(self):
        run, solve = trace_for("openmp-f90", "cg")
        reductions = sum(
            1
            for e in run.trace.filtered("solve", EventKind.KERNEL)
            if e.has_reduction
        )
        # cg_init once + (pw, rrn) per iteration
        assert reductions == 1 + 2 * solve.iterations

    def test_chebyshev_iterations_nearly_reduction_free(self):
        """Chebyshev only reduces at its convergence checkpoints."""
        run, solve = trace_for("openmp-f90", "chebyshev")
        cheby_iters = solve.iterations - len(solve.cg_alphas)
        norm_checks = run.trace.kernel_histogram("solve")["norm2"]
        assert norm_checks <= cheby_iters / 5  # every 10th, plus the final


class TestOffloadRegionEconomy:
    def test_openmp4_regions_track_kernel_launches(self):
        """Every device kernel inside the data region enters one target
        region; set_field runs host-side before the region opens, hence
        exactly one fewer region than kernels in the solve section."""
        run, _ = trace_for("openmp4", "cg")
        assert (
            run.trace.region_entries("solve")
            == run.trace.kernel_launches("solve") - 1
        )

    def test_cg_opens_more_regions_per_iteration_than_chebyshev(self):
        """The mechanism behind Figure 10's +45% CG vs ~10% Chebyshev for
        OpenMP 4.0 offload: the *marginal* target regions per extra
        iteration (measured by tightening the tolerance, which removes the
        constant bootstrap/setup contributions) are about twice as many
        for CG as for Chebyshev."""
        marginal = {}
        for solver in ("cg", "chebyshev"):
            runs = {}
            for eps in (1e-6, 1e-11):
                deck = default_deck(n=48, solver=solver, end_step=1, eps=eps)
                run = TeaLeaf(deck, model="openmp4").run()
                runs[eps] = (
                    run.trace.region_entries("solve"),
                    run.steps[0].solve.iterations,
                )
            d_regions = runs[1e-11][0] - runs[1e-6][0]
            d_iters = runs[1e-11][1] - runs[1e-6][1]
            assert d_iters > 0, solver
            marginal[solver] = d_regions / d_iters
        # CG: halo + calc_w + calc_ur + calc_p ~ 4; Chebyshev: halo +
        # iterate (+ occasional norm check) ~ 2.
        assert marginal["cg"] > 1.6 * marginal["chebyshev"]


class TestManualReductionTraffic:
    def test_cuda_partials_per_reduction(self):
        run, solve = trace_for("cuda", "cg")
        passes = len(run.trace.filtered("solve", EventKind.REDUCTION_PASS))
        reductions = sum(
            1
            for e in run.trace.filtered("solve", EventKind.KERNEL)
            if e.has_reduction
        )
        assert passes == reductions

    def test_host_models_have_no_partials_traffic(self):
        run, _ = trace_for("openmp-f90", "cg")
        assert len(run.trace.filtered(None, EventKind.REDUCTION_PASS)) == 0
        assert run.trace.transfer_bytes() == 0


class TestDataResidency:
    def test_offload_transfers_bounded_by_map_set(self):
        """OpenMP 4.0 moves exactly the mapped arrays per step: 3 in, 2
        out — everything else stays resident for the whole solve (§3.1)."""
        deck = default_deck(n=32, solver="cg", end_step=2, eps=1e-9)
        run = TeaLeaf(deck, model="openmp4").run()
        array_bytes = (32 + 4) * (32 + 4) * 8
        expected = deck.end_step * (3 + 2) * array_bytes
        assert run.trace.transfer_bytes() == expected

    def test_resident_models_transfer_only_initial_state(self):
        deck = default_deck(n=32, solver="cg", end_step=2, eps=1e-9)
        run = TeaLeaf(deck, model="kokkos").run()
        array_bytes = (32 + 4) * (32 + 4) * 8
        assert run.trace.transfer_bytes() == 2 * array_bytes  # density, energy0


class TestJacobiTrace:
    """The Jacobi sweep's old-iterate stash is a plan step of its own.

    The benchmark deck with the Jacobi solver, interpreted and codegen,
    on a host and an offload port: the counters and event-stream hashes
    below were recorded while the stash was still hidden inside the
    ``jacobi_iterate`` kernel method, so they pin that moving it into
    the plan left every launch, transfer and bit where it was.
    """

    #: (model, codegen) -> (events, transfers, event_stream_sha256)
    PINNED = {
        ("openmp-f90", False): (
            4462, 0,
            "848780dae6561ec14a8fd28da267b084e56dfa3922dc4c20c099c2a8915781fe",
        ),
        ("openmp-f90", True): (
            4462, 0,
            "848780dae6561ec14a8fd28da267b084e56dfa3922dc4c20c099c2a8915781fe",
        ),
        ("cuda", False): (
            7440, 1490,
            "8b64b55bce7020ed67e690f8980811e4a17df910ba6e29d6888dd30f481a8ee8",
        ),
        ("cuda", True): (
            4472, 6,
            "0cde5794c027a927e96f3f79c9819d8272c56bff676a4c883777847ccfe0c064",
        ),
    }

    @pytest.mark.parametrize("model, codegen", sorted(PINNED))
    def test_launch_sequence_and_solution_pinned(self, model, codegen):
        deck = dataclasses.replace(
            parse_deck_file(BENCH_DECK), solver="jacobi", tl_codegen=codegen
        )
        app = TeaLeaf(deck, model=model)
        result = app.run()
        sig = trace_signature(result.trace)
        u_sha = hashlib.sha256(app.field(F.U).tobytes()).hexdigest()[:16]
        assert u_sha == "9dea67898bb4a80b"
        assert result.total_iterations == 1476
        assert sig["kernel_launches"] == 4462
        assert sig["kernel_histogram"]["copy_field"] == 1476
        assert sig["kernel_histogram"]["jacobi_iterate"] == 1476
        events, transfers, stream = self.PINNED[(model, codegen)]
        assert (sig["events"], sig["transfers"]) == (events, transfers)
        assert sig["event_stream_sha256"] == stream
        # Every sweep launch directly follows its stash copy.
        kernels = [
            line for line in event_lines(result.trace) if line.startswith("kernel:")
        ]
        for i, line in enumerate(kernels):
            if line == "kernel:jacobi_iterate":
                assert kernels[i - 1] == "kernel:copy_field"
