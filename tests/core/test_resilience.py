"""Resilience layer: injection, detection, recovery, and degradation.

The acceptance bar: a run with an injected fault must *complete*, report
the injection/detection/recovery, and produce the same physics as the
fault-free run — for multiple programming-model ports.
"""

import dataclasses

import numpy as np
import pytest

from repro.core import fields as F
from repro.core.deck import default_deck
from repro.core.driver import TeaLeaf
from repro.models.plan import KernelCall
from repro.resilience import (
    FaultPlan,
    FaultSpec,
    ResidualMonitor,
    ResilienceConfig,
    ResilienceManager,
    parse_injections,
)
from repro.util.errors import (
    ConvergenceError,
    CorruptionError,
    DivergenceError,
    SolverError,
)


def run_deck(deck, model="openmp-f90"):
    return TeaLeaf(deck, model=model).run()


def resilient_deck(spec: str, **kwargs):
    defaults = dict(n=32, solver="cg", end_step=2, eps=1e-10)
    defaults.update(kwargs)
    return dataclasses.replace(default_deck(**defaults), tl_inject=spec)


# --------------------------------------------------------------------- #
# fault-spec parsing
# --------------------------------------------------------------------- #
class TestFaultSpecs:
    def test_parse_roundtrip(self):
        spec = FaultSpec.parse("nan:u:5")
        assert (spec.kind, spec.target, spec.at) == ("nan", "u", 5)
        assert spec.render() == "nan:u:5"

    def test_parse_injections_comma_list(self):
        specs = parse_injections("nan:u:5, bitflip:p:12")
        assert [s.render() for s in specs] == ["nan:u:5", "bitflip:p:12"]

    @pytest.mark.parametrize(
        "bad",
        [
            "nan:u",  # missing count
            "frazzle:u:5",  # unknown kind
            "nan:notafield:5",  # unknown field
            "nan:u:0",  # count must be >= 1
            "eigen:u:1",  # eigen target must be min/max
            "raise:cg_calc_w:x",  # non-integer count
        ],
    )
    def test_bad_specs_rejected(self, bad):
        with pytest.raises(ValueError):
            FaultSpec.parse(bad)

    def test_plan_is_deterministic_per_seed(self):
        a = FaultPlan(parse_injections("nan:u:1"), seed=7)
        b = FaultPlan(parse_injections("nan:u:1"), seed=7)
        arr_a, arr_b = np.zeros((12, 12)), np.zeros((12, 12))
        a.apply_field_fault(0, arr_a, 2)
        b.apply_field_fault(0, arr_b, 2)
        assert np.argwhere(np.isnan(arr_a)).tolist() == (
            np.argwhere(np.isnan(arr_b)).tolist()
        )

    def test_plan_fires_each_spec_once(self):
        plan = FaultPlan(parse_injections("nan:u:1"))
        arr = np.zeros((12, 12))
        plan.apply_field_fault(0, arr, 2)
        assert plan.fired_count == 1
        assert plan.field_faults_due(99) == []  # consumed


# --------------------------------------------------------------------- #
# detectors
# --------------------------------------------------------------------- #
class TestResidualMonitor:
    def test_healthy_decay_never_trips(self):
        monitor = ResidualMonitor(window=4, growth_factor=1e3)
        rrn = 1.0
        for _ in range(200):
            monitor.observe(rrn)
            rrn *= 0.9
        assert monitor.streak == 0

    def test_sustained_growth_trips_within_window(self):
        monitor = ResidualMonitor(window=4, growth_factor=1e3)
        monitor.observe(1.0)
        with pytest.raises(DivergenceError) as excinfo:
            for rrn in (1e4, 1e5, 1e6, 1e7, 1e8):
                monitor.observe(rrn)
        assert excinfo.value.observations == 4

    def test_overflow_trips_immediately(self):
        monitor = ResidualMonitor()
        with pytest.raises(DivergenceError):
            monitor.observe(1e260)


# --------------------------------------------------------------------- #
# solver hardening (always-on guards)
# --------------------------------------------------------------------- #
class TestSolverHardening:
    @pytest.mark.parametrize("solver", ["cg", "chebyshev", "ppcg"])
    def test_exhausted_budget_raises_convergence_error(self, solver):
        deck = default_deck(n=48, solver=solver, end_step=1, eps=1e-12)
        deck = dataclasses.replace(deck, tl_max_iters=3, tl_cg_eigen_steps=2)
        with pytest.raises(ConvergenceError) as excinfo:
            run_deck(deck)
        assert excinfo.value.iterations >= 1

    def test_preconditioned_cg_breakdown_raises(self):
        """pw == 0 with a residual above tolerance is breakdown, not
        convergence (regression test for the silent-success bug)."""
        from repro.core.solvers.base import SolveResult
        from repro.core.solvers.cg import CGSolver

        deck = default_deck(n=8, solver="cg", end_step=1)
        deck = dataclasses.replace(deck, tl_preconditioner_type="jac_diag")
        app = TeaLeaf(deck, model="openmp-f90")
        app.port.dispatch(KernelCall("set_field"))
        app.port.dispatch(
            KernelCall("tea_leaf_init", (deck.initial_timestep, deck.tl_coefficient))
        )
        app.port.update_halo((F.U,), depth=app.grid.halo)
        rr0 = app.port.dispatch(KernelCall("cg_init"))
        # Zero the residual by hand: z = M^-1 r and p both become zero, so
        # p.Ap == 0 while the recorded squared residual rr0 stays above
        # tolerance — exactly the broken-down-basis case.
        app.port.write_field(F.R, np.zeros(app.grid.shape))
        result = SolveResult(
            solver="cg", converged=False, iterations=0,
            inner_iterations=0, error=rr0, initial_residual=rr0,
        )
        with pytest.raises(SolverError, match="breakdown"):
            CGSolver._preconditioned_iterations(app.executor, deck, rr0, result)

    def test_non_finite_scalar_raises_corruption_error(self):
        deck = default_deck(n=16, solver="cg", end_step=1)
        app = TeaLeaf(deck, model="openmp-f90")
        app.port.dispatch(KernelCall("set_field"))
        app.port.dispatch(
            KernelCall("tea_leaf_init", (deck.initial_timestep, deck.tl_coefficient))
        )
        app.port.update_halo((F.U,), depth=app.grid.halo)
        u = app.port.read_field(F.U)
        u[5, 5] = np.nan
        app.port.write_field(F.U, u)
        with pytest.raises(CorruptionError):
            app.solver.solve(app.executor, deck)


# --------------------------------------------------------------------- #
# end-to-end injection + recovery
# --------------------------------------------------------------------- #
class TestRecovery:
    @pytest.mark.parametrize("model", ["kokkos", "cuda", "openmp-f90"])
    def test_nan_injection_recovers_exactly(self, model):
        clean = run_deck(default_deck(n=32, end_step=2, eps=1e-10), model)
        faulty = run_deck(resilient_deck("nan:u:5"), model)
        rep = faulty.resilience
        assert rep.injections == 1
        assert rep.detections >= 1
        assert rep.recoveries >= 1
        assert faulty.final_summary.temperature == pytest.approx(
            clean.final_summary.temperature, rel=1e-12
        )

    def test_detection_within_checkpoint_interval(self):
        deck = resilient_deck("nan:u:5")
        result = run_deck(deck)
        detect = next(
            e for e in result.resilience.events if e.kind == "detect"
        )
        inject = next(
            e for e in result.resilience.events if e.kind == "inject"
        )
        assert (
            detect.iteration - inject.iteration
            <= deck.tl_checkpoint_frequency
        )

    def test_bitflip_injection_recovers(self):
        clean = run_deck(default_deck(n=32, end_step=2, eps=1e-10))
        faulty = run_deck(resilient_deck("bitflip:p:7"))
        assert faulty.resilience.injections == 1
        assert faulty.final_summary.temperature == pytest.approx(
            clean.final_summary.temperature, rel=1e-10
        )

    def test_kernel_raise_recovers(self):
        clean = run_deck(default_deck(n=32, end_step=2, eps=1e-10))
        faulty = run_deck(resilient_deck("raise:cg_calc_w:7"))
        rep = faulty.resilience
        assert rep.injections == 1 and rep.rollbacks >= 1
        assert faulty.final_summary.temperature == pytest.approx(
            clean.final_summary.temperature, rel=1e-12
        )

    def test_eigen_corruption_degrades_chebyshev_to_cg(self):
        kwargs = dict(n=64, end_step=2, eps=1e-10)
        clean_cg = run_deck(default_deck(solver="cg", **kwargs))
        faulty = run_deck(
            resilient_deck("eigen:max:1", solver="chebyshev", **kwargs)
        )
        rep = faulty.resilience
        assert rep.injections == 1
        assert rep.degradations == 1
        assert any(
            "degraded to cg" in e.detail
            for e in rep.events
            if e.kind == "degrade"
        )
        assert faulty.final_summary.temperature == pytest.approx(
            clean_cg.final_summary.temperature, rel=1e-10
        )

    def test_events_are_deterministic_for_a_seed(self):
        deck = resilient_deck("nan:u:5,bitflip:p:12")
        a = run_deck(deck)
        b = run_deck(deck)
        assert a.resilience.events == b.resilience.events
        seeded = dataclasses.replace(deck, tl_fault_seed=99)
        c = run_deck(seeded)
        assert c.resilience.events != a.resilience.events

    def test_retry_budget_exhaustion_reraises(self):
        # An unconverging solve is rolled back and retried identically,
        # so the budget runs out and the last error surfaces.
        deck = dataclasses.replace(
            default_deck(n=48, solver="cg", end_step=1, eps=1e-12),
            tl_max_iters=3,
            tl_resilient=True,
            tl_max_retries=1,
        )
        with pytest.raises(ConvergenceError):
            run_deck(deck)

    def test_report_summary_line_is_grepable(self):
        result = run_deck(resilient_deck("nan:u:5"))
        line = result.resilience.summary()
        assert line.startswith("resilience: injections=1 ")
        assert "recoveries=1" in line


# --------------------------------------------------------------------- #
# zero overhead when disabled
# --------------------------------------------------------------------- #
class TestDisabledPath:
    def test_disabled_run_has_no_resilience_state(self):
        app = TeaLeaf(default_deck(n=16, end_step=1), model="openmp-f90")
        assert app.resilience is None
        result = app.run()
        assert result.resilience is None
        assert not any("resilience" in t for t in result.trace.tags())

    def test_enabled_but_faultless_run_is_clean(self):
        deck = dataclasses.replace(
            default_deck(n=32, end_step=2, eps=1e-10), tl_resilient=True
        )
        clean = run_deck(default_deck(n=32, end_step=2, eps=1e-10))
        result = run_deck(deck)
        rep = result.resilience
        assert rep.injections == 0
        assert rep.recoveries == 0
        assert rep.checkpoints_taken > 0
        assert result.final_summary.temperature == pytest.approx(
            clean.final_summary.temperature, rel=1e-13
        )


# --------------------------------------------------------------------- #
# deck plumbing
# --------------------------------------------------------------------- #
class TestDeckResilienceOptions:
    def test_config_from_deck(self):
        deck = dataclasses.replace(
            default_deck(),
            tl_inject="nan:u:5",
            tl_fault_seed=7,
            tl_checkpoint_frequency=5,
            tl_max_retries=2,
            tl_divergence_window=3,
            tl_abft_tolerance=1e-5,
        )
        config = ResilienceConfig.from_deck(deck)
        assert config.seed == 7
        assert config.checkpoint_frequency == 5
        assert config.max_retries == 2
        assert config.divergence_window == 3
        assert config.abft_tolerance == 1e-5
        assert [s.render() for s in config.injections] == ["nan:u:5"]

    def test_deck_text_roundtrip(self):
        from repro.core.deck import parse_deck

        deck = parse_deck(
            """
            *tea
            state 1 density=100.0 energy=0.0001
            x_cells=16
            y_cells=16
            tl_resilient
            tl_inject nan:u:5
            tl_fault_seed 42
            tl_checkpoint_frequency 4
            *endtea
            """
        )
        assert deck.tl_resilient is True
        assert deck.tl_inject == "nan:u:5"
        assert deck.tl_fault_seed == 42
        assert deck.tl_checkpoint_frequency == 4

    def test_rank_policy_options_roundtrip(self):
        from repro.core.deck import parse_deck

        deck = parse_deck(
            """
            *tea
            state 1 density=100.0 energy=0.0001
            x_cells=16
            y_cells=16
            tl_rank_policy spare
            tl_spare_ranks 2
            tl_heartbeat_interval 5
            *endtea
            """
        )
        assert deck.tl_rank_policy == "spare"
        assert deck.tl_spare_ranks == 2
        assert deck.tl_heartbeat_interval == 5
        assert ResilienceConfig.from_deck(deck).heartbeat_interval == 5


# --------------------------------------------------------------------- #
# retry backoff schedule
# --------------------------------------------------------------------- #
class TestRetryBackoff:
    def test_schedule_is_exponential_from_the_base(self):
        manager = ResilienceManager(
            ResilienceConfig(backoff_base_seconds=0.002), sleep=lambda s: None
        )
        assert [manager.backoff_seconds(a) for a in (1, 2, 3, 4)] == [
            0.002,
            0.004,
            0.008,
            0.016,
        ]

    def test_retry_backoff_sleeps_the_computed_schedule(self):
        slept = []
        manager = ResilienceManager(
            ResilienceConfig(backoff_base_seconds=0.25), sleep=slept.append
        )
        for attempt in (1, 2, 3):
            manager.retry_backoff(attempt)
        assert slept == [0.25, 0.5, 1.0]
        retries = [e for e in manager.report.events if e.kind == "retry"]
        assert [e.backoff_seconds for e in retries] == [0.25, 0.5, 1.0]
