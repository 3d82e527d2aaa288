"""Bitwise equivalence and caching of the codegen backend (``--codegen``).

The compiled hot path replaces every kernel body with one generated NumPy
function, so its whole contract is: *same bits, less time*.  These tests
pin the bits half on every registered port — codegen alone, codegen
under every solver, and codegen composed with fusion, residency,
resilience and fault injection — and pin the function cache (same plan
shape generates source exactly once, shared across ports).
"""

import dataclasses
from pathlib import Path

import numpy as np
import pytest

from repro.core import fields as F
from repro.core.deck import default_deck, parse_deck_file
from repro.core.driver import TeaLeaf
from repro.models import codegen
from repro.models.base import available_models, make_port
from repro.models.plan import CompiledKernel, PlanExecutor

DECK = Path(__file__).resolve().parents[2] / "decks" / "tea_bm_short.in"
REFERENCE_MODEL = "openmp-f90"


def _deck(**overrides):
    deck = parse_deck_file(str(DECK))
    return dataclasses.replace(
        deck, tl_preconditioner_type="jac_diag", **overrides
    )


def _capture(app, result):
    grid = app.grid
    return {
        "u": app.field(F.U)[grid.inner()].copy(),
        "per_step": result.iterations_per_step(),
        "summary": result.steps[-1].summary,
    }


@pytest.fixture(scope="module")
def codegen_runs():
    """Reference: interpreted run.  Candidates: ``--codegen`` everywhere."""
    ref_app = TeaLeaf(_deck(), model=REFERENCE_MODEL)
    reference = _capture(ref_app, ref_app.run())

    runs = {}
    compiled = _deck(tl_codegen=True)
    for model in available_models():
        app = TeaLeaf(compiled, model=model)
        runs[model] = _capture(app, app.run())
    return reference, runs


class TestCodegenEquivalence:
    def test_u_bitwise_identical_to_interpreted(self, codegen_runs):
        reference, runs = codegen_runs
        for model, run in runs.items():
            np.testing.assert_array_equal(run["u"], reference["u"], err_msg=model)

    def test_iteration_trajectories_identical(self, codegen_runs):
        reference, runs = codegen_runs
        for model, run in runs.items():
            assert run["per_step"] == reference["per_step"], model

    def test_summaries_bit_identical(self, codegen_runs):
        reference, runs = codegen_runs
        for model, run in runs.items():
            assert run["summary"] == reference["summary"], model


@pytest.mark.parametrize("solver", ["cg", "chebyshev", "ppcg", "jacobi"])
def test_every_solver_plan_bitwise_under_codegen(solver):
    """Each solver's full plan set lowers and reproduces interpreted bits."""
    deck = default_deck(n=48, solver=solver, end_step=2)
    runs = {}
    for flag in (False, True):
        d = dataclasses.replace(deck, tl_codegen=flag)
        app = TeaLeaf(d, model=REFERENCE_MODEL)
        runs[flag] = _capture(app, app.run())
    np.testing.assert_array_equal(runs[True]["u"], runs[False]["u"])
    assert runs[True]["per_step"] == runs[False]["per_step"]
    assert runs[True]["summary"] == runs[False]["summary"]


def test_codegen_combined_with_all_flags_bitwise():
    """codegen + fuse + residency + resilient + inject == plain resilient.

    The lowered plan keeps fault triggers and guard steps interpreted at
    group boundaries, so deterministic injection and recovery replay the
    exact interpreted trajectory.
    """
    base = _deck(tl_resilient=True, tl_inject="nan:u:5")
    ref_app = TeaLeaf(base, model=REFERENCE_MODEL)
    reference = _capture(ref_app, ref_app.run())

    combined = dataclasses.replace(
        base,
        tl_codegen=True,
        tl_fuse_kernels=True,
        tl_residency_tracking=True,
    )
    for model in available_models():
        app = TeaLeaf(combined, model=model)
        result = app.run()
        run = _capture(app, result)
        assert result.resilience.injections == 1, model
        np.testing.assert_array_equal(run["u"], reference["u"], err_msg=model)
        assert run["per_step"] == reference["per_step"], model
        assert run["summary"] == reference["summary"], model


def test_decomposed_port_falls_back_to_interpreted():
    """Rank-decomposed runs refuse codegen but still match bitwise."""
    from repro.comm.multichunk import MultiChunkPort

    deck = default_deck(n=32, solver="cg", end_step=1)
    out = {}
    for flag in (False, True):
        d = dataclasses.replace(deck, tl_codegen=flag)
        port = MultiChunkPort(d.grid(), nranks=4, model=REFERENCE_MODEL)
        app = TeaLeaf(d, port=port)
        if flag:
            assert app.executor.codegen is False
        out[flag] = _capture(app, app.run())
    np.testing.assert_array_equal(out[True]["u"], out[False]["u"])
    assert out[True]["summary"] == out[False]["summary"]


class TestCodegenCache:
    def test_same_plan_generates_once(self):
        """Recompiling an identical plan is a pure cache hit."""
        from repro.core.solvers.base import CG_ITER_BODY, CG_ITER_HEAD, SOLVE_INIT

        codegen.clear_cache()
        plans = [SOLVE_INIT, CG_ITER_HEAD, CG_ITER_BODY]
        for p in plans:
            p._compiled.clear()
            p.compiled(fuse=False, codegen=True)
        first = dict(codegen.CACHE_STATS)
        assert first["misses"] > 0 and first["hits"] == 0

        # Fresh Plan objects with the same steps: source is re-keyed, not
        # re-generated.
        import dataclasses as dc

        for p in plans:
            clone = dc.replace(p, _compiled={})
            clone.compiled(fuse=False, codegen=True)
        after = dict(codegen.CACHE_STATS)
        assert after["misses"] == first["misses"]
        assert after["hits"] == first["misses"]

    def test_compiled_steps_cached_per_plan(self):
        """Plan-level cache: the same (fuse, codegen) key returns the
        identical lowered step list, so iteration replay never re-lowers."""
        from repro.core.solvers.base import CG_ITER_BODY

        CG_ITER_BODY._compiled.clear()
        a = CG_ITER_BODY.compiled(fuse=False, codegen=True)
        b = CG_ITER_BODY.compiled(fuse=False, codegen=True)
        assert a is b
        assert any(isinstance(s, CompiledKernel) for s in a)

    def test_generated_functions_shared_across_ports(self):
        """Two ports on different grids run the very same function objects."""
        from repro.core.solvers.base import SOLVE_INIT

        SOLVE_INIT._compiled.clear()
        steps = SOLVE_INIT.compiled(fuse=False, codegen=True)
        (step,) = [s for s in steps if isinstance(s, CompiledKernel)]

        deck_small = default_deck(n=16, solver="cg", end_step=1)
        deck_large = default_deck(n=24, solver="cg", end_step=1)
        out = {}
        for deck in (deck_small, deck_large):
            app = TeaLeaf(deck, model=REFERENCE_MODEL)
            ex = PlanExecutor(app.port, codegen=True)
            app.executor = ex
            result = app.run()
            out[deck.x_cells] = result.steps[-1].summary
        # Same fn object served both grids: nothing grid-specific is baked.
        steps2 = SOLVE_INIT.compiled(fuse=False, codegen=True)
        (step2,) = [s for s in steps2 if isinstance(s, CompiledKernel)]
        assert step2.fn is step.fn
        assert out[16] is not None and out[24] is not None

    def test_generated_source_has_no_geometry_or_scalars(self):
        """Only field names are baked: geometry via ctx, scalars via argv."""
        from repro.models.plan import KernelCall

        src = codegen.generate_source(
            (KernelCall("cg_calc_ur", (0.123456,), out="rrn"),)
        )
        assert "0.123456" not in src
        assert "argv[0][0]" in src
        assert "ctx." in src


def test_port_opts_out_via_supports_codegen():
    deck = default_deck(n=16, solver="cg", end_step=1)
    port = make_port(REFERENCE_MODEL, deck.grid())
    ex = PlanExecutor(port, codegen=True)
    assert ex.codegen is True
    port.supports_codegen = False
    ex2 = PlanExecutor(port, codegen=True)
    assert ex2.codegen is False
