"""The explicit solver runs through the plan executor it is handed.

Its coefficient rebuild and its sub-step are plans, so every executor
pass applies to it: generated kernels and arena-backed fields must give
the interpreted run's bits.
"""

import dataclasses
import hashlib

import pytest

from repro.core import fields as F
from repro.core.deck import default_deck
from repro.core.driver import TeaLeaf
from repro.core.solvers import solver_plan_fragments, solver_timeline
from repro.core.solvers.explicit import EXPLICIT_INIT, EXPLICIT_STEP

DECK = default_deck(n=24, end_step=2).with_solver("explicit")


def u_sha(deck, model):
    app = TeaLeaf(deck, model=model)
    result = app.run()
    return hashlib.sha256(app.field(F.U).tobytes()).hexdigest(), result


@pytest.mark.parametrize("model", ["openmp-f90", "cuda", "kokkos"])
@pytest.mark.parametrize("flag", ["tl_codegen", "tl_field_arena"])
def test_flag_gives_interpreted_bits(model, flag):
    reference, ref_result = u_sha(DECK, model)
    sha, result = u_sha(dataclasses.replace(DECK, **{flag: True}), model)
    assert sha == reference
    assert result.fallbacks == []
    assert result.iterations_per_step() == ref_result.iterations_per_step()


def test_plans_catalogued():
    assert solver_plan_fragments(DECK) == [EXPLICIT_INIT, EXPLICIT_STEP]
    assert solver_timeline(DECK) == [(EXPLICIT_INIT, False), (EXPLICIT_STEP, True)]


def test_plan_command_renders_explicit(capsys):
    from repro.cli import main

    assert main(["plan", "--solver", "explicit", "--mesh", "8"]) == 0
    out = capsys.readouterr().out
    assert "plan explicit_init" in out and "plan explicit_step" in out
