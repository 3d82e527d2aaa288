"""Batched multi-deck execution is invisible to every deck in the batch.

The contract under test: running N compatible decks through one
:func:`repro.core.batch.run_batch` — shared arena, lane-batched codegen
sweeps, per-lane deterministic reductions — produces, for every deck,
bitwise the result of its own sequential single-deck run.  Plus the
liveness pass that sizes the arena, and the deck validation around the
new flags.
"""

import dataclasses
import hashlib
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import fields as F
from repro.core.batch import BatchContext, run_batch
from repro.core.deck import default_deck, parse_deck_file
from repro.core.driver import TeaLeaf
from repro.models.arena import FieldArena, deck_liveness
from repro.models.base import available_models, make_port
from repro.util.errors import DeckError, ModelError

DECK = Path(__file__).resolve().parents[2] / "decks" / "tea_bm_short.in"

BINDING_MODELS = [
    "openmp-f90", "openmp-cpp", "kokkos", "kokkos-hp",
    "raja", "raja-simd", "raja-gpu", "cuda", "opencl",
]
NON_BINDING_MODELS = ["openmp4", "openmp45", "openacc"]


def u_sha(app):
    return hashlib.sha256(app.field(F.U).tobytes()).hexdigest()[:16]


def sequential_hashes(decks, model):
    hashes = []
    for deck in decks:
        app = TeaLeaf(deck, model=model)
        app.run()
        hashes.append(u_sha(app))
    return hashes


# --------------------------------------------------------------------- #
# liveness pass
# --------------------------------------------------------------------- #
class TestLiveness:
    def test_cg_shares_never_live_fields_into_five_slots(self):
        lv = deck_liveness(default_deck(n=16, solver="cg"))
        assert lv.live_in == frozenset({F.DENSITY, F.ENERGY0})
        assert lv.slot_count == 5
        assert set(lv.arena_fields) == {"u", "u0", "p", "r", "w", "sd", "z"}
        # sd and z are never live under plain CG: both land in a shared
        # slot instead of owning storage.
        assert lv.slots["sd"] == lv.slots["z"]
        assert len({lv.slots[n] for n in ("u", "u0", "p", "r", "w")}) == 5

    def test_jac_diag_overlays_z_on_u0(self):
        deck = dataclasses.replace(
            default_deck(n=16, solver="cg"), tl_preconditioner_type="jac_diag"
        )
        lv = deck_liveness(deck)
        # z becomes live in the PCG tail, after u0's last use: the
        # coloring overlays them rather than adding a sixth slot.
        assert lv.slots["z"] == lv.slots["u0"]
        assert lv.slot_count == 5

    def test_chebyshev_overlays_sd_on_p(self):
        lv = deck_liveness(default_deck(n=16, solver="chebyshev"))
        assert lv.slots["sd"] == lv.slots["p"]
        assert lv.slot_count == 5

    def test_ppcg_needs_all_seven_slots(self):
        lv = deck_liveness(default_deck(n=16, solver="ppcg"))
        # Everything is co-live inside the polynomial preconditioner —
        # no sharing, but sd provably dies when the precon plan ends.
        assert lv.slot_count == 7
        assert "sd" in lv.self_contained
        assert any(dead == ("sd",) for dead in lv.releases.values())

    def test_interference_is_per_event_not_interval(self):
        lv = deck_liveness(default_deck(n=16, solver="cg"))
        # u is live across the whole cycle and must interfere with every
        # other live work field, but never with the never-live ones.
        assert lv.interfere("u", "p")
        assert not lv.interfere("sd", "u")

    def test_segments_cover_only_live_events(self):
        lv = deck_liveness(default_deck(n=16, solver="cg"))
        for a, b in lv.segments("w"):
            assert all("w" in lv.live[i] for i in range(a, b + 1))
        assert lv.segments("sd") == []


# --------------------------------------------------------------------- #
# deck validation
# --------------------------------------------------------------------- #
class TestDeckValidation:
    def test_poison_requires_arena(self):
        with pytest.raises(DeckError, match="tl_arena_poison"):
            dataclasses.replace(default_deck(n=16), tl_arena_poison=True)

    def test_arena_rejects_resilience(self):
        with pytest.raises(DeckError, match="tl_resilient"):
            dataclasses.replace(
                default_deck(n=16), tl_field_arena=True, tl_resilient=True
            )

    def test_deck_file_flags_parse(self, tmp_path):
        text = DECK.read_text().replace(
            "*endtea", "tl_field_arena\ntl_arena_poison\n*endtea"
        )
        path = tmp_path / "arena.in"
        path.write_text(text)
        deck = parse_deck_file(path)
        assert deck.tl_field_arena and deck.tl_arena_poison

    def test_batch_rejects_mismatched_decks(self):
        a = default_deck(n=16, solver="cg")
        b = default_deck(n=16, solver="jacobi")
        with pytest.raises(DeckError, match="solver"):
            run_batch([a, b])

    def test_batch_rejects_non_binding_ports(self):
        with pytest.raises(ModelError, match="bind external field storage"):
            run_batch([default_deck(n=16)], model="openmp4")


# --------------------------------------------------------------------- #
# batched context plumbing
# --------------------------------------------------------------------- #
class TestBatchContext:
    def test_batched_view_aliases_lane_rows(self):
        deck = default_deck(n=8)
        grid = deck.grid()
        lv = deck_liveness(deck)
        words = grid.shape[0] * grid.shape[1]
        arena = FieldArena(words, lanes=3, liveness=lv)
        view = arena.batched("u", 0, 3, grid.shape, "C")
        assert view.shape == (*grid.shape, 3)
        view[2, 3, 1] = 42.0
        assert arena.lane_flat("u", 1)[2 * grid.shape[1] + 3] == 42.0
        assert arena.lane_flat("u", 0)[2 * grid.shape[1] + 3] == 0.0

    def test_fortran_order_view_matches_layout(self):
        deck = default_deck(n=8)
        grid = deck.grid()
        lv = deck_liveness(deck)
        words = grid.shape[0] * grid.shape[1]
        arena = FieldArena(words, lanes=2, liveness=lv)
        view = arena.batched("u", 0, 2, grid.shape, "F")
        view[2, 3, 0] = 7.0
        # column-major: element (i, j) sits at flat j*H + i
        assert arena.lane_flat("u", 0)[3 * grid.shape[0] + 2] == 7.0

    def test_reduce_matches_sequential_per_lane(self):
        from repro.models.codegen import CodegenContext
        from repro.models.reduction import deterministic_sum

        deck = default_deck(n=8)
        grid = deck.grid()
        rng = np.random.default_rng(7)
        values = rng.normal(size=(grid.ny, grid.nx, 3))
        ctx = BatchContext(
            FieldArena(
                grid.shape[0] * grid.shape[1], 3, deck_liveness(deck)
            ),
            0, 3, grid, "C",
        )
        batched = ctx.reduce(values)
        for lane in range(3):
            expected = deterministic_sum(
                np.ascontiguousarray(values[..., lane]).ravel()
            )
            assert batched[lane] == expected
        assert CodegenContext.reduce is not BatchContext.reduce

    @pytest.mark.parametrize("lanes", [1, 2, 5])
    @pytest.mark.parametrize("order", ["C", "F"])
    def test_multi_lane_reduce_equals_per_lane_sums(self, lanes, order):
        """One fold over all lanes of a strided product, as generated
        reductions pass it, gives each lane's own canonical sum."""
        from repro.models.reduction import deterministic_sum

        deck = dataclasses.replace(default_deck(n=8), x_cells=19, y_cells=13)
        grid = deck.grid()
        words = grid.shape[0] * grid.shape[1]
        arena = FieldArena(words, lanes, deck_liveness(deck))
        rng = np.random.default_rng(lanes)
        for name in ("p", "w"):
            for lane in range(lanes):
                arena.lane_flat(name, lane)[:] = rng.normal(size=words)
        ctx = BatchContext(arena, 0, lanes, grid, order)
        I, J = ctx.I, ctx.J
        p, w = ctx.array("p")[I, J], ctx.array("w")[I, J]
        batched = ctx.reduce(p * w)
        assert len(batched) == lanes
        for lane in range(lanes):
            expected = deterministic_sum((p[..., lane] * w[..., lane]).ravel())
            assert batched[lane] == expected


# --------------------------------------------------------------------- #
# batched == sequential, all ports
# --------------------------------------------------------------------- #
class TestBatchedBitwise:
    @pytest.mark.parametrize("model", BINDING_MODELS)
    def test_every_binding_port_batches_bitwise(self, model):
        base = dataclasses.replace(
            default_deck(n=24, solver="cg", end_step=2, eps=1e-10),
            tl_fuse_kernels=True, tl_codegen=True,
        )
        decks = [
            base,
            dataclasses.replace(base, initial_timestep=0.002),
            dataclasses.replace(base, end_step=1),
        ]
        expected = sequential_hashes(decks, model)
        batch = run_batch(list(decks), model=model, poison=True)
        assert batch.errors == []
        assert batch.u_hashes == expected
        assert batch.batched_calls > 0
        assert batch.arena_stats["bytes_ratio"] < 1.0

    def test_all_registered_models_covered(self):
        assert sorted(BINDING_MODELS + NON_BINDING_MODELS) == sorted(
            available_models()
        )
        for model in BINDING_MODELS:
            port = make_port(model, default_deck(n=8).grid(), None)
            assert port.supports_field_binding, model
        for model in NON_BINDING_MODELS:
            port = make_port(model, default_deck(n=8).grid(), None)
            assert not port.supports_field_binding, model

    def test_benchmark_deck_batch_hits_sequential_goldens(self):
        deck = dataclasses.replace(
            parse_deck_file(DECK), tl_fuse_kernels=True, tl_codegen=True
        )
        app = TeaLeaf(deck, model="openmp-f90")
        app.run()
        golden = u_sha(app)
        batch = run_batch([deck] * 3, model="openmp-f90", poison=True)
        assert batch.errors == []
        assert batch.u_hashes == [golden] * 3
        # identical lanes stay in lockstep: every compiled call batches
        assert batch.solo_calls == 0

    @settings(max_examples=8, deadline=None)
    @given(
        model=st.sampled_from(["openmp-f90", "kokkos", "cuda"]),
        solver=st.sampled_from(["cg", "jacobi", "chebyshev", "ppcg"]),
        fuse=st.booleans(),
        codegen=st.booleans(),
        residency=st.booleans(),
        dts=st.lists(
            st.sampled_from([0.004, 0.002, 0.001, 0.0005]),
            min_size=2, max_size=3,
        ),
    )
    def test_batched_run_is_bitwise_sequential(
        self, model, solver, fuse, codegen, residency, dts
    ):
        base = default_deck(n=16, solver=solver, end_step=2, eps=1e-10)
        base = dataclasses.replace(
            base,
            tl_fuse_kernels=fuse,
            tl_codegen=codegen,
            tl_residency_tracking=residency,
        )
        decks = [
            dataclasses.replace(base, initial_timestep=dt) for dt in dts
        ]
        expected = sequential_hashes(decks, model)
        batch = run_batch(list(decks), model=model, poison=True)
        assert batch.errors == []
        assert batch.u_hashes == expected
