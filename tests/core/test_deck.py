"""Input-deck parsing: the tea.in dialect."""

import pytest

from repro.core.deck import Deck, default_deck, parse_deck, parse_deck_file
from repro.core.state import Geometry
from repro.util.errors import DeckError

GOOD_DECK = """
*tea
! the standard benchmark state layout
state 1 density=100.0 energy=0.0001
state 2 density=0.1 energy=25.0 geometry=rectangle xmin=0.0 xmax=4.0 ymin=1.0 ymax=8.0
x_cells=64
y_cells=32
xmin=0.0
xmax=10.0
ymin=0.0
ymax=5.0
initial_timestep=0.004
end_step=3
tl_use_ppcg
tl_ppcg_inner_steps=4
tl_max_iters=5000
tl_eps=1e-12
*endtea
"""


class TestParsing:
    def test_full_deck(self):
        deck = parse_deck(GOOD_DECK)
        assert (deck.x_cells, deck.y_cells) == (64, 32)
        assert deck.solver == "ppcg"
        assert deck.tl_ppcg_inner_steps == 4
        assert deck.tl_eps == pytest.approx(1e-12)
        assert deck.end_step == 3
        assert len(deck.states) == 2
        assert deck.states[1].geometry is Geometry.RECTANGLE

    def test_space_separated_form(self):
        deck = parse_deck(
            "*tea\nstate 1 density 5.0 energy 1.0\nx_cells 16\ny_cells 16\n"
            "tl_use_cg\n*endtea"
        )
        assert deck.x_cells == 16
        assert deck.states[0].density == 5.0

    def test_comments_and_blank_lines(self):
        deck = parse_deck(
            "*tea\n\n# hash comment\nstate 1 density=1.0 energy=1.0 ! trailing\n"
            "x_cells=8 ! also trailing\ny_cells=8\n*endtea"
        )
        assert deck.x_cells == 8

    def test_ignored_reference_keys(self):
        deck = parse_deck(
            "*tea\nstate 1 density=1.0 energy=1.0\nprofiler_on\n"
            "tl_preconditioner_type none\ntiles_per_chunk 4\n*endtea"
        )
        assert deck.solver == "cg"  # default

    def test_text_outside_block_ignored(self):
        deck = parse_deck("garbage before\n*tea\nstate 1 density=1 energy=1\n*endtea\nafter")
        assert len(deck.states) == 1

    def test_circle_and_point_states(self):
        deck = parse_deck(
            "*tea\nstate 1 density=1 energy=1\n"
            "state 2 density=2 energy=2 geometry=circular xmin=5 ymin=5 radius=2\n"
            "state 3 density=3 energy=3 geometry=point xmin=1 ymin=1\n*endtea"
        )
        assert deck.states[1].geometry is Geometry.CIRCLE
        assert deck.states[2].geometry is Geometry.POINT

    def test_parse_file(self, tmp_path):
        path = tmp_path / "tea.in"
        path.write_text(GOOD_DECK)
        assert parse_deck_file(path).solver == "ppcg"


class TestErrors:
    @pytest.mark.parametrize(
        "text,match",
        [
            ("x_cells=4", "no \\*tea"),
            ("*tea\nstate 1 density=1 energy=1", "missing \\*endtea"),
            ("*tea\n*tea\n*endtea", "duplicate"),
            ("*endtea", "before \\*tea"),
            ("*tea\n*endtea", "no states"),
            ("*tea\nstate x density=1 energy=1\n*endtea", "bad state index"),
            ("*tea\nstate 1 density=1\n*endtea", "needs density and energy"),
            ("*tea\nstate 1 density=1 energy=1 shape=disc\n*endtea", "unknown state key"),
            ("*tea\nstate 1 density=1 energy=1\nbogus_key=3\n*endtea", "unknown deck key"),
            ("*tea\nstate 1 density=1 energy=1\nx_cells=abc\n*endtea", "bad integer"),
            ("*tea\nstate 1 density=1 energy=1\ntl_eps=zzz\n*endtea", "bad number"),
            ("*tea\nstate 2 density=1 energy=1 geometry=rectangle xmax=1 ymax=1\n*endtea",
             "state 1"),
            ("*tea\nstate 1 density=1 energy=1 energy=2 extra\n*endtea", "key/value"),
        ],
    )
    def test_malformed_decks(self, text, match):
        with pytest.raises(DeckError, match=match):
            parse_deck(text)

    def test_unknown_geometry(self):
        with pytest.raises(DeckError, match="unknown geometry"):
            parse_deck(
                "*tea\nstate 1 density=1 energy=1\n"
                "state 2 density=1 energy=1 geometry=hexagon xmin=0 xmax=1 ymin=0 ymax=1\n*endtea"
            )


class TestNonFiniteInput:
    """Non-finite input fails at the deck boundary, never mid-solve."""

    @pytest.mark.parametrize(
        "old,new,match",
        [
            ("energy=25.0", "energy=nan", "state 2: energy must be finite"),
            ("density=0.1 ", "density=inf ", "state 2: density must be finite"),
            ("xmax=4.0", "xmax=inf", "state 2: xmax must be finite"),
            ("initial_timestep=0.004", "initial_timestep=nan", "initial_timestep"),
            ("xmax=10.0", "xmax=inf", "xmax must be finite"),
            # 2 wa wb underflows to zero: kx/ky would be inf after init.
            ("density=0.1 ", "density=1e-300 ", "state 2 .* not finite"),
        ],
    )
    def test_rejected(self, old, new, match):
        assert old in GOOD_DECK
        with pytest.raises(DeckError, match=match):
            parse_deck(GOOD_DECK.replace(old, new, 1))

    def test_recip_conductivity_checks_its_own_coefficients(self):
        # w = 1/1e-300 = 1e300, so 2 wa wb overflows and the coefficient
        # is (wa + wb) / inf = 0: finite, so the deck is valid.
        text = GOOD_DECK.replace("density=0.1 ", "density=1e-300 ", 1).replace(
            "*endtea", "tl_coefficient=recip_conductivity\n*endtea"
        )
        assert parse_deck(text).states[1].density == 1e-300


class TestDeckValidation:
    def test_rejects_unknown_solver(self):
        with pytest.raises(DeckError):
            Deck(solver="multigrid", states=default_deck().states)

    def test_rejects_bad_eps(self):
        with pytest.raises(DeckError):
            Deck(tl_eps=2.0, states=default_deck().states)

    def test_rejects_bad_coefficient(self):
        with pytest.raises(DeckError):
            Deck(tl_coefficient="magic", states=default_deck().states)

    def test_rejects_nonpositive_timestep(self):
        with pytest.raises(DeckError):
            Deck(initial_timestep=0.0, states=default_deck().states)

    def test_rejects_tiny_eigen_steps(self):
        with pytest.raises(DeckError):
            Deck(tl_cg_eigen_steps=1, states=default_deck().states)

    def test_rejects_nonpositive_max_iters(self):
        with pytest.raises(DeckError):
            Deck(tl_max_iters=0, states=default_deck().states)

    @pytest.mark.parametrize("frequency", [0, -3])
    def test_rejects_nonpositive_summary_frequency(self, frequency):
        with pytest.raises(DeckError, match="summary_frequency"):
            Deck(summary_frequency=frequency, states=default_deck().states)

    def test_rejects_nonpositive_check_frequency(self):
        with pytest.raises(DeckError, match="tl_check_frequency"):
            Deck(tl_check_frequency=0, states=default_deck().states)

    def test_rejects_negative_visit_frequency(self):
        with pytest.raises(DeckError, match="visit_frequency"):
            Deck(visit_frequency=-1, states=default_deck().states)

    def test_rejects_bad_resilience_options(self):
        states = default_deck().states
        with pytest.raises(DeckError, match="tl_checkpoint_frequency"):
            Deck(tl_checkpoint_frequency=0, states=states)
        with pytest.raises(DeckError, match="tl_max_retries"):
            Deck(tl_max_retries=-1, states=states)
        with pytest.raises(DeckError, match="tl_divergence_window"):
            Deck(tl_divergence_window=1, states=states)
        with pytest.raises(DeckError, match="tl_abft_tolerance"):
            Deck(tl_abft_tolerance=0.0, states=states)

    def test_rejects_bad_inject_spec(self):
        with pytest.raises(DeckError, match="tl_inject"):
            Deck(tl_inject="frazzle:u:5", states=default_deck().states)

    def test_rejects_spare_policy_without_spare_ranks(self):
        with pytest.raises(DeckError, match="tl_spare_ranks"):
            Deck(tl_rank_policy="spare", states=default_deck().states)

    def test_rejects_spare_ranks_without_spare_policy(self):
        with pytest.raises(DeckError, match="tl_rank_policy"):
            Deck(tl_spare_ranks=2, states=default_deck().states)

    def test_spare_policy_with_reserve_accepted(self):
        deck = Deck(
            tl_rank_policy="spare",
            tl_spare_ranks=1,
            states=default_deck().states,
        )
        assert (deck.tl_rank_policy, deck.tl_spare_ranks) == ("spare", 1)


class TestHelpers:
    def test_default_deck_round_trip(self):
        deck = default_deck(n=32, solver="chebyshev", end_step=5)
        assert deck.grid().nx == 32
        assert deck.solver == "chebyshev"
        assert deck.end_step == 5

    def test_with_mesh(self):
        deck = default_deck(n=16).with_mesh(64)
        assert (deck.x_cells, deck.y_cells) == (64, 64)

    def test_with_solver(self):
        assert default_deck().with_solver("jacobi").solver == "jacobi"

    def test_grid_extents(self):
        deck = default_deck(n=10)
        g = deck.grid()
        assert (g.xmin, g.xmax) == (deck.xmin, deck.xmax)
