"""Utility layer: units, errors."""

import pytest

from repro.util.errors import (
    ConvergenceError,
    DeckError,
    MachineError,
    ModelError,
    ReproError,
    SolverError,
)
from repro.util.units import (
    GIGA,
    fmt_bandwidth,
    fmt_bytes,
    fmt_seconds,
    gb_per_s,
)


class TestUnits:
    def test_gb_per_s(self):
        assert gb_per_s(76.2 * GIGA) == pytest.approx(76.2)

    @pytest.mark.parametrize(
        "n,expected",
        [
            (0, "0 B"),
            (512, "512 B"),
            (2_048, "2.05 kB"),
            (3_500_000, "3.50 MB"),
            (1.34e9, "1.34 GB"),
        ],
    )
    def test_fmt_bytes(self, n, expected):
        assert fmt_bytes(n) == expected

    def test_fmt_bytes_rejects_negative(self):
        with pytest.raises(ValueError):
            fmt_bytes(-1)

    @pytest.mark.parametrize(
        "t,expected",
        [
            (2.5, "2.50 s"),
            (0.0032, "3.20 ms"),
            (4.2e-6, "4.20 us"),
            (9e-10, "0.90 ns"),
        ],
    )
    def test_fmt_seconds(self, t, expected):
        assert fmt_seconds(t) == expected

    def test_fmt_seconds_rejects_negative(self):
        with pytest.raises(ValueError):
            fmt_seconds(-0.1)

    def test_fmt_bandwidth(self):
        assert fmt_bandwidth(180.1 * GIGA) == "180.1 GB/s"


class TestErrorHierarchy:
    def test_all_errors_are_repro_errors(self):
        for exc in (DeckError, SolverError, ModelError, MachineError):
            assert issubclass(exc, ReproError)
        assert issubclass(ConvergenceError, SolverError)

    def test_convergence_error_payload(self):
        err = ConvergenceError("no luck", iterations=7, residual=0.5)
        assert err.iterations == 7
        assert err.residual == 0.5
        assert "no luck" in str(err)
