"""Small shared utilities: errors, units, retries, and numeric helpers."""

from repro.util.errors import (
    ReproError,
    DeckError,
    SolverError,
    ConvergenceError,
    ModelError,
    MachineError,
)
from repro.util.units import (
    GIGA,
    MEGA,
    KILO,
    gb_per_s,
    fmt_bytes,
    fmt_seconds,
    fmt_bandwidth,
)
from repro.util.retry import RetryPolicy, call_with_retries

__all__ = [
    "ReproError",
    "DeckError",
    "SolverError",
    "ConvergenceError",
    "ModelError",
    "MachineError",
    "GIGA",
    "MEGA",
    "KILO",
    "gb_per_s",
    "fmt_bytes",
    "fmt_seconds",
    "fmt_bandwidth",
    "RetryPolicy",
    "call_with_retries",
]
