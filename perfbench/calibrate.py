"""Host-speed calibration: a fixed piece of work timed next to every unit.

The benchmark runs on a few cores of a shared host, whose speed drifts by
up to a factor of two over minutes as other tenants come and go (the
same unit took 0.43 s and 0.20 s ten minutes apart, with its process's
CPU time tracking its wall time).  No run length averages that out, so
every timing in the result is given in *reference seconds*: the measured
wall seconds scaled by how much slower than :data:`REFERENCE_S` the
calibration slice ran at that moment.  The measured wall figures are
printed beside them.

The slice is the benchmark's own code and never calls the program, so a
change to the program moves the measured time but not the slice's.  Its
mix imitates the program's: small NumPy stencil sweeps and reductions on
a 128x128 mesh, driven from a Python loop that dispatches through
objects the way the plan executor does.  What it cannot tell apart from
a slow host is a program that slows its whole process, for example by
leaving a busy thread behind; the wall figures still show that.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

#: About the slice's time on a 2-vCPU Intel Xeon VM with its host quiet;
#: it fixes the scale of reference seconds (while a slice takes twice
#: as long, every measured time is halved).
REFERENCE_S = 0.010
MESH = 128
SWEEPS = 40
#: Bookkeeping rounds per sweep; with 40 sweeps about half the slice's
#: time is spent in the interpreter and half in NumPy, as in the program.
BOOKKEEPING = 160


class _Op:
    """One step of the slice's little plan: a weighted stencil sweep."""

    def __init__(self, name: str, weight: float) -> None:
        self.name = name
        self.args = {"weight": weight, "halo": 1, "fields": ("a", "b")}

    def apply(self, a: np.ndarray, b: np.ndarray) -> float:
        w = self.args["weight"]
        b[1:-1, 1:-1] = (1.0 - 4.0 * w) * a[1:-1, 1:-1] + w * (
            a[:-2, 1:-1] + a[2:, 1:-1] + a[1:-1, :-2] + a[1:-1, 2:]
        )
        return float((a * b).sum())


class Calibration:
    """Times the fixed slice; :meth:`slice` returns its wall seconds."""

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self._a = rng.random((MESH + 2, MESH + 2))
        self._b = np.zeros_like(self._a)
        self._ops = [_Op(f"op{i % 5}", 0.05 + 0.01 * (i % 5)) for i in range(SWEEPS)]

    def slice(self) -> float:
        a, b = self._a, self._b
        ledger: dict[str, list] = {}
        t0 = time.perf_counter()
        for op in self._ops:
            # The per-call bookkeeping an executor does around a kernel.
            for _ in range(BOOKKEEPING):
                entry = ledger.setdefault(op.name, [0, 0.0])
                entry[0] += 1
                call = dict(op.args, step=entry[0])
                entry[1] += call["weight"] * len(call["fields"])
            op.apply(a, b)
            a, b = b, a
        return time.perf_counter() - t0

    def mean(self, n: int) -> float:
        """Mean of ``n`` slices, for a phase too long to interleave."""
        return statistics.fmean(self.slice() for _ in range(n))

