"""First-divergence numerics debugger: lockstep cross-port comparison.

When two ports disagree on a solve, the interesting question is not *that*
the final fields differ but *where the first bit flipped*: which solver
iteration, which kernel, which field.  This module runs two ports in
lockstep behind a single :class:`~repro.models.base.Port` facade — every
kernel executes on both ports, then every field and every returned
reduction scalar is compared bit for bit — and reports the first diverging
(iteration, kernel, field) together with the worst ULP distance.

Used standalone (``python -m repro numdiff --models kokkos,openmp-f90``)
or as a self-test harness: :class:`Perturbation` injects a one-ULP nudge
into a chosen kernel call on the candidate port, and the debugger must
name exactly that call.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Callable, Iterable

import numpy as np

from repro.core import fields as F
from repro.core.grid import Grid2D
from repro.models.base import Port, make_port
from repro.models.plan import KernelCall
from repro.models.tracing import Trace

#: Kernels that advance the solver by one iteration; their call count is
#: the "iteration" coordinate of a divergence report.
ITERATE_KERNELS = ("cg_calc_ur", "jacobi_iterate", "cheby_iterate")


def ulp_distance(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Elementwise ULP distance between two float64 arrays.

    Uses the monotone mapping from IEEE-754 bit patterns to unsigned
    integers (negative floats are bit-complemented, positive floats get
    the sign bit flipped), under which the integer difference of two
    mapped values counts the representable doubles between them.  Signed
    zeros compare equal; comparisons involving NaN are reported as the
    maximum uint64 value.
    """
    ka = _monotone_key(a)
    kb = _monotone_key(b)
    dist = np.where(ka >= kb, ka - kb, kb - ka)
    nan = np.isnan(a) | np.isnan(b)
    both_nan = np.isnan(a) & np.isnan(b)
    dist = np.where(nan & ~both_nan, np.uint64(np.iinfo(np.uint64).max), dist)
    return np.where(both_nan, np.uint64(0), dist)


def _monotone_key(x: np.ndarray) -> np.ndarray:
    """Order-preserving uint64 view of a float64 array.

    Positive floats get the sign bit set; negative floats are negated in
    two's complement, which maps -0.0 and +0.0 to the same key and makes
    consecutive representable doubles consecutive integers across zero.
    """
    x = np.ascontiguousarray(x, dtype=np.float64)
    u = x.view(np.uint64)
    top = np.uint64(1) << np.uint64(63)
    with np.errstate(over="ignore"):
        return np.where(u & top == 0, u + top, np.uint64(0) - u)


def scalar_ulp(a: float, b: float) -> int:
    """ULP distance between two Python floats."""
    return int(ulp_distance(np.asarray([a]), np.asarray([b]))[0])


@dataclass(frozen=True)
class Perturbation:
    """Inject a one-ULP nudge into the candidate port (self-test mode).

    After the ``call_index``-th invocation (1-based) of ``kernel`` on the
    candidate port, one interior element of ``field`` is moved to the next
    representable double.  The debugger must then report a divergence at
    exactly this (kernel, call, field) coordinate — the smallest possible
    numerical fault it could be asked to localise.
    """

    kernel: str
    call_index: int
    field: str


@dataclass(frozen=True)
class Divergence:
    """The first point at which the two ports stopped agreeing bitwise."""

    iteration: int
    kernel: str
    call_index: int
    field: str
    max_ulp: int
    #: Grid index (or tuple position for scalar returns) of the worst cell.
    where: tuple[int, ...]
    value_a: float
    value_b: float

    def describe(self) -> str:
        return (
            f"first divergence at iteration {self.iteration}, kernel "
            f"'{self.kernel}' (call #{self.call_index}), field '{self.field}' "
            f"[{', '.join(map(str, self.where))}]: "
            f"{self.value_a!r} vs {self.value_b!r} ({self.max_ulp} ULP)"
        )


@dataclass
class NumdiffReport:
    """Outcome of one lockstep run."""

    model_a: str
    model_b: str
    kernel_calls: int
    iterations: int
    divergence: Divergence | None

    @property
    def agreed(self) -> bool:
        return self.divergence is None

    def describe(self) -> str:
        if self.divergence is None:
            return (
                f"{self.model_a} and {self.model_b} agree bitwise through "
                f"{self.kernel_calls} kernel calls ({self.iterations} "
                f"solver iterations)"
            )
        return f"{self.model_a} vs {self.model_b}: {self.divergence.describe()}"


class LockstepDivergence(Exception):
    """Raised by :class:`LockstepPort` to unwind the driver at first drift."""

    def __init__(self, divergence: Divergence) -> None:
        super().__init__(divergence.describe())
        self.divergence = divergence


class LockstepPort(Port):
    """A Port facade that drives two real ports and cross-checks each call.

    The reference port's results are what the solver sees, so the run
    behaves exactly like a reference-port run until the candidate drifts —
    at which point :class:`LockstepDivergence` carries the coordinates out
    through the driver.
    """

    model_name = "lockstep"
    #: The facade exists to observe every dispatched call; generated
    #: kernels and overlap execution write device arrays directly and
    #: would bypass the per-call comparison (and run on the reference
    #: port alone), so both are refused — the executor records the
    #: fallback instead of silently degrading the lockstep contract.
    supports_codegen = False
    supports_overlap = False

    def __init__(
        self,
        grid: Grid2D,
        reference: Port,
        candidate: Port,
        perturbation: Perturbation | None = None,
        trace: Trace | None = None,
    ) -> None:
        super().__init__(grid, trace)
        self.reference = reference
        self.candidate = candidate
        self.perturbation = perturbation
        self.model_name = f"lockstep({reference.model_name},{candidate.model_name})"
        self.calls: Counter[str] = Counter()
        self.kernel_calls = 0
        #: Fields last written only as port-private scratch (an op's
        #: ``scratch_writes``): ports legitimately disagree on them until
        #: a later call, or ``write_field``, writes them for real.
        self._scratch: set[str] = set()

    # ------------------------------------------------------------------ #
    @property
    def iteration(self) -> int:
        """Solver iterations completed so far (iterate-kernel calls)."""
        return sum(self.calls[k] for k in ITERATE_KERNELS)

    def _run(self, kernel: str, fn: Callable[[Port], object], call=None):
        self.calls[kernel] += 1
        self.kernel_calls += 1
        result_a = fn(self.reference)
        result_b = fn(self.candidate)
        if call is not None:
            self._scratch.difference_update(call.spec.written(call.args))
            self._scratch.update(call.spec.scratch_writes)
        self._maybe_perturb(kernel)
        self._compare(kernel, result_a, result_b)
        return result_a

    def _maybe_perturb(self, kernel: str) -> None:
        p = self.perturbation
        if p is None or p.kernel != kernel or p.call_index != self.calls[kernel]:
            return
        values = self.candidate.read_field(p.field)
        idx = (self.h + self.grid.ny // 2, self.h + self.grid.nx // 2)
        values[idx] = np.nextafter(values[idx], np.inf)
        self.candidate.write_field(p.field, values)

    def _compare(self, kernel: str, result_a, result_b) -> None:
        call = self.calls[kernel]
        # Returned reduction scalars first: they are what the solver
        # branches on, so a scalar-level drift is the highest-value report.
        if result_a is not None:
            sa = np.atleast_1d(np.asarray(result_a, dtype=np.float64))
            sb = np.atleast_1d(np.asarray(result_b, dtype=np.float64))
            if not np.array_equal(sa, sb):
                dist = ulp_distance(sa, sb)
                worst = int(np.argmax(dist))
                raise LockstepDivergence(
                    Divergence(
                        iteration=self.iteration,
                        kernel=kernel,
                        call_index=call,
                        field="<return>" if sa.size == 1 else f"<return[{worst}]>",
                        max_ulp=int(dist[worst]),
                        where=(worst,),
                        value_a=float(sa[worst]),
                        value_b=float(sb[worst]),
                    )
                )
        # Interior cells only: halo content is a port-private detail (each
        # port may or may not mirror ghost layers in auxiliary fields) and
        # is refreshed by update_halo before any kernel consumes it.
        inner = self.grid.inner()
        for name in F.FIELD_ORDER:
            if name in self._scratch:
                continue
            fa = self.reference.read_field(name)[inner]
            fb = self.candidate.read_field(name)[inner]
            if np.array_equal(fa, fb):
                continue
            dist = ulp_distance(fa, fb)
            worst = np.unravel_index(int(np.argmax(dist)), dist.shape)
            raise LockstepDivergence(
                Divergence(
                    iteration=self.iteration,
                    kernel=kernel,
                    call_index=call,
                    field=name,
                    # Report full-allocation (halo-inclusive) indices, the
                    # coordinates read_field users see.
                    where=tuple(int(i) + self.h for i in worst),
                    max_ulp=int(dist[worst]),
                    value_a=float(fa[worst]),
                    value_b=float(fb[worst]),
                )
            )

    # ------------------------------------------------------------------ #
    # data interface: the reference port is the source of truth
    # ------------------------------------------------------------------ #
    def set_state(self, density: np.ndarray, energy0: np.ndarray) -> None:
        self.reference.set_state(density, energy0)
        self.candidate.set_state(density, energy0)

    def read_field(self, name: str) -> np.ndarray:
        return self.reference.read_field(name)

    def write_field(self, name: str, values: np.ndarray) -> None:
        self.reference.write_field(name, values)
        self.candidate.write_field(name, values)
        self._scratch.discard(name)

    def begin_solve(self) -> None:
        self.reference.begin_solve()
        self.candidate.begin_solve()

    def end_solve(self) -> None:
        self.reference.end_solve()
        self.candidate.end_solve()

    # ------------------------------------------------------------------ #
    # kernel set: every call runs on both ports and is cross-checked
    # ------------------------------------------------------------------ #
    def dispatch(self, call: KernelCall):
        return self._run(call.op, lambda p: p.dispatch(call), call)

    def update_halo(self, names: Iterable[str], depth: int) -> None:
        names = tuple(names)
        self._run("update_halo", lambda p: p.update_halo(names, depth))

    def _device_array(self, name: str) -> np.ndarray:
        # Halo logic is delegated to the wrapped ports (update_halo above),
        # so this is only reached by introspection; expose the reference.
        return self.reference._device_array(name)


def run_numdiff(
    model_a: str,
    model_b: str,
    deck,
    perturbation: Perturbation | None = None,
) -> NumdiffReport:
    """Run ``deck`` with both models in lockstep; report the first drift."""
    # Imported here: repro.core.driver imports repro.models at call time and
    # the harness sits above both layers.
    from repro.core.driver import TeaLeaf

    grid = deck.grid()
    lock = LockstepPort(
        grid,
        reference=make_port(model_a, grid),
        candidate=make_port(model_b, grid),
        perturbation=perturbation,
    )
    divergence: Divergence | None = None
    try:
        TeaLeaf(deck, port=lock).run()
    except LockstepDivergence as exc:
        divergence = exc.divergence
    return NumdiffReport(
        model_a=model_a,
        model_b=model_b,
        kernel_calls=lock.kernel_calls,
        iterations=lock.iteration,
        divergence=divergence,
    )
