"""The traced run: per-layer metrics from spans recorded outside the program.

The same units run twice in one process.  First untraced, for half the
run's seconds, after the set-up warm-up; then, with the program's caches
dropped and every layer wrapped (:mod:`perfbench.layers`), one warm-up
unit plus the same units again under a root span.  Tracing overhead is
the traced wall over the untraced wall of that same work.

Every per-layer figure covers the traced root: the warm-up unit (where
codegen compiles) and the repeated units.  Byte counts are *computed*
from the kernel table's per-cell footprints, never measured.

Per-layer ``_s`` figures are wall-clock.  On ``batch_lanes`` the lanes
are threads that interleave on one CPU, so a lane's span also holds the
time the other lane ran and the lanes' figures overlap.  The coverage
check, ``bench.self_sum_ratio``, therefore adds self *CPU* times, which
do not overlap: the program layers' self CPU seconds over the traced
wall.  The benchmark's own loop code is left out of that sum and
reported as ``bench.unattributed_s``.
"""

from __future__ import annotations

import ctypes
import os
import time
from typing import Any

from perfbench.calibrate import Calibration
from perfbench.layers import install, reset_program_caches
from perfbench.spans import SpanRecorder, descendants, layer_totals, self_cpu_times

#: (name, unit) of every per-layer metric, in print order.  The comment
#: above each group names the end-to-end metric and workload it should move.
PER_LAYER = (
    # core.driver -> setup_s, every workload
    ("driver.construct_s", "s"),
    ("driver.step_self_s", "s"),
    # core.solvers; the exact counts guard that work per deck did not change
    ("solvers.solve_self_s", "s"),
    ("solvers.iterations", "count"),
    ("solvers.inner_iterations", "count"),
    # models.plan -> decks_per_s on ppcg_ranks (interpreted plan steps)
    ("plan.run_calls", "count"),
    ("plan.self_s", "s"),
    # models.base ports -> decks_per_s on ppcg_ranks; small on batch_lanes
    ("ports.dispatch_calls", "count"),
    ("ports.self_s", "s"),
    # models.codegen -> setup_s (compiles) and cell_iters_per_s (kernels)
    ("codegen.cache_hits", "count"),
    ("codegen.cache_misses", "count"),
    ("codegen.compile_s", "s"),
    ("codegen.kernel_self_s", "s"),
    # models.stencil -> cell_iters_per_s and step_s_p50 on both workloads
    ("stencil.matvec_calls", "count"),
    ("stencil.matvec_s", "s"),
    ("stencil.diag_s", "s"),
    # models.reduction -> cell_iters_per_s on batch_lanes; flat on ppcg_ranks
    ("reduction.calls", "count"),
    ("reduction.s", "s"),
    # models.tracing + machine.perfmodel: host cost next to modelled device time
    ("trace.kernel_launches", "count"),
    ("trace.transfers", "count"),
    ("trace.bytes_computed", "B"),
    ("trace.self_s", "s"),
    ("machine.modelled_gpu_s", "s"),
    ("machine.modelled_cpu_s", "s"),
    # comm + models.overlap -> cell_iters_per_s on ppcg_ranks; 0 elsewhere
    ("comm.halo_calls", "count"),
    ("comm.halo_s", "s"),
    ("comm.pack_s", "s"),
    ("overlap.exec_s", "s"),
    ("comm.messages", "count"),
    ("comm.bytes", "B"),
    ("comm.exposed_ms", "ms"),
    ("comm.hidden_ms", "ms"),
    # core.batch + models.arena -> decks_per_s and peak_rss_mb on batch_lanes
    ("batch.rounds", "count"),
    ("batch.batched_calls", "count"),
    ("batch.solo_calls", "count"),
    ("batch.batched_ratio", "ratio"),
    ("batch.wait_s", "s"),
    ("arena.bytes_ratio", "ratio"),
    # the trace itself: traced / untraced wall; program layers' self CPU
    # over the traced wall; CPU of the benchmark's own code under the root
    ("bench.trace_overhead", "ratio"),
    ("bench.self_sum_ratio", "ratio"),
    ("bench.unattributed_s", "s"),
)

#: ``bench.self_sum_ratio`` is expected within this distance of 1.
SELF_SUM_TOLERANCE = 0.10

#: Why a layer can do no work on a workload, keyed by metric prefix.
_IDLE = {
    "codegen": "tl_codegen is off: kernels run interpreted",
    "comm": "single-chunk port: no neighbour exchange",
    "overlap": "tl_overlap is off or the port is single-chunk with nothing to hide",
    "batch": "no run_batch call: decks run one at a time",
    "arena": "no field arena: fields are persistent port arrays",
}

_SC_LEVEL3_CACHE_SIZE = 194  # glibc's sysconf name for the LLC size


def llc_bytes() -> int | None:
    """Last-level cache size from the C library, or None if unknown."""
    try:
        size = ctypes.CDLL(None).sysconf(_SC_LEVEL3_CACHE_SIZE)
    except (OSError, AttributeError):
        return None
    return size if size > 0 else None


def _modelled(solves: list[Any], solver: str) -> tuple[float, float]:
    """Modelled K20X and E5-2670 seconds for every traced solve's events.

    A port without calibration on a device is timed as that device's
    reference model (CUDA on the GPU, OpenMP F90 on the CPU).
    """
    from repro.machine import CPU_E5_2670x2, GPU_K20X
    from repro.machine.perfmodel import PerformanceModel
    from repro.util.errors import MachineError

    totals = []
    for device, fallback in ((GPU_K20X, "cuda"), (CPU_E5_2670x2, "openmp-f90")):
        model = PerformanceModel(device)
        total = 0.0
        for s in solves:
            try:
                total += model.time_trace(s.result.trace, s.model, solver).total
            except MachineError:
                total += model.time_trace(s.result.trace, fallback, solver).total
        totals.append(total)
    return totals[0], totals[1]


def per_layer_metrics(
    totals: tuple[dict, dict, dict],
    traced_wall: float,
    solves: list[Any],
    solver: str,
    cache_stats: dict[str, int],
    untraced_wall: float,
    cpu: tuple[float, float],
) -> dict[str, float]:
    """Every per-layer metric from span totals and the traced solves."""
    from repro.models.tracing import EventKind

    self_s, outer_s, calls = totals
    done = [s for s in solves if s.error is None]
    traces = [s.result.trace for s in done]
    comm = [s.result.comm or {} for s in done]
    batches = [s.batch for s in solves if s.batch is not None]
    batched = sum(b.batched_calls for b in batches)
    solo = sum(b.solo_calls for b in batches)
    gpu_s, cpu_s = _modelled(done, solver)
    layers_cpu, bench_cpu = cpu
    return {
        "driver.construct_s": outer_s.get("driver:construct", 0.0),
        "driver.step_self_s": self_s.get("driver:step", 0.0),
        "solvers.solve_self_s": self_s.get("solvers", 0.0),
        "solvers.iterations": sum(s.iterations for s in done),
        "solvers.inner_iterations": sum(s.inner_iterations for s in done),
        "plan.run_calls": calls.get("plan", 0),
        "plan.self_s": self_s.get("plan", 0.0),
        "ports.dispatch_calls": calls.get("ports:dispatch", 0),
        "ports.self_s": self_s.get("ports", 0.0),
        "codegen.cache_hits": cache_stats["hits"],
        "codegen.cache_misses": cache_stats["misses"],
        "codegen.compile_s": outer_s.get("codegen:compile", 0.0),
        "codegen.kernel_self_s": self_s.get("codegen:kernel", 0.0),
        "stencil.matvec_calls": calls.get("stencil:matvec", 0),
        "stencil.matvec_s": outer_s.get("stencil:matvec", 0.0),
        "stencil.diag_s": outer_s.get("stencil:diag", 0.0),
        "reduction.calls": calls.get("reduction", 0),
        "reduction.s": outer_s.get("reduction", 0.0),
        "trace.kernel_launches": sum(t.kernel_launches() for t in traces),
        "trace.transfers": sum(
            len(t.filtered(kind=EventKind.TRANSFER)) for t in traces
        ),
        "trace.bytes_computed": sum(
            t.kernel_bytes() + t.transfer_bytes() for t in traces
        ),
        "trace.self_s": self_s.get("trace", 0.0),
        "machine.modelled_gpu_s": gpu_s,
        "machine.modelled_cpu_s": cpu_s,
        "comm.halo_calls": calls.get("comm:exchange", 0),
        "comm.halo_s": outer_s.get("comm", 0.0),
        "comm.pack_s": outer_s.get("comm:pack", 0.0),
        "overlap.exec_s": outer_s.get("overlap", 0.0),
        "comm.messages": sum(s.comm_messages for s in done),
        "comm.bytes": sum(s.comm_bytes for s in done),
        "comm.exposed_ms": sum(c.get("exposed_ms", 0.0) for c in comm),
        "comm.hidden_ms": sum(c.get("hidden_ms", 0.0) for c in comm),
        "batch.rounds": sum(b.rounds for b in batches),
        "batch.batched_calls": batched,
        "batch.solo_calls": solo,
        "batch.batched_ratio": batched / (batched + solo) if batched + solo else 0.0,
        "batch.wait_s": self_s.get("batch:submit", 0.0),
        "arena.bytes_ratio": (
            sum(b.arena_stats["bytes_ratio"] for b in batches) / len(batches)
            if batches
            else 0.0
        ),
        "bench.trace_overhead": traced_wall / untraced_wall,
        "bench.self_sum_ratio": layers_cpu / traced_wall,
        "bench.unattributed_s": bench_cpu,
    }


def traced_run(runner: Any, seconds: float, warm_s: float, out_path: Any):
    """Untraced then traced passes over the same units.

    Returns ``(solves, metrics)``; every solve of both passes is returned
    for the correctness gate.
    """
    untraced, unit_s, _ = runner.loop(seconds / 2, Calibration())
    n_units, wall = len(unit_s), sum(unit_s)

    reset_program_caches()
    recorder = SpanRecorder()
    install(recorder)
    runner.keep_results = True
    from repro.models.codegen import CACHE_STATS

    process_cpu = time.process_time()
    root = recorder.open("bench", "traced")
    with recorder.span("bench", "warmup"):
        traced = runner.unit(0)
    for k in range(n_units):
        with recorder.span("bench", "unit"):
            traced += runner.unit(k)
    recorder.close(root)
    process_cpu = time.process_time() - process_cpu

    spans = recorder.spans
    below = descendants(spans, root)
    totals = layer_totals(spans, below)
    self_cpu = self_cpu_times(spans)
    layers_cpu = sum(self_cpu[i] for i in below if spans[i].layer != "bench")
    bench_cpu = sum(self_cpu[i] for i in below if spans[i].layer == "bench")
    traced_wall = spans[root].end - spans[root].start
    metrics = per_layer_metrics(
        totals, traced_wall, traced, runner.workload.solver, dict(CACHE_STATS),
        warm_s + wall, (layers_cpu, bench_cpu),
    )
    recorder.write(out_path)
    _report(totals[0], traced_wall, process_cpu, len(spans), runner, metrics,
            n_units, out_path)
    return untraced + traced, metrics


def _report(
    self_s, wall, process_cpu, n_spans, runner, metrics, n_units, out_path
) -> None:
    from repro.core import fields as F

    print(f"  traced: 1 warm-up + {n_units} units, {n_spans} spans, "
          f"{wall:.3f} s traced wall, overhead x{metrics['bench.trace_overhead']:.2f} "
          f"(traced wall / untraced wall of the same units)")
    ratio = metrics["bench.self_sum_ratio"]
    verdict = "within" if abs(ratio - 1.0) <= SELF_SUM_TOLERANCE else "OUTSIDE"
    print(f"  program layers' self CPU = {ratio:.4f} of the traced wall "
          f"({verdict} the stated tolerance of {SELF_SUM_TOLERANCE} from 1); "
          f"benchmark loop CPU (unattributed) "
          f"{metrics['bench.unattributed_s']:.4f} s; process CPU "
          f"{process_cpu:.3f} s of {wall:.3f} s wall")
    print("  layer self times, wall-clock (on batch_lanes the lanes' times "
          "overlap, see the module notes):")
    layers = sorted((k for k in self_s if ":" not in k), key=lambda k: -self_s[k])
    for layer in layers:
        print(f"    {layer:<10} {self_s[layer]:9.4f} s  {100 * self_s[layer] / wall:5.1f} %")
    top = sorted((k for k in self_s if ":" in k), key=lambda k: -self_s[k])[:8]
    print("  top spans by self time: " + ", ".join(
        f"{k} {self_s[k]:.3f} s" for k in top))
    for prefix, why in _IDLE.items():
        group = [v for k, v in metrics.items() if k.startswith(prefix + ".")]
        if group and not any(group):
            print(f"  absent: {prefix}.* are 0 on {runner.workload.name} ({why})")
    grid = runner.decks[0].grid()
    field_bytes = grid.shape[0] * grid.shape[1] * 8
    llc = llc_bytes()
    llc_text = f"{llc / 2**20:.0f} MiB" if llc else "unknown"
    print(f"  bytes are computed from kernel footprints, not measured: "
          f"{field_bytes} B per field ({grid.shape[1]}x{grid.shape[0]} doubles "
          f"with halo); host LLC {llc_text}.")
    memory = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    print("  no achieved-bandwidth ratio is reported: a DRAM-bound run needs "
          f"arrays of 4x LLC, and {len(F.FIELD_ORDER)} fields of that size would "
          f"not fit in this host's {memory / 2**30:.1f} GiB of memory.")
    print(f"  spans written to {out_path}")
