"""The repository benchmark: seeded TeaLeaf workloads, end to end and per layer.

Run from the root of a checkout::

    python3 perfbench/run.py --workload ppcg_ranks --seed 1 --seconds 10 --trace 0

``--trace 0`` (the measured run) prints every end-to-end metric.  Every
time in them is in reference seconds (:mod:`perfbench.calibrate`): wall
seconds scaled by the host's speed at that moment, read from a fixed
calibration slice run right after set-up and between units.  The same
figures in plain wall seconds are printed on their own lines.

* ``setup_s`` — imports, deck generation, construction and one warm-up
  unit that fills the plan and codegen caches; the median of the
  set-ups of the run's three processes;
* ``cell_iters_per_s`` — interior cells x (outer + inner iterations) per
  second of the timed loop;
* ``decks_per_s`` — decks solved per second (one port solving one deck
  counts as one deck);
* ``step_s_p50`` — median per-timestep time;
* ``peak_rss_mb`` — peak resident memory of a process over set-up and
  its share of the timed loop, the largest of the three; the correctness
  gate runs afterwards, so its own solves cannot set the peak.  The peak
  reached by the end of set-up is printed next to it, to show the timed
  loop's share.

Two more are printed on their own lines but are not in the result's
metrics.  ``step_s_tail``, the highest per-step percentile with at least
ten samples beyond it (in wall seconds), lies near p99 at this run length and moved by
more than the largest allowed bound between runs of the same code.
``failed_frac`` (failed / attempted decks) is carried by the result's
``attempted`` and ``failed`` fields; it is zero on a correct program, so
it cannot be bounded as a share of its median.

The timed loop is closed: one thread of one process, pinned to one CPU,
issues the next unit only when the previous one has finished.  The
``--seconds`` are shared by three processes run one after another (this
one and two fresh children, each set up on its own): batch_lanes'
throughput held within a few percent inside one process but differed by
up to 25 % between processes, so a single process would measure that
process's luck rather than the program.
After the loop, every solved deck's ``sha256(u)[:16]`` must equal its
reference path's, and the two golden hashes of ``decks/tea_bm_short.in``
are checked; any mismatch or exception counts as a failed deck and the
command exits 1.

``--trace 1`` runs the same units twice: untraced, then with every layer
wrapped from outside (:mod:`perfbench.layers`), and prints the per-layer
metrics, the tracing overhead (traced wall / untraced wall) and the
program layers' self CPU time as a share of the traced wall.  Spans are
written to ``.perfbench_out/`` in the working directory.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import dataclasses  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path[:0] = [str(ROOT), str(SRC)]

from perfbench.decks import WORKLOADS, generate  # noqa: E402

#: Golden ``sha256(u)[:16]`` of decks/tea_bm_short.in on openmp-f90.
GOLDEN = {"none": "034d762cd88a2685", "jac_diag": "b6dc591ad1a00bda"}
GOLDEN_DECK = ROOT / "decks" / "tea_bm_short.in"
BENCHMARK = ROOT / "BENCHMARK.json"
#: Processes that share a run's timed loop, one after another.
PROCESSES = 3
#: Calibration slices read right after a set-up.
SETUP_SLICES = 10
OUT_DIR = Path(".perfbench_out")

END_TO_END_UNITS = {
    "setup_s": "s",
    "cell_iters_per_s": "1/s",
    "decks_per_s": "1/s",
    "step_s_p50": "s",
    "peak_rss_mb": "MB",
}


# --------------------------------------------------------------------- #
# set-up
# --------------------------------------------------------------------- #
def set_up(name: str, seed: int):
    """Import, generate the deck pool, build a runner and run one warm-up unit.

    Returns ``(runner, warm_unit_seconds)``.
    """
    from perfbench.layers import import_program
    from perfbench.workloads import Runner

    import_program()
    from repro.core.deck import parse_deck

    workload = WORKLOADS[name]
    decks = [parse_deck(text) for text in generate(workload, seed)]
    runner = Runner(workload, decks)
    t0 = time.perf_counter()
    warm = runner.unit(0)
    failed = [s.error for s in warm if s.error]
    if failed:
        raise RuntimeError(f"warm-up unit failed: {failed[0]}")
    return runner, time.perf_counter() - t0


def golden_gate() -> list[str]:
    """Check the two golden hashes; returns one message per mismatch."""
    import dataclasses

    from repro.core.deck import parse_deck_file
    from repro.core.driver import TeaLeaf
    from perfbench.workloads import u_sha

    problems = []
    base = parse_deck_file(GOLDEN_DECK)
    for preconditioner, expected in GOLDEN.items():
        deck = dataclasses.replace(base, tl_preconditioner_type=preconditioner)
        try:
            app = TeaLeaf(deck, model="openmp-f90")
            app.run()
            got = u_sha(app)
        except Exception as exc:  # noqa: BLE001 - reported as a gate failure
            got = f"{type(exc).__name__}: {exc}"
        if got != expected:
            problems.append(f"golden {preconditioner}: {got} != {expected}")
    return problems


@dataclasses.dataclass
class Part:
    """One process's set-up and share of the timed loop."""

    setup_s: float
    #: Mean calibration slice right after the set-up.
    setup_slice: float
    peak_rss_mb: float
    solves: list
    unit_s: list[float]
    #: One slice before the first unit and one after every unit.
    slices: list[float]

    def to_json(self) -> str:
        return json.dumps(dataclasses.asdict(self))

    @classmethod
    def from_json(cls, text: str) -> "Part":
        from perfbench.workloads import Solve

        fields = json.loads(text)
        fields["solves"] = [Solve(**s) for s in fields["solves"]]
        return cls(**fields)


def child_part(name: str, seed: int, seconds: float) -> Part:
    """Set up and run ``seconds`` of the loop in a fresh process."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", name,
         "--seed", str(seed), "--seconds", repr(seconds), "--part"],
        capture_output=True, text=True, timeout=seconds + 150, check=False,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"child process failed: {proc.stderr.strip()[-400:]}")
    return Part.from_json(proc.stdout.strip().splitlines()[-1])


# --------------------------------------------------------------------- #
# the closed loop and the gate
# --------------------------------------------------------------------- #
def check(solves, references: dict[int, str]) -> list[str]:
    """One message per solve that raised or missed its reference hash."""
    problems = []
    for s in solves:
        if s.error is not None:
            problems.append(f"deck {s.deck} on {s.model}: {s.error}")
        elif s.u_sha != references[s.deck]:
            problems.append(
                f"deck {s.deck} on {s.model}: u_sha {s.u_sha} != reference "
                f"{references[s.deck]}"
            )
    return problems


def tail(samples: list[float]) -> tuple[float, float, int]:
    """Highest percentile with >= 10 samples beyond it: (value, pct, n).

    With fewer than 11 samples there is no such percentile and the
    maximum is returned with its percentile set to 100.
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n < 11:
        return ordered[-1], 100.0, n
    i = n - 11
    return ordered[i], 100.0 * (i + 1) / n, n


def peak_rss_mb() -> float:
    """Peak resident memory of this process so far, in MB (2**20 bytes)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(parts: list[Part], scaled: bool = True) -> dict[str, float]:
    """The result's metrics over all parts; ``scaled=False`` gives wall seconds.

    Unit ``k`` of a part ran between its slices ``k`` and ``k + 1``; its
    times are scaled by the mean of the two.
    """
    from perfbench.calibrate import REFERENCE_S

    seconds = 0.0
    setup, steps, done = [], [], []
    for p in parts:
        if scaled:
            scale = [
                REFERENCE_S / ((p.slices[k] + p.slices[k + 1]) / 2)
                for k in range(len(p.unit_s))
            ]
            setup.append(p.setup_s * REFERENCE_S / p.setup_slice)
        else:
            scale = [1.0] * len(p.unit_s)
            setup.append(p.setup_s)
        seconds += sum(t * f for t, f in zip(p.unit_s, scale))
        steps += [t * scale[s.unit] for s in p.solves for t in s.step_seconds]
        done += [s for s in p.solves if s.error is None]
    return {
        "setup_s": statistics.median(setup),
        "cell_iters_per_s": sum(
            s.cells * (s.iterations + s.inner_iterations) for s in done
        ) / seconds,
        "decks_per_s": len(done) / seconds,
        "step_s_p50": statistics.median(steps),
        "peak_rss_mb": max(p.peak_rss_mb for p in parts),
    }


def emit(correct: bool, attempted: int, failed: int, metrics: dict, units: dict) -> None:
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            k: {"value": v, "unit": units[k]} for k, v in metrics.items()
        },
    }))


# --------------------------------------------------------------------- #
# main
# --------------------------------------------------------------------- #
def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--part", action="store_true",
                        help="set up, run --seconds of the timed loop and "
                             "print both as one JSON line (a run's child)")
    args = parser.parse_args(argv)

    if not (SRC / "repro").is_dir() or not GOLDEN_DECK.is_file():
        print(f"perfbench: no program sources under {ROOT}", file=sys.stderr)
        return 2

    # One CPU for the whole process (its batch lane threads and child
    # processes inherit it).  Lanes hand off through a condition variable;
    # spread over two CPUs those wake-ups made batch_lanes throughput vary
    # twofold from run to run, while on one CPU it held within a few percent.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    # NumPy is imported only now, so its worker threads inherit that CPU.
    from perfbench.calibrate import REFERENCE_S, Calibration


    runner, warm_s = set_up(args.workload, args.seed)
    setup_s = time.perf_counter() - _T0
    calibration = Calibration()
    setup_slice = calibration.mean(SETUP_SLICES)
    if args.part:
        solves, unit_s, slices = runner.loop(args.seconds, calibration)
        print(Part(setup_s, setup_slice, peak_rss_mb(), solves, unit_s, slices).to_json())
        return 0

    setup_rss = peak_rss_mb()
    w = runner.workload
    why = {x["name"]: x["why"] for x in json.loads(BENCHMARK.read_text())["workloads"]}
    print(f"workload {w.name}: {why[w.name]}")
    print(f"  model={w.model} solver={w.solver} mesh={w.mesh}^2 "
          f"steps={w.end_step} flags={','.join(w.flags)} "
          f"pool={len(runner.decks)} decks (seed {args.seed})")
    print(f"  reference: {runner.reference_path()}")

    if args.trace:
        from perfbench.traced import PER_LAYER, traced_run

        out = OUT_DIR / f"spans-{w.name}-seed{args.seed}.jsonl"
        solves, metrics = traced_run(runner, args.seconds, warm_s, out)
        units = dict(PER_LAYER)
    else:
        share = args.seconds / PROCESSES
        solves, unit_s, slices = runner.loop(share, calibration)
        parts = [Part(setup_s, setup_slice, peak_rss_mb(), solves, unit_s, slices)]
        parts += [
            child_part(args.workload, args.seed, share) for _ in range(PROCESSES - 1)
        ]
        solves = [s for p in parts for s in p.solves]
        metrics = end_to_end(parts)
        wall_metrics = end_to_end(parts, scaled=False)
        units = END_TO_END_UNITS
        for i, p in enumerate(parts):
            rate = end_to_end([p], scaled=False)["cell_iters_per_s"]
            print(f"  process {i}: set-up {p.setup_s:.3f} s, {len(p.unit_s)} units "
                  f"in {sum(p.unit_s):.3f} s, {rate:.4g} cell-iterations per wall s, "
                  f"calibration slice median {statistics.median(p.slices) * 1e3:.2f} ms "
                  f"(set-up {p.setup_slice * 1e3:.2f} ms; reference "
                  f"{REFERENCE_S * 1e3:.0f} ms)")
        for name in ("setup_s", "cell_iters_per_s", "decks_per_s", "step_s_p50"):
            print(f"  wall {name} = {wall_metrics[name]:.6g} {units[name]}")
        steps = [t for s in solves for t in s.step_seconds]
        value, pct, n = tail(steps)
        beyond = sum(t > value for t in steps)
        print(f"  wall step_s_tail = {value:.6g} s: p{pct:.1f} of {n} steps, "
              f"{beyond} beyond it")
        loop_rss = parts[0].peak_rss_mb - setup_rss
        print(f"  peak resident memory of process 0: {setup_rss:.1f} MB after "
              f"set-up, {parts[0].peak_rss_mb:.1f} MB after its loop (the loop "
              f"adds {loop_rss:.1f} MB); largest over the processes "
              f"{metrics['peak_rss_mb']:.1f} MB")

    problems = golden_gate()
    references = {i: runner.reference(i) for i in range(len(runner.decks))}
    problems += check(solves, references)
    attempted = len(GOLDEN) + len(solves)
    failed = len(problems)
    for message in problems:
        print(f"  FAILED {message}")
    print(f"  failed_frac = {failed / attempted:.6g} ({failed} of {attempted} decks)")
    for name, value in metrics.items():
        print(f"  {name} = {value:.6g} {units[name]}")
    emit(failed == 0, attempted, failed, metrics, units)
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
