"""Seeded deck generation and the benchmark's workload definitions.

Every workload draws its decks from ``random.Random(seed)``: the same seed
gives byte-identical deck text, a different seed a different state layout
(where the hot region sits, whether it is a rectangle or a disc, and the
densities and energies of both states).  The program only ever receives
the generated text, through the ``tea.in`` parser.

The ranges are bounded so that every deck converges well inside
``tl_max_iters`` and the iteration count per deck stays within a narrow
band: the throughput figures then compare programs, not seeds.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

#: Domain of every generated deck (the tea_bm benchmark domain).
DOMAIN = 10.0
#: Solver tolerance of every generated deck (tea_bm_short's).
EPS = 1e-8


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: what runs, on what, and with which flags.

    Why each workload was chosen is recorded next to its name in
    ``BENCHMARK.json``.
    """

    name: str
    #: Programming model every deck runs on.
    model: str
    solver: str
    mesh: int
    end_step: int
    #: Deck flag lines added to every generated deck.  The reference run
    #: of each deck turns them off (see ``Runner.reference``).
    flags: tuple[str, ...]
    #: Distinct decks generated per seed; the timed loop cycles over them.
    pool: int
    #: Ranks of the decomposed port (0 = single chunk).
    ranks: int = 0
    #: Decks per ``run_batch`` call (0 = one deck at a time).
    lanes: int = 0
    #: Timesteps dealt to the pool in order (deck i gets ``timesteps[i %
    #: len]``), so consecutive batch lanes converge at different iterations.
    timesteps: tuple[float, ...] = (0.004,)


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="ppcg_ranks",
            model="openmp-f90",
            solver="ppcg",
            mesh=128,
            end_step=2,
            flags=("tl_overlap",),
            pool=3,
            ranks=4,
        ),
        Workload(
            name="batch_lanes",
            model="openmp-f90",
            solver="cg",
            mesh=128,
            end_step=3,
            flags=("tl_codegen",),
            pool=12,
            lanes=2,
            timesteps=(0.004, 0.005),
        ),
    )
}


def _state_lines(rng: random.Random) -> list[str]:
    """Background plus one hot region, a rectangle or a disc."""
    background = (
        f"state 1 density={rng.uniform(90.0, 110.0):.3f} "
        f"energy={rng.uniform(0.8e-4, 1.2e-4):.4e}"
    )
    density = f"{rng.uniform(0.09, 0.11):.4f}"
    energy = f"{rng.uniform(22.0, 28.0):.3f}"
    if rng.random() < 0.5:
        width = rng.uniform(3.0, 4.0)
        height = rng.uniform(6.0, 7.0)
        x0 = rng.uniform(0.0, DOMAIN - width)
        y0 = rng.uniform(0.0, DOMAIN - height)
        shape = (
            f"geometry=rectangle xmin={x0:.3f} xmax={x0 + width:.3f} "
            f"ymin={y0:.3f} ymax={y0 + height:.3f}"
        )
    else:
        radius = rng.uniform(2.2, 2.8)
        cx = rng.uniform(radius, DOMAIN - radius)
        cy = rng.uniform(radius, DOMAIN - radius)
        shape = f"geometry=circular xmin={cx:.3f} ymin={cy:.3f} radius={radius:.3f}"
    return [background, f"state 2 density={density} energy={energy} {shape}"]


def deck_text(workload: Workload, rng: random.Random, timestep: float) -> str:
    """One generated deck in the ``tea.in`` dialect."""
    lines = ["*tea", *_state_lines(rng)]
    lines += [
        f"x_cells={workload.mesh}",
        f"y_cells={workload.mesh}",
        "xmin=0.0",
        f"xmax={DOMAIN}",
        "ymin=0.0",
        f"ymax={DOMAIN}",
        f"initial_timestep={timestep}",
        f"end_step={workload.end_step}",
        f"tl_use_{workload.solver}",
        "tl_max_iters=10000",
        f"tl_eps={EPS}",
        *workload.flags,
        "*endtea",
    ]
    return "\n".join(lines) + "\n"


def generate(workload: Workload, seed: int) -> list[str]:
    """The workload's deck pool for ``seed``, as deck text."""
    rng = random.Random(f"{workload.name}:{seed}")
    steps = workload.timesteps
    return [
        deck_text(workload, rng, steps[i % len(steps)]) for i in range(workload.pool)
    ]
