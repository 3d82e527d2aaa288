"""The benchmark's own tests: seeded decks, span arithmetic, the gate.

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

import dataclasses
import json
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from perfbench.decks import WORKLOADS, generate
from perfbench.calibrate import REFERENCE_S
from perfbench.run import BENCHMARK, END_TO_END_UNITS, Part, check, end_to_end, tail
from perfbench.traced import PER_LAYER
from perfbench.spans import (
    Span,
    SpanRecorder,
    descendants,
    layer_totals,
    self_cpu_times,
    self_times,
)
from perfbench.workloads import Runner, Solve, u_sha
from repro.core import fields as F
from repro.core.deck import parse_deck
from repro.core.driver import TeaLeaf


def test_benchmark_json_names_what_the_command_prints():
    spec = json.loads(BENCHMARK.read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END_UNITS
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(PER_LAYER)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_same_decks_other_seed_other_layouts(name):
    workload = WORKLOADS[name]
    first = generate(workload, 7)
    assert first == generate(workload, 7)
    other = generate(workload, 8)
    states = lambda texts: [  # noqa: E731
        [line for line in text.splitlines() if line.startswith("state")]
        for text in texts
    ]
    assert all(a != b for a, b in zip(states(first), states(other)))
    decks = [parse_deck(text) for text in first]
    assert len(decks) == workload.pool
    assert len({d.x_cells for d in decks}) == 1


def test_batch_lanes_differ_in_dt():
    lanes = [parse_deck(t) for t in generate(WORKLOADS["batch_lanes"], 3)]
    assert [d.initial_timestep for d in lanes] == [0.004, 0.005] * (len(lanes) // 2)


def _tree() -> list[Span]:
    # root [0, 10]: a [1, 4] with child a1 [2, 3]; b [3, 6] and c [5, 8]
    # run concurrently (two lanes), so the root's children cover [1, 8].
    return [
        Span("bench", "root", 0.0, 10.0, None),
        Span("x", "a", 1.0, 4.0, 0),
        Span("y", "a1", 2.0, 3.0, 1),
        Span("x", "b", 3.0, 6.0, 0),
        Span("x", "c", 5.0, 8.0, 0),
        Span("x", "b", 3.5, 4.5, 3),
    ]


def test_self_time_subtracts_the_union_of_children():
    spans = _tree()
    assert self_times(spans) == [3.0, 2.0, 1.0, 2.0, 3.0, 1.0]
    assert sorted(descendants(spans, 1)) == [1, 2]


def test_layer_totals_count_outermost_spans_only():
    spans = _tree()
    self_s, outer_s, calls = layer_totals(spans, list(range(len(spans))))
    assert self_s["x"] == 8.0 and self_s["y"] == 1.0 and self_s["bench"] == 3.0
    # the nested x:b span sits under another x:b: neither layer nor key
    # counts it a second time.
    assert calls["x"] == 3 and calls["x:b"] == 1
    assert outer_s["x:b"] == 3.0

    # Without concurrent children, self times add up to the root's wall.
    serial = [
        Span("bench", "root", 0.0, 10.0, None),
        Span("x", "a", 1.0, 4.0, 0),
        Span("y", "a1", 2.0, 3.0, 1),
        Span("x", "b", 5.0, 8.0, 0),
        Span("x", "b", 6.0, 7.0, 3),
    ]
    assert sum(self_times(serial)) == pytest.approx(10.0)


def test_self_cpu_time_subtracts_same_thread_children_only():
    # root on thread 1 spends 1 s of CPU of its own around child a (2 s of
    # CPU, same thread); lane span b runs on thread 2 and is not subtracted.
    spans = [
        Span("bench", "root", 0.0, 10.0, None, 1, 0.0, 3.0),
        Span("x", "a", 1.0, 4.0, 0, 1, 0.5, 2.5),
        Span("x", "b", 1.0, 9.0, 0, 2, 0.0, 4.0),
        Span("y", "b1", 2.0, 3.0, 2, 2, 1.0, 2.5),
    ]
    assert self_cpu_times(spans) == [1.0, 2.0, 2.5, 1.5]
    assert sum(self_cpu_times(spans)) == 3.0 + 4.0


def test_recorder_nests_spans_by_thread_stack():
    recorder = SpanRecorder()
    with recorder.span("bench", "root"):
        with recorder.span("x", "leaf"):
            pass
    root, leaf = recorder.spans
    assert root.parent is None and leaf.parent == 0
    assert root.start <= leaf.start <= leaf.end <= root.end
    assert root.thread == leaf.thread
    assert root.cpu_start <= leaf.cpu_start <= leaf.cpu_end <= root.cpu_end


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    samples = [float(i) for i in range(40)]
    value, pct, n = tail(samples)
    assert (value, n) == (29.0, 40)
    assert sum(s > value for s in samples) == 10
    assert pct == 75.0


def test_times_scale_by_the_slices_around_their_unit():
    # Unit 0 ran at the reference speed, unit 1 while slices took twice as
    # long: its 4 wall seconds count as 2 reference seconds.  A second
    # process adds its set-up, its unit and its memory peak.
    solves = [
        Solve(0, "m", "x", cells=10, iterations=1, step_seconds=[1.0, 1.0], unit=0),
        Solve(1, "m", "x", cells=10, iterations=1, step_seconds=[2.0, 2.0], unit=1),
    ]
    first = Part(
        1.0, REFERENCE_S, 50.0, solves, [2.0, 4.0],
        [REFERENCE_S, REFERENCE_S, 3 * REFERENCE_S],
    )
    other = Part(
        4.0, 4 * REFERENCE_S, 60.0,
        [Solve(2, "m", "x", cells=10, iterations=1, step_seconds=[8.0], unit=0)],
        [8.0], [4 * REFERENCE_S, 4 * REFERENCE_S],
    )
    third = Part(2.0, 2 * REFERENCE_S, 55.0, [], [], [REFERENCE_S])
    parts = [first, other, third]
    scaled = end_to_end(parts)
    assert scaled["cell_iters_per_s"] == pytest.approx(30 / (2.0 + 2.0 + 2.0))
    assert scaled["decks_per_s"] == pytest.approx(3 / 6.0)
    assert scaled["step_s_p50"] == pytest.approx(1.0)
    assert scaled["setup_s"] == pytest.approx(1.0)
    assert scaled["peak_rss_mb"] == 60.0
    wall = end_to_end(parts, scaled=False)
    assert wall["decks_per_s"] == pytest.approx(3 / 14.0)
    assert wall["step_s_p50"] == pytest.approx(2.0)
    assert wall["setup_s"] == pytest.approx(2.0)
    assert Part.from_json(first.to_json()) == first


def test_gate_flags_a_one_ulp_change_to_u():
    workload = dataclasses.replace(
        WORKLOADS["batch_lanes"], mesh=16, end_step=1, pool=2
    )
    decks = [parse_deck(t) for t in generate(workload, 5)]
    runner = Runner(workload, decks)
    references = {i: runner.reference(i) for i in range(len(decks))}
    solves = runner.unit(0)
    assert [s.deck for s in solves] == [0, 1]
    assert check(solves, references) == []

    app = TeaLeaf(decks[1], model="openmp-f90")
    app.run()
    u = app.field(F.U)
    h = app.grid.halo
    u[h, h] = np.nextafter(u[h, h], np.inf)
    app.port.write_field(F.U, u)
    nudged = Solve(deck=1, model="openmp-f90", u_sha=u_sha(app))
    raised = Solve(deck=0, model="openmp-f90", u_sha=None, error="boom")

    problems = check(solves + [nudged, raised], references)
    assert len(problems) == 2
    assert "u_sha" in problems[0] and "boom" in problems[1]
    attempted = len(solves) + 2
    assert len(problems) / attempted == pytest.approx(0.5)


_TRACED_PPCG = """
import dataclasses, sys
sys.path[:0] = [{root!r}, {src!r}]
from perfbench.decks import WORKLOADS, generate
from perfbench.layers import install, is_generated, reset_program_caches
from perfbench.spans import SpanRecorder, layer_totals
from perfbench.workloads import Runner
from repro.core.deck import parse_deck

w = dataclasses.replace(WORKLOADS["ppcg_ranks"], mesh=64, end_step=1, pool=1)
runner = Runner(w, [parse_deck(t) for t in generate(w, 3)])
if {untraced_first}:
    runner.unit(0)
reset_program_caches()
left = [
    (name, attr)
    for name, module in list(sys.modules.items())
    if name.startswith("repro") and module is not None
    for attr, value in vars(module).items()
    if is_generated(value)
]
assert not left, left
recorder = SpanRecorder()
install(recorder)
assert runner.unit(0)[0].error is None
_, _, calls = layer_totals(recorder.spans, list(range(len(recorder.spans))))
print(calls.get("stencil:matvec", 0), calls.get("codegen:kernel", 0))
"""


def _traced_ppcg_counts(untraced_first: bool) -> tuple[int, int]:
    root = Path(__file__).resolve().parents[2]
    code = _TRACED_PPCG.format(
        root=str(root), src=str(root / "src"), untraced_first=untraced_first
    )
    proc = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code)],
        capture_output=True, text=True, timeout=300, check=False,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    matvec, kernels = proc.stdout.split()
    return int(matvec), int(kernels)


def test_traced_unit_after_untraced_one_sees_every_generated_kernel():
    # The overlap executor caches a generated residual kernel in a module
    # global; an untraced unit fills it, and the traced unit must still
    # go through wrapped kernels and a wrapped matvec.
    fresh = _traced_ppcg_counts(untraced_first=False)
    assert fresh[0] > 0 and fresh[1] > 0
    assert _traced_ppcg_counts(untraced_first=True) == fresh
