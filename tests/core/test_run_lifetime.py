"""A finished run is freed by reference counting alone.

The run's :class:`~repro.models.plan.PlanExecutor` owns the run and is
handed to the solver; nothing the run builds points back at its owner.
With the cyclic garbage collector disabled, the driver, its port, every
chunk port, the executor, the trace and the resilience manager must all
be gone the moment the last strong reference to the run is dropped —
so a loop of solves (a benchmark, a campaign worker) stays flat in
memory without waiting for a full collection.
"""

import dataclasses
import gc
import weakref

import pytest

from repro.comm.multichunk import MultiChunkPort
from repro.core.deck import default_deck
from repro.core.driver import TeaLeaf
from repro.models.tracing import Trace
from repro.resilience.events import RANK_RECOVERY


def _owned(app):
    objs = [app, app.port, app.executor, app.trace, *getattr(app.port, "ports", ())]
    if app.resilience is not None:
        objs.append(app.resilience)
    return [weakref.ref(obj) for obj in objs]


def _alive(refs):
    return sorted({type(obj).__name__ for obj in (r() for r in refs) if obj is not None})


@pytest.fixture
def no_gc():
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


def _decomposed(deck, **kw):
    trace = Trace()
    port = MultiChunkPort(deck.grid(), 4, model="openmp-f90", trace=trace, **kw)
    return TeaLeaf(deck, port=port, trace=trace)


BASE = default_deck(n=16, end_step=1)

CASES = {
    "openmp-f90-cg": lambda: TeaLeaf(BASE, model="openmp-f90"),
    "cuda-codegen-fuse-residency": lambda: TeaLeaf(
        dataclasses.replace(
            BASE,
            tl_codegen=True,
            tl_fuse_kernels=True,
            tl_residency_tracking=True,
        ),
        model="cuda",
    ),
    "ranks-ppcg-overlap": lambda: _decomposed(
        dataclasses.replace(BASE, solver="ppcg", tl_overlap=True)
    ),
    "kokkos-resilient-nan": lambda: TeaLeaf(
        dataclasses.replace(BASE, tl_resilient=True, tl_inject="nan:u:5"),
        model="kokkos",
    ),
    "explicit": lambda: TeaLeaf(BASE.with_solver("explicit"), model="openmp-f90"),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_solo_run_freed_by_refcount(name, no_gc):
    app = CASES[name]()
    result = app.run()
    refs = _owned(app)
    del app, result
    assert _alive(refs) == []


def test_rank_recovery_run_freed_by_refcount(no_gc):
    deck = dataclasses.replace(
        default_deck(n=32, end_step=1),
        tl_resilient=True,
        tl_inject="kill:1:12",
        tl_rank_policy="spare",
        tl_spare_ranks=1,
        tl_checkpoint_frequency=5,
    )
    app = _decomposed(deck, rank_policy="spare", spare_ranks=1)
    refs = _owned(app)  # includes the chunk port that dies
    result = app.run()
    assert any(e.kind == RANK_RECOVERY for e in result.resilience.events)
    refs += _owned(app)  # includes the adopted spare
    del app, result
    assert _alive(refs) == []


def test_batch_lanes_freed_by_refcount(no_gc, monkeypatch):
    from repro.core.batch import run_batch

    refs = []
    init = TeaLeaf.__init__

    def recording_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        refs.extend(_owned(self))

    monkeypatch.setattr(TeaLeaf, "__init__", recording_init)
    decks = [
        dataclasses.replace(BASE, tl_codegen=True, initial_timestep=dt)
        for dt in (0.004, 0.005)
    ]
    batch = run_batch(decks)
    assert batch.errors == [] and len(refs) >= 8
    del batch
    assert _alive(refs) == []
