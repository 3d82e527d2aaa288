"""Outside-in instrumentation: wrap each layer's public functions in spans.

Nothing in the program changes.  The wrappers are installed from here,
after the program's modules are imported and before any plan compiles:

* module functions (the stencil and reduction leaves, codegen's compile
  entry, the overlap executor, the halo pack/unpack helpers) are rebound
  in the defining module *and* in every ``repro`` module that imported
  them by name, plus codegen's ``_GLOBALS``, which generated kernels copy
  when they are compiled;
* methods (driver, solvers, plan executor, ports, the trace recorder,
  the batch conductor) are replaced on their classes, so every instance
  created afterwards goes through them;
* each generated kernel returned by codegen's compile entry is wrapped
  once and the same wrapper is handed out on every cache hit, because
  the batch conductor groups lanes by function identity.

Generated kernels and compiled plans built before installation still hold
the unwrapped functions, so :func:`reset_program_caches` drops them first:
codegen's cache, every plan's compiled step lists, and every ``repro``
module global that holds a generated kernel (the overlap executor keeps
its residual kernel in one and refills it on first use).
"""

from __future__ import annotations

import functools
import gc
import inspect
import sys
from typing import Any, Callable

from perfbench.spans import SpanRecorder

#: (module, function name) -> (layer, span name) for module-level functions.
FUNCTIONS: dict[tuple[str, str], tuple[str, str]] = {
    ("repro.models.stencil", "row_matvec"): ("stencil", "matvec"),
    ("repro.models.stencil", "flat_matvec"): ("stencil", "matvec"),
    ("repro.models.stencil", "row_diag"): ("stencil", "diag"),
    ("repro.models.stencil", "flat_diag"): ("stencil", "diag"),
    ("repro.models.reduction", "deterministic_sum"): ("reduction", "sum"),
    ("repro.models.reduction", "deterministic_dot"): ("reduction", "dot"),
    ("repro.models.reduction", "deterministic_multi_sum"): ("reduction", "multi_sum"),
    ("repro.models.reduction", "combine_partials"): ("reduction", "combine"),
    ("repro.models.overlap", "execute_overlap"): ("overlap", "exec"),
    ("repro.comm.halo", "pack_edge"): ("comm", "pack"),
    ("repro.comm.halo", "unpack_edge"): ("comm", "unpack"),
    ("repro.core.batch", "run_batch"): ("batch", "run_batch"),
}

#: Modules whose import creates every import site the workloads reach.
MODULES = (
    "repro.models",
    "repro.models.tracing",
    "repro.models.plan",
    "repro.models.codegen",
    "repro.models.overlap",
    "repro.models.arena",
    "repro.core.driver",
    "repro.core.batch",
    "repro.core.solvers",
    "repro.comm.multichunk",
)

#: (module, class) -> {method: (layer, span name)}; subclasses included.
METHODS: dict[tuple[str, str], dict[str, tuple[str, str]]] = {
    ("repro.core.driver", "TeaLeaf"): {
        "__init__": ("driver", "construct"),
        "step": ("driver", "step"),
        "run": ("driver", "run"),
    },
    ("repro.core.solvers", "Solver"): {"solve": ("solvers", "solve")},
    ("repro.models.plan", "PlanExecutor"): {"run": ("plan", "run")},
    ("repro.models.tracing", "Trace"): {
        m: ("trace", m) for m in ("kernel", "transfer", "reduction_pass", "region")
    },
    ("repro.core.batch", "BatchConductor"): {
        "submit": ("batch", "submit"),
        "_sweep": ("batch", "sweep"),
        "_solo": ("batch", "solo"),
    },
}

#: Ports: every public method is a ``ports`` span, except the decomposed
#: port's halo methods, which are the ``comm`` layer.
_PORT_DISPATCH = ("dispatch", "dispatch_fused", "dispatch_compiled")
_COMM_METHODS = {
    "update_halo": "exchange",
    "halo_begin": "exchange",
    "halo_wait": "wait",
}


def import_program() -> None:
    import importlib

    for name in MODULES:
        importlib.import_module(name)


def reset_program_caches() -> None:
    """Drop generated kernels and every plan's compiled step lists."""
    from repro.models import codegen
    from repro.models.plan import Plan

    codegen.clear_cache()
    for obj in gc.get_objects():
        if isinstance(obj, Plan):
            obj._compiled.clear()
    for mod_name, module in list(sys.modules.items()):
        if not mod_name.startswith("repro") or module is None:
            continue
        for attr, value in list(vars(module).items()):
            if is_generated(value):
                setattr(module, attr, None)


def is_generated(value: Any) -> bool:
    """True for a function that codegen compiled from generated source."""
    code = getattr(value, "__code__", None)
    return code is not None and code.co_filename.startswith("<codegen:")


def _wrap(fn: Callable, recorder: SpanRecorder, layer: str, name: str) -> Callable:
    open_, close = recorder.open, recorder.close

    @functools.wraps(fn)
    def traced(*args: Any, **kwargs: Any) -> Any:
        index = open_(layer, name)
        try:
            return fn(*args, **kwargs)
        finally:
            close(index)

    return traced


def _rebind(original: Callable, replacement: Callable) -> None:
    """Point every ``repro`` module attribute bound to ``original`` elsewhere."""
    for mod_name, module in list(sys.modules.items()):
        if not mod_name.startswith("repro") or module is None:
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def _wrap_methods(
    cls: type,
    recorder: SpanRecorder,
    name_of: Callable[[type, str], tuple[str, str] | None],
) -> None:
    for klass in [cls, *_subclasses(cls)]:
        for attr, value in list(vars(klass).items()):
            if not inspect.isfunction(value):
                continue
            target = name_of(klass, attr)
            if target is not None:
                setattr(klass, attr, _wrap(value, recorder, *target))


def _subclasses(cls: type) -> list[type]:
    out, todo = [], list(cls.__subclasses__())
    while todo:
        klass = todo.pop()
        out.append(klass)
        todo.extend(klass.__subclasses__())
    return out


def install(recorder: SpanRecorder) -> None:
    """Wrap every layer boundary the workloads cross; call once."""
    import_program()
    from repro.comm.multichunk import MultiChunkPort
    from repro.models import codegen
    from repro.models.base import Port

    for (mod_name, attr), (layer, name) in FUNCTIONS.items():
        original = getattr(sys.modules[mod_name], attr)
        wrapped = _wrap(original, recorder, layer, name)
        _rebind(original, wrapped)
        for key, value in codegen._GLOBALS.items():
            if value is original:
                codegen._GLOBALS[key] = wrapped

    # Compile entry: the span times generation + exec on a miss and the
    # lookup on a hit; the kernel it returns is wrapped exactly once.
    compile_fn = codegen._function_for
    kernels: dict[Callable, Callable] = {}

    def function_for(calls):
        index = recorder.open("codegen", "compile")
        try:
            fn, source = compile_fn(calls)
        finally:
            recorder.close(index)
        if fn not in kernels:
            kernels[fn] = _wrap(fn, recorder, "codegen", "kernel")
        return kernels[fn], source

    codegen._function_for = function_for

    for (mod_name, cls_name), table in METHODS.items():
        cls = getattr(sys.modules[mod_name], cls_name)
        _wrap_methods(cls, recorder, lambda klass, attr, t=table: t.get(attr))

    def port_span(klass: type, attr: str) -> tuple[str, str] | None:
        if attr.startswith("_"):
            return None
        if issubclass(klass, MultiChunkPort) and attr in _COMM_METHODS:
            return ("comm", _COMM_METHODS[attr])
        if attr in _PORT_DISPATCH:
            return ("ports", "dispatch")
        return ("ports", attr)

    _wrap_methods(Port, recorder, port_span)
