"""Declarative campaign specs: a grid of runs with per-run overrides.

A campaign is the unit the paper's evaluation actually consists of —
every figure is a (model x solver x mesh x device) sweep — lifted to a
first-class, crash-safe object.  A :class:`CampaignSpec` declares:

* ``kind`` — what one run is:

  - ``"solve"``: one TeaLeaf solve of a deck under a programming-model
    port, optionally decomposed over ranks and optionally with a fault
    profile injected (chaos campaigns that kill ranks per run);
  - ``"experiment"``: one entry of the :mod:`repro.harness.experiments`
    registry (the paper's tables/figures).

* ``axes`` — the sweep grid: every combination of axis values becomes
  one run (``deck x model x solver x mesh x faults`` for solve
  campaigns, ``experiment x quick`` for experiment campaigns).

* ``overrides`` — per-run patches: ``{"match": {axis: value...},
  "set": {field: value...}}`` entries applied to every expanded run
  whose axis coordinates match (e.g. rank-kill fault profiles get
  ``ranks: 4`` and a recovery policy).

* failure-handling defaults — retry budget, per-run wall-clock timeout,
  backoff schedule, and whether a run that keeps failing at full scale
  may degrade to quick mode (recorded, never silent).

Every run resolves to a plain, canonically-ordered dict; its SHA-256
hash is the run key under which the result store files the outcome, so
a finished run is never recomputed no matter how often the campaign is
relaunched.
"""

from __future__ import annotations

import hashlib
import itertools
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Mapping

from repro.util.errors import CampaignError

__all__ = [
    "CampaignSpec",
    "RunConfig",
    "canonical_json",
    "run_key",
]

#: Fields a resolved solve run may carry (axis names and override targets).
SOLVE_FIELDS = {
    "deck": None,          # path to a tea.in deck, or None for default_deck
    "model": "openmp-f90",
    "solver": "cg",
    "mesh": 64,
    "steps": 1,
    "eps": 1e-10,
    "ranks": 1,
    "faults": "",          # comma-separated fault specs (tl_inject)
    "resilient": False,
    "rank_policy": "none",
    "spare_ranks": 0,
    "fuse": False,
    "residency": False,
    "preconditioner": "none",
    "fault_seed": 1234,
    "solver_retries": 3,   # tl_max_retries inside the solve
    "chaos": None,         # campaign-level chaos profile (see worker.py)
}

#: Fields a resolved experiment run may carry.
EXPERIMENT_FIELDS = {
    "experiment": None,
    "quick": True,
    "chaos": None,
}

#: Chaos kinds the worker honours (attempt-indexed process-level faults).
CHAOS_KINDS = ("fail", "exit", "sigkill", "hang")


def canonical_json(obj: Any) -> str:
    """Deterministic JSON: sorted keys, no whitespace drift."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def run_key(resolved: Mapping[str, Any]) -> str:
    """Content address of a fully-resolved run config."""
    return hashlib.sha256(canonical_json(dict(resolved)).encode()).hexdigest()[:20]


@dataclass(frozen=True)
class RunConfig:
    """One fully-resolved run of a campaign."""

    #: The axis coordinates that produced this run (for labels/matching).
    axes: dict[str, Any]
    #: The complete resolved config the worker executes (includes axes).
    resolved: dict[str, Any]

    @property
    def key(self) -> str:
        return run_key(self.resolved)

    @property
    def kind(self) -> str:
        return self.resolved["kind"]

    def label(self) -> str:
        """Human-readable run id, stable across processes."""
        parts = [
            f"{name}={self.axes[name] if self.axes[name] not in ('', None) else '-'}"
            for name in sorted(self.axes)
        ]
        return " ".join(parts)


def _validate_chaos(chaos: Any, where: str) -> None:
    if chaos is None:
        return
    if not isinstance(chaos, dict):
        raise CampaignError(f"{where}: chaos must be a mapping, got {chaos!r}")
    for kind, attempts in chaos.items():
        if kind not in CHAOS_KINDS:
            raise CampaignError(
                f"{where}: unknown chaos kind '{kind}' "
                f"(expected one of {', '.join(CHAOS_KINDS)})"
            )
        ok = attempts == "*" or (
            isinstance(attempts, list)
            and attempts
            and all(isinstance(a, int) and a >= 1 for a in attempts)
        )
        if not ok:
            raise CampaignError(
                f"{where}: chaos attempts must be '*' or a list of "
                f"1-based attempt numbers, got {attempts!r}"
            )


@dataclass(frozen=True)
class CampaignSpec:
    """A validated campaign: grid, overrides, and failure-handling knobs."""

    name: str
    kind: str = "solve"
    axes: dict[str, tuple] = field(default_factory=dict)
    defaults: dict[str, Any] = field(default_factory=dict)
    #: ({axis: value...}, {field: value...}) patches, applied in order.
    overrides: tuple[tuple[dict, dict], ...] = ()
    #: Per-run retry budget (number of *retries* after the first attempt).
    retries: int = 2
    #: Per-run wall-clock timeout in seconds (None = no timeout).
    timeout_seconds: float | None = 300.0
    #: Exponential backoff between retries of one run.
    backoff_base_seconds: float = 0.25
    backoff_factor: float = 2.0
    #: Jitter fraction in [0, 1]; the draw is seeded per (run key,
    #: attempt) so a replayed campaign backs off identically.
    backoff_jitter: float = 0.25
    backoff_max_seconds: float = 30.0
    #: Graceful degradation: a run that exhausts its retry budget at full
    #: scale may be re-run once in quick mode, recorded as ``degraded``.
    allow_quick_fallback: bool = False
    #: Mesh a degraded solve run falls back to.
    quick_mesh: int = 48
    #: Default worker-pool width (CLI --max-workers overrides).
    max_workers: int = 2

    # ------------------------------------------------------------------ #
    # construction / validation
    # ------------------------------------------------------------------ #
    def __post_init__(self) -> None:
        if not self.name or not self.name.replace("-", "").replace("_", "").isalnum():
            raise CampaignError(
                f"campaign name must be a non-empty slug, got {self.name!r}"
            )
        if self.kind not in ("solve", "experiment"):
            raise CampaignError(
                f"campaign kind must be 'solve' or 'experiment', got {self.kind!r}"
            )
        if self.retries < 0:
            raise CampaignError("retries must be non-negative")
        if self.timeout_seconds is not None and self.timeout_seconds <= 0:
            raise CampaignError("timeout_seconds must be positive (or null)")
        if self.backoff_base_seconds < 0:
            raise CampaignError("backoff_base_seconds must be non-negative")
        if not (0.0 <= self.backoff_jitter <= 1.0):
            raise CampaignError("backoff_jitter must be in [0, 1]")
        if self.max_workers < 1:
            raise CampaignError("max_workers must be at least 1")
        known = SOLVE_FIELDS if self.kind == "solve" else EXPERIMENT_FIELDS
        if not self.axes:
            raise CampaignError("a campaign needs at least one axis")
        for axis, values in self.axes.items():
            if axis not in known:
                raise CampaignError(
                    f"unknown {self.kind} axis '{axis}' "
                    f"(expected one of {', '.join(sorted(known))})"
                )
            if not values:
                raise CampaignError(f"axis '{axis}' has no values")
        for key in self.defaults:
            if key not in known:
                raise CampaignError(f"unknown {self.kind} default '{key}'")
        for match, patch in self.overrides:
            for axis in match:
                if axis not in self.axes:
                    raise CampaignError(
                        f"override matches unknown axis '{axis}'"
                    )
            for key in patch:
                if key not in known:
                    raise CampaignError(
                        f"override sets unknown {self.kind} field '{key}'"
                    )
        # Validate each expanded run eagerly so `launch` fails fast with
        # a spec error instead of failing run-by-run at execution time.
        for run in self.expand():
            self._validate_run(run)

    def _validate_run(self, run: RunConfig) -> None:
        resolved = run.resolved
        _validate_chaos(resolved.get("chaos"), f"run {run.label()}")
        if self.kind == "experiment":
            from repro.harness.experiments import EXPERIMENTS

            eid = resolved.get("experiment")
            if eid not in EXPERIMENTS:
                raise CampaignError(
                    f"unknown experiment '{eid}' "
                    f"(available: {', '.join(EXPERIMENTS)})"
                )
            return
        from repro.models.base import available_models
        from repro.resilience.faults import parse_injections

        if resolved["model"] not in available_models():
            raise CampaignError(
                f"unknown model '{resolved['model']}' "
                f"(available: {', '.join(available_models())})"
            )
        if resolved["solver"] not in ("cg", "chebyshev", "ppcg", "jacobi"):
            raise CampaignError(f"unknown solver '{resolved['solver']}'")
        if not isinstance(resolved["mesh"], int) or resolved["mesh"] < 4:
            raise CampaignError(f"bad mesh {resolved['mesh']!r} (need int >= 4)")
        if resolved["ranks"] < 1:
            raise CampaignError("ranks must be at least 1")
        if resolved["deck"] is not None and not Path(resolved["deck"]).exists():
            raise CampaignError(f"deck file not found: {resolved['deck']}")
        try:
            parse_injections(resolved["faults"])
        except ValueError as exc:
            raise CampaignError(f"bad fault profile: {exc}") from exc

    # ------------------------------------------------------------------ #
    # expansion
    # ------------------------------------------------------------------ #
    def expand(self) -> list[RunConfig]:
        """The full grid, overrides applied, in deterministic order."""
        known = SOLVE_FIELDS if self.kind == "solve" else EXPERIMENT_FIELDS
        axis_names = list(self.axes)
        runs = []
        for combo in itertools.product(*(self.axes[a] for a in axis_names)):
            axes = dict(zip(axis_names, combo))
            resolved = dict(known)
            resolved.update(self.defaults)
            resolved.update(axes)
            for match, patch in self.overrides:
                if all(axes.get(a) == v for a, v in match.items()):
                    resolved.update(patch)
            resolved["kind"] = self.kind
            runs.append(RunConfig(axes=axes, resolved=resolved))
        keys = [r.key for r in runs]
        if len(set(keys)) != len(keys):
            raise CampaignError(
                "campaign grid contains duplicate runs (two axis "
                "combinations resolved to the same config)"
            )
        return runs

    # ------------------------------------------------------------------ #
    # (de)serialisation — the store freezes the spec as JSON
    # ------------------------------------------------------------------ #
    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "kind": self.kind,
            "axes": {a: list(v) for a, v in self.axes.items()},
            "defaults": dict(self.defaults),
            "overrides": [
                {"match": dict(m), "set": dict(s)} for m, s in self.overrides
            ],
            "retries": self.retries,
            "timeout_seconds": self.timeout_seconds,
            "backoff_base_seconds": self.backoff_base_seconds,
            "backoff_factor": self.backoff_factor,
            "backoff_jitter": self.backoff_jitter,
            "backoff_max_seconds": self.backoff_max_seconds,
            "allow_quick_fallback": self.allow_quick_fallback,
            "quick_mesh": self.quick_mesh,
            "max_workers": self.max_workers,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "CampaignSpec":
        if not isinstance(data, Mapping):
            raise CampaignError(f"campaign spec must be a mapping, got {data!r}")
        unknown = set(data) - {
            "name", "kind", "axes", "defaults", "overrides", "retries",
            "timeout_seconds", "backoff_base_seconds", "backoff_factor",
            "backoff_jitter", "backoff_max_seconds", "allow_quick_fallback",
            "quick_mesh", "max_workers",
        }
        if unknown:
            raise CampaignError(
                f"unknown campaign spec key(s): {', '.join(sorted(unknown))}"
            )
        if "name" not in data or "axes" not in data:
            raise CampaignError("campaign spec needs 'name' and 'axes'")
        try:
            axes = {a: tuple(v) for a, v in dict(data["axes"]).items()}
            overrides = tuple(
                (dict(o["match"]), dict(o["set"]))
                for o in data.get("overrides", [])
            )
        except (TypeError, KeyError, AttributeError) as exc:
            raise CampaignError(f"malformed campaign spec: {exc!r}") from exc
        kwargs: dict[str, Any] = {
            k: data[k]
            for k in (
                "kind", "retries", "timeout_seconds", "backoff_base_seconds",
                "backoff_factor", "backoff_jitter", "backoff_max_seconds",
                "allow_quick_fallback", "quick_mesh", "max_workers",
            )
            if k in data
        }
        return cls(
            name=str(data["name"]),
            axes=axes,
            defaults=dict(data.get("defaults", {})),
            overrides=overrides,
            **kwargs,
        )

    @classmethod
    def from_file(cls, path: str | Path) -> "CampaignSpec":
        path = Path(path)
        try:
            data = json.loads(path.read_text())
        except OSError as exc:
            raise CampaignError(
                f"campaign spec invalid: cannot read {path}: {exc}"
            ) from exc
        except json.JSONDecodeError as exc:
            raise CampaignError(
                f"campaign spec invalid: {path} is not JSON: {exc}"
            ) from exc
        return cls.from_dict(data)

    def degraded_variant(self, resolved: Mapping[str, Any]) -> dict | None:
        """The quick-mode fallback of a run, or None if not degradable.

        Experiment runs flip ``quick``; solve runs shrink to the spec's
        ``quick_mesh`` and a single step.  The fallback is only offered
        when it actually changes the config (a run already at quick scale
        has nothing to fall back to).
        """
        if not self.allow_quick_fallback:
            return None
        degraded = dict(resolved)
        if self.kind == "experiment":
            degraded["quick"] = True
        else:
            degraded["mesh"] = min(resolved["mesh"], self.quick_mesh)
            degraded["steps"] = 1
        return None if degraded == dict(resolved) else degraded
