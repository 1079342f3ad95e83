"""Model specification files: strict JSON schema, helpful error paths.

A spec file declares one model plus optional per-file analysis defaults.
Unknown fields are rejected and every validation error names the offending
field, so a CI failure points at the line to fix.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields, replace
from pathlib import Path
from typing import Any

from .families import Constant, ExplicitList, LogPower, PowerLaw, SequenceFamily
from .models import (
    ROW_SUM_TOL,
    EventSchedule,
    EventSequenceModel,
    GlobalThresholds,
    IndependentModel,
    LatentUniformModel,
    MarkovModel,
    PerLatentThresholds,
)

__all__ = ["SpecError", "AnalysisDefaults", "ModelSpec", "load_spec", "build_model"]


class SpecError(ValueError):
    """A model spec failed validation; ``field`` names the offending entry."""

    def __init__(self, field_path: str, message: str):
        self.field = field_path
        super().__init__(f"{field_path}: {message}")


def _require_mapping(obj: Any, path: str) -> dict:
    if not isinstance(obj, dict):
        raise SpecError(path, f"expected an object, got {type(obj).__name__}")
    return obj


def _check_keys(obj: dict, path: str, required: set[str], optional: set[str] = frozenset()) -> None:
    unknown = set(obj) - required - optional
    if unknown:
        raise SpecError(f"{path}.{sorted(unknown)[0]}", "unknown field")
    missing = required - set(obj)
    if missing:
        raise SpecError(f"{path}.{sorted(missing)[0]}", "required field missing")


def _number(obj: dict, path: str, key: str) -> float:
    v = obj[key]
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise SpecError(f"{path}.{key}", f"expected a number, got {v!r}")
    return float(v)


def _integer(obj: dict, path: str, key: str) -> int:
    v = obj[key]
    if isinstance(v, bool) or not isinstance(v, int):
        raise SpecError(f"{path}.{key}", f"expected an integer, got {v!r}")
    return v


def _int_list(v: Any, path: str) -> list[int]:
    if not isinstance(v, list):
        raise SpecError(path, f"expected a list, got {type(v).__name__}")
    out = []
    for i, x in enumerate(v):
        if isinstance(x, bool) or not isinstance(x, int):
            raise SpecError(f"{path}[{i}]", f"expected an integer, got {x!r}")
        out.append(x)
    return out


def _number_list(v: Any, path: str) -> list[float]:
    if not isinstance(v, list):
        raise SpecError(path, f"expected a list, got {type(v).__name__}")
    out = []
    for i, x in enumerate(v):
        if isinstance(x, bool) or not isinstance(x, (int, float)):
            raise SpecError(f"{path}[{i}]", f"expected a number, got {x!r}")
        out.append(float(x))
    return out


def _parse_family(cfg: Any, path: str, *, allow_offset: bool = False) -> tuple[SequenceFamily, int]:
    cfg = _require_mapping(cfg, path)
    if "family" not in cfg:
        raise SpecError(f"{path}.family", "required field missing")
    kind = cfg["family"]
    offset_keys = {"offset"} if allow_offset else set()
    offset = 0
    if allow_offset and "offset" in cfg:
        offset = _integer(cfg, path, "offset")
    try:
        if kind == "constant":
            _check_keys(cfg, path, {"family", "value"}, offset_keys)
            return Constant(_number(cfg, path, "value")), offset
        if kind == "powerlaw":
            _check_keys(cfg, path, {"family", "scale", "exponent"}, offset_keys)
            return PowerLaw(_number(cfg, path, "scale"), _number(cfg, path, "exponent")), offset
        if kind == "logpower":
            _check_keys(cfg, path, {"family", "scale", "exponent"}, offset_keys)
            return LogPower(_number(cfg, path, "scale"), _number(cfg, path, "exponent")), offset
        if kind == "explicit":
            _check_keys(cfg, path, {"family", "values"}, {"tail"} | offset_keys)
            values = _number_list(cfg["values"], f"{path}.values")
            tail = _number(cfg, path, "tail") if "tail" in cfg else None
            return ExplicitList(tuple(values), tail), offset
    except ValueError as exc:
        if isinstance(exc, SpecError):
            raise
        raise SpecError(path, str(exc)) from exc
    raise SpecError(f"{path}.family", f"unknown family {kind!r}")


def _build_independent(cfg: dict, path: str) -> IndependentModel:
    _check_keys(cfg, path, {"family", "marginal"})
    fam, _ = _parse_family(cfg["marginal"], f"{path}.marginal")
    return IndependentModel(fam)


def _build_markov(cfg: dict, path: str) -> MarkovModel:
    _check_keys(cfg, path, {"family", "transition", "initial", "events"})
    if not isinstance(cfg["transition"], list) or not cfg["transition"]:
        raise SpecError(f"{path}.transition", "expected a nonempty list of rows")
    rows = [
        _number_list(r, f"{path}.transition[{i}]") for i, r in enumerate(cfg["transition"])
    ]
    size = len(rows)
    for i, r in enumerate(rows):
        if len(r) != size:
            raise SpecError(f"{path}.transition[{i}]", f"expected {size} entries, got {len(r)}")
        total = sum(r)
        if abs(total - 1.0) > ROW_SUM_TOL:
            raise SpecError(f"{path}.transition[{i}]", f"row sums to {total!r}, expected 1")
        if any(x < 0.0 for x in r):
            raise SpecError(f"{path}.transition[{i}]", "negative entry")
    initial = _number_list(cfg["initial"], f"{path}.initial")
    if len(initial) != size:
        raise SpecError(f"{path}.initial", f"expected {size} entries, got {len(initial)}")
    if abs(sum(initial) - 1.0) > ROW_SUM_TOL:
        raise SpecError(f"{path}.initial", f"sums to {sum(initial)!r}, expected 1")
    if any(x < 0.0 for x in initial):
        raise SpecError(f"{path}.initial", "negative entry")

    ev = _require_mapping(cfg["events"], f"{path}.events")
    if "mode" not in ev:
        raise SpecError(f"{path}.events.mode", "required field missing")
    mode = ev["mode"]
    try:
        if mode == "constant":
            _check_keys(ev, f"{path}.events", {"mode", "members"})
            schedule = EventSchedule(
                size, constant=_int_list(ev["members"], f"{path}.events.members")
            )
        elif mode == "periodic":
            _check_keys(ev, f"{path}.events", {"mode", "cycle"})
            if not isinstance(ev["cycle"], list) or not ev["cycle"]:
                raise SpecError(f"{path}.events.cycle", "expected a nonempty list of sets")
            schedule = EventSchedule(
                size,
                cycle=[
                    _int_list(s, f"{path}.events.cycle[{i}]") for i, s in enumerate(ev["cycle"])
                ],
            )
        elif mode == "explicit":
            _check_keys(ev, f"{path}.events", {"mode", "sets"}, {"tail"})
            if not isinstance(ev["sets"], list):
                raise SpecError(f"{path}.events.sets", "expected a list of sets")
            schedule = EventSchedule(
                size,
                explicit=[
                    _int_list(s, f"{path}.events.sets[{i}]") for i, s in enumerate(ev["sets"])
                ],
                tail=_int_list(ev["tail"], f"{path}.events.tail") if "tail" in ev else None,
            )
        else:
            raise SpecError(f"{path}.events.mode", f"unknown mode {mode!r}")
        import numpy as np

        return MarkovModel(np.array(rows), np.array(initial), schedule)
    except ValueError as exc:
        if isinstance(exc, SpecError):
            raise
        raise SpecError(f"{path}.events", str(exc)) from exc


def _build_latent(cfg: dict, path: str) -> LatentUniformModel:
    _check_keys(cfg, path, {"family", "num_latents", "coloring", "thresholds"})
    num = _integer(cfg, path, "num_latents")
    coloring = _int_list(cfg["coloring"], f"{path}.coloring")
    thr = cfg["thresholds"]
    try:
        if isinstance(thr, dict):
            fam, _ = _parse_family(thr, f"{path}.thresholds")
            rule: GlobalThresholds | PerLatentThresholds = GlobalThresholds(fam)
        elif isinstance(thr, list):
            fams, offs = [], []
            for i, entry in enumerate(thr):
                fam, off = _parse_family(entry, f"{path}.thresholds[{i}]", allow_offset=True)
                fams.append(fam)
                offs.append(off)
            rule = PerLatentThresholds(tuple(fams), tuple(offs))
        else:
            raise SpecError(f"{path}.thresholds", "expected an object or a list of objects")
        return LatentUniformModel(num, coloring, rule)
    except ValueError as exc:
        if isinstance(exc, SpecError):
            raise
        raise SpecError(path, str(exc)) from exc


_BUILDERS = {
    "independent": _build_independent,
    "markov": _build_markov,
    "latent-uniform": _build_latent,
}

@dataclass(frozen=True)
class AnalysisDefaults:
    terms: int | None = None
    m_max: int | None = None
    tol: float | None = None
    seed: int | None = None
    schedule: tuple[int, ...] | None = None
    count: int | None = None
    horizon: int | None = None
    k_max: int | None = None


@dataclass(frozen=True)
class ModelSpec:
    """A validated spec together with the model it describes, built once at load."""

    name: str
    description: str
    model_config: dict = field(repr=False)
    model: EventSequenceModel = field(repr=False, compare=False)
    defaults: AnalysisDefaults = AnalysisDefaults()

    def echo(self) -> dict:
        """Normalized spec content for report embedding."""
        out: dict[str, Any] = {"name": self.name}
        if self.description:
            out["description"] = self.description
        out["model"] = self.model_config
        defaults = {
            k: (list(v) if isinstance(v, tuple) else v)
            for k, v in vars(self.defaults).items()
            if v is not None
        }
        if defaults:
            out["defaults"] = defaults
        return out


def _parse_defaults(cfg: Any, path: str) -> AnalysisDefaults:
    cfg = _require_mapping(cfg, path)
    _check_keys(cfg, path, set(), {f.name for f in fields(AnalysisDefaults)})
    kwargs: dict[str, Any] = {}
    for key in cfg:
        if key == "tol":
            kwargs[key] = _number(cfg, path, key)
        elif key == "schedule":
            sched = _int_list(cfg[key], f"{path}.schedule")
            if any(b <= a for a, b in zip(sched, sched[1:])):
                raise SpecError(f"{path}.schedule", "must be strictly increasing")
            kwargs[key] = tuple(sched)
        else:
            kwargs[key] = _integer(cfg, path, key)
    return AnalysisDefaults(**kwargs)


def parse_spec(data: Any) -> ModelSpec:
    root = _require_mapping(data, "spec")
    _check_keys(root, "spec", {"model"}, {"name", "description", "defaults"})
    model_cfg = _require_mapping(root["model"], "spec.model")
    if "family" not in model_cfg:
        raise SpecError("spec.model.family", "required field missing")
    family = model_cfg["family"]
    if family not in _BUILDERS:
        raise SpecError(
            "spec.model.family",
            f"unknown model family {family!r}; expected one of {sorted(_BUILDERS)}",
        )
    # Building validates, so load errors surface before any computation.
    model = _BUILDERS[family](model_cfg, "spec.model")
    defaults = (
        _parse_defaults(root["defaults"], "spec.defaults")
        if "defaults" in root
        else AnalysisDefaults()
    )
    name = root.get("name", "")
    if not isinstance(name, str):
        raise SpecError("spec.name", "expected a string")
    description = root.get("description", "")
    if not isinstance(description, str):
        raise SpecError("spec.description", "expected a string")
    return ModelSpec(
        name=name,
        description=description,
        model_config=model_cfg,
        model=model,
        defaults=defaults,
    )


def load_spec(path: str | Path) -> ModelSpec:
    path = Path(path)
    try:
        data = json.loads(path.read_text())
    except FileNotFoundError:
        raise SpecError(str(path), "spec file not found") from None
    except json.JSONDecodeError as exc:
        raise SpecError(str(path), f"invalid JSON: {exc}") from None
    spec = parse_spec(data)
    if not spec.name:
        spec = replace(spec, name=path.stem)
    return spec


def build_model(spec: ModelSpec) -> EventSequenceModel:
    """The model of ``spec``; it was built when the spec was parsed."""
    return spec.model
