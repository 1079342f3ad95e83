"""Model specification files: strict JSON schema, helpful error paths.

A spec file declares one model plus optional per-file analysis defaults.
Unknown fields are rejected and every validation error names the offending
field, so a CI failure points at the line to fix.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass, field, fields, replace
from pathlib import Path
from typing import Any, Callable, TypeVar

from .families import (
    Constant,
    ExplicitList,
    LogPower,
    ModelValueError,
    PowerLaw,
    SequenceFamily,
)
from .models import (
    EventSchedule,
    EventSequenceModel,
    GlobalThresholds,
    IndependentModel,
    LatentUniformModel,
    MarkovModel,
    PerLatentThresholds,
)

__all__ = ["SpecError", "AnalysisDefaults", "ModelSpec", "load_spec", "build_model"]

_T = TypeVar("_T")


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


def _number(v: Any, path: str) -> float:
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise SpecError(path, f"expected a number, got {v!r}")
    # json reads NaN, Infinity and 1e999; this bound also rejects ints past the float range
    if not abs(v) <= sys.float_info.max:
        raise SpecError(path, f"expected a finite number, got {v!r}")
    return float(v)


def _integer(v: Any, path: str) -> int:
    if isinstance(v, bool) or not isinstance(v, int):
        raise SpecError(path, f"expected an integer, got {v!r}")
    return v


def _list(v: Any, path: str, item: Callable[[Any, str], _T]) -> list[_T]:
    if not isinstance(v, list):
        raise SpecError(path, f"expected a list, got {type(v).__name__}")
    return [item(x, f"{path}[{i}]") for i, x in enumerate(v)]


def _number_list(v: Any, path: str) -> list[float]:
    return _list(v, path, _number)


def _int_list(v: Any, path: str) -> list[int]:
    return _list(v, path, _integer)


def _construct(path: str, make: Callable[..., _T], *args: Any, **kwargs: Any) -> _T:
    """``make(*args, **kwargs)``, with its ``ModelValueError`` as a SpecError under ``path``."""
    try:
        return make(*args, **kwargs)
    except ModelValueError as exc:
        raise SpecError(f"{path}.{exc.field}", exc.message) from exc


def _parse_family(cfg: Any, path: str, *, allow_offset: bool = False) -> tuple[SequenceFamily, int]:
    cfg = _require_mapping(cfg, path)
    if "family" not in cfg:
        raise SpecError(f"{path}.family", "required field missing")
    kind = cfg["family"]
    offset_keys = {"offset"} if allow_offset else set()
    offset = 0
    if allow_offset and "offset" in cfg:
        offset = _integer(cfg["offset"], f"{path}.offset")
    if kind == "constant":
        _check_keys(cfg, path, {"family", "value"}, offset_keys)
        make, args = Constant, (_number(cfg["value"], f"{path}.value"),)
    elif kind in ("powerlaw", "logpower"):
        _check_keys(cfg, path, {"family", "scale", "exponent"}, offset_keys)
        make = PowerLaw if kind == "powerlaw" else LogPower
        args = (
            _number(cfg["scale"], f"{path}.scale"),
            _number(cfg["exponent"], f"{path}.exponent"),
        )
    elif kind == "explicit":
        _check_keys(cfg, path, {"family", "values"}, {"tail"} | offset_keys)
        values = tuple(_number_list(cfg["values"], f"{path}.values"))
        tail = _number(cfg["tail"], f"{path}.tail") if "tail" in cfg else None
        make, args = ExplicitList, (values, tail)
    else:
        raise SpecError(f"{path}.family", f"unknown family {kind!r}")
    return _construct(path, make, *args), offset


def _build_independent(cfg: dict, path: str) -> IndependentModel:
    _check_keys(cfg, path, {"family", "marginal"})
    fam, _ = _parse_family(cfg["marginal"], f"{path}.marginal")
    return IndependentModel(fam)


def _build_markov(cfg: dict, path: str) -> MarkovModel:
    _check_keys(cfg, path, {"family", "transition", "initial", "events"})
    rows = _list(cfg["transition"], f"{path}.transition", _number_list)
    if not rows:  # the row count sizes the event sets, which are built first
        raise SpecError(f"{path}.transition", "expected a nonempty list of rows")
    initial = _number_list(cfg["initial"], f"{path}.initial")
    ev_path = f"{path}.events"
    ev = _require_mapping(cfg["events"], ev_path)
    if "mode" not in ev:
        raise SpecError(f"{ev_path}.mode", "required field missing")
    mode = ev["mode"]
    if mode == "constant":
        _check_keys(ev, ev_path, {"mode", "members"})
        sets = {"constant": _int_list(ev["members"], f"{ev_path}.members")}
    elif mode == "periodic":
        _check_keys(ev, ev_path, {"mode", "cycle"})
        sets = {"cycle": _list(ev["cycle"], f"{ev_path}.cycle", _int_list)}
    elif mode == "explicit":
        _check_keys(ev, ev_path, {"mode", "sets"}, {"tail"})
        sets = {"explicit": _list(ev["sets"], f"{ev_path}.sets", _int_list)}
        if "tail" in ev:
            sets["tail"] = _int_list(ev["tail"], f"{ev_path}.tail")
    else:
        raise SpecError(f"{ev_path}.mode", f"unknown mode {mode!r}")
    schedule = _construct(ev_path, EventSchedule, len(rows), **sets)
    return _construct(path, MarkovModel, rows, initial, schedule)


def _build_latent(cfg: dict, path: str) -> LatentUniformModel:
    _check_keys(cfg, path, {"family", "num_latents", "coloring", "thresholds"})
    num = _integer(cfg["num_latents"], f"{path}.num_latents")
    coloring = _int_list(cfg["coloring"], f"{path}.coloring")
    thr = cfg["thresholds"]
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
    return _construct(path, LatentUniformModel, num, coloring, rule)


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
            kwargs[key] = _number(cfg[key], f"{path}.tol")
        elif key == "schedule":
            sched = _int_list(cfg[key], f"{path}.schedule")
            if any(b <= a for a, b in zip(sched, sched[1:])):
                raise SpecError(f"{path}.schedule", "must be strictly increasing")
            kwargs[key] = tuple(sched)
        else:
            kwargs[key] = _integer(cfg[key], f"{path}.{key}")
    return AnalysisDefaults(**kwargs)


def parse_spec(data: Any) -> ModelSpec:
    root = _require_mapping(data, "spec")
    _check_keys(root, "spec", {"model"}, {"name", "description", "defaults"})
    model_cfg = _require_mapping(root["model"], "spec.model")
    if "family" not in model_cfg:
        raise SpecError("spec.model.family", "required field missing")
    family = model_cfg["family"]
    if not isinstance(family, str) or family not in _BUILDERS:
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
        data = json.loads(path.read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise SpecError(str(path), "spec file not found") from None
    except OSError as exc:
        raise SpecError(str(path), f"cannot read the spec file: {exc.strerror or exc}") from None
    except UnicodeDecodeError as exc:
        raise SpecError(str(path), f"not UTF-8 text: {exc.reason} at byte {exc.start}") from None
    except json.JSONDecodeError as exc:
        raise SpecError(str(path), f"invalid JSON: {exc}") from None
    spec = parse_spec(data)
    if not spec.name:
        spec = replace(spec, name=path.stem)
    return spec


def build_model(spec: ModelSpec) -> EventSequenceModel:
    """The model of ``spec``; it was built when the spec was parsed."""
    return spec.model
