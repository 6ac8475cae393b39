"""Run configuration: one JSON file drives the whole pipeline.

The schema is validated strictly: unknown keys are rejected with their full
path, types are checked, and defaults fill anything omitted. Every command
reads the same file, so a run is reproducible from the config plus the seed.
"""

import json
import math
from dataclasses import MISSING, dataclass, fields, is_dataclass
from pathlib import Path

from .dataset import BevLayout, SimConfig, _cells_per_bev
from .evaluation import ABLATION_MODES, AblationSpec
from .heightfield import TerrainConfig
from .labeling import LabelingConfig
from .net import NetConfig
from .train import TrainConfig
from .types import _read_only


class ConfigError(ValueError):
    """Raised for malformed or inconsistent run configuration files."""


_NUMBER = (int, float)
_FIELD_TYPES = {int: int, float: _NUMBER, bool: bool, str | None: (str, type(None))}

# schema: key -> (type, default) where default=_REQUIRED means the key must be present
_REQUIRED = object()


def _fields_schema(cls, prefix: str = "") -> dict:
    """Schema of a dataclass's defaulted fields; nested dataclasses become subsections."""
    out = {}
    for f in fields(cls):
        if is_dataclass(f.type):
            out[prefix + f.name] = _fields_schema(f.type)
        elif f.default is not MISSING:
            out[prefix + f.name] = (_FIELD_TYPES[f.type], f.default)
    return out


# RunConfig field -> (dataclass, config section, key prefix) it is built from
_SECTIONS = {
    "terrain": (TerrainConfig, "sim.terrain", ""),
    "sim": (SimConfig, "sim", ""),
    "labeling": (LabelingConfig, "labeling", ""),
    "net": (NetConfig, "model", ""),
    "layout": (BevLayout, "model", "bev_"),
    "train": (TrainConfig, "train", ""),
}
_EVAL = (AblationSpec, "eval", "")

_SCHEMA = {
    "seed": (int, 7),
    "workdir": (str, "runs/default"),
    "sim": {"terrain": {}, "trajectories": (list, _REQUIRED)},
    "labeling": {},
    "model": {},
    "train": {"holdout_fraction": (_NUMBER, 0.25)},
    "eval": {"modes": (list, list(ABLATION_MODES))},
}


def _lookup(tree: dict, dotted: str):
    """The entry of a nested dict at a dotted key path."""
    for part in dotted.split("."):
        tree = tree[part]
    return tree


# every other key and default comes from the dataclass the section builds
for _cls, _name, _prefix in (*_SECTIONS.values(), _EVAL):
    _lookup(_SCHEMA, _name).update(_fields_schema(_cls, _prefix))


def _build_fields(cls, values: dict, prefix: str = "", **given):
    kwargs = dict(given)
    for f in fields(cls):
        if f.name not in given:
            value = values[prefix + f.name]
            kwargs[f.name] = _build_fields(f.type, value) if is_dataclass(f.type) else value
    return cls(**kwargs)


def _build(values: dict, cls, section: str, prefix: str, **given):
    """One section's dataclass from the validated values; ``given`` fills the rest."""
    try:
        return _build_fields(cls, _lookup(values, section), prefix, **given)
    except ValueError as e:
        raise ConfigError(f"{section} section: {e}") from e


def _validate(node, schema, path=""):
    if not isinstance(node, dict):
        raise ConfigError(f"config section {path or '<root>'} must be an object")
    out = {}
    for key in node:
        if key not in schema:
            raise ConfigError(f"unknown config key {path + key!r}")
    for key, rule in schema.items():
        full = f"{path}{key}"
        if isinstance(rule, dict):
            sub = node.get(key, {})
            out[key] = _validate(sub, rule, full + ".")
            continue
        typ, default = rule
        if key not in node:
            if default is _REQUIRED:
                raise ConfigError(f"missing required config key {full!r}")
            out[key] = default
            continue
        val = node[key]
        if typ is int:
            if isinstance(val, bool) or not isinstance(val, int):
                raise ConfigError(f"config key {full!r} must be an integer")
        elif typ is bool:
            if not isinstance(val, bool):
                raise ConfigError(f"config key {full!r} must be a boolean")
        elif typ is _NUMBER:
            if isinstance(val, bool) or not isinstance(val, _NUMBER):
                raise ConfigError(f"config key {full!r} must be a number")
            if isinstance(val, float) and not math.isfinite(val):
                raise ConfigError(f"config key {full!r} must be finite")
        elif not isinstance(val, typ):
            raise ConfigError(f"config key {full!r} has the wrong type")
        out[key] = val
    return out


def _trajectories(paths: list) -> tuple:
    """Each waypoint path as a read-only ``(n, 2)`` array, ``n >= 2``."""
    if not paths:
        raise ConfigError("sim.trajectories must list at least one waypoint path")
    out = []
    for t_idx, wp in enumerate(paths):
        arr = _read_only(wp)
        if arr.ndim != 2 or arr.shape[0] < 2 or arr.shape[1] != 2:
            raise ConfigError(
                f"sim.trajectories[{t_idx}] must be a list of >= 2 [x, y] waypoints"
            )
        out.append(arr)
    return tuple(out)


@dataclass(frozen=True, eq=False)  # the waypoint arrays have no truth value, so no __eq__
class RunConfig:
    """A validated run configuration: every section built once, when the file loads."""

    seed: int
    workdir: Path
    terrain: TerrainConfig
    trajectories: tuple  # one read-only (n, 2) waypoint array per run
    sim: SimConfig
    labeling: LabelingConfig
    net: NetConfig
    layout: BevLayout
    train: TrainConfig
    holdout_fraction: float
    baseline: AblationSpec  # the spec `eval` runs
    ablations: tuple  # one AblationSpec per mode of `eval.modes`, for `ablate`

    # artifact locations under the workdir
    @property
    def data_dir(self) -> Path:
        return self.workdir / "data"

    @property
    def labels_dir(self) -> Path:
        return self.workdir / "labels"

    @property
    def checkpoint_path(self) -> Path:
        return self.workdir / "model.ckpt"

    @property
    def train_log_path(self) -> Path:
        return self.workdir / "train_log.csv"

    @property
    def report_dir(self) -> Path:
        return self.workdir / "report"


def validate_config(data: dict) -> RunConfig:
    values = _validate(data, _SCHEMA)
    for key in ("seed", "train.seed", "eval.seed"):
        if _lookup(values, key) < 0:
            raise ConfigError(f"config key {key!r} must be nonnegative")
    trajectories = _trajectories(values["sim"]["trajectories"])
    sections = {name: _build(values, *rule) for name, rule in _SECTIONS.items()}
    baseline = _build(values, *_EVAL, mode="baseline")
    ablations = tuple(_build(values, *_EVAL, mode=mode) for mode in values["eval"]["modes"])
    try:
        _cells_per_bev(sections["layout"], sections["labeling"].fine_res)
    except ValueError as e:
        raise ConfigError(f"model.bev_resolution: {e}") from e
    holdout_fraction = values["train"]["holdout_fraction"]
    if not 0.0 <= holdout_fraction < 1.0:
        raise ConfigError("train.holdout_fraction: holdout_fraction must lie in [0, 1)")
    return RunConfig(seed=values["seed"], workdir=Path(values["workdir"]),
                     trajectories=trajectories, holdout_fraction=holdout_fraction,
                     baseline=baseline, ablations=ablations, **sections)


def load_config(path, seed_override: int = None, workdir_override=None) -> RunConfig:
    path = Path(path)

    def reject_constant(name):
        raise ConfigError(f"config file {path} holds the non-finite number {name}")

    try:
        data = json.loads(path.read_text(), parse_constant=reject_constant)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except json.JSONDecodeError as e:
        raise ConfigError(f"config file {path} is not valid JSON: {e}")
    if not isinstance(data, dict):
        raise ConfigError(f"config file {path} must contain a JSON object")
    if seed_override is not None:
        data["seed"] = seed_override
    if workdir_override is not None:
        data["workdir"] = str(workdir_override)
    return validate_config(data)
