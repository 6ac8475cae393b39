"""Run configuration: one JSON file drives the whole pipeline.

The schema is validated strictly: unknown keys are rejected with their full
path, types are checked, and defaults fill anything omitted. Every command
reads the same file, so a run is reproducible from the config plus the seed.
"""

import json
import math
from dataclasses import MISSING, dataclass, fields, is_dataclass
from pathlib import Path

import numpy as np

from .dataset import BevLayout, SimConfig, _cells_per_bev, split_samples
from .evaluation import ABLATION_MODES, AblationSpec
from .labeling import LabelingConfig
from .net import NetConfig
from .train import TrainConfig


class ConfigError(ValueError):
    """Raised for malformed or inconsistent run configuration files."""


_NUMBER = (int, float)
_FIELD_TYPES = {int: int, float: _NUMBER, bool: bool}

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


# dataclass -> (config section, key prefix) it is built from
_SECTIONS = {
    SimConfig: ("sim", ""),
    LabelingConfig: ("labeling", ""),
    NetConfig: ("model", ""),
    BevLayout: ("model", "bev_"),
    TrainConfig: ("train", ""),
    AblationSpec: ("eval", ""),
}

_SCHEMA = {
    "seed": (int, 7),
    "workdir": (str, "runs/default"),
    "sim": {
        "terrain": {
            "rows": (int, 96),
            "cols": (int, 96),
            "cell_size": (_NUMBER, 0.2),
            "roughness": (_NUMBER, 0.6),
            "heightmap_path": ((str, type(None)), None),
        },
        "trajectories": (list, _REQUIRED),
    },
    "labeling": {},
    "model": {},
    "train": {"holdout_fraction": (_NUMBER, 0.25)},
    "eval": {"modes": (list, list(ABLATION_MODES))},
}
# every other key and default comes from the dataclass the section builds
for _cls, (_section, _prefix) in _SECTIONS.items():
    _SCHEMA[_section].update(_fields_schema(_cls, _prefix))


def _build(cls, values: dict, prefix: str = "", **given):
    kwargs = dict(given)
    for f in fields(cls):
        if f.name not in given:
            value = values[prefix + f.name]
            kwargs[f.name] = _build(f.type, value) if is_dataclass(f.type) else value
    return cls(**kwargs)


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


@dataclass
class RunConfig:
    """Validated run configuration with typed section accessors."""

    raw: dict
    source: str = "<dict>"

    @property
    def seed(self) -> int:
        return self.raw["seed"]

    @property
    def workdir(self) -> Path:
        return Path(self.raw["workdir"])

    @property
    def sim(self) -> dict:
        return self.raw["sim"]

    def trajectories(self):
        wps = self.raw["sim"]["trajectories"]
        if not wps:
            raise ConfigError("sim.trajectories must list at least one waypoint path")
        out = []
        for t_idx, wp in enumerate(wps):
            arr = np.asarray(wp, dtype=np.float64)
            if arr.ndim != 2 or arr.shape[0] < 2 or arr.shape[1] != 2:
                raise ConfigError(
                    f"sim.trajectories[{t_idx}] must be a list of >= 2 [x, y] waypoints"
                )
            out.append(arr)
        return out

    def build(self, cls, **given):
        """One section's dataclass from the validated values; ``given`` fills the rest."""
        section, prefix = _SECTIONS[cls]
        try:
            return _build(cls, self.raw[section], prefix, **given)
        except ValueError as e:
            raise ConfigError(f"{section} section: {e}") from e

    def sim_config(self) -> SimConfig:
        return self.build(SimConfig)

    def labeling_config(self) -> LabelingConfig:
        return self.build(LabelingConfig)

    def net_config(self) -> NetConfig:
        return self.build(NetConfig)

    def bev_layout(self) -> BevLayout:
        return self.build(BevLayout)

    def train_config(self) -> TrainConfig:
        return self.build(TrainConfig)

    def ablation_specs(self):
        return [self.build(AblationSpec, mode=mode) for mode in self.raw["eval"]["modes"]]

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


def validate_config(data: dict, source: str = "<dict>") -> RunConfig:
    cfg = RunConfig(_validate(data, _SCHEMA), source)
    for key, value in [
        ("seed", cfg.raw["seed"]),
        ("train.seed", cfg.raw["train"]["seed"]),
        ("eval.seed", cfg.raw["eval"]["seed"]),
    ]:
        if value < 0:
            raise ConfigError(f"config key {key!r} must be nonnegative")
    cfg.trajectories()  # fail fast on malformed waypoint lists
    cfg.sim_config()
    lab = cfg.labeling_config()
    cfg.net_config()
    layout = cfg.bev_layout()
    cfg.train_config()
    cfg.ablation_specs()
    try:
        _cells_per_bev(layout, lab.fine_res)
    except ValueError as e:
        raise ConfigError(f"model.bev_resolution: {e}") from e
    try:
        split_samples([], cfg.raw["train"]["holdout_fraction"], cfg.seed)  # its range check alone
    except ValueError as e:
        raise ConfigError(f"train.holdout_fraction: {e}") from e
    return cfg


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
    return validate_config(data, str(path))
