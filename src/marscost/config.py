"""Run configuration: one JSON file drives the whole pipeline.

The file is checked and built in one walk. Each JSON object may hold the
fields of the dataclasses that read it plus a few loose keys; an unknown key
is rejected with its full path, and a given key must fit its field's type.
Each dataclass is built from only the keys the file gives, so a key left out
takes the dataclass's own default. Every command reads the same file, so a
run is reproducible from the config plus the seed.
"""

import json
import sys
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


def _dotted(path: str, key: str) -> str:
    return f"{path}.{key}" if path else key


def _keys(cls, prefix: str = "") -> list:
    """The config keys of ``cls``: ``prefix`` plus each field that has a default."""
    return [prefix + f.name for f in fields(cls)
            if f.default is not MISSING or f.default_factory is not MISSING]


def _object(node, path: str, keys) -> dict:
    """``node`` if it is a JSON object whose every key is one of ``keys``."""
    if not isinstance(node, dict):
        raise ConfigError(f"config section {path or '<root>'} must be an object")
    for key in node:
        if key not in keys:
            raise ConfigError(f"unknown config key {_dotted(path, key)!r}")
    return node


def _number_fault(val):
    """What keeps ``val`` from being a finite JSON number (a bool is none), or None."""
    if isinstance(val, bool) or not isinstance(val, (int, float)):
        return "a number"
    if not abs(val) <= sys.float_info.max:  # inf, NaN or an int past every float
        return "finite"


def _typed(val, typ, key: str):
    """``val`` if it fits the annotation ``typ``; a ``float`` takes any finite number."""
    if typ is float:
        fault = _number_fault(val)
        if fault:
            raise ConfigError(f"config key {key!r} must be {fault}")
    elif not isinstance(val, typ) or isinstance(val, bool) and typ is not bool:
        what = {int: "must be an integer", bool: "must be a boolean"}.get(typ, "has the wrong type")
        raise ConfigError(f"config key {key!r} {what}")
    return val


def _build(node: dict, path: str, cls, prefix: str = "", section: str = "", **given):
    """``cls`` from the keys ``prefix + field`` of the object at ``path``: a field the file
    leaves out keeps its default, and a dataclass field reads the object at its key.
    A value the dataclass rejects names ``section``, by default ``path``; a ``cls`` read
    under a prefix begins each of its messages with the field, which becomes the key."""
    section = section or path
    for f in fields(cls):
        key = prefix + f.name
        if key in node:
            at, val = _dotted(path, key), node[key]
            given[f.name] = (_build(_object(val, at, _keys(f.type)), at, f.type, section=section)
                             if is_dataclass(f.type) else _typed(val, f.type, at))
    try:
        return cls(**given)
    except ValueError as e:
        raise ConfigError(f"{section} section: {prefix}{e}") from e


def _trajectories(paths: list) -> tuple:
    """Each waypoint path as a read-only ``(n, 2)`` array, ``n >= 2``."""
    if not paths:
        raise ConfigError("sim.trajectories must list at least one waypoint path")
    out = []
    for t_idx, wp in enumerate(paths):
        if not isinstance(wp, list) or len(wp) < 2 or any(
                not isinstance(point, list) or len(point) != 2 for point in wp):
            raise ConfigError(f"sim.trajectories[{t_idx}] must be a list of >= 2 [x, y] waypoints")
        for k, point in enumerate(wp):
            if any(map(_number_fault, point)):
                raise ConfigError(f"sim.trajectories[{t_idx}]: waypoint {k} must be two finite "
                                  f"numbers [x, y], not {json.dumps(point)}")
        out.append(_read_only(wp))
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
    root = _object(data, "", ("seed", "workdir", "sim", "labeling", "model", "train", "eval"))
    sim = _object(root.get("sim", {}), "sim", ("terrain", "trajectories", *_keys(SimConfig)))
    terrain = _object(sim.get("terrain", {}), "sim.terrain", _keys(TerrainConfig))
    labeling = _object(root.get("labeling", {}), "labeling", _keys(LabelingConfig))
    model = _object(root.get("model", {}), "model", _keys(NetConfig) + _keys(BevLayout, "bev_"))
    train = _object(root.get("train", {}), "train", ("holdout_fraction", *_keys(TrainConfig)))
    evals = _object(root.get("eval", {}), "eval", ("modes", *_keys(AblationSpec)))
    if "trajectories" not in sim:
        raise ConfigError("missing required config key 'sim.trajectories'")
    seed = _typed(root.get("seed", 7), int, "seed")
    workdir = _typed(root.get("workdir", "runs/default"), str, "workdir")
    paths = _typed(sim["trajectories"], list, "sim.trajectories")
    holdout_fraction = _typed(train.get("holdout_fraction", 0.25), float, "train.holdout_fraction")
    modes = _typed(evals.get("modes", list(ABLATION_MODES)), list, "eval.modes")
    sections = {
        "terrain": _build(terrain, "sim.terrain", TerrainConfig),
        "sim": _build(sim, "sim", SimConfig),
        "labeling": _build(labeling, "labeling", LabelingConfig),
        "net": _build(model, "model", NetConfig),
        "layout": _build(model, "model", BevLayout, "bev_"),
        "train": _build(train, "train", TrainConfig),
    }
    baseline = _build(evals, "eval", AblationSpec, mode="baseline")
    ablations = tuple(_build(evals, "eval", AblationSpec, mode=mode) for mode in modes)
    for key, value in (("seed", seed), ("train.seed", sections["train"].seed),
                       ("eval.seed", baseline.seed)):
        if value < 0:
            raise ConfigError(f"config key {key!r} must be nonnegative")
    trajectories = _trajectories(paths)
    try:
        _cells_per_bev(sections["layout"], sections["labeling"].fine_res)
    except ValueError as e:
        raise ConfigError(f"model.bev_resolution: {e}") from e
    if not 0.0 <= holdout_fraction < 1.0:
        raise ConfigError("train.holdout_fraction: holdout_fraction must lie in [0, 1)")
    return RunConfig(seed=seed, workdir=Path(workdir), trajectories=trajectories, baseline=baseline,
                     holdout_fraction=holdout_fraction, ablations=ablations, **sections)


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
