"""Metrics, input-corruption ablations and costmap export.

The ablation suite probes a trained model's robustness by corrupting inputs
at evaluation time (color removal, a flat image, image occlusion, point
dropout, Gaussian noise) while the label raster is never touched. One shared
set of weights is used for every mode: :func:`apply_ablation` alone defines
what a mode does.
"""

from dataclasses import dataclass, replace

import numpy as np

from . import io as mio
from .net import ModelParams, forward
from .train import sensor_noise
from .types import DenseCostmap, Image, PointCloud, Sample

ABLATION_MODES = (
    "baseline",
    "no_color_pointcloud",
    "no_image_encoder",
    "occlude_image",
    "sparse_pointcloud",
    "gaussian_noise",
)


@dataclass
class AblationSpec:
    """One input-corruption mode plus its knobs and seed."""

    mode: str
    occlusion_fraction: float = 0.3
    drop_fraction: float = 0.3
    noise_sigma_image: float = 0.02
    noise_sigma_points: float = 0.02  # meters
    seed: int = 3

    def __post_init__(self):
        if self.mode not in ABLATION_MODES:
            raise ValueError(f"unknown ablation mode {self.mode!r}; choose from {ABLATION_MODES}")
        for name in ("occlusion_fraction", "drop_fraction"):
            v = getattr(self, name)
            if not 0.0 <= v < 1.0:
                raise ValueError(f"{name} must lie in [0, 1)")
        if not (self.noise_sigma_image >= 0 and self.noise_sigma_points >= 0):
            raise ValueError("noise sigmas must be nonnegative")


def mae(pred: DenseCostmap, target: DenseCostmap) -> float:
    """Mean absolute error over valid target cells."""
    return float(np.mean(np.abs(_valid_errors(pred, target))))


def mse(pred: DenseCostmap, target: DenseCostmap) -> float:
    """Mean squared error over valid target cells."""
    return float(np.mean(_valid_errors(pred, target) ** 2))


def _valid_errors(pred: DenseCostmap, target: DenseCostmap) -> np.ndarray:
    if pred.values.shape != target.values.shape:
        raise ValueError("prediction and target grids differ")
    if not np.any(target.valid):
        raise ValueError("target has no valid cells")
    return (pred.values - target.values)[target.valid]


def apply_ablation(sample: Sample, spec: AblationSpec) -> Sample:
    """Corrupt one sample's inputs per the spec; the target is passed on as it is.

    Deterministic for a fixed seed; ``baseline`` returns ``sample`` itself.
    ``no_color_pointcloud`` and ``no_image_encoder`` recolour the cloud
    (:meth:`PointCloud.recolored`), so their points keep the clean cloud's
    pillar grouping. ``no_image_encoder`` replaces the image by a flat image of
    its mean color and writes that color into the points, so no image content
    reaches the model.
    """
    rng = np.random.default_rng(spec.seed)
    cloud, image = sample.cloud, sample.image
    if spec.mode == "baseline":
        return sample
    if spec.mode == "no_color_pointcloud":
        rgb = np.zeros_like(cloud.rgb)
        rgb.flags.writeable = False  # held by the cloud uncopied
        cloud = cloud.recolored(rgb)
    elif spec.mode == "no_image_encoder":
        mean = image.pixels.reshape(-1, 3).mean(axis=0)
        rgb = np.full((len(cloud), 3), mean)
        px = np.full(image.pixels.shape, mean)
        rgb.flags.writeable = px.flags.writeable = False  # held by the cloud and image uncopied
        cloud = cloud.recolored(rgb)
        image = Image(px)
    elif spec.mode == "occlude_image" and spec.occlusion_fraction > 0.0:  # 0 occludes nothing
        px = image.pixels.copy()
        h, w = px.shape[:2]
        oh = max(1, round(h * np.sqrt(spec.occlusion_fraction)))
        ow = max(1, round(spec.occlusion_fraction * h * w / oh))
        oh, ow = min(oh, h), min(ow, w)
        top = int(rng.integers(0, h - oh + 1))
        left = int(rng.integers(0, w - ow + 1))
        px[top : top + oh, left : left + ow, :] = 0.0
        px.flags.writeable = False  # held by the image uncopied
        image = Image(px)
    elif spec.mode == "sparse_pointcloud":
        n = len(cloud)
        keep = round((1.0 - spec.drop_fraction) * n)
        idx = np.sort(rng.choice(n, size=keep, replace=False)) if n else np.zeros(0, int)
        xyz, rgb = cloud.xyz[idx], cloud.rgb[idx]
        xyz.flags.writeable = rgb.flags.writeable = False  # held by the cloud uncopied
        cloud = PointCloud(xyz, rgb)
    elif spec.mode == "gaussian_noise":
        return sensor_noise(sample, rng, spec.noise_sigma_image, spec.noise_sigma_points)
    return Sample(cloud, image, sample.target)


def predict(params: ModelParams, sample: Sample) -> DenseCostmap:
    """Run the model on a (possibly ablated) sample."""
    return forward(params, sample.cloud, sample.image, sample.target.grid)


@dataclass
class ModeMetrics:
    mode: str
    mae: float
    mse: float
    n: int  # samples evaluated


@dataclass
class MetricsReport:
    rows: list

    def by_mode(self) -> dict:
        return {r.mode: r for r in self.rows}

    def to_csv_text(self) -> str:
        lines = ["mode,mae,mse,n"]
        for r in self.rows:
            lines.append(f"{r.mode},{r.mae:.17g},{r.mse:.17g},{r.n}")
        return "\n".join(lines) + "\n"

    def format_table(self) -> str:
        width = max(len(r.mode) for r in self.rows) if self.rows else 4
        lines = [f"{'mode':<{width}}  {'mae':>10}  {'mse':>10}  {'n':>5}"]
        for r in self.rows:
            lines.append(f"{r.mode:<{width}}  {r.mae:>10.4f}  {r.mse:>10.4f}  {r.n:>5}")
        return "\n".join(lines)


def run_ablation_suite(params: ModelParams, dataset, specs) -> MetricsReport:
    """Evaluate one shared set of weights under every requested corruption mode.

    Cell errors are pooled across samples (valid target cells only); each
    sample's corruption uses a seed derived from (spec.seed, sample index) so
    reports are reproducible.
    """
    dataset = list(dataset)
    if not dataset:
        raise ValueError("dataset is empty")
    rows = []
    for spec in specs:
        abs_sum = 0.0
        sq_sum = 0.0
        n_cells = 0
        for idx, sample in enumerate(dataset):
            per_sample = replace(
                spec, seed=np.random.SeedSequence([spec.seed, idx]).generate_state(1)[0]
            )
            ablated = apply_ablation(sample, per_sample)
            pred = predict(params, ablated)
            err = _valid_errors(pred, ablated.target)
            abs_sum += float(np.abs(err).sum())
            sq_sum += float((err**2).sum())
            n_cells += err.size
        rows.append(ModeMetrics(spec.mode, abs_sum / n_cells, sq_sum / n_cells, len(dataset)))
    return MetricsReport(rows)


def export_costmap(cmap: DenseCostmap, path, fmt: str):
    """Write a dense costmap as 16-bit PGM (+meta+mask) or exact CSV."""
    if fmt == "pgm":
        mio.write_costmap_pgm(cmap, path)
    elif fmt == "csv":
        mio.write_costmap_csv(cmap, path)
    else:
        raise ValueError(f"unknown export format {fmt!r}; use 'pgm' or 'csv'")


def import_costmap(path) -> DenseCostmap:
    """Read a costmap previously written by :func:`export_costmap`."""
    path_str = str(path)
    if path_str.endswith(".pgm"):
        return mio.read_costmap_pgm(path)
    if path_str.endswith(".csv"):
        return mio.read_costmap_csv(path)
    raise ValueError(f"cannot infer costmap format from {path_str!r}")
