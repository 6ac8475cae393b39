"""Optimizer, data augmentation and the deterministic training loop."""

from dataclasses import dataclass, field

import numpy as np

from .net import ModelParams, NetConfig, init_params, loss_and_grads
from .types import DenseCostmap, GridSpec, Image, PointCloud, Sample


# Adam's moment decay rates and the denominator's guard
BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8


@dataclass
class AdamState:
    """First and second moments, each one flat vector in the layout of
    :attr:`ModelParams.theta`, plus the step count."""

    m: np.ndarray
    v: np.ndarray
    k: int = 0

    @classmethod
    def fresh(cls, params: ModelParams) -> "AdamState":
        n = params.n_parameters()
        return cls(m=np.zeros(n), v=np.zeros(n))


def adam_step(params: ModelParams, grads: ModelParams, state: AdamState, lr: float):
    """One bias-corrected Adam update; returns new (params, state).

    ``grads`` holds the gradients in the layout of ``params``, as
    :func:`loss_and_grads` returns them.
    """
    if not lr > 0:
        raise ValueError("learning rate must be positive")
    g = grads.theta
    if not np.isfinite(g).all():
        name = next(n for n, t in grads.named_tensors() if not np.isfinite(t).all())
        raise FloatingPointError(f"non-finite gradient in tensor {name!r}")
    k = state.k + 1
    bc1 = 1.0 - BETA1**k
    bc2 = 1.0 - BETA2**k
    m = BETA1 * state.m + (1.0 - BETA1) * g
    v = BETA2 * state.v + (1.0 - BETA2) * g**2
    step = lr * (m / bc1) / (np.sqrt(v / bc2) + EPS)
    return params.like(params.theta - step), AdamState(m, v, k)


# ---------------------------------------------------------------------------
# Augmentation
# ---------------------------------------------------------------------------


@dataclass
class AugmentConfig:
    """Toggles for the joint cloud/label transforms and sensor noise."""

    rotate: bool = True  # quarter-turn rotations about the vertical axis
    translate: bool = True  # whole-cell shifts
    max_shift_cells: int = 2
    noise_sigma: float = 0.0  # Gaussian std for image pixels and point coords

    def __post_init__(self):
        if self.max_shift_cells < 0:
            raise ValueError("max_shift_cells must be nonnegative")
        if not self.noise_sigma >= 0:
            raise ValueError("noise_sigma must be nonnegative")


def _grid_center(grid: GridSpec):
    return (
        grid.origin[0] + grid.cols * grid.resolution / 2.0,
        grid.origin[1] + grid.rows * grid.resolution / 2.0,
    )


def rotate_sample(sample: Sample, quarter_turns: int) -> Sample:
    """Rotate cloud and target jointly by a multiple of 90 deg about the grid center.

    Exact cell remapping, so the grid must be square. The image is left
    untouched (the embedding is global, not spatially registered to the grid).
    """
    k = quarter_turns % 4
    grid = sample.target.grid
    if k == 0:
        return sample
    if grid.rows != grid.cols:
        raise ValueError("rotation augmentation requires a square grid")
    cx, cy = _grid_center(grid)
    xy = sample.cloud.xyz[:, :2] - np.array([cx, cy])
    for _ in range(k):
        xy = np.column_stack([-xy[:, 1], xy[:, 0]])  # +90 deg about +z
    new_xyz = np.column_stack([xy + np.array([cx, cy]), sample.cloud.xyz[:, 2]])
    new_xyz.flags.writeable = False  # held by the cloud uncopied
    # +90 deg world rotation on row=y/col=x storage is one clockwise array turn
    t = sample.target
    return Sample(PointCloud(new_xyz, sample.cloud.rgb), sample.image,
                  DenseCostmap(grid, np.rot90(t.values, -k), np.rot90(t.valid, -k)))


def translate_sample(sample: Sample, shift_cols: int, shift_rows: int) -> Sample:
    """Shift cloud and target jointly by whole cells; shifted-in cells become invalid."""
    grid = sample.target.grid
    res = grid.resolution
    new_xyz = sample.cloud.xyz + np.array([shift_cols * res, shift_rows * res, 0.0])
    values = np.roll(sample.target.values, (shift_rows, shift_cols), axis=(0, 1))
    valid = np.roll(sample.target.valid, (shift_rows, shift_cols), axis=(0, 1))
    if shift_rows > 0:
        valid[:shift_rows, :] = False
    elif shift_rows < 0:
        valid[shift_rows:, :] = False
    if shift_cols > 0:
        valid[:, :shift_cols] = False
    elif shift_cols < 0:
        valid[:, shift_cols:] = False
    values = np.where(valid, values, 0.0)
    new_xyz.flags.writeable = values.flags.writeable = valid.flags.writeable = False  # held uncopied
    return Sample(
        PointCloud(new_xyz, sample.cloud.rgb),
        sample.image,
        DenseCostmap(grid, values, valid),
    )


def augment(sample: Sample, seed, cfg: AugmentConfig = AugmentConfig()) -> Sample:
    """Seeded random rotation, translation and Gaussian noise.

    Rotation and translation move the cloud and the label raster together so
    supervision stays consistent; noise perturbs the image pixels (clamped to
    [0, 1]) and the point coordinates but never the label values. A draw
    that changes nothing returns ``sample`` itself, and with every transform
    off (no rotation or none the grid allows, no shift, no noise) no
    generator is built from ``seed``. Raises ``ValueError`` when the drawn
    shift moves every labelled cell out of the window.
    """
    rotate = cfg.rotate and sample.target.grid.rows == sample.target.grid.cols
    shift = cfg.translate and cfg.max_shift_cells > 0
    if not (rotate or shift or cfg.noise_sigma > 0):
        return sample
    rng = np.random.default_rng(seed)
    out = sample
    if rotate:
        k = int(rng.integers(0, 4))
        if k:
            out = rotate_sample(out, k)
    if shift:
        sc, sr = rng.integers(-cfg.max_shift_cells, cfg.max_shift_cells + 1, size=2)
        if sc or sr:
            out = translate_sample(out, int(sc), int(sr))
            if not out.target.valid.any():  # the loss has nothing to fit; name the knob
                g = out.target.grid
                raise ValueError(f"a shift of ({sc}, {sr}) cells leaves no labelled cell in the "
                                 f"{g.rows}x{g.cols}-cell window; lower "
                                 f"train.augment.max_shift_cells (now {cfg.max_shift_cells})")
    if cfg.noise_sigma > 0:
        out = sensor_noise(out, rng, cfg.noise_sigma, cfg.noise_sigma)
    return out


def sensor_noise(sample: Sample, rng, sigma_image: float, sigma_points: float) -> Sample:
    """Gaussian noise on the image pixels (clamped to [0, 1]), then on the point
    coordinates, both drawn from ``rng``; the target is passed on as it is."""
    pixels = np.clip(
        sample.image.pixels + rng.standard_normal(sample.image.pixels.shape) * sigma_image,
        0.0,
        1.0,
    )
    xyz = sample.cloud.xyz + rng.standard_normal(sample.cloud.xyz.shape) * sigma_points
    pixels.flags.writeable = xyz.flags.writeable = False  # held by the image and cloud uncopied
    return Sample(PointCloud(xyz, sample.cloud.rgb), Image(pixels), sample.target)


# ---------------------------------------------------------------------------
# Training loop
# ---------------------------------------------------------------------------


@dataclass
class TrainConfig:
    """Hyperparameters of the regression fit."""

    lr: float = 1e-4
    batch_size: int = 8
    huber_delta: float = 0.1
    smooth_lambda: float = 0.1
    epochs: int = 60
    seed: int = 1
    augment: AugmentConfig = field(default_factory=AugmentConfig)

    def __post_init__(self):
        if not (self.lr > 0 and self.huber_delta > 0 and self.smooth_lambda > 0):
            raise ValueError("lr, huber_delta and smooth_lambda must be positive")
        if self.batch_size < 1:
            raise ValueError("batch_size must be at least 1")
        if self.epochs < 0:
            raise ValueError("epochs must be nonnegative")


@dataclass
class StepRecord:
    step: int
    huber: float
    smooth: float
    total: float
    grad_norm: float  # global L2 norm over every parameter gradient


def fit(dataset, cfg: TrainConfig, net: NetConfig = NetConfig()):
    """Seeded mini-batch training; returns final params and per-step loss history.

    Each epoch reshuffles the dataset, splits it into batches of
    ``cfg.batch_size``, augments every sample seeded by the entropy list
    ``[cfg.seed, step, position]``, and applies one Adam update per batch. Bit
    reproducible for a fixed seed and dataset.
    """
    dataset = list(dataset)
    if not dataset:
        raise ValueError("dataset is empty")
    params = init_params(net, cfg.seed)
    state = AdamState.fresh(params)
    shuffle_rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, 0x5EED]))
    history = []
    step = 0
    for _ in range(cfg.epochs):
        order = shuffle_rng.permutation(len(dataset))
        for lo in range(0, len(dataset), cfg.batch_size):
            batch_idx = order[lo : lo + cfg.batch_size]
            batch = [
                augment(dataset[i], seed=[cfg.seed, step, pos], cfg=cfg.augment)
                for pos, i in enumerate(batch_idx)
            ]
            total, hub, smo, grads = loss_and_grads(
                params, batch, cfg.huber_delta, cfg.smooth_lambda
            )
            params, state = adam_step(params, grads, state, cfg.lr)
            history.append(StepRecord(step, hub, smo, total, float(np.linalg.norm(grads.theta))))
            step += 1
    return params, history
