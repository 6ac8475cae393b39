"""Costmap regressor with hand-rolled reverse-mode gradients.

Architecture: pillar pseudo-image -> two stride-2 conv stages (the coarse
scales that get modulated) -> FiLM conditioning of both scales on the image
embedding -> upsample + concatenate -> 3x3 conv head with ReLU -> 1x1 conv ->
sigmoid -> bilinear upsample back to the BEV grid. Everything is float64 and
deterministic; gradients are exact for the architecture as written.
"""

import math
from dataclasses import dataclass, fields

import numpy as np

from .bev import (
    EMBED_DIM,
    embed_image,
    film_backward,
    film_gamma_beta,
    pillar_encode_backward,
    pillar_encode_cached,
    pillarize,
)
from .ops import (
    conv2d_backward,
    conv2d_forward,
    resize_bilinear,
    resize_bilinear_backward,
    sigmoid,
)
from .types import DenseCostmap, GridSpec, Image, PointCloud

POINT_FEATURE_DIM = 9


@dataclass(frozen=True)
class NetConfig:
    """Channel widths of the regressor; the embedding size is fixed at 384."""

    channels: int = 12  # pillar pseudo-image channels
    stage2_channels: int = 16  # first downsampled scale
    stage3_channels: int = 24  # second downsampled scale
    film_hidden: int = 16
    head_channels: int = 32
    max_points_per_pillar: int = 32

    def __post_init__(self):
        for f in fields(self):
            if getattr(self, f.name) < 1:
                raise ValueError(f"{f.name} must be positive")

    def n_parameters(self) -> int:
        """Length of ``ModelParams.theta`` at these widths."""
        return sum(math.prod(shape) for _, shape in _layout(self).values())


class ModelParams:
    """Every trainable tensor of the regressor, as views of one flat float64 vector.

    ``theta`` is the only storage: each tensor is a view of its slice, cut in
    the order of :func:`_layout`, and reads as ``params.conv1_w`` or
    ``params["conv1_w"]``. Gradients and Adam's moments use the same layout.
    """

    def __init__(self, config: NetConfig, theta: np.ndarray):
        size = config.n_parameters()
        if np.shape(theta) != (size,):
            raise ValueError(f"theta has shape {np.shape(theta)}, not ({size},) for {config}")
        self.config = config
        self.theta = np.ascontiguousarray(theta, dtype=np.float64)  # so every reshape is a view
        self._tensors = {}
        at = 0
        for name, (_, shape) in _layout(config).items():
            n = math.prod(shape)
            self._tensors[name] = self.theta[at : at + n].reshape(shape)
            at += n
        vars(self).update(self._tensors)  # plain attribute reads, as params.conv1_w

    def __getitem__(self, name: str) -> np.ndarray:
        return self._tensors[name]

    def named_tensors(self):
        """Stable (name, view) iteration in the order of ``theta``."""
        return list(self._tensors.items())

    def n_parameters(self) -> int:
        return self.theta.size

    def like(self, theta: np.ndarray) -> "ModelParams":
        """Another vector, such as a gradient, in this layout."""
        return ModelParams(self.config, theta)


def _layout(cfg: NetConfig) -> dict:
    """``name -> (fan_in, shape)`` of every tensor, in the order of ``ModelParams.theta``.

    The only list of the tensors: their names, shapes and order in the flat vector.
    """
    c, c2, c3 = cfg.channels, cfg.stage2_channels, cfg.stage3_channels
    hid, ch = cfg.film_hidden, cfg.head_channels
    return {
        "pillar_w": (POINT_FEATURE_DIM, (POINT_FEATURE_DIM, c)),
        "pillar_b": (POINT_FEATURE_DIM, (c,)),
        "conv1_w": (9 * c, (3, 3, c, c2)),
        "conv1_b": (9 * c, (c2,)),
        "conv2_w": (9 * c2, (3, 3, c2, c3)),
        "conv2_b": (9 * c2, (c3,)),
        "film3_w1": (EMBED_DIM, (EMBED_DIM, hid)),
        "film3_b1": (EMBED_DIM, (hid,)),
        "film3_w2": (hid, (hid, 2 * c2)),
        "film3_b2": (hid, (2 * c2,)),
        "film4_w1": (EMBED_DIM, (EMBED_DIM, hid)),
        "film4_b1": (EMBED_DIM, (hid,)),
        "film4_w2": (hid, (hid, 2 * c3)),
        "film4_b2": (hid, (2 * c3,)),
        "head_w1": (9 * (c2 + c3), (3, 3, c2 + c3, ch)),
        "head_b1": (9 * (c2 + c3), (ch,)),
        "head_w2": (ch, (1, 1, ch, 1)),
        "head_b2": (ch, (1,)),
    }


def _uniform(rng, fan_in: int, shape) -> np.ndarray:
    bound = 1.0 / np.sqrt(fan_in)
    return rng.uniform(-bound, bound, shape)


def init_params(cfg: NetConfig, seed: int) -> ModelParams:
    """Fan-in scaled uniform init for every tensor, biases included.

    Nonzero biases keep pre-activations off the exact ReLU corner in empty
    BEV regions (a zero pseudo-image would otherwise pin them at 0). The
    FiLM gamma bias is offset by +1 so modulation starts near identity.
    """
    rng = np.random.default_rng(seed)
    layout = _layout(cfg)
    first = ("film3_b2", "film4_b2")  # drawn before the rest, which follow in layout order
    order = first + tuple(n for n in layout if n not in first)
    tensors = {n: _uniform(rng, *layout[n]) for n in order}
    tensors["film3_b2"][: cfg.stage2_channels] += 1.0
    tensors["film4_b2"][: cfg.stage3_channels] += 1.0
    return ModelParams(cfg, np.concatenate([tensors[n].ravel() for n in layout]))


def forward_cached(params: ModelParams, cloud: PointCloud, image: Image, grid: GridSpec):
    """Full forward pass; returns ``(values (rows, cols), cache)``."""
    pt = pillarize(cloud, grid, params.config.max_points_per_pillar)
    pseudo, pillar_cache = pillar_encode_cached(pt, params.pillar_w, params.pillar_b, grid)

    z1, conv1_cache = conv2d_forward(pseudo, params.conv1_w, params.conv1_b, stride=2, pad=1)
    s3 = np.maximum(z1, 0.0)
    z2, conv2_cache = conv2d_forward(s3, params.conv2_w, params.conv2_b, stride=2, pad=1)
    s4 = np.maximum(z2, 0.0)

    emb = embed_image(image)
    gamma3, beta3, f3_cache = film_gamma_beta(
        emb, params.film3_w1, params.film3_b1, params.film3_w2, params.film3_b2
    )
    gamma4, beta4, f4_cache = film_gamma_beta(
        emb, params.film4_w1, params.film4_b1, params.film4_w2, params.film4_b2
    )
    m3 = gamma3[None, None, :] * s3 + beta3[None, None, :]
    m4 = gamma4[None, None, :] * s4 + beta4[None, None, :]

    u4 = resize_bilinear(m4, m3.shape[0], m3.shape[1])
    fused = np.concatenate([m3, u4], axis=2)
    zh, head1_cache = conv2d_forward(fused, params.head_w1, params.head_b1, stride=1, pad=1)
    h = np.maximum(zh, 0.0)
    logits, head2_cache = conv2d_forward(h, params.head_w2, params.head_b2, stride=1, pad=0)
    p = sigmoid(logits[:, :, 0])
    values = resize_bilinear(p, grid.rows, grid.cols)

    cache = {
        "pillar_cache": pillar_cache,
        "conv1_cache": conv1_cache,
        "conv2_cache": conv2_cache,
        "s3": s3,
        "s4": s4,
        "f3_cache": f3_cache,
        "f4_cache": f4_cache,
        "gamma3": gamma3,
        "gamma4": gamma4,
        "head1_cache": head1_cache,
        "head2_cache": head2_cache,
        "zh_pos": zh > 0.0,
        "p": p,
    }
    return values, cache


def forward(params: ModelParams, cloud: PointCloud, image: Image, grid: GridSpec) -> DenseCostmap:
    """Predict a costmap on ``grid``; every cell is marked valid, values in (0, 1)."""
    values, _ = forward_cached(params, cloud, image, grid)
    values.flags.writeable = False  # nothing else holds it: DenseCostmap keeps it uncopied
    return DenseCostmap(grid, values)


def backward(cache, d_values: np.ndarray) -> np.ndarray:
    """Backprop ``dL/d(values)`` to every parameter; returns one flat gradient in the
    layout of ``ModelParams.theta``."""
    p = cache["p"]
    dp = resize_bilinear_backward(d_values, p.shape[0], p.shape[1])
    dlogits = (dp * p * (1.0 - p))[:, :, None]
    dh, *dhead2 = conv2d_backward(cache["head2_cache"], dlogits)
    dzh = dh * cache["zh_pos"]
    dfused, *dhead1 = conv2d_backward(cache["head1_cache"], dzh)

    s3, s4 = cache["s3"], cache["s4"]
    dm3 = dfused[:, :, : s3.shape[2]]
    dm4 = resize_bilinear_backward(dfused[:, :, s3.shape[2] :], s4.shape[0], s4.shape[1])
    ds3, *dfilm3 = film_backward(cache["f3_cache"], s3, cache["gamma3"], dm3)
    ds4, *dfilm4 = film_backward(cache["f4_cache"], s4, cache["gamma4"], dm4)

    dz2 = ds4 * (s4 > 0.0)  # the ReLU passes gradient where its output is positive
    ds3_more, *dconv2 = conv2d_backward(cache["conv2_cache"], dz2)
    dz1 = (ds3 + ds3_more) * (s3 > 0.0)
    dpseudo, *dconv1 = conv2d_backward(cache["conv1_cache"], dz1)
    dpillar = pillar_encode_backward(cache["pillar_cache"], dpseudo)
    # each layer's (weight, bias) gradients, in the order of _layout
    grads = (*dpillar, *dconv1, *dconv2, *dfilm3, *dfilm4, *dhead1, *dhead2)
    return np.concatenate([g.ravel() for g in grads])


# ---------------------------------------------------------------------------
# Losses
# ---------------------------------------------------------------------------


def _huber_value_grad(pred: np.ndarray, target: np.ndarray, valid: np.ndarray, delta: float):
    n = int(np.count_nonzero(valid))
    if n == 0:
        raise ValueError("no valid target cells for the regression loss")
    err = np.where(valid, pred - target, 0.0)
    abs_err = np.abs(err)
    quad = abs_err < delta
    cell = np.where(quad, 0.5 * err**2, delta * (abs_err - 0.5 * delta))
    value = float(cell[valid].sum() / n)
    grad = np.where(quad, err, delta * np.sign(err)) * valid / n
    return value, grad


def huber_loss(pred: DenseCostmap, target: DenseCostmap, delta: float) -> float:
    """Mean robust regression loss over valid target cells.

    Quadratic ``0.5 e^2`` below the threshold, linear ``delta (|e| - delta/2)``
    beyond it; invalid cells contribute nothing.
    """
    if not delta > 0:
        raise ValueError("delta must be positive")
    if pred.values.shape != target.values.shape:
        raise ValueError("prediction and target grids differ")
    value, _ = _huber_value_grad(pred.values, target.values, target.valid, delta)
    return value


def _smoothness_value_grad(pred: np.ndarray, lam: float):
    h, w = pred.shape
    value = 0.0
    grad = np.zeros_like(pred)
    if h >= 2:
        dv = pred[1:, :] - pred[:-1, :]
        norm = (h - 1) * w
        value += float(np.abs(dv).sum() / norm)
        s = np.sign(dv) / norm
        grad[1:, :] += s
        grad[:-1, :] -= s
    if w >= 2:
        dh = pred[:, 1:] - pred[:, :-1]
        norm = h * (w - 1)
        value += float(np.abs(dh).sum() / norm)
        s = np.sign(dh) / norm
        grad[:, 1:] += s
        grad[:, :-1] -= s
    return lam * value, lam * grad


def smoothness_loss(pred: DenseCostmap, lam: float) -> float:
    """Mean absolute forward difference along each axis, scaled by ``lam``.

    Vertical differences are averaged over (H-1) W terms and horizontal over
    H (W-1); a degenerate single-row or single-column map contributes zero in
    the missing direction.
    """
    if not lam > 0:
        raise ValueError("lam must be positive")
    value, _ = _smoothness_value_grad(pred.values, lam)
    return value


def loss_and_grads(params: ModelParams, batch, delta: float, lam: float):
    """Mean batch loss and exact gradients for every parameter tensor.

    Returns ``(total, huber_part, smooth_part, grads)`` where the parts are
    batch means and ``grads`` is a :class:`ModelParams` holding the gradients.
    """
    batch = list(batch)
    if not batch:
        raise ValueError("batch is empty")
    total_grads = np.zeros_like(params.theta)
    hub_sum = 0.0
    smo_sum = 0.0
    inv_n = 1.0 / len(batch)
    for sample in batch:
        values, cache = forward_cached(params, sample.cloud, sample.image, sample.target.grid)
        hub, dhub = _huber_value_grad(values, sample.target.values, sample.target.valid, delta)
        smo, dsmo = _smoothness_value_grad(values, lam)
        hub_sum += hub
        smo_sum += smo
        total_grads += backward(cache, (dhub + dsmo) * inv_n)
    hub_mean = hub_sum * inv_n
    smo_mean = smo_sum * inv_n
    return hub_mean + smo_mean, hub_mean, smo_mean, params.like(total_grads)
