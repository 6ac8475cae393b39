"""Point-cloud pillarization, handcrafted image embedding, and FiLM fusion.

The pillar encoder turns a colored cloud into a BEV pseudo-image: points are
grouped per grid cell, each point gets a 9-vector (x, y, z, r, g, b and the
offset to its pillar centroid), an affine map plus ReLU lifts it to C
channels, and a per-channel max over the pillar's points fills that cell.

The image embedding is a fixed 384-dimensional feature (histograms plus a
coarse luminance thumbnail) standing in for a pretrained encoder behind the
same ``Image -> R^384`` interface.
"""

from dataclasses import dataclass

import numpy as np

from .ops import resize_bilinear
from .types import BevFeatureMap, GridSpec, Image, PointCloud

EMBED_DIM = 384
_HIST_BINS = 64
_THUMB = 8


@dataclass(frozen=True)
class PillarTensor:
    """Per-pillar point features plus bookkeeping counts.

    ``features[p, k]`` is the 9-vector of the k-th kept point of pillar p,
    zero past ``counts[p]``. It holds ``counts.max()`` slots, not
    ``max_points``: a pillar rarely fills the cap, and the slots no pillar
    fills would be all zero. ``indices[p]`` is the pillar's (row, col) cell.
    """

    indices: np.ndarray  # (P, 2) int
    features: np.ndarray  # (P, counts.max(), 9)
    counts: np.ndarray  # (P,) int
    max_points: int
    n_outside: int = 0  # points discarded for falling off the grid
    n_dropped: int = 0  # points dropped over the per-pillar cap

    @property
    def n_pillars(self) -> int:
        return self.indices.shape[0]

    @property
    def n_kept(self) -> int:
        return int(self.counts.sum())


def pillarize(cloud: PointCloud, grid: GridSpec, max_points: int) -> PillarTensor:
    """Group points into vertical pillars over the BEV grid.

    Points outside the grid extent are discarded; each pillar keeps at most
    ``max_points`` points in input order (the rest are dropped); offsets are
    taken against the centroid of the kept points. Pillars are ordered by
    flattened cell index, points within a pillar by input order.

    Built once per :class:`PointCloud` object (clouds are immutable), grid and
    cap; the arrays of the result are read-only.
    """
    if max_points < 1:
        raise ValueError("max_points must be at least 1")
    key = (grid, max_points)
    if key not in cloud._pillars:
        cloud._pillars[key] = _pillarize(cloud, grid, max_points)
    return cloud._pillars[key]


def _pillarize(cloud: PointCloud, grid: GridSpec, max_points: int) -> PillarTensor:
    i, j = grid.cell_of(cloud.xyz[:, 0], cloud.xyz[:, 1])
    inside = (i >= 0) & (i < grid.rows) & (j >= 0) & (j < grid.cols)
    n_outside = int(np.count_nonzero(~inside))
    xyz = cloud.xyz[inside]
    rgb = cloud.rgb[inside]
    flat = i[inside] * grid.cols + j[inside]

    order = np.argsort(flat, kind="stable")  # stable keeps input order within a pillar
    uniq, starts, sizes = np.unique(flat[order], return_index=True, return_counts=True)
    group = np.repeat(np.arange(uniq.size), sizes)  # pillar of each sorted point
    rank = np.arange(order.size) - starts[group]  # its position within the pillar
    kept = rank < max_points
    group, rank, src = group[kept], rank[kept], order[kept]

    indices = np.column_stack([uniq // grid.cols, uniq % grid.cols]).astype(np.int64)
    counts = np.minimum(sizes, max_points).astype(np.int64)
    n_dropped = int(order.size - src.size)
    slots = int(counts.max(initial=0))
    features = np.zeros((uniq.size, slots, 9))
    features[group, rank, 0:3] = xyz[src]
    features[group, rank, 3:6] = rgb[src]
    # centroid summed slot by slot from +0.0 in input order, as a per-pillar
    # mean(axis=0) does; the zero padding past a pillar's count adds nothing
    sums = np.zeros((uniq.size, 3))
    for k in range(slots):
        sums += features[:, k, 0:3]
    centroid = sums / counts[:, None]
    features[group, rank, 6:9] = xyz[src] - centroid[group]
    for a in (indices, features, counts):
        a.flags.writeable = False
    return PillarTensor(indices, features, counts, max_points, n_outside, n_dropped)


def pillar_encode(pt: PillarTensor, w: np.ndarray, b: np.ndarray, grid: GridSpec) -> BevFeatureMap:
    """Affine + ReLU per point, channelwise max per pillar, scattered to the grid."""
    out, _ = pillar_encode_cached(pt, w, b, grid)
    return out


def pillar_encode_cached(pt: PillarTensor, w: np.ndarray, b: np.ndarray, grid: GridSpec):
    """Like :func:`pillar_encode` but also returns the cache needed for backprop."""
    w = np.asarray(w, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if w.ndim != 2 or w.shape[0] != 9 or b.shape != (w.shape[1],):
        raise ValueError(f"pillar weights must be (9, C) with bias (C,), got {w.shape}, {b.shape}")
    c = w.shape[1]
    data = np.zeros((grid.rows, grid.cols, c))
    cache = {"pt": pt, "w": w, "z_pos": None, "argmax": None}
    if pt.n_pillars == 0:
        return BevFeatureMap(grid, data), cache
    p, slots, _ = pt.features.shape
    z = (pt.features.reshape(p * slots, 9) @ w + b).reshape(p, slots, c)
    a = np.maximum(z, 0.0)
    slot_valid = np.arange(slots)[None, :] < pt.counts[:, None]  # (P, slots)
    a_masked = np.where(slot_valid[:, :, None], a, -np.inf)
    argmax = np.argmax(a_masked, axis=1)  # (P, C), first max wins ties
    pooled = np.take_along_axis(a_masked, argmax[:, None, :], axis=1)[:, 0, :]
    data[pt.indices[:, 0], pt.indices[:, 1], :] = pooled
    cache.update(z_pos=z > 0.0, argmax=argmax)
    return BevFeatureMap(grid, data), cache


def pillar_encode_backward(cache, d_map: np.ndarray):
    """Gradients of the encoded map w.r.t. the affine weights and bias."""
    pt = cache["pt"]
    w = cache["w"]
    if pt.n_pillars == 0:
        return np.zeros_like(w), np.zeros(w.shape[1])
    d_pool = d_map[pt.indices[:, 0], pt.indices[:, 1], :]  # (P, C)
    dz = np.zeros(cache["z_pos"].shape)
    np.put_along_axis(dz, cache["argmax"][:, None, :], d_pool[:, None, :], axis=1)
    dz *= cache["z_pos"]
    flat_dz = dz.reshape(-1, w.shape[1])
    dw = pt.features.reshape(-1, 9).T @ flat_dz
    db = flat_dz.sum(axis=0)
    return dw, db


def embed_image(img: Image) -> np.ndarray:
    """Deterministic 384-dim image descriptor, L2-normalized unless all-zero.

    Layout: 64-bin value histogram per channel (192), 64-bin gradient
    magnitude histogram (64), 8x8 bilinear luminance thumbnail (64), zero
    padding to 384. Computed once per :class:`Image` object (images are
    immutable) and returned read-only.
    """
    if img._embedding is None:
        object.__setattr__(img, "_embedding", _embed_pixels(img.pixels))
    return img._embedding


def _embed_pixels(px: np.ndarray) -> np.ndarray:
    n_px = px.shape[0] * px.shape[1]
    parts = []
    edges = np.linspace(0.0, 1.0, _HIST_BINS + 1)
    for ch in range(3):
        hist, _ = np.histogram(px[:, :, ch], bins=edges)
        parts.append(hist / n_px)
    lum = px.mean(axis=2)
    gx = np.diff(lum, axis=1)
    gy = np.diff(lum, axis=0)
    gmag = np.concatenate([np.abs(gx).reshape(-1), np.abs(gy).reshape(-1)])
    if gmag.size == 0:
        gmag = np.zeros(1)
    ghist, _ = np.histogram(np.clip(gmag, 0.0, 1.0), bins=edges)
    parts.append(ghist / gmag.size)
    parts.append(resize_bilinear(lum, _THUMB, _THUMB).reshape(-1))
    vec = np.concatenate(parts)
    out = np.zeros(EMBED_DIM)
    out[: vec.size] = vec
    norm = np.linalg.norm(out)
    if norm > 0:
        out /= norm
    out.flags.writeable = False
    return out


@dataclass
class FilmParams:
    """Two affine layers mapping an embedding to per-channel (gamma, beta).

    The second layer emits 2C values: the first C are gamma, the last C beta.
    """

    w1: np.ndarray  # (d, hidden)
    b1: np.ndarray  # (hidden,)
    w2: np.ndarray  # (hidden, 2C)
    b2: np.ndarray  # (2C,)

    def __post_init__(self):
        self.w1 = np.asarray(self.w1, dtype=np.float64)
        self.b1 = np.asarray(self.b1, dtype=np.float64)
        self.w2 = np.asarray(self.w2, dtype=np.float64)
        self.b2 = np.asarray(self.b2, dtype=np.float64)
        if self.w1.ndim != 2 or self.b1.shape != (self.w1.shape[1],):
            raise ValueError("film layer 1 shapes are inconsistent")
        if self.w2.shape[0] != self.w1.shape[1] or self.b2.shape != (self.w2.shape[1],):
            raise ValueError("film layer 2 shapes are inconsistent")
        if self.w2.shape[1] % 2 != 0:
            raise ValueError("film output must have even size (gamma and beta halves)")

    @property
    def channels(self) -> int:
        return self.w2.shape[1] // 2


def film_gamma_beta(emb: np.ndarray, params: FilmParams):
    """Evaluate the modulation MLP; returns (gamma, beta, cache)."""
    emb = np.asarray(emb, dtype=np.float64)
    if emb.shape != (params.w1.shape[0],):
        raise ValueError(f"embedding has shape {emb.shape}, expected ({params.w1.shape[0]},)")
    pre = emb @ params.w1 + params.b1
    h = np.maximum(pre, 0.0)
    gb = h @ params.w2 + params.b2
    c = params.channels
    cache = {"emb": emb, "h": h, "pre_pos": pre > 0.0, "params": params}
    return gb[:c], gb[c:], cache


def film_modulate(feat: BevFeatureMap, emb: np.ndarray, params: FilmParams) -> BevFeatureMap:
    """Channel-wise affine modulation: out[..., c] = gamma_c * feat[..., c] + beta_c."""
    if params.channels != feat.channels:
        raise ValueError(
            f"film emits {params.channels} channels but the feature map has {feat.channels}"
        )
    gamma, beta, _ = film_gamma_beta(emb, params)
    return BevFeatureMap(feat.grid, gamma[None, None, :] * feat.data + beta[None, None, :])


def film_backward(cache, feat_data: np.ndarray, gamma: np.ndarray, d_out: np.ndarray):
    """Backprop through the modulation and its MLP.

    Returns ``(d_feat, dw1, db1, dw2, db2)`` given the upstream gradient on
    the modulated map.
    """
    params = cache["params"]
    c = params.channels
    d_feat = d_out * gamma[None, None, :]
    d_gamma = np.sum(d_out * feat_data, axis=(0, 1))
    d_beta = np.sum(d_out, axis=(0, 1))
    d_gb = np.concatenate([d_gamma, d_beta])
    dw2 = np.outer(cache["h"], d_gb)
    db2 = d_gb
    dh = params.w2 @ d_gb
    dpre = dh * cache["pre_pos"]
    dw1 = np.outer(cache["emb"], dpre)
    db1 = dpre
    return d_feat, dw1, db1, dw2, db2
