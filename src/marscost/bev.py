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
from .types import GridSpec, Image, PointCloud

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

    Built once per point set, grid and cap; the arrays of the result are
    read-only. A cloud and its recoloured copies (:meth:`PointCloud.recolored`)
    share one entry, built on the colours of the first of them pillarized: that
    cloud gets its tensor, the others a copy with their own colours refilled on
    every call. So pillarize a source cloud before its recoloured copies.
    """
    if max_points < 1:
        raise ValueError("max_points must be at least 1")
    key = (grid, max_points)
    entry = cloud._pillars.get(key)
    if entry is None:
        entry = cloud._pillars[key] = (*_pillarize(cloud, grid, max_points), cloud.rgb)
    pt, slot, src, rgb = entry
    if rgb is cloud.rgb:
        return pt
    features = pt.features.copy()
    features.reshape(-1, 9)[slot, 3:6] = cloud.rgb[src]
    features.flags.writeable = False
    return PillarTensor(pt.indices, features, pt.counts, pt.max_points, pt.n_outside, pt.n_dropped)


def _pillarize(cloud: PointCloud, grid: GridSpec, max_points: int):
    """``(pt, slot, src)``: the cloud's pillars, and for each kept point its flat
    ``(pillar, rank)`` slot in ``pt.features`` and its row in the cloud."""
    n = len(cloud)
    # the column and row of each point, as GridSpec.cell_of computes them
    cell = np.floor((cloud.xyz[:, :2] - grid.origin) / grid.resolution)
    inside = cell >= 0.0
    inside &= cell < (grid.cols, grid.rows)
    inside = np.flatnonzero(inside[:, 0] & inside[:, 1])
    flat = (cell @ (1.0, grid.cols))[inside].astype(np.int64)  # exact on small integers

    order = np.argsort(flat, kind="stable")  # stable keeps input order within a pillar
    src = inside[order]
    flat = flat[order]
    first = np.empty(src.size, dtype=bool)  # where each pillar's run of sorted points starts
    first[:1] = True
    np.not_equal(flat[1:], flat[:-1], out=first[1:])
    starts = np.flatnonzero(first)
    group = first.view(np.uint8).cumsum(dtype=np.intp) - 1  # pillar of each sorted point
    rank = np.arange(src.size) - starts[group]  # its position within the pillar
    counts = np.bincount(group, minlength=starts.size)
    slots = int(counts.max(initial=0))
    if slots > max_points:
        kept = rank < max_points
        group, rank, src = group[kept], rank[kept], src[kept]
        counts = np.minimum(counts, max_points)
        slots = max_points

    indices = np.empty((starts.size, 2), dtype=np.int64)
    np.divmod(flat[starts], grid.cols, out=(indices[:, 0], indices[:, 1]))
    xyz = cloud.xyz[src]
    # each centroid summed from +0.0 in input order, as the per-pillar
    # mean(axis=0) does: bincount adds its weights in input order
    sums = np.bincount((group[:, None] * 3 + np.arange(3)).reshape(-1), weights=xyz.reshape(-1),
                       minlength=3 * starts.size).reshape(-1, 3)
    rows = np.concatenate([xyz, cloud.rgb[src], xyz - (sums / counts[:, None])[group]], axis=1)
    slot = group * slots + rank
    features = np.zeros((starts.size * slots, 9))
    features[slot] = rows
    features = features.reshape(starts.size, slots, 9)
    for a in (indices, features, counts):
        a.flags.writeable = False
    pt = PillarTensor(indices, features, counts, max_points, n - inside.size, inside.size - src.size)
    return pt, slot, src


def pillar_encode_cached(pt: PillarTensor, w: np.ndarray, b: np.ndarray, grid: GridSpec):
    """Affine + ReLU per point, channelwise max per pillar, scattered to the grid.

    Returns the ``(rows, cols, C)`` map and the cache needed for backprop.
    """
    w = np.asarray(w, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if w.ndim != 2 or w.shape[0] != 9 or b.shape != (w.shape[1],):
        raise ValueError(f"pillar weights must be (9, C) with bias (C,), got {w.shape}, {b.shape}")
    c = w.shape[1]
    data = np.zeros((grid.rows * grid.cols, c))
    cache = {"pt": pt, "w": w, "z_pos": None, "argmax": None}
    if pt.n_pillars == 0:
        return data.reshape(grid.rows, grid.cols, c), cache
    p, slots, _ = pt.features.shape
    z = (pt.features.reshape(p * slots, 9) @ w + b).reshape(p, slots, c)
    a = np.maximum(z, 0.0)
    # the max over a pillar's filled slots, slot by slot: a slot replaces the
    # best so far only where it is strictly larger, so the first max wins ties
    pooled = a[:, 0].copy()
    argmax = np.zeros((p, c), dtype=np.intp)  # (P, C)
    for k in range(1, slots):
        better = a[:, k] > pooled
        better &= (pt.counts > k)[:, None]
        np.copyto(pooled, a[:, k], where=better)
        argmax[better] = k
    cell = pt.indices[:, 0] * grid.cols + pt.indices[:, 1]
    data[cell] = pooled
    cache.update(z_pos=z > 0.0, argmax=argmax, cell=cell)
    return data.reshape(grid.rows, grid.cols, c), cache


def pillar_encode_backward(cache, d_map: np.ndarray):
    """Gradients of the encoded map w.r.t. the affine weights and bias."""
    pt = cache["pt"]
    w = cache["w"]
    if pt.n_pillars == 0:
        return np.zeros_like(w), np.zeros(w.shape[1])
    z_pos = cache["z_pos"]
    p, slots, c = z_pos.shape
    # each (pillar, channel)'s winning slot takes the map's gradient where its
    # activation was positive, and a signed zero where not, as dz *= z_pos gives
    win = ((np.arange(p)[:, None] * slots + cache["argmax"]) * c + np.arange(c)).reshape(-1)
    dz = np.zeros(p * slots * c)
    dz[win] = d_map.reshape(-1, c)[cache["cell"]].reshape(-1) * z_pos.reshape(-1)[win]
    flat_dz = dz.reshape(-1, c)
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
    h, w = px.shape[:2]
    n = h * w
    planes = px.reshape(n, 3).T  # (3, n): one colour plane per row
    # the luminance px.mean(axis=2) gives, summed as it sums: ((0 + r) + g) + b;
    # a last axis of 3 is slow to reduce over
    lum = planes[0] + 0.0
    lum += planes[1]
    lum += planes[2]
    lum /= 3
    lum = lum.reshape(h, w)
    gx = lum[:, 1:] - lum[:, :-1]
    gy = lum[1:] - lum[:-1]
    n_grad = max(gx.size + gy.size, 1)  # a single pixel has no gradient: one zero stands in
    # the 64 bins over [0, 1] have edges exactly k / 64 and x * 64 is exact, so a
    # value's bin is min(int(x * 64), 63), the bin np.histogram finds; one
    # bincount counts the three channels and the gradient magnitudes (which lie
    # in [0, 1], so need no clip), each offset by 64
    values = np.zeros(3 * n + n_grad)
    values[: 3 * n].reshape(3, n)[...] = planes
    np.abs(gx, out=values[3 * n : 3 * n + gx.size].reshape(gx.shape))
    np.abs(gy, out=values[3 * n + gx.size : 3 * n + gx.size + gy.size].reshape(gy.shape))
    bins = (values * _HIST_BINS).astype(np.intp)
    np.minimum(bins, _HIST_BINS - 1, out=bins)
    bins[n : 2 * n] += _HIST_BINS
    bins[2 * n : 3 * n] += 2 * _HIST_BINS
    bins[3 * n :] += 3 * _HIST_BINS
    hists = np.bincount(bins, minlength=4 * _HIST_BINS)
    out = np.zeros(EMBED_DIM)
    np.divide(hists[: 3 * _HIST_BINS], n, out=out[: 3 * _HIST_BINS])
    np.divide(hists[3 * _HIST_BINS :], n_grad, out=out[3 * _HIST_BINS : 4 * _HIST_BINS])
    thumb = resize_bilinear(lum, _THUMB, _THUMB)
    out[4 * _HIST_BINS : 4 * _HIST_BINS + thumb.size] = thumb.reshape(-1)
    norm = np.sqrt(out.dot(out))  # what np.linalg.norm computes for a vector
    if norm > 0:
        out /= norm
    out.flags.writeable = False
    return out


def film_gamma_beta(emb: np.ndarray, w1, b1, w2, b2):
    """Evaluate the modulation MLP ``relu(emb @ w1 + b1) @ w2 + b2``; returns (gamma, beta, cache).

    The second layer emits 2C values: the first C are gamma, the last C beta.
    """
    emb = np.asarray(emb, dtype=np.float64)
    if emb.shape != (w1.shape[0],):
        raise ValueError(f"embedding has shape {emb.shape}, expected ({w1.shape[0]},)")
    pre = emb @ w1 + b1
    h = np.maximum(pre, 0.0)
    gb = h @ w2 + b2
    c = w2.shape[1] // 2
    cache = {"emb": emb, "h": h, "pre_pos": pre > 0.0, "w2": w2}
    return gb[:c], gb[c:], cache


def film_backward(cache, feat_data: np.ndarray, gamma: np.ndarray, d_out: np.ndarray):
    """Backprop through the modulation ``gamma * feat + beta`` and its MLP.

    Returns ``(d_feat, dw1, db1, dw2, db2)`` given the upstream gradient on
    the modulated map.
    """
    d_feat = d_out * gamma[None, None, :]
    d_gamma = np.sum(d_out * feat_data, axis=(0, 1))
    d_beta = np.sum(d_out, axis=(0, 1))
    d_gb = np.concatenate([d_gamma, d_beta])
    dw2 = np.outer(cache["h"], d_gb)
    db2 = d_gb
    dh = cache["w2"] @ d_gb
    dpre = dh * cache["pre_pos"]
    dw1 = np.outer(cache["emb"], dpre)
    db1 = dpre
    return d_feat, dw1, db1, dw2, db2
