"""The pillar and image kernels against their earlier, plainer forms, bit for bit.

The oracles below are the numpy kernels that ``bev`` used before its
small-input rewrite: a ``np.unique`` grouping with a slot-by-slot centroid,
a ``mean(axis=2)`` luminance with one offset histogram, and a dense
``take_along_axis`` / ``put_along_axis`` encoder. They run on the clouds and
images every ablation mode makes from synthesized samples, on the seeded edge
cases of ``test_bev`` and on tiny images.
"""

import numpy as np
import pytest

from marscost import bev
from marscost.bev import EMBED_DIM, PillarTensor, embed_image, pillarize
from marscost.dataset import synthesize_dataset
from marscost.evaluation import ABLATION_MODES, AblationSpec, apply_ablation
from marscost.ops import resize_bilinear
from marscost.types import GridSpec, Image, PointCloud
from test_bev import _embed_cases, _oracle_case

# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------


def _oracle_pillarize(cloud: PointCloud, grid: GridSpec, max_points: int) -> PillarTensor:
    i, j = grid.cell_of(cloud.xyz[:, 0], cloud.xyz[:, 1])
    inside = (i >= 0) & (i < grid.rows) & (j >= 0) & (j < grid.cols)
    n_outside = int(np.count_nonzero(~inside))
    xyz = cloud.xyz[inside]
    rgb = cloud.rgb[inside]
    flat = i[inside] * grid.cols + j[inside]

    order = np.argsort(flat, kind="stable")
    uniq, starts, sizes = np.unique(flat[order], return_index=True, return_counts=True)
    group = np.repeat(np.arange(uniq.size), sizes)
    rank = np.arange(order.size) - starts[group]
    kept = rank < max_points
    group, rank, src = group[kept], rank[kept], order[kept]

    indices = np.column_stack([uniq // grid.cols, uniq % grid.cols]).astype(np.int64)
    counts = np.minimum(sizes, max_points).astype(np.int64)
    n_dropped = int(order.size - src.size)
    slots = int(counts.max(initial=0))
    features = np.zeros((uniq.size, slots, 9))
    features[group, rank, 0:3] = xyz[src]
    features[group, rank, 3:6] = rgb[src]
    sums = np.zeros((uniq.size, 3))
    for k in range(slots):
        sums += features[:, k, 0:3]
    centroid = sums / counts[:, None]
    features[group, rank, 6:9] = xyz[src] - centroid[group]
    return PillarTensor(indices, features, counts, max_points, n_outside, n_dropped)


def _oracle_encode(pt: PillarTensor, w, b, grid: GridSpec):
    c = w.shape[1]
    data = np.zeros((grid.rows, grid.cols, c))
    cache = {"pt": pt, "w": w, "z_pos": None, "argmax": None}
    if pt.n_pillars == 0:
        return data, cache
    p, slots, _ = pt.features.shape
    z = (pt.features.reshape(p * slots, 9) @ w + b).reshape(p, slots, c)
    a = np.maximum(z, 0.0)
    slot_valid = np.arange(slots)[None, :] < pt.counts[:, None]
    a_masked = np.where(slot_valid[:, :, None], a, -np.inf)
    argmax = np.argmax(a_masked, axis=1)
    pooled = np.take_along_axis(a_masked, argmax[:, None, :], axis=1)[:, 0, :]
    data[pt.indices[:, 0], pt.indices[:, 1], :] = pooled
    cache.update(z_pos=z > 0.0, argmax=argmax)
    return data, cache


def _oracle_encode_backward(cache, d_map):
    pt = cache["pt"]
    w = cache["w"]
    if pt.n_pillars == 0:
        return np.zeros_like(w), np.zeros(w.shape[1])
    d_pool = d_map[pt.indices[:, 0], pt.indices[:, 1], :]
    dz = np.zeros(cache["z_pos"].shape)
    np.put_along_axis(dz, cache["argmax"][:, None, :], d_pool[:, None, :], axis=1)
    dz *= cache["z_pos"]
    flat_dz = dz.reshape(-1, w.shape[1])
    return pt.features.reshape(-1, 9).T @ flat_dz, flat_dz.sum(axis=0)


def _oracle_embed(px):
    n_px = px.shape[0] * px.shape[1]
    lum = px.mean(axis=2)
    gmag = np.concatenate([np.abs(np.diff(lum, axis=1)).reshape(-1),
                           np.abs(np.diff(lum, axis=0)).reshape(-1)])
    if gmag.size == 0:
        gmag = np.zeros(1)

    def bin_of(x):
        return np.minimum((x * 64).astype(np.intp), 63)

    channel_bins = bin_of(px) + np.arange(0, 192, 64)
    grad_bins = bin_of(np.clip(gmag, 0.0, 1.0)) + 192
    bins = np.concatenate([channel_bins.reshape(-1), grad_bins])
    hists = np.bincount(bins, minlength=256).reshape(4, 64)
    parts = [hists[:3].reshape(-1) / n_px, hists[3] / gmag.size, resize_bilinear(lum, 8, 8).reshape(-1)]
    vec = np.concatenate(parts)
    out = np.zeros(EMBED_DIM)
    out[: vec.size] = vec
    norm = np.linalg.norm(out)
    if norm > 0:
        out /= norm
    return out


# ---------------------------------------------------------------------------
# cases
# ---------------------------------------------------------------------------


def _same(got, want, name):
    assert (got.dtype, got.shape) == (want.dtype, want.shape), name
    assert got.tobytes() == want.tobytes(), name


def _same_pillars(pt, ref):
    for name in ("indices", "features", "counts"):
        _same(getattr(pt, name), getattr(ref, name), name)
    assert (pt.max_points, pt.n_outside, pt.n_dropped) == (ref.max_points, ref.n_outside, ref.n_dropped)


@pytest.fixture(scope="module")
def ablated_samples():
    """Every ablation mode's sample of the first run of seeds 11 and 29."""
    out = []
    for seed in (11, 29):
        for idx, sample in enumerate(synthesize_dataset(seed, n_runs=1)):
            for mode in ABLATION_MODES:
                spec = AblationSpec(mode, seed=int(np.random.SeedSequence([3, idx]).generate_state(1)[0]))
                out.append(apply_ablation(sample, spec))
    return out


def _check_encoder(pt, grid, rng):
    c = int(rng.integers(1, 9))
    w, b = rng.normal(0, 1, (9, c)), rng.normal(0, 1, c)
    d_map = rng.normal(0, 1, (grid.rows, grid.cols, c))
    enc, cache = bev.pillar_encode_cached(pt, w, b, grid)
    ref, ref_cache = _oracle_encode(pt, w, b, grid)
    _same(enc, ref, "map")
    for got, want, name in zip(bev.pillar_encode_backward(cache, d_map),
                               _oracle_encode_backward(ref_cache, d_map), ("dw", "db")):
        _same(got, want, name)


def test_kernels_match_the_oracles_on_every_ablation_mode(ablated_samples):
    """Through ``pillarize``, so the recoloured modes take the grouping the
    clean cloud built, and through a fresh cloud, which builds its own."""
    rng = np.random.default_rng(25)
    recoloured = 0
    for sample in ablated_samples:
        grid = sample.target.grid
        for cap in (1, 2, 32):
            fresh = PointCloud(sample.cloud.xyz, sample.cloud.rgb)
            ref = _oracle_pillarize(fresh, grid, cap)
            # a recoloured cloud finds the grouping its clean cloud built, not its own pillars
            key = (grid, cap)
            recoloured += key in sample.cloud._groups and key not in sample.cloud._pillars
            _same_pillars(pillarize(sample.cloud, grid, cap), ref)
            _same_pillars(pillarize(fresh, grid, cap), ref)
            _check_encoder(ref, grid, rng)
        _same(embed_image(Image(sample.image.pixels)), _oracle_embed(sample.image.pixels), "embedding")
    assert len(ablated_samples) == 6 * 70 and recoloured == 2 * 70 * 3  # two recolouring modes


def test_kernels_match_the_oracles_on_seeded_edge_cases():
    rng = np.random.default_rng(26)
    outside = [[-0.1, 1.0], [4.0, 1.0], [1.0, 4.0], [9.0, -3.0]]
    grid = GridSpec((0.0, 0.0), 0.5, 8, 8)
    cases = [_oracle_case(seed) for seed in range(300)]
    cases += [(PointCloud(np.column_stack([np.reshape(xy, (-1, 2)), np.zeros(len(xy))]),
                          np.full((len(xy), 3), 0.5)), grid, cap)
              for xy in (np.zeros((0, 2)), outside) for cap in (1, 4)]
    for cloud, grid, cap in cases:
        ref = _oracle_pillarize(cloud, grid, cap)
        _same_pillars(pillarize(cloud, grid, cap), ref)
        recoloured = cloud.recolored(rng.uniform(0, 1, cloud.rgb.shape))
        _same_pillars(pillarize(recoloured, grid, cap), _oracle_pillarize(recoloured, grid, cap))
        _check_encoder(ref, grid, rng)


def _tiny_images():
    rng = np.random.default_rng(27)
    for shape in [(1, 1, 3), (1, 5, 3), (5, 1, 3), (2, 2, 3), (7, 9, 3)]:
        yield rng.uniform(0, 1, shape)
        yield np.ones(shape)
        yield np.zeros(shape)
        yield -np.zeros(shape)  # -0.0 is in [0, 1]; a mean of signed zeros is +0.0
        yield rng.choice([-0.0, 0.0, 0.5, 1.0], shape)


def test_embedding_matches_the_oracle_on_tiny_and_seeded_images():
    for px in [*_tiny_images(), *(px for _, px in _embed_cases())]:
        _same(embed_image(Image(px)), _oracle_embed(Image(px).pixels), f"{px.shape}")
