import dataclasses

import numpy as np
import pytest

from conftest import random_sample
from marscost.bev import (
    EMBED_DIM,
    PillarTensor,
    embed_image,
    film_gamma_beta,
    pillar_encode_backward,
    pillar_encode_cached,
    pillarize,
)
from marscost.evaluation import AblationSpec, apply_ablation
from marscost.ops import resize_bilinear
from marscost.train import AugmentConfig, augment
from marscost.types import GridSpec, Image, PointCloud

GRID = GridSpec((0.0, 0.0), 0.5, 8, 8)
NO_AUG = AugmentConfig(rotate=False, translate=False, noise_sigma=0.0)


def _cloud(xy, z=None, rgb=None):
    xy = np.asarray(xy, dtype=np.float64).reshape(-1, 2)
    z = np.zeros(len(xy)) if z is None else np.asarray(z)
    rgb = np.full((len(xy), 3), 0.5) if rgb is None else np.asarray(rgb)
    return PointCloud(np.column_stack([xy, z]), rgb)


# ---------------------------------------------------------------------------
# pillarize
# ---------------------------------------------------------------------------


def test_single_point_at_cell_center_zero_offsets():
    pt = pillarize(_cloud([[1.25, 2.25]]), GRID, max_points=4)
    assert pt.n_pillars == 1
    assert tuple(pt.indices[0]) == (4, 2)
    assert np.allclose(pt.features[0, 0, 6:9], 0.0)


def test_two_identical_points_zero_offsets():
    pt = pillarize(_cloud([[1.1, 1.1], [1.1, 1.1]]), GRID, max_points=4)
    assert pt.n_pillars == 1
    assert pt.counts[0] == 2
    assert np.allclose(pt.features[0, :2, 6:9], 0.0)


def test_pillar_cells_match_brute_force_binning():
    rng = np.random.default_rng(3)
    pts = rng.uniform(-1.0, 5.0, (100, 2))  # some fall off the 4 m grid
    pt = pillarize(_cloud(pts), GRID, max_points=100)
    expected = set()
    for x, y in pts:
        i = int(np.floor(y / 0.5))
        j = int(np.floor(x / 0.5))
        if 0 <= i < 8 and 0 <= j < 8:
            expected.add((i, j))
    assert {tuple(ij) for ij in pt.indices} == expected


def test_pillarize_conserves_points():
    rng = np.random.default_rng(4)
    pts = rng.uniform(-0.5, 4.5, (200, 2))
    pt = pillarize(_cloud(pts), GRID, max_points=3)
    assert pt.n_kept + pt.n_outside + pt.n_dropped == 200
    assert pt.counts.max() <= 3


def test_pillarize_cap_keeps_first_by_input_order():
    pts = [[0.1, 0.1], [0.2, 0.1], [0.3, 0.1], [0.4, 0.1]]
    z = [1.0, 2.0, 3.0, 4.0]
    pt = pillarize(_cloud(pts, z=z), GRID, max_points=2)
    assert pt.counts[0] == 2 and pt.n_dropped == 2
    assert np.array_equal(pt.features[0, :2, 2], [1.0, 2.0])


def _pillarize_reference(cloud: PointCloud, grid: GridSpec, max_points: int) -> PillarTensor:
    """Oracle: the per-pillar loop that ``pillarize`` reproduces bit for bit."""
    n = len(cloud)
    if n == 0:
        return PillarTensor(
            np.zeros((0, 2), dtype=np.int64), np.zeros((0, max_points, 9)), np.zeros(0, dtype=np.int64), max_points
        )
    i, j = grid.cell_of(cloud.xyz[:, 0], cloud.xyz[:, 1])
    inside = (i >= 0) & (i < grid.rows) & (j >= 0) & (j < grid.cols)
    n_outside = int(np.count_nonzero(~inside))
    xyz = cloud.xyz[inside]
    rgb = cloud.rgb[inside]
    flat = i[inside] * grid.cols + j[inside]

    order = np.argsort(flat, kind="stable")
    flat_sorted = flat[order]
    uniq, starts = np.unique(flat_sorted, return_index=True)
    bounds = np.append(starts, flat_sorted.size)

    p_count = uniq.size
    indices = np.column_stack([uniq // grid.cols, uniq % grid.cols]).astype(np.int64)
    features = np.zeros((p_count, max_points, 9))
    counts = np.zeros(p_count, dtype=np.int64)
    n_dropped = 0
    for p in range(p_count):
        sel = order[bounds[p] : bounds[p + 1]]
        if sel.size > max_points:
            n_dropped += sel.size - max_points
            sel = sel[:max_points]
        c = sel.size
        counts[p] = c
        pts = xyz[sel]
        centroid = pts.mean(axis=0)
        features[p, :c, 0:3] = pts
        features[p, :c, 3:6] = rgb[sel]
        features[p, :c, 6:9] = pts - centroid
    return PillarTensor(indices, features, counts, max_points, n_outside, n_dropped)


def _oracle_case(seed: int):
    """A seeded cloud, grid and cap mixing edge cases: off-grid points, points on
    cell edges, repeated positions, crowded pillars and signed zeros."""
    rng = np.random.default_rng(seed)
    res = float(rng.choice([0.25, 0.3, 0.5]))
    grid = GridSpec((float(rng.choice([0.0, -1.5])), float(rng.choice([0.0, -2.0]))), res,
                    int(rng.integers(1, 11)), int(rng.integers(1, 11)))
    x0, y0 = grid.origin
    x1, y1 = x0 + grid.cols * res, y0 + grid.rows * res
    n = int(rng.integers(1, 160))
    xy = np.column_stack([rng.uniform(x0 - res, x1 + res, n), rng.uniform(y0 - res, y1 + res, n)])
    edge = rng.random(n) < 0.2  # exactly on cell boundaries, the far boundary included
    xy[edge, 0] = x0 + res * rng.integers(0, grid.cols + 1, edge.sum())
    xy[edge, 1] = y0 + res * rng.integers(0, grid.rows + 1, edge.sum())
    crowd = rng.random(n) < 0.3  # piled into a handful of cells
    xy[crowd] = np.array([x0, y0]) + res * (rng.integers(0, 2, (crowd.sum(), 2)) + 0.5)
    z = rng.normal(0.0, 1.0, n)
    z[rng.random(n) < 0.15] = -0.0
    rgb = rng.uniform(0.0, 1.0, (n, 3))
    repeat = np.flatnonzero(rng.random(n) < 0.2)  # copies of earlier points
    src = rng.integers(0, np.maximum(repeat, 1))
    xy[repeat], z[repeat], rgb[repeat] = xy[src], z[src], rgb[src]
    if seed % 7 == 0:  # a pillar of three points at signed zeros
        xy[:3] = -0.0 if x0 < 0 and y0 < 0 else [x0, y0]
        z[:3] = -0.0
    max_points = int(rng.choice([1, 2, 3, 5, 32, n + 1]))
    return PointCloud(np.column_stack([xy, z]), rgb), grid, max_points


def _assert_same_pillars(pt: PillarTensor, ref: PillarTensor):
    """``pt`` holds the reference's filled slots bit for bit, and the reference's
    slots past ``counts.max()``, which ``pt`` leaves out, are all +0.0."""
    slots = int(ref.counts.max(initial=0))
    for name, a, b in (("indices", pt.indices, ref.indices),
                       ("features", pt.features, ref.features[:, :slots]),
                       ("counts", pt.counts, ref.counts)):
        assert (a.dtype, a.shape) == (b.dtype, b.shape), name
        assert a.tobytes() == b.tobytes(), name
    rest = ref.features[:, slots:]
    assert rest.shape == (ref.n_pillars, ref.max_points - slots, 9)
    assert rest.tobytes() == np.zeros_like(rest).tobytes()
    assert (pt.max_points, pt.n_outside, pt.n_dropped) == (ref.max_points, ref.n_outside, ref.n_dropped)


def test_pillarize_matches_per_pillar_loop_bit_for_bit():
    drops = caps_above = outside = 0
    for seed in range(300):
        cloud, grid, max_points = _oracle_case(seed)
        ref = _pillarize_reference(cloud, grid, max_points)
        _assert_same_pillars(pillarize(cloud, grid, max_points), ref)
        drops += ref.n_dropped > 0
        caps_above += ref.n_pillars > 0 and max_points > ref.counts.max() and max_points > 1
        outside += ref.n_outside > 0
    assert drops > 50 and caps_above > 50 and outside > 100  # the cases above are exercised


@pytest.mark.parametrize("xy", [np.zeros((0, 2)), [[-0.1, 1.0], [4.0, 1.0], [1.0, 4.0], [9.0, -3.0]]],
                         ids=["empty", "all_outside"])
@pytest.mark.parametrize("max_points", [1, 4])
def test_pillarize_without_pillars_matches_loop(xy, max_points):
    cloud = _cloud(xy)
    pt = pillarize(cloud, GRID, max_points)
    assert pt.n_pillars == 0
    _assert_same_pillars(pt, _pillarize_reference(cloud, GRID, max_points))


def test_point_cloud_arrays_are_read_only_copies():
    rng = np.random.default_rng(21)
    xyz, rgb = rng.uniform(-1, 1, (7, 3)), rng.uniform(0, 1, (7, 3))
    cloud = PointCloud(xyz, rgb)
    for given, held in ((xyz, cloud.xyz), (rgb, cloud.rgb)):
        with pytest.raises(ValueError, match="read-only"):
            held[0, 0] = 0.5
        assert given.flags.writeable and not np.shares_memory(given, held)
    with pytest.raises(dataclasses.FrozenInstanceError):
        cloud.xyz = xyz
    xyz[0, 0] = 0.125  # the caller's array stays the caller's
    assert cloud.xyz[0, 0] != 0.125


def test_unchanged_sample_shares_the_cloud_and_its_pillars():
    sample = random_sample(19)
    grid = sample.target.grid
    pt = pillarize(sample.cloud, grid, 8)
    for same in (apply_ablation(sample, AblationSpec("baseline")), augment(sample, 0, NO_AUG)):
        assert same is sample and pillarize(same.cloud, grid, 8) is pt
    for mode in ("no_color_pointcloud", "no_image_encoder"):  # recoloured, same points
        cloud = apply_ablation(sample, AblationSpec(mode)).cloud
        assert cloud is not sample.cloud and cloud.xyz is sample.cloud.xyz
    fresh = pillarize(PointCloud(sample.cloud.xyz, sample.cloud.rgb), grid, 8)
    assert fresh is not pt
    for name in ("indices", "features", "counts"):
        assert getattr(fresh, name).tobytes() == getattr(pt, name).tobytes()


def test_pillars_are_memoised_per_grid_and_cap():
    cloud = random_sample(20, n_points=200).cloud
    grid, coarse = GridSpec((0.0, 0.0), 0.25, 12, 12), GridSpec((0.0, 0.0), 0.5, 6, 6)
    pt = pillarize(cloud, grid, 8)
    assert pillarize(cloud, GridSpec((0.0, 0.0), 0.25, 12, 12), 8) is pt  # an equal grid
    other_cap, other_grid = pillarize(cloud, grid, 2), pillarize(cloud, coarse, 8)
    assert len({id(pt), id(other_cap), id(other_grid)}) == 3
    assert pillarize(cloud, grid, 8) is pt and pillarize(cloud, grid, 2) is other_cap
    assert other_cap.n_dropped > 0 and other_grid.n_pillars < pt.n_pillars
    for got, g, cap in ((pt, grid, 8), (other_cap, grid, 2), (other_grid, coarse, 8)):
        _assert_same_pillars(got, _pillarize_reference(cloud, g, cap))
        for a in (got.indices, got.features, got.counts):
            with pytest.raises(ValueError, match="read-only"):
                a.reshape(-1)[0] = 1
    with pytest.raises(dataclasses.FrozenInstanceError):
        pt.max_points = 4


def _encode_reference(pt: PillarTensor, w, b, grid: GridSpec, d_map, slots: int):
    """Oracle: the encoder and its backward on the first ``slots`` point slots
    of features padded to the cap, as ``_pillarize_reference`` gives them.

    Returns the encoded map, the pooling argmax, the weight and bias grads and
    the masked activations ``(P, slots, C)`` the max runs over.
    """
    c = w.shape[1]
    data = np.zeros((grid.rows, grid.cols, c))
    if pt.n_pillars == 0:
        return data, None, np.zeros_like(w), np.zeros(c), None
    x = pt.features[:, :slots]
    z = (x.reshape(-1, 9) @ w + b).reshape(pt.n_pillars, slots, c)
    a = np.maximum(z, 0.0)
    slot_valid = np.arange(slots)[None, :] < pt.counts[:, None]
    a_masked = np.where(slot_valid[:, :, None], a, -np.inf)
    argmax = np.argmax(a_masked, axis=1)
    pooled = np.take_along_axis(a_masked, argmax[:, None, :], axis=1)[:, 0, :]
    data[pt.indices[:, 0], pt.indices[:, 1], :] = pooled
    d_pool = d_map[pt.indices[:, 0], pt.indices[:, 1], :]
    dz = np.zeros((pt.n_pillars, slots, c))
    np.put_along_axis(dz, argmax[:, None, :], d_pool[:, None, :], axis=1)
    dz *= z > 0.0
    flat_dz = dz.reshape(-1, c)
    return data, argmax, x.reshape(-1, 9).T @ flat_dz, flat_dz.sum(axis=0), a_masked


def _close(got, want, rel=1e-12):
    """Equal shapes, and every entry within ``rel`` of the largest reference magnitude."""
    assert (got.dtype, got.shape) == (want.dtype, want.shape)
    assert np.abs(got - want).max(initial=0.0) <= rel * max(1.0, np.abs(want).max(initial=0.0))


def test_encode_and_backward_match_cap_padded_reference_bit_for_bit():
    """Bit for bit against the reference on the filled slots (``counts.max()``
    of them), and within 1e-12 of the reference padded to the cap, whose wider
    products may round differently; there the pooling argmax must agree
    wherever the top two activations of a pillar are more than 1e-12 apart."""
    cases = [_oracle_case(seed) for seed in range(300)]
    outside = [[-0.1, 1.0], [4.0, 1.0], [1.0, 4.0], [9.0, -3.0]]
    cases += [(_cloud(xy), GRID, cap) for xy in (np.zeros((0, 2)), outside) for cap in (1, 4)]
    at_cap = below_cap = no_pillars = 0
    for k, (cloud, grid, max_points) in enumerate(cases):
        rng = np.random.default_rng(1000 + k)
        c = int(rng.integers(1, 9))
        w, b = rng.normal(0, 1, (9, c)), rng.normal(0, 1, c)
        d_map = rng.normal(0, 1, (grid.rows, grid.cols, c))
        enc, cache = pillar_encode_cached(pillarize(cloud, grid, max_points), w, b, grid)
        dw, db = pillar_encode_backward(cache, d_map)
        got = (enc, cache["argmax"], dw, db)
        ref = _pillarize_reference(cloud, grid, max_points)
        filled = _encode_reference(ref, w, b, grid, d_map, int(ref.counts.max(initial=0)))
        for g, want in zip(got, filled):
            if want is None:
                assert g is None
                continue
            assert (g.dtype, g.shape) == (want.dtype, want.shape)
            assert g.tobytes() == want.tobytes()
        padded = _encode_reference(ref, w, b, grid, d_map, max_points)
        for i in (0, 2, 3):  # the map and the weight and bias grads
            _close(got[i], padded[i])
        if ref.n_pillars:
            act = -np.sort(-padded[4], axis=1)  # descending over the slots; -inf past a count
            gap = act[:, 0] - act[:, 1] if max_points > 1 else np.inf
            apart = gap > 1e-12 * np.maximum(1.0, act[:, 0])
            assert np.array_equal(got[1][apart], padded[1][apart])
        no_pillars += ref.n_pillars == 0
        at_cap += ref.n_pillars > 0 and ref.counts.max() == max_points
        below_cap += ref.n_pillars > 0 and ref.counts.max() < max_points
    assert no_pillars >= 4 and at_cap > 50 and below_cap > 50  # the cases above are exercised


def test_pillarize_empty_cloud():
    pt = pillarize(PointCloud.empty(), GRID, max_points=4)
    assert pt.n_pillars == 0
    enc, _ = pillar_encode_cached(pt, np.ones((9, 5)), np.zeros(5), GRID)
    assert enc.shape == (8, 8, 5) and np.all(enc == 0.0)


# ---------------------------------------------------------------------------
# pillar encode
# ---------------------------------------------------------------------------


def test_encode_zero_weights_zero_map():
    rng = np.random.default_rng(5)
    pt = pillarize(_cloud(rng.uniform(0, 4, (30, 2))), GRID, max_points=8)
    enc, _ = pillar_encode_cached(pt, np.zeros((9, 6)), np.zeros(6), GRID)
    assert np.all(enc == 0.0)


def test_encode_single_point_is_relu_affine():
    rng = np.random.default_rng(6)
    w = rng.normal(0, 1, (9, 5))
    b = rng.normal(0, 1, 5)
    cloud = _cloud([[1.25, 2.25]], z=[0.7], rgb=[[0.2, 0.4, 0.6]])
    pt = pillarize(cloud, GRID, max_points=4)
    enc, _ = pillar_encode_cached(pt, w, b, GRID)
    feat = np.array([1.25, 2.25, 0.7, 0.2, 0.4, 0.6, 0.0, 0.0, 0.0])
    assert np.allclose(enc[4, 2], np.maximum(feat @ w + b, 0.0), atol=1e-12)


def test_encode_point_order_invariance():
    rng = np.random.default_rng(7)
    pts = rng.uniform(0, 4, (40, 2))
    z = rng.uniform(-1, 1, 40)
    rgb = rng.uniform(0, 1, (40, 3))
    w = rng.normal(0, 1, (9, 4))
    b = rng.normal(0, 1, 4)
    base, _ = pillar_encode_cached(pillarize(_cloud(pts, z, rgb), GRID, 64), w, b, GRID)
    for _ in range(20):
        perm = rng.permutation(40)
        pt = pillarize(_cloud(pts[perm], z[perm], rgb[perm]), GRID, 64)
        enc, _ = pillar_encode_cached(pt, w, b, GRID)
        assert np.array_equal(enc, base)


def test_encode_pillar_order_invariance():
    rng = np.random.default_rng(8)
    pt = pillarize(_cloud(rng.uniform(0, 4, (30, 2)), rng.uniform(-1, 1, 30)), GRID, 8)
    w = rng.normal(0, 1, (9, 4))
    b = rng.normal(0, 1, 4)
    base, _ = pillar_encode_cached(pt, w, b, GRID)
    perm = rng.permutation(pt.n_pillars)
    shuffled = PillarTensor(
        pt.indices[perm], pt.features[perm], pt.counts[perm], pt.max_points
    )
    assert np.array_equal(pillar_encode_cached(shuffled, w, b, GRID)[0], base)


def test_encode_rejects_bad_shapes():
    pt = pillarize(_cloud([[1.0, 1.0]]), GRID, 4)
    with pytest.raises(ValueError):
        pillar_encode_cached(pt, np.zeros((8, 4)), np.zeros(4), GRID)
    with pytest.raises(ValueError):
        pillar_encode_cached(pt, np.zeros((9, 4)), np.zeros(5), GRID)


def test_encode_padding_does_not_leak():
    # bias > 0 would give padded slots a positive response if they were pooled
    w = np.zeros((9, 2))
    b = np.array([5.0, -1.0])
    cloud = _cloud([[0.1, 0.1]], z=[-100.0])
    pt = pillarize(cloud, GRID, max_points=8)
    enc, _ = pillar_encode_cached(pt, w, b, GRID)
    assert np.allclose(enc[0, 0], [5.0, 0.0])
    assert np.count_nonzero(enc) == 1


# ---------------------------------------------------------------------------
# image embedding
# ---------------------------------------------------------------------------


def test_embed_deterministic_and_shaped():
    rng = np.random.default_rng(9)
    img = Image(rng.uniform(0, 1, (24, 32, 3)))
    a = embed_image(img)
    b = embed_image(img)
    assert a.shape == (EMBED_DIM,)
    assert np.array_equal(a, b)
    assert np.all(np.isfinite(a))
    assert np.linalg.norm(a) <= 1.0 + 1e-9


def test_embed_all_black_image():
    emb = embed_image(Image(np.zeros((16, 16, 3))))
    hist = emb[:192].reshape(3, 64)
    assert np.all(hist[:, 1:] == 0.0)  # all value mass in bin 0
    assert np.all(hist[:, 0] > 0.0)
    assert np.linalg.norm(emb) == pytest.approx(1.0, abs=1e-12)


def test_embed_distinguishes_images():
    a = embed_image(Image(np.zeros((8, 8, 3))))
    b = embed_image(Image(np.ones((8, 8, 3))))
    assert not np.allclose(a, b)


def test_image_pixels_are_a_read_only_copy():
    arr = np.random.default_rng(17).uniform(0, 1, (6, 5, 3))
    img = Image(arr)
    with pytest.raises(ValueError, match="read-only"):
        img.pixels[0, 0, 0] = 0.5
    with pytest.raises(AttributeError):
        img.pixels = arr
    assert arr.flags.writeable and not np.shares_memory(arr, img.pixels)
    arr[0, 0, 0] = 0.25  # the caller's array stays the caller's
    assert img.pixels[0, 0, 0] != 0.25


def test_unchanged_sample_reuses_the_memoised_embedding():
    sample = random_sample(18)
    emb = embed_image(sample.image)
    for same in (apply_ablation(sample, AblationSpec("baseline")), augment(sample, 0, NO_AUG)):
        assert same is sample and embed_image(same.image) is emb
    fresh = embed_image(Image(sample.image.pixels))
    assert fresh is not emb and fresh.tobytes() == emb.tobytes()
    assert not emb.flags.writeable


def _oracle_embed_pixels(px):
    """The embedding's reference: four np.histogram calls on the edges linspace(0, 1, 65)."""
    n_px = px.shape[0] * px.shape[1]
    edges = np.linspace(0.0, 1.0, 65)
    parts = [np.histogram(px[:, :, ch], bins=edges)[0] / n_px for ch in range(3)]
    lum = px.mean(axis=2)
    gmag = np.concatenate([np.abs(np.diff(lum, axis=1)).reshape(-1),
                           np.abs(np.diff(lum, axis=0)).reshape(-1)])
    if gmag.size == 0:
        gmag = np.zeros(1)
    parts.append(np.histogram(np.clip(gmag, 0.0, 1.0), bins=edges)[0] / gmag.size)
    parts.append(resize_bilinear(lum, 8, 8).reshape(-1))
    vec = np.concatenate(parts)
    out = np.zeros(EMBED_DIM)
    out[: vec.size] = vec
    norm = np.linalg.norm(out)
    return out / norm if norm > 0 else out


def test_histogram_edges_are_exact_multiples_of_a_64th():
    assert np.array_equal(np.linspace(0.0, 1.0, 65), np.arange(65) / 64)


def _embed_cases():
    rng = np.random.default_rng(64)
    edge = np.arange(65) / 64  # every bin edge, 0 and 1 included
    yield "zeros", np.zeros((6, 7, 3))
    yield "ones", np.ones((6, 7, 3))
    for shape in [(1, 1, 3), (1, 9, 3), (9, 1, 3), (24, 32, 3), (32, 48, 3)]:
        yield f"uniform{shape[:2]}", rng.uniform(0, 1, shape)
        yield f"edges{shape[:2]}", rng.choice(edge, shape)
        yield f"ppm{shape[:2]}", rng.integers(0, 256, shape) / 255  # what read_ppm gives
        near = rng.choice(edge, shape) + rng.choice([-1, 0, 1], shape) * np.finfo(float).eps
        yield f"near_edges{shape[:2]}", np.clip(near, 0.0, 1.0)
    for seed in range(300):
        shape = (int(rng.integers(1, 40)), int(rng.integers(1, 40)), 3)
        yield f"seed{seed}", rng.choice(edge, shape) if seed % 2 else rng.uniform(0, 1, shape)


def test_embedding_matches_histogram_oracle_bit_for_bit():
    for name, px in _embed_cases():
        img = Image(px)
        assert embed_image(img).tobytes() == _oracle_embed_pixels(img.pixels).tobytes(), name


# ---------------------------------------------------------------------------
# FiLM
# ---------------------------------------------------------------------------


def _feature_map(seed, channels=5):
    return np.random.default_rng(seed).normal(0, 1, (8, 8, channels))


def _identity_params(channels, hidden=3, d=EMBED_DIM):
    b2 = np.zeros(2 * channels)
    b2[:channels] = 1.0
    return np.zeros((d, hidden)), np.zeros(hidden), np.zeros((hidden, 2 * channels)), b2


def _modulate(feat, emb, film):
    """``gamma * feat + beta`` per channel, as the regressor applies it."""
    gamma, beta, _ = film_gamma_beta(emb, *film)
    return gamma[None, None, :] * feat + beta[None, None, :]


def test_film_identity_params():
    feat = _feature_map(10)
    emb = embed_image(Image(np.random.default_rng(0).uniform(0, 1, (8, 8, 3))))
    film = _identity_params(feat.shape[2])
    gamma, beta, _ = film_gamma_beta(emb, *film)
    assert np.all(gamma == 1.0) and np.all(beta == 0.0)
    assert np.array_equal(_modulate(feat, emb, film), feat)


def test_film_gamma_zero_broadcasts_beta():
    feat = _feature_map(11)
    c = feat.shape[2]
    beta = np.arange(c, dtype=np.float64)
    b2 = np.concatenate([np.zeros(c), beta])
    film = (np.zeros((EMBED_DIM, 2)), np.zeros(2), np.zeros((2, 2 * c)), b2)
    out = _modulate(feat, np.zeros(EMBED_DIM), film)
    assert np.allclose(out, np.broadcast_to(beta, out.shape))


def test_film_matches_scalar_loop_oracle():
    rng = np.random.default_rng(12)
    feat = _feature_map(12, channels=4)
    emb = rng.normal(0, 1, EMBED_DIM)
    w1, b1, w2, b2 = film = (
        rng.normal(0, 0.1, (EMBED_DIM, 6)),
        rng.normal(0, 0.1, 6),
        rng.normal(0, 0.1, (6, 8)),
        rng.normal(0, 0.1, 8),
    )
    out = _modulate(feat, emb, film)
    h = np.maximum(emb @ w1 + b1, 0.0)
    gb = h @ w2 + b2
    expected = np.empty_like(feat)
    for i in range(8):
        for j in range(8):
            for c in range(4):
                expected[i, j, c] = gb[c] * feat[i, j, c] + gb[4 + c]
    assert np.max(np.abs(out - expected)) <= 1e-12


def test_film_additivity_residual_is_beta():
    rng = np.random.default_rng(13)
    f1 = _feature_map(14, channels=3)
    f2 = _feature_map(15, channels=3)
    emb = rng.normal(0, 1, EMBED_DIM)
    film = (
        rng.normal(0, 0.2, (EMBED_DIM, 4)),
        rng.normal(0, 0.2, 4),
        rng.normal(0, 0.2, (4, 6)),
        rng.normal(0, 0.2, 6),
    )
    _, beta, _ = film_gamma_beta(emb, *film)
    both = _modulate(f1 + f2, emb, film)
    residual = both - _modulate(f1, emb, film) - _modulate(f2, emb, film)
    assert np.allclose(residual, -beta[None, None, :], atol=1e-12)


def test_film_rejects_wrong_embedding_width():
    with pytest.raises(ValueError, match="embedding has shape"):
        film_gamma_beta(np.zeros(EMBED_DIM), *_identity_params(4, d=EMBED_DIM + 1))
