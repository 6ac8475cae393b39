import json

import numpy as np
import pytest

from marscost.heightfield import (
    Heightfield,
    _node_bilinear,
    generate_heightfield,
    load_heightfield,
    surface_colors,
    surface_heights,
    surface_normals,
)
from marscost.types import FormatError


def test_zero_roughness_is_flat():
    hf = generate_heightfield(7, 64, 64, 0.2, 0.0)
    assert np.all(hf.elevations == hf.elevations[0, 0])
    # uniform terrain also gets a uniform color
    assert np.all(hf.colors == hf.colors[0, 0])


def test_generation_deterministic():
    a = generate_heightfield(7, 64, 64, 0.2, 0.5)
    b = generate_heightfield(7, 64, 64, 0.2, 0.5)
    assert np.array_equal(a.elevations, b.elevations)
    assert np.array_equal(a.colors, b.colors)


def test_different_seeds_differ():
    a = generate_heightfield(7, 64, 64, 0.2, 0.5)
    b = generate_heightfield(8, 64, 64, 0.2, 0.5)
    assert not np.array_equal(a.elevations, b.elevations)


def test_generation_validates_arguments():
    with pytest.raises(ValueError):
        generate_heightfield(1, 1, 64, 0.2, 0.5)
    with pytest.raises(ValueError):
        generate_heightfield(1, 64, 64, 0.0, 0.5)
    with pytest.raises(ValueError):
        generate_heightfield(1, 64, 64, 0.2, 1.5)


def test_heightfield_invariants():
    with pytest.raises(ValueError):
        Heightfield(np.zeros((1, 5)), 0.2)
    with pytest.raises(ValueError):
        Heightfield(np.full((4, 4), np.inf), 0.2)
    with pytest.raises(ValueError):
        Heightfield(np.zeros((4, 4)), 0.2, colors=np.full((4, 4, 3), 2.0))


def _write_pgm_ascii(path, rows, maxval=255):
    lines = ["P2", f"{len(rows[0])} {len(rows)}", str(maxval)]
    lines += [" ".join(str(v) for v in r) for r in rows]
    path.write_text("\n".join(lines) + "\n")


def _write_meta(path, lo, hi, cell=0.5):
    path.write_text(json.dumps({"min_height_m": lo, "max_height_m": hi, "cell_size_m": cell}))


def test_load_flat_raster(tmp_path):
    p = tmp_path / "terrain.pgm"
    _write_pgm_ascii(p, [[7, 7], [7, 7]])
    _write_meta(tmp_path / "terrain.meta.json", 0.0, 10.0)
    hf = load_heightfield(p)
    assert hf.cell_size == 0.5
    assert np.allclose(hf.elevations, 10.0 * 7 / 255)
    assert np.all(hf.elevations == hf.elevations[0, 0])


def test_load_zero_maxval_rejected(tmp_path):
    p = tmp_path / "bad.pgm"
    p.write_text("P2\n2 2\n0\n0 0\n0 0\n")
    _write_meta(tmp_path / "bad.meta.json", 0.0, 1.0)
    with pytest.raises(FormatError):
        load_heightfield(p)


def test_load_missing_sidecar_rejected(tmp_path):
    p = tmp_path / "orphan.pgm"
    _write_pgm_ascii(p, [[1, 2], [3, 4]])
    with pytest.raises(FormatError):
        load_heightfield(p)


def test_load_ramp_monotone(tmp_path):
    # pixel value grows along the column axis -> heights grow along x
    rows = [[j for j in range(64)] for _ in range(64)]
    p = tmp_path / "ramp.pgm"
    _write_pgm_ascii(p, rows, maxval=63)
    _write_meta(tmp_path / "ramp.meta.json", -2.0, 2.0)
    hf = load_heightfield(p)
    assert np.all(np.diff(hf.elevations, axis=1) > 0)
    assert np.allclose(np.diff(hf.elevations, axis=0), 0.0)
    assert hf.elevations[0, 0] == -2.0
    assert hf.elevations[0, -1] == 2.0


def _at(x, y):
    return np.array([x]), np.array([y])


def test_sample_surface_flat(flat_field):
    x, y = _at(1.234, 2.345)
    assert surface_heights(flat_field, x, y)[0] == pytest.approx(1.5, abs=1e-12)
    assert np.allclose(surface_normals(flat_field, x, y)[0], [0, 0, 1])
    assert np.allclose(surface_colors(flat_field, x, y)[0], flat_field.colors[0, 0])


def test_sample_surface_at_node_exact():
    rng = np.random.default_rng(0)
    z = rng.uniform(-1, 1, (8, 8))
    hf = Heightfield(z, 0.5)
    assert surface_heights(hf, *_at(3 * 0.5, 5 * 0.5))[0] == z[5, 3]


def test_sample_surface_cell_center_is_corner_mean():
    # bilinear closed form at the cell midpoint
    rng = np.random.default_rng(1)
    z = rng.uniform(-1, 1, (4, 4))
    hf = Heightfield(z, 1.0)
    expected = (z[2, 1] + z[2, 2] + z[3, 1] + z[3, 2]) / 4.0
    assert surface_heights(hf, *_at(1.5, 2.5))[0] == pytest.approx(expected, abs=1e-12)


def test_sample_surface_out_of_extent(flat_field):
    for query in (surface_heights, surface_normals, surface_colors):
        with pytest.raises(ValueError, match="outside the terrain extent"):
            query(flat_field, *_at(-0.1, 1.0))
    with pytest.raises(ValueError):
        surface_heights(flat_field, np.array([1.0, 99.0]), np.array([1.0, 1.0]))


def test_normals_unit_and_colors_bounded(rough_field):
    rng = np.random.default_rng(2)
    x0, x1, y0, y1 = rough_field.extent
    xs = rng.uniform(x0, x1, 64)
    ys = rng.uniform(y0, y1, 64)
    n = surface_normals(rough_field, xs, ys)
    assert np.allclose(np.linalg.norm(n, axis=1), 1.0, atol=1e-12)
    c = surface_colors(rough_field, xs, ys)
    assert c.min() >= 0.0 and c.max() <= 1.0


def _four_gather_bilinear(hf, grid, x, y):
    """Reference: the bilinear kernel as four 2-D gathers, floor then clip."""
    gx = x / hf.cell_size
    gy = y / hf.cell_size
    j0 = np.clip(np.floor(gx).astype(int), 0, hf.cols - 2)
    i0 = np.clip(np.floor(gy).astype(int), 0, hf.rows - 2)
    fx = gx - j0
    fy = gy - i0
    if grid.ndim == 3:
        fx = fx[..., None]
        fy = fy[..., None]
    a = grid[i0, j0]
    b = grid[i0, j0 + 1]
    c = grid[i0 + 1, j0]
    d = grid[i0 + 1, j0 + 1]
    return a * (1 - fx) * (1 - fy) + b * fx * (1 - fy) + c * (1 - fx) * fy + d * fx * fy


def _kernel_points(hf, rng):
    """Random in-extent points, points on the far edges and node-exact points."""
    x0, x1, y0, y1 = hf.extent
    xs = [rng.uniform(x0, x1, 500), np.full(7, x1), rng.uniform(x0, x1, 7), [x1, x0, x1]]
    ys = [rng.uniform(y0, y1, 500), rng.uniform(y0, y1, 7), np.full(7, y1), [y1, y1, y0]]
    jj, ii = np.meshgrid(np.arange(hf.cols), np.arange(hf.rows))
    xs.append((jj * hf.cell_size).ravel())
    ys.append((ii * hf.cell_size).ravel())
    return np.concatenate(xs), np.concatenate(ys)


@pytest.mark.parametrize("shape, cell", [((13, 9), 0.2), ((6, 17), 0.37)])
def test_node_bilinear_matches_four_gather_reference(shape, cell):
    rng = np.random.default_rng(shape[0])
    hf = Heightfield(rng.uniform(-2, 2, shape), cell, rng.uniform(0, 1, shape + (3,)))
    x, y = _kernel_points(hf, rng)
    assert np.all(hf.contains(x, y))
    for grid in (hf.elevations, hf.colors):
        got = _node_bilinear(hf, grid, x, y)
        want = _four_gather_bilinear(hf, grid, x, y)
        assert got.shape == want.shape == x.shape + grid.shape[2:]
        assert got.tobytes() == want.tobytes()
    # 2-D blocks of points, as the ray march passes them, and single points
    got = _node_bilinear(hf, hf.elevations, x[:500].reshape(20, 25), y[:500].reshape(20, 25))
    assert got.tobytes() == _four_gather_bilinear(hf, hf.elevations, x[:500], y[:500]).tobytes()
    for k in (0, 500, 507, len(x) - 1):
        for grid in (hf.elevations, hf.colors):
            got = np.asarray(_node_bilinear(hf, grid, x[k], y[k]))
            assert got.tobytes() == np.asarray(_four_gather_bilinear(hf, grid, x[k], y[k])).tobytes()
