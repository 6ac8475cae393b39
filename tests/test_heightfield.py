import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from marscost import heightfield
from marscost.heightfield import (
    MAX_TERRAIN_NODES,
    Heightfield,
    _node_bilinear,
    _walk_tables,
    generate_heightfield,
    load_heightfield,
    surface_colors,
    surface_heights,
    surface_normals,
)
from marscost.simulate import march_rays
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
    with pytest.raises(ValueError, match="a 2x131073 grid has more than 262144 nodes"):
        Heightfield(np.zeros((2, MAX_TERRAIN_NODES // 2 + 1)), 0.2)
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


def test_load_heightmap_over_the_node_bound_rejected(tmp_path):
    p = tmp_path / "huge.pgm"
    p.write_bytes(b"P5\n513 512\n255\n" + bytes(513 * 512))
    _write_meta(tmp_path / "huge.meta.json", 0.0, 1.0)
    with pytest.raises(FormatError, match=f"{p}.* a 512x513 grid has more than 262144 nodes"):
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


def _covering_blocks(lo, hi, n_cells):
    """The cells of the 2 x 2-cell blocks that cover cells ``lo..hi`` on one axis."""
    return slice(lo - lo % 2, min(hi - hi % 2 + 2, n_cells))


@pytest.mark.parametrize("shape", [(13, 17), (14, 18), (2, 9), (33, 3)])
def test_walk_tables_bound_every_box_by_its_blocks(shape):
    z = np.random.default_rng(shape[1]).normal(size=shape)
    tables = _walk_tables(Heightfield(z, 0.5))
    cell_tops = np.maximum.reduce([z[:-1, :-1], z[:-1, 1:], z[1:, :-1], z[1:, 1:]])
    m, n = cell_tops.shape
    tops = np.append(tables.tops, 0.0).reshape(m, n + 1)[:, :-1]  # a j = cols - 1 entry is no cell
    assert tops.tobytes() == cell_tops.tobytes()
    # every box of cells: one cell, the edges, the full extent and all in between
    boxes = np.array([(i0, i1, j0, j1) for i0 in range(m) for i1 in range(i0, m)
                      for j0 in range(n) for j1 in range(j0, n)])
    got = tables.ceilings(*boxes.T)
    for (i0, i1, j0, j1), ceiling in zip(boxes, got):
        assert ceiling >= cell_tops[i0 : i1 + 1, j0 : j1 + 1].max()
        # and no higher than the blocks the box lies in
        assert ceiling == cell_tops[_covering_blocks(i0, i1, m), _covering_blocks(j0, j1, n)].max()
    assert len(got) == m * (m + 1) * n * (n + 1) // 4


def test_walk_tables_are_built_once_per_heightfield_and_read_only(monkeypatch):
    builds = []
    build = heightfield._build_walk_tables
    monkeypatch.setattr(heightfield, "_build_walk_tables", lambda z: builds.append(z) or build(z))
    hf = generate_heightfield(seed=2, rows=24, cols=20, cell_size=0.25, roughness=0.5)
    assert hf._walk is None  # a heightfield no ray has walked holds no table
    dirs = np.array([[0.6, 0.8, -0.1], [0.6, -0.8, 0.2]])
    for _ in range(2):
        march_rays(hf, [2.0, 2.0, 1.5], dirs, 5.0)
    assert len(builds) == 1 and builds[0] is hf.elevations
    tables = hf._walk
    for table in (tables.tops, tables.patches, tables.ranges):
        assert not table.flags.writeable
        with pytest.raises(ValueError):
            table[(0,) * table.ndim] = 0.0
    twin = Heightfield(hf.elevations, hf.cell_size)
    march_rays(twin, [2.0, 2.0, 1.5], dirs, 5.0)
    assert len(builds) == 2 and twin._walk is not tables and hf._walk is tables


def test_importing_marscost_builds_no_walk_table():
    code = ("import sys\n"
            "ran = set()\n"
            "sys.setprofile(lambda frame, event, arg: ran.add(frame.f_code.co_name))\n"
            "import marscost, marscost.cli\n"
            "sys.setprofile(None)\n"
            "print(sorted(ran & {'_walk_tables', '_build_walk_tables', 'march_rays'}))\n")
    src = str(Path(__file__).resolve().parent.parent / "src")
    run = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
                         capture_output=True, text=True, check=True)
    assert run.stdout == "[]\n"
