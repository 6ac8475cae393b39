import json
import re
import tracemalloc
from dataclasses import astuple, fields

import numpy as np
import pytest

from marscost import io as mio
from marscost.checkpoint import _WIDTHS, MAGIC, load_checkpoint
from marscost.cli import main
from marscost.heightfield import load_heightfield
from marscost.net import MAX_WIDTH, NetConfig
from marscost.types import DenseCostmap, FormatError, GridSpec, Image, Pose, SparseCostmap


def test_pgm_ascii_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    px = rng.integers(0, 65536, (9, 13))
    p = tmp_path / "a.pgm"
    mio.write_pgm(p, px, 65535)
    back, maxval = mio.read_pgm(p)
    assert maxval == 65535
    assert np.array_equal(back, px)


def test_pgm_binary_8_and_16_bit(tmp_path):
    # 8-bit P5
    p8 = tmp_path / "b8.pgm"
    data = np.arange(12, dtype=np.uint8).reshape(3, 4)
    p8.write_bytes(b"P5\n4 3\n255\n" + data.tobytes())
    back, maxval = mio.read_pgm(p8)
    assert maxval == 255 and np.array_equal(back, data)
    # 16-bit P5 is big-endian
    p16 = tmp_path / "b16.pgm"
    data16 = np.array([[0, 1], [256, 65535]], dtype=np.uint16)
    p16.write_bytes(b"P5\n2 2\n65535\n" + data16.astype(">u2").tobytes())
    back16, maxval16 = mio.read_pgm(p16)
    assert maxval16 == 65535 and np.array_equal(back16, data16)


def test_pgm_comments_and_errors(tmp_path):
    p = tmp_path / "c.pgm"
    p.write_text("P2\n# a comment\n2 2\n9\n1 2\n3 4\n")
    back, maxval = mio.read_pgm(p)
    assert np.array_equal(back, [[1, 2], [3, 4]])
    bad = tmp_path / "bad.pgm"
    bad.write_text("P3\n2 2\n9\n")
    with pytest.raises(FormatError):
        mio.read_pgm(bad)
    trunc = tmp_path / "trunc.pgm"
    trunc.write_text("P2\n2 2\n9\n1 2 3\n")
    with pytest.raises(FormatError):
        mio.read_pgm(trunc)


@pytest.mark.parametrize("read, data", [
    (mio.read_pgm, b"P2\n2 1\n9\n1 2 3\n"),
    (mio.read_pgm, b"P5\n2 1\n255\n\x01\x02\x03"),
    (mio.read_ppm, b"P6\n1 1\n255\n\x01\x02\x03\x04"),
    (mio.read_pbm, b"P1\n2 1\n101\n"),
], ids=["p2", "p5", "p6", "p1"])
def test_raster_with_trailing_data_names_the_file(tmp_path, read, data):
    path = tmp_path / "padded.pnm"
    path.write_bytes(data)
    with pytest.raises(FormatError, match="padded.pnm: P[1256] raster must be"):
        read(path)


def test_ppm_round_trip_quantized(tmp_path):
    rng = np.random.default_rng(1)
    img = Image(rng.uniform(0, 1, (7, 5, 3)))
    p = tmp_path / "img.ppm"
    mio.write_ppm(p, img)
    back = mio.read_ppm(p)
    assert np.max(np.abs(back.pixels - img.pixels)) <= 0.5 / 255 + 1e-12
    # a second write of the decoded image is byte identical
    p2 = tmp_path / "img2.ppm"
    mio.write_ppm(p2, back)
    assert p.read_bytes() == p2.read_bytes()


def test_pbm_round_trip(tmp_path):
    rng = np.random.default_rng(2)
    bits = rng.uniform(0, 1, (11, 17)) > 0.5
    p = tmp_path / "m.pbm"
    mio.write_pbm(p, bits)
    assert np.array_equal(mio.read_pbm(p), bits)


def _random_costmap(seed, rows=9, cols=7, lo=0.0, hi=1.0):
    rng = np.random.default_rng(seed)
    grid = GridSpec((rng.uniform(-3, 3), rng.uniform(-3, 3)), 0.25, rows, cols)
    values = rng.uniform(lo, hi, (rows, cols))
    valid = rng.uniform(0, 1, (rows, cols)) > 0.3
    values[~valid] = 0.0
    return DenseCostmap(grid, values, valid)


def test_costmap_pgm_round_trip_quantization(tmp_path):
    cmap = _random_costmap(3)
    mio.write_costmap_pgm(cmap, tmp_path / "c.pgm")
    back = mio.read_costmap_pgm(tmp_path / "c.pgm")
    assert back.grid == cmap.grid
    assert np.array_equal(back.valid, cmap.valid)
    span = cmap.values[cmap.valid].max() - cmap.values[cmap.valid].min()
    bound = span / 65535 / 2 + 1e-12
    assert np.max(np.abs(back.values[back.valid] - cmap.values[cmap.valid])) <= bound


def test_costmap_csv_round_trip_exact(tmp_path):
    cmap = _random_costmap(4)
    mio.write_costmap_csv(cmap, tmp_path / "c.csv")
    back = mio.read_costmap_csv(tmp_path / "c.csv")
    assert back.grid == cmap.grid
    assert np.array_equal(back.values, cmap.values)
    assert np.array_equal(back.valid, cmap.valid)


def test_costmap_all_invalid_export(tmp_path):
    grid = GridSpec((0.0, 0.0), 0.5, 4, 4)
    cmap = DenseCostmap(grid, np.zeros((4, 4)), np.zeros((4, 4), dtype=bool))
    mio.write_costmap_pgm(cmap, tmp_path / "e.pgm")
    back = mio.read_costmap_pgm(tmp_path / "e.pgm")
    assert not back.valid.any()
    assert np.all(back.values == 0.0)


def read_sparse_table(path) -> SparseCostmap:
    """The labels of a ``run_NNN.sparse.csv``, through the shared table reader;
    the pipeline writes this table and never reads it back."""
    data = mio._read_table(path, mio.SPARSE_HEADER)
    return mio._build(path, SparseCostmap, data[:, :2], data[:, 2])


def test_sparse_csv_round_trip(tmp_path):
    rng = np.random.default_rng(5)
    xy = rng.uniform(-5, 5, (12, 2))
    tc = rng.uniform(0, 30, 12)
    mio.write_sparse_csv(xy, tc, tmp_path / "s.csv")
    back = read_sparse_table(tmp_path / "s.csv")
    assert np.array_equal(back.xy, xy)
    assert np.array_equal(back.tc, tc)


# reader, header and one valid row of each float table
FLOAT_TABLES = {
    "sparse": (read_sparse_table, "x_m,y_m,tc", "0.5,1.5,2"),
    "trajectory": (mio.read_trajectory_csv, "t,x,y,z,qw,qx,qy,qz", "0,1,2,3,1,0,0,0"),
    "imu": (mio.read_imu_csv, "t,ax,ay,az,wx,wy,wz", "0,0,0,9.81,0,0,0"),
    "cloud": (mio.read_cloud_csv, "x,y,z,r,g,b", "1,2,3,0.5,0.5,0.5"),
}


@pytest.mark.parametrize("table", sorted(FLOAT_TABLES))
def test_float_table_errors_name_the_file(tmp_path, table):
    read, header, row = FLOAT_TABLES[table]
    path = tmp_path / f"{table}.csv"
    rest = row.split(",", 1)[1]
    for bad_row, where in [
        (row + ",7", ":2"),  # ragged: one value too many
        (row.rsplit(",", 1)[0], ":2"),  # ragged: one value short
        ("abc," + rest, ":2"),  # non-numeric cell
        ("nan," + rest, ""),  # rejected by the record's own validation
    ] + ([("1,2,3,nan,0.5,0.5", "")] if table == "cloud" else []):  # NaN colour
        path.write_text(f"{header}\n{bad_row}\n")
        with pytest.raises(FormatError, match=rf"{table}\.csv{where}"):
            read(path)
    path.write_text(header + "\n")
    if table in ("trajectory", "imu"):
        with pytest.raises(FormatError, match=rf"{table}\.csv"):
            read(path)
    else:  # no labels, or a LiDAR sweep with no hits
        assert len(read(path)) == 0


def test_range_checks_reject_nan():
    with pytest.raises(ValueError, match="quaternion"):
        Pose(0.0, [0, 0, 0], [np.nan, 0, 0, 0])
    with pytest.raises(ValueError, match="pixel"):
        Image(np.full((2, 2, 3), np.nan))


COSTMAP_CSV_HEADER = "# grid origin_x=0 origin_y=0 resolution=0.5 rows=2 cols=2\ni,j,value,valid\n"


@pytest.mark.parametrize("text, where", [
    (COSTMAP_CSV_HEADER + "5,0,1,1\n", ":3"),  # row outside the grid
    (COSTMAP_CSV_HEADER + "0,0,1,1\n0,-1,1,1\n", ":4"),  # column outside the grid
    (COSTMAP_CSV_HEADER + "0.5,0,1,1\n", ":3"),  # not a whole index
    (COSTMAP_CSV_HEADER + "0,0,1,2\n", ":3"),  # valid neither 0 nor 1
    (COSTMAP_CSV_HEADER + "0,0,1\n", ":3"),  # ragged
    (COSTMAP_CSV_HEADER + "0,0,x,1\n", ":3"),  # non-numeric
    (COSTMAP_CSV_HEADER.replace(" cols=2", ""), ":1"),  # missing grid key
    (COSTMAP_CSV_HEADER + "0,0,1,1\n0,1,1,1\n1,0,1,1\n", ":5: .*cell \\(1, 1\\) is missing"),
    (COSTMAP_CSV_HEADER, ":2: table ends after 0 of 4 cells"),
    (COSTMAP_CSV_HEADER + "0,0,1,1\n0,1,1,1\n0,0,7,1\n1,0,1,1\n1,1,1,1\n",
     ":5: expected cell \\(1, 0\\) of the 2x2 grid in row-major order, found \\(0, 0\\)$"),
    (COSTMAP_CSV_HEADER + "0,0,1,1\n1,0,1,1\n0,1,1,1\n1,1,1,1\n",
     ":4: expected cell \\(0, 1\\) of the 2x2 grid in row-major order, found \\(1, 0\\)$"),
    (COSTMAP_CSV_HEADER + "0,0,1,1\n0,1,1,1\n1,0,1,1\n1,1,1,1\n0,0,7,1\n",
     ":7: row past the last cell of the 2x2 grid$"),
    (COSTMAP_CSV_HEADER + "0,0,1_0,1\n0,1,1,1\n1,0,1,1\n1,1,1,1\n", ":3"),  # float() reads 1_0
    (COSTMAP_CSV_HEADER.replace("rows=2", "rows=1000000000"), ":1: a 1000000000x2 grid is too large"),
    (COSTMAP_CSV_HEADER.replace("cols=2", "cols=" + "9" * 20), ":1: a 2x9+ grid is too large"),
    ("# grid origin_x=0 origin_y=0 resolution=0_5 rows=1_0 cols=1\ni,j,value,valid\n"
     + "".join(f"{i},0,1,1\n" for i in range(10)),  # int() and float() read a 10x1 grid at 5 m
     ":1: '_' is not part of a number$"),
], ids=["row", "column", "fraction", "valid", "ragged", "text", "grid_key", "cut_at_row",
        "no_rows", "repeated_cell", "swapped_rows", "extra_row", "underscore", "ten_digit_rows",
        "int64_cols", "header_underscore"])
def test_costmap_csv_errors_name_the_file(tmp_path, text, where):
    path = tmp_path / "bad.csv"
    path.write_text(text)
    with pytest.raises(FormatError, match=rf"bad\.csv{where}"):
        mio.read_costmap_csv(path)


HUGE_COSTMAP_CSV = ("# grid origin_x=0 origin_y=0 resolution=0.5 rows=10000000 cols=10000000\n"
                    "i,j,value,valid\n0,0,1,1\n0,1,0.5,1\n1,0,0,0\n")


def test_costmap_csv_short_of_a_huge_grid_allocates_by_its_bytes(tmp_path):
    """A table that declares 10**14 cells and holds 3 is named as damaged without
    any array sized by the declared grid (that would be 91 TiB of mask)."""
    path = tmp_path / "huge.csv"
    in_order = HUGE_COSTMAP_CSV.replace("\n1,0,0,0\n", "\n0,2,0,0\n")
    for text, message in [
        (HUGE_COSTMAP_CSV, r":5: expected cell \(0, 2\) of the 10000000x10000000 grid in "
         r"row-major order, found \(1, 0\)$"),
        (in_order, r":5: table ends after 3 of 100000000000000 cells; cell \(0, 3\) is missing$"),
    ]:
        path.write_text(text)
        assert path.stat().st_size < 1024
        tracemalloc.start()
        try:
            with pytest.raises(FormatError, match=r"huge\.csv" + message):
                mio.read_costmap_csv(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20


def test_run_dir_round_trip(tmp_path, flat_field):
    from marscost.simulate import generate_trajectory, render_camera, simulate_lidar, synthesize_imu

    traj = generate_trajectory(flat_field, [(1.0, 1.0), (4.0, 4.0)], speed=1.0, dt=0.25)
    imu = synthesize_imu(traj, flat_field, seed=1)
    clouds = {0: simulate_lidar(flat_field, traj[0], 100, 8.0, seed=1)}
    images = {0: render_camera(flat_field, traj[0], 8, 12)}
    mio.write_run_dir(tmp_path / "run", traj, imu, clouds, images)
    t2, c2, i2 = mio.read_run_dir(tmp_path / "run")
    imu2 = mio.read_imu_csv(tmp_path / "run" / "imu.csv")
    assert np.array_equal(t2.positions, traj.positions)
    assert np.array_equal(t2.quaternions, traj.quaternions)
    assert np.array_equal(t2.times, traj.times)
    assert len(imu2) == len(imu)
    assert np.array_equal(imu2.accel, imu.accel)
    assert np.array_equal(c2[0].xyz, clouds[0].xyz)
    assert i2[0].pixels.shape == images[0].pixels.shape


def test_no_temp_files_left(tmp_path):
    cmap = _random_costmap(6)
    mio.write_costmap_pgm(cmap, tmp_path / "x.pgm")
    mio.write_costmap_csv(cmap, tmp_path / "x.csv")
    assert not list(tmp_path.glob("*.tmp"))


@pytest.mark.parametrize("name", ["cloud_12_x.csv", "cloud_x.csv", "cloud_012.csv", "image_1b.ppm"])
def test_run_dir_rejects_inexact_frame_names(tmp_path, flat_field, name):
    from marscost.simulate import generate_trajectory, render_camera, simulate_lidar, synthesize_imu

    traj = generate_trajectory(flat_field, [(1.0, 1.0), (4.0, 4.0)], speed=1.0, dt=0.25)
    clouds = {0: simulate_lidar(flat_field, traj[0], 50, 8.0, seed=1)}
    images = {0: render_camera(flat_field, traj[0], 4, 6)}
    run = tmp_path / "run"
    mio.write_run_dir(run, traj, synthesize_imu(traj, flat_field, seed=1), clouds, images)
    frame0 = run / ("cloud_0.csv" if name.startswith("cloud") else "image_0.ppm")
    (run / name).write_bytes(frame0.read_bytes())
    with pytest.raises(FormatError, match=f"{name}: not a frame file name"):
        mio.read_run_dir(run)


def _rewrite(path, edit):
    """Replace the text of ``path`` by ``edit(text)``; returns the path."""
    path.write_text(edit(path.read_text()))
    return path


def _edit_json(path, edit):
    return _rewrite(path, lambda text: json.dumps(edit(json.loads(text))))


def _set(key, value):
    return lambda meta: {**meta, key: value}


def _unlink(path):
    path.unlink()
    return path


# name: damage(directory holding c.pgm, c.meta.json and c.mask.pbm) -> the damaged file
COSTMAP_DAMAGE = {
    "sidecar_without_origin": lambda d: _edit_json(
        d / "c.meta.json", lambda m: {k: v for k, v in m.items() if k != "origin_x_m"}),
    "sidecar_list": lambda d: _edit_json(d / "c.meta.json", lambda m: []),
    "mask_missing": lambda d: _unlink(d / "c.mask.pbm"),
    "mask_2x2": lambda d: _rewrite(d / "c.mask.pbm", lambda _: "P1\n2 2\n1111\n"),
    "pbm_header": lambda d: _rewrite(d / "c.mask.pbm", lambda _: "P1\nx 2\n"),
    "p2_extra_tokens": lambda d: _rewrite(d / "c.pgm", lambda text: text + "7\n"),
}


def _cli_config(tmp_path, **terrain):
    path = tmp_path / "config.json"
    sim = {"trajectories": [[[2.0, 2.0], [7.0, 7.0]]], "terrain": terrain}
    path.write_text(json.dumps({"workdir": str(tmp_path / "work"), "sim": sim}))
    return str(path)


@pytest.mark.parametrize("case", sorted(COSTMAP_DAMAGE))
def test_hostile_costmap_raster_names_the_file(tmp_path, capsys, case):
    maps = tmp_path / "maps"
    cmap = _random_costmap(7, rows=4, cols=3)
    mio.write_costmap_pgm(cmap, maps / "c.pgm")
    damaged = COSTMAP_DAMAGE[case](maps)
    with pytest.raises(FormatError, match=re.escape(str(damaged))):
        mio.read_costmap_pgm(maps / "c.pgm")
    assert main(["export", "--config", _cli_config(tmp_path), "--map", str(maps / "c.pgm")]) == 2
    assert str(damaged) in capsys.readouterr().err


@pytest.mark.parametrize("where", ["parent", "absolute"])
def test_costmap_reads_its_own_mask_whatever_the_sidecar_names(tmp_path, where):
    maps = tmp_path / "maps"
    cmap = _random_costmap(7, rows=4, cols=3)
    mio.write_costmap_pgm(cmap, maps / "c.pgm")
    mio.write_pbm(tmp_path / "c.mask.pbm", ~cmap.valid)  # readable, the right size, and wrong
    name = "../c.mask.pbm" if where == "parent" else str(tmp_path / "c.mask.pbm")
    _edit_json(maps / "c.meta.json", _set("valid_mask", name))
    assert np.array_equal(mio.read_costmap_pgm(maps / "c.pgm").valid, cmap.valid)


def test_costmap_sidecar_of_eight_keys_reads_to_the_same_costmap(tmp_path):
    """A sidecar that also holds ``rows``, ``cols`` and ``valid_mask``, as the
    format once did, reads to the same bytes."""
    cmap = _random_costmap(8, rows=5, cols=6)
    mio.write_costmap_pgm(cmap, tmp_path / "c.pgm")
    five = mio.read_costmap_pgm(tmp_path / "c.pgm")
    meta = json.loads((tmp_path / "c.meta.json").read_text())
    assert list(meta) == list(mio.COSTMAP_SIDECAR_KEYS)
    keys = ["origin_x_m", "origin_y_m", "resolution_m", "rows", "cols", "min_value", "max_value",
            "valid_mask"]
    meta.update(rows=5, cols=6, valid_mask="c.mask.pbm")
    (tmp_path / "c.meta.json").write_text(json.dumps({k: meta[k] for k in keys}, indent=2) + "\n")
    eight = mio.read_costmap_pgm(tmp_path / "c.pgm")
    assert eight.grid == five.grid == cmap.grid
    assert eight.values.tobytes() == five.values.tobytes()
    assert eight.valid.tobytes() == five.valid.tobytes()


@pytest.mark.parametrize("value", [None, "a", float("nan")], ids=["null", "string", "nan"])
def test_hostile_heightmap_sidecar_names_the_file(tmp_path, capsys, value):
    mio.write_pgm(tmp_path / "h.pgm", np.arange(64).reshape(8, 8), 255)
    sidecar = tmp_path / "h.meta.json"
    sidecar.write_text(json.dumps({"min_height_m": 0.0, "max_height_m": value, "cell_size_m": 1.0}))
    with pytest.raises(FormatError, match=re.escape(str(sidecar))):
        load_heightfield(tmp_path / "h.pgm")
    config = _cli_config(tmp_path, heightmap_path=str(tmp_path / "h.pgm"))
    assert main(["simulate", "--config", config]) == 2
    assert str(sidecar) in capsys.readouterr().err


def test_costmap_sidecar_with_its_range_reversed_names_the_sidecar(tmp_path, capsys):
    """A minimum above the maximum would read the raster upside down; equal
    bounds are a constant map, which the writer itself produces."""
    maps = tmp_path / "maps"
    mio.write_costmap_pgm(_random_costmap(9, rows=4, cols=3), maps / "c.pgm")
    meta = json.loads((maps / "c.meta.json").read_text())
    lo, hi = meta["min_value"], meta["max_value"]
    _edit_json(maps / "c.meta.json", lambda m: {**m, "min_value": hi, "max_value": lo})
    message = f"{maps / 'c.meta.json'}: min_value {hi!r} exceeds max_value {lo!r}"
    with pytest.raises(FormatError, match=re.escape(message)):
        mio.read_costmap_pgm(maps / "c.pgm")
    assert main(["export", "--config", _cli_config(tmp_path), "--map", str(maps / "c.pgm")]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    grid = GridSpec((0.0, 0.0), 0.5, 2, 3)
    valid = np.array([[1, 1, 0], [1, 0, 1]], bool)
    constant = DenseCostmap(grid, np.where(valid, 0.75, 0.0), valid)  # invalid cells read as 0
    mio.write_costmap_pgm(constant, maps / "k.pgm")
    back = mio.read_costmap_pgm(maps / "k.pgm")
    assert back.values.tobytes() == constant.values.tobytes()


def test_heightmap_sidecar_with_its_range_reversed_names_the_sidecar(tmp_path, capsys):
    mio.write_pgm(tmp_path / "h.pgm", np.arange(64).reshape(8, 8), 255)
    sidecar = tmp_path / "h.meta.json"
    sidecar.write_text(json.dumps({"min_height_m": 1.0, "max_height_m": 0.5, "cell_size_m": 1.0}))
    message = f"{sidecar}: min_height_m 1.0 exceeds max_height_m 0.5"
    with pytest.raises(FormatError, match=re.escape(message)):
        load_heightfield(tmp_path / "h.pgm")
    config = _cli_config(tmp_path, heightmap_path=str(tmp_path / "h.pgm"))
    assert main(["simulate", "--config", config]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    sidecar.write_text(json.dumps({"min_height_m": 0.5, "max_height_m": 0.5, "cell_size_m": 1.0}))
    assert np.all(load_heightfield(tmp_path / "h.pgm").elevations == 0.5)  # flat terrain


WIDEST = NetConfig(*[MAX_WIDTH] * len(fields(NetConfig)))  # the most parameters a header holds


def _huge_checkpoint(path):
    """Magic and the widths of ``WIDEST`` (83 MiB of parameters), with 24 bytes of them."""
    path.write_bytes(MAGIC + _WIDTHS.pack(*astuple(WIDEST)) + bytes(24))


# files under 1 KiB whose headers declare about 10**14 pixels, or the most parameters
HUGE_DECLARATIONS = {
    "pgm_p2": ("huge.pgm", lambda p: p.write_bytes(b"P2\n10000000 10000000\n255\n0 1 2\n"),
               mio.read_pgm, "P2 raster must be exactly 100000000000000 decimal"),
    "pgm_p5": ("huge.pgm", lambda p: p.write_bytes(b"P5\n10000000 10000000\n65535\n" + bytes(6)),
               mio.read_pgm, "P5 raster must be 200000000000000 bytes"),
    "pbm": ("huge.pbm", lambda p: p.write_bytes(b"P1\n10000000 10000000\n0 1 1\n"),
            mio.read_pbm, "P1 raster must be exactly 100000000000000 0/1 bits"),
    "ppm": ("huge.ppm", lambda p: p.write_bytes(b"P6\n10000000 10000000\n255\n" + bytes(6)),
            mio.read_ppm, "P6 raster must be 300000000000000 bytes"),
    "checkpoint": ("huge.ckpt", _huge_checkpoint, load_checkpoint,
                   f"24 bytes of parameters, but the widths in its header take {8 * WIDEST.n_parameters()}"),
}


@pytest.mark.parametrize("case", sorted(HUGE_DECLARATIONS))
def test_reader_short_of_a_huge_declaration_allocates_by_its_bytes(tmp_path, case):
    """Each reader checks a declared size against the bytes it holds before it
    sizes any array by it, as the costmap CSV reader does."""
    name, write, read, message = HUGE_DECLARATIONS[case]
    path = tmp_path / name
    write(path)
    assert path.stat().st_size < 1024
    tracemalloc.start()
    try:
        with pytest.raises(FormatError, match=re.escape(f"{path}: {message}")):
            read(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


# ---------------------------------------------------------------------------
# oracles: the per-value table writer and the per-line table reader
# ---------------------------------------------------------------------------


def _oracle_table_text(header, *columns) -> str:
    """The table writer's reference: one ``%.17g`` conversion per value."""
    rows = [",".join(f"{float(v):.17g}" for v in row.tolist()) for row in np.column_stack(columns)]
    return "\n".join([header, *rows]) + "\n"


def _oracle_table_rows(path, lines, at, header):
    """The table reader's reference: each line split, checked and parsed on its own."""
    if len(lines) <= at or lines[at] != header:
        raise FormatError(f"{path}: missing header {header!r}")
    width = header.count(",") + 1
    numbers, rows = [], []
    for number, line in enumerate(lines[at + 1 :], start=at + 2):
        if not line.strip():
            continue
        cells = line.split(",")
        if len(cells) != width:
            raise FormatError(f"{path}:{number}: expected {width} values, found {len(cells)}")
        if "_" in line:
            raise FormatError(f"{path}:{number}: '_' is not part of a number")
        try:
            rows.append([float(c) for c in cells])
        except ValueError as e:
            raise FormatError(f"{path}:{number}: {e}") from None
        numbers.append(number)
    return numbers, np.array(rows, dtype=np.float64).reshape(-1, width)


EDGE_VALUES = [-0.0, 0.0, 5e-324, -5e-324, 1.7976931348623157e308, -1.7976931348623157e308,
               0.1, 1.0, -3.0, 2.0**53, 2.0**53 + 2, 1e16, 1e-7, 123456.789,
               np.inf, -np.inf, np.nan]


@pytest.mark.parametrize("n_rows", [0, 1, 17, 1023, 1024, 1025, 2500])
def test_table_writer_matches_per_value_oracle(tmp_path, n_rows):
    rng = np.random.default_rng(n_rows)
    scale = 10.0 ** rng.integers(-300, 300, (n_rows, 3))
    floats = rng.normal(0, 1, (n_rows, 3)) * scale
    floats.reshape(-1)[: min(len(EDGE_VALUES), floats.size)] = EDGE_VALUES[: floats.size]
    ints = rng.integers(-(2**40), 2**40, n_rows)
    flags = rng.uniform(0, 1, n_rows) > 0.5
    mio._write_table(tmp_path / "t.csv", "a,b,c,d,e,f", floats, ints, flags, floats[:, :1] * 0.1)
    expected = _oracle_table_text("a,b,c,d,e,f", floats, ints, flags, floats[:, :1] * 0.1)
    assert (tmp_path / "t.csv").read_bytes() == expected.encode("ascii")


def test_costmap_csv_matches_per_value_oracle(tmp_path):
    cmap = _random_costmap(11, rows=40, cols=31, lo=-1e-300, hi=1e300)
    mio.write_costmap_csv(cmap, tmp_path / "c.csv")
    i, j = np.indices(cmap.values.shape)
    body = _oracle_table_text(mio.COSTMAP_HEADER, i.ravel(), j.ravel(), cmap.values.ravel(),
                              cmap.valid.ravel())
    text = (tmp_path / "c.csv").read_text()
    assert text.split("\n", 1)[1] == body


def _table_outcome(read, path, lines):
    """('error', message) or ('rows', line numbers, array bytes) of one reader."""
    try:
        numbers, rows = read(path, lines, 0, "a,b,c")
    except FormatError as e:
        return "error", str(e)
    return "rows", list(numbers), rows.shape, rows.tobytes()


VALID_LINES = ["a,b,c", "1,2,3", "0.5,-0,1e-300", " 4 , 5 ,6 ", "nan,inf,-inf", "7,8,9", "1e5000,0,0"]

# damaged tables: each a list of lines, the header first
DAMAGED_TABLES = {
    "ragged_long": VALID_LINES[:2] + ["1,2,3,4"] + VALID_LINES[2:],
    "ragged_short": VALID_LINES[:3] + ["1,2"] + VALID_LINES[3:],
    "text_cell": VALID_LINES[:2] + ["1,x,3"],
    "empty_cell": VALID_LINES[:2] + ["1,,3"],
    "trailing_comma": VALID_LINES[:2] + ["1,2,"],
    "only_commas": VALID_LINES[:2] + [",,"],
    "underscore": VALID_LINES[:2] + ["1_0,2,3"],
    "hex": VALID_LINES[:2] + ["0x10,2,3"],
    "text_then_ragged": VALID_LINES[:1] + ["1,2,3", "1,y,3", "4,5,6", "1,2"],
    "ragged_then_text": VALID_LINES[:1] + ["1,2", "1,y,3"],
    "underscore_then_ragged": VALID_LINES[:1] + ["1_0,2,3", "1,2"],
    "ragged_with_underscore": VALID_LINES[:1] + ["1_0,2"],
    "blank_then_text": VALID_LINES[:1] + ["", "  ", "1,2,3", "\t", "a,b,c"],
    "wrong_header": ["a,b"] + VALID_LINES[1:],
    "no_header": [],
    "compensating_rows": VALID_LINES[:1] + ["1,2", "3,4,5,6"],
}


@pytest.mark.parametrize("case", sorted(DAMAGED_TABLES))
def test_table_reader_errors_match_per_line_oracle(tmp_path, case):
    lines = DAMAGED_TABLES[case]
    path = tmp_path / "t.csv"
    got = _table_outcome(mio._table_rows, path, lines)
    assert got == _table_outcome(_oracle_table_rows, path, lines)
    assert got[0] == "error"


def test_table_reader_names_the_first_bad_line():
    # the text cell on line 3 comes before the ragged line 5
    with pytest.raises(FormatError, match=r"t\.csv:3: could not convert"):
        mio._table_rows("t.csv", DAMAGED_TABLES["text_then_ragged"], 0, "a,b,c")


def test_table_reader_matches_oracle_on_seeded_damage(tmp_path):
    rng = np.random.default_rng(2024)
    path = tmp_path / "t.csv"
    alphabet = list(",_x.e-+ \t019")
    n_errors = 0
    for _ in range(400):
        lines = list(VALID_LINES)
        for _ in range(rng.integers(1, 4)):
            k = int(rng.integers(1, len(lines)))
            line = lines[k]
            pos = int(rng.integers(0, len(line) + 1))
            action = rng.integers(0, 4)
            if action == 0:  # insert a character
                lines[k] = line[:pos] + alphabet[rng.integers(len(alphabet))] + line[pos:]
            elif action == 1:  # delete one
                lines[k] = line[:pos] + line[pos + 1 :]
            elif action == 2:  # a blank or whitespace-only line
                lines.insert(k, " " * int(rng.integers(0, 3)))
            else:  # a repeated row
                lines.insert(k, line)
        got = _table_outcome(mio._table_rows, path, lines)
        assert got == _table_outcome(_oracle_table_rows, path, lines), lines
        n_errors += got[0] == "error"
    assert 100 < n_errors < 400  # both outcomes are exercised


def test_table_reader_skips_blank_lines_and_keeps_line_numbers(tmp_path):
    rng = np.random.default_rng(8)
    traj_path = tmp_path / "trajectory.csv"
    n = 6
    quats = np.tile([1.0, 0.0, 0.0, 0.0], (n, 1))
    mio._write_table(traj_path, mio.TRAJECTORY_HEADER, np.arange(n) * 0.1,
                     rng.normal(0, 1, (n, 3)), quats)
    plain = mio.read_trajectory_csv(traj_path)
    lines = traj_path.read_text().splitlines()
    spaced = [lines[0], "", lines[1], "   ", "\t", lines[2], lines[3], " \t ", *lines[4:], "", "  "]
    traj_path.write_text("\n".join(spaced) + "\n")
    back = mio.read_trajectory_csv(traj_path)
    assert np.array_equal(back.times, plain.times)
    assert np.array_equal(back.positions, plain.positions)
    assert np.array_equal(back.quaternions, plain.quaternions)
    # a bad row after the blank lines is named by its own line number
    traj_path.write_text("\n".join(spaced[:9] + ["0.7,1,2,3,1,0,x,0"] + spaced[9:]) + "\n")
    with pytest.raises(FormatError, match=r"trajectory\.csv:10: could not convert"):
        mio.read_trajectory_csv(traj_path)
    # and so is a costmap cell that repeats across blank lines
    csv = tmp_path / "c.csv"
    csv.write_text(COSTMAP_CSV_HEADER + "0,0,1,1\n\n0,1,1,1\n  \n1,0,1,1\n0,1,5,1\n")
    with pytest.raises(FormatError, match=r"c\.csv:8: expected cell \(1, 1\) of the 2x2 grid "
                       r"in row-major order, found \(0, 1\)$"):
        mio.read_costmap_csv(csv)
