import numpy as np
import pytest

from marscost import io as mio
from marscost.types import DenseCostmap, FormatError, GridSpec, Image, Pose


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


def test_sparse_csv_round_trip(tmp_path):
    rng = np.random.default_rng(5)
    xy = rng.uniform(-5, 5, (12, 2))
    tc = rng.uniform(0, 30, 12)
    mio.write_sparse_csv(xy, tc, tmp_path / "s.csv")
    bxy, btc = mio.read_sparse_csv(tmp_path / "s.csv")
    assert np.array_equal(bxy, xy)
    assert np.array_equal(btc, tc)


# reader, header and one valid row of each float table
FLOAT_TABLES = {
    "sparse": (mio.read_sparse_csv, "x_m,y_m,tc", "0.5,1.5,2"),
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
        out = read(path)
        assert len(out[1] if table == "sparse" else out) == 0


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
], ids=["row", "column", "fraction", "valid", "ragged", "text", "grid_key"])
def test_costmap_csv_errors_name_the_file(tmp_path, text, where):
    path = tmp_path / "bad.csv"
    path.write_text(text)
    with pytest.raises(FormatError, match=rf"bad\.csv{where}"):
        mio.read_costmap_csv(path)


def test_run_dir_round_trip(tmp_path, flat_field):
    from marscost.simulate import generate_trajectory, render_camera, simulate_lidar, synthesize_imu

    traj = generate_trajectory(flat_field, [(1.0, 1.0), (4.0, 4.0)], speed=1.0, dt=0.25)
    imu = synthesize_imu(traj, flat_field, seed=1)
    clouds = {0: simulate_lidar(flat_field, traj[0], 100, 8.0, seed=1)}
    images = {0: render_camera(flat_field, traj[0], 8, 12)}
    mio.write_run_dir(tmp_path / "run", traj, imu, clouds, images)
    t2, imu2, c2, i2 = mio.read_run_dir(tmp_path / "run")
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
