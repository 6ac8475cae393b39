"""File formats for every pipeline artifact.

Everything is written atomically (temp file + rename) so an interrupted
command never leaves a truncated artifact behind. Floats are serialized with
%.17g so CSV round-trips reproduce the exact double.
"""

import json
import os
import tempfile
from pathlib import Path

import numpy as np

from .types import (
    DenseCostmap, FormatError, GridSpec, Image, ImuLog, PointCloud, SparseCostmap, Trajectory,
)

COSTMAP_MAXVAL = 65535
COSTMAP_HEADER = "i,j,value,valid"


def atomic_write_bytes(path, data: bytes):
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as f:
            f.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def atomic_write_text(path, text: str):
    atomic_write_bytes(path, text.encode("utf-8"))


def _fmt(v: float) -> str:
    return f"{float(v):.17g}"


# ---------------------------------------------------------------------------
# Netpbm rasters
# ---------------------------------------------------------------------------


def _read_pnm_tokens(data: bytes, count: int, offset: int):
    """Read ``count`` whitespace-separated ASCII tokens, skipping # comments."""
    tokens = []
    i = offset
    n = len(data)
    while len(tokens) < count:
        while i < n and data[i : i + 1].isspace():
            i += 1
        if i < n and data[i : i + 1] == b"#":
            while i < n and data[i : i + 1] not in (b"\n", b"\r"):
                i += 1
            continue
        start = i
        while i < n and not data[i : i + 1].isspace():
            i += 1
        if start == i:
            raise FormatError("truncated PNM header")
        tokens.append(data[start:i])
    return tokens, i


def read_pgm(path):
    """Read a P2 (ASCII) or P5 (binary) grayscale raster; returns (array, maxval)."""
    data = Path(path).read_bytes()
    if len(data) < 2 or data[:2] not in (b"P2", b"P5"):
        raise FormatError(f"{path}: not a P2/P5 PGM raster")
    magic = data[:2]
    (w_tok, h_tok, max_tok), i = _read_pnm_tokens(data, 3, 2)
    try:
        width, height, maxval = int(w_tok), int(h_tok), int(max_tok)
    except ValueError as e:
        raise FormatError(f"{path}: malformed PGM header") from e
    if width < 1 or height < 1:
        raise FormatError(f"{path}: invalid PGM dimensions {width}x{height}")
    if maxval <= 0 or maxval > 65535:
        raise FormatError(f"{path}: invalid PGM maxval {maxval}")
    if magic == b"P2":
        tokens, _ = _read_pnm_tokens(data, width * height, i)
        try:
            flat = np.array([int(t) for t in tokens], dtype=np.int64)
        except ValueError as e:
            raise FormatError(f"{path}: non-integer PGM pixel") from e
    else:
        i += 1  # single whitespace byte after maxval
        bytes_per = 2 if maxval > 255 else 1
        need = width * height * bytes_per
        raw = data[i : i + need]
        if len(raw) != need:
            raise FormatError(f"{path}: truncated P5 pixel data")
        dtype = ">u2" if bytes_per == 2 else np.uint8
        flat = np.frombuffer(raw, dtype=dtype).astype(np.int64)
    if flat.min() < 0 or flat.max() > maxval:
        raise FormatError(f"{path}: pixel value outside [0, maxval]")
    return flat.reshape(height, width), maxval


def write_pgm(path, pixels: np.ndarray, maxval: int = COSTMAP_MAXVAL):
    """Write an ASCII P2 raster, wrapping rows at 16 values per line."""
    pixels = np.asarray(pixels)
    if pixels.ndim != 2:
        raise ValueError("PGM pixels must be 2-D")
    if pixels.min() < 0 or pixels.max() > maxval:
        raise ValueError("pixel values outside [0, maxval]")
    lines = [f"P2", f"{pixels.shape[1]} {pixels.shape[0]}", str(maxval)]
    flat = pixels.astype(np.int64).reshape(-1)
    for k in range(0, flat.size, 16):
        lines.append(" ".join(str(v) for v in flat[k : k + 16]))
    atomic_write_text(path, "\n".join(lines) + "\n")


def read_pbm(path) -> np.ndarray:
    """Read a P1 bitmap; returns a bool array where 1 bits map to True."""
    data = Path(path).read_bytes()
    if data[:2] != b"P1":
        raise FormatError(f"{path}: not a P1 PBM bitmap")
    (w_tok, h_tok), i = _read_pnm_tokens(data, 2, 2)
    width, height = int(w_tok), int(h_tok)
    bits = [c for c in data[i:].decode("ascii", "ignore") if c in "01"]
    if len(bits) != width * height:
        raise FormatError(f"{path}: PBM bit count mismatch")
    return np.array([b == "1" for b in bits], dtype=bool).reshape(height, width)


def write_pbm(path, bits: np.ndarray):
    bits = np.asarray(bits, dtype=bool)
    lines = ["P1", f"{bits.shape[1]} {bits.shape[0]}"]
    flat = bits.astype(np.int8).reshape(-1)
    for k in range(0, flat.size, 64):
        lines.append("".join(str(v) for v in flat[k : k + 64]))
    atomic_write_text(path, "\n".join(lines) + "\n")


def read_ppm(path) -> Image:
    """Read a binary P6 color raster into an Image with values in [0, 1]."""
    data = Path(path).read_bytes()
    if data[:2] != b"P6":
        raise FormatError(f"{path}: not a P6 PPM raster")
    (w_tok, h_tok, max_tok), i = _read_pnm_tokens(data, 3, 2)
    width, height, maxval = int(w_tok), int(h_tok), int(max_tok)
    if maxval <= 0 or maxval > 255:
        raise FormatError(f"{path}: unsupported PPM maxval {maxval}")
    i += 1
    need = width * height * 3
    raw = data[i : i + need]
    if len(raw) != need:
        raise FormatError(f"{path}: truncated P6 pixel data")
    arr = np.frombuffer(raw, dtype=np.uint8).astype(np.float64) / maxval
    return Image(arr.reshape(height, width, 3))


def write_ppm(path, image: Image):
    level = np.rint(np.clip(image.pixels, 0.0, 1.0) * 255).astype(np.uint8)
    header = f"P6\n{image.cols} {image.rows}\n255\n".encode("ascii")
    atomic_write_bytes(path, header + level.tobytes())


# ---------------------------------------------------------------------------
# Dense costmap rasters (PGM + JSON sidecar + PBM validity mask)
# ---------------------------------------------------------------------------


def write_costmap_pgm(cmap: DenseCostmap, path):
    """Quantize a dense costmap to 16-bit PGM with meta sidecar and validity mask."""
    path = Path(path)
    vals = cmap.values[cmap.valid]
    if vals.size:
        lo, hi = float(vals.min()), float(vals.max())
    else:
        lo, hi = 0.0, 0.0
    span = hi - lo
    scaled = np.zeros(cmap.values.shape, dtype=np.int64)
    if span > 0:
        scaled[cmap.valid] = np.rint((cmap.values[cmap.valid] - lo) / span * COSTMAP_MAXVAL).astype(
            np.int64
        )
    mask_path = path.with_suffix(".mask.pbm")
    write_pgm(path, scaled, COSTMAP_MAXVAL)
    write_pbm(mask_path, cmap.valid)
    meta = {
        "origin_x_m": cmap.grid.origin[0],
        "origin_y_m": cmap.grid.origin[1],
        "resolution_m": cmap.grid.resolution,
        "rows": cmap.grid.rows,
        "cols": cmap.grid.cols,
        "min_value": lo,
        "max_value": hi,
        "valid_mask": mask_path.name,
    }
    atomic_write_text(path.with_suffix(".meta.json"), json.dumps(meta, indent=2) + "\n")


def read_costmap_pgm(path) -> DenseCostmap:
    path = Path(path)
    pixels, maxval = read_pgm(path)
    meta_path = path.with_suffix(".meta.json")
    if not meta_path.exists():
        raise FormatError(f"missing costmap sidecar {meta_path}")
    meta = json.loads(meta_path.read_text())
    grid = GridSpec(
        (meta["origin_x_m"], meta["origin_y_m"]),
        meta["resolution_m"],
        int(meta["rows"]),
        int(meta["cols"]),
    )
    valid = read_pbm(path.parent / meta["valid_mask"])
    lo, hi = float(meta["min_value"]), float(meta["max_value"])
    values = lo + pixels.astype(np.float64) / maxval * (hi - lo)
    values[~valid] = 0.0
    return DenseCostmap(grid, values, valid)


def write_costmap_csv(cmap: DenseCostmap, path):
    """Exact per-cell dump: i, j, value, valid (plus a grid header comment)."""
    g = cmap.grid
    lines = [
        f"# grid origin_x={_fmt(g.origin[0])} origin_y={_fmt(g.origin[1])} "
        f"resolution={_fmt(g.resolution)} rows={g.rows} cols={g.cols}",
        COSTMAP_HEADER,
    ]
    for i in range(g.rows):
        for j in range(g.cols):
            lines.append(f"{i},{j},{_fmt(cmap.values[i, j])},{int(cmap.valid[i, j])}")
    atomic_write_text(path, "\n".join(lines) + "\n")


def read_costmap_csv(path) -> DenseCostmap:
    lines = Path(path).read_text().splitlines()
    if not lines or not lines[0].startswith("# grid "):
        raise FormatError(f"{path}: missing grid header")
    try:
        keys = dict(kv.split("=") for kv in lines[0][7:].split())
        grid = GridSpec(
            (float(keys["origin_x"]), float(keys["origin_y"])),
            float(keys["resolution"]),
            int(keys["rows"]),
            int(keys["cols"]),
        )
    except KeyError as e:
        raise FormatError(f"{path}:1: missing grid key {e}") from None
    except ValueError as e:
        raise FormatError(f"{path}:1: {e}") from None
    numbers, rows = _table_rows(path, lines, 1, COSTMAP_HEADER)
    i, j, value, flag = rows.T
    whole = (i % 1 == 0) & (j % 1 == 0)
    in_grid = whole & (i >= 0) & (i < grid.rows) & (j >= 0) & (j < grid.cols)
    for bad, what in ((~in_grid, f"not a cell of the {grid.rows}x{grid.cols} grid"),
                      ((flag != 0.0) & (flag != 1.0), "valid must be 0 or 1")):
        if bad.any():
            raise FormatError(f"{path}:{numbers[int(np.argmax(bad))]}: {what}")
    values = np.zeros((grid.rows, grid.cols))
    valid = np.zeros((grid.rows, grid.cols), dtype=bool)
    cells = (i.astype(np.int64), j.astype(np.int64))
    values[cells] = value
    valid[cells] = flag == 1.0
    return _build(path, DenseCostmap, grid, values, valid)


# ---------------------------------------------------------------------------
# Float tables: sparse labels, trajectory, IMU, point cloud
# ---------------------------------------------------------------------------

SPARSE_HEADER = "x_m,y_m,tc"
TRAJECTORY_HEADER = "t,x,y,z,qw,qx,qy,qz"
IMU_HEADER = "t,ax,ay,az,wx,wy,wz"
CLOUD_HEADER = "x,y,z,r,g,b"


def _write_table(path, header: str, *columns):
    """One header row, then one row of %.17g floats per entry of the columns."""
    lines = [header] + [",".join(map(_fmt, row)) for row in np.column_stack(columns).tolist()]
    atomic_write_text(path, "\n".join(lines) + "\n")


def _table_rows(path, lines: list, at: int, header: str):
    """Line numbers and (n, columns) float array of the rows below the header ``lines[at]``."""
    if len(lines) <= at or lines[at] != header:
        raise FormatError(f"{path}: missing header {header!r}")
    width = header.count(",") + 1
    numbers = []
    rows = []
    for number, line in enumerate(lines[at + 1 :], start=at + 2):
        if not line.strip():
            continue
        cells = line.split(",")
        if len(cells) != width:
            raise FormatError(f"{path}:{number}: expected {width} values, found {len(cells)}")
        try:
            rows.append([float(c) for c in cells])
        except ValueError as e:
            raise FormatError(f"{path}:{number}: {e}") from None
        numbers.append(number)
    return numbers, np.array(rows, dtype=np.float64).reshape(-1, width)


def _read_table(path, header: str) -> np.ndarray:
    """The (n, columns) float array of a table written by :func:`_write_table`."""
    return _table_rows(path, Path(path).read_text().splitlines(), 0, header)[1]


def _build(path, cls, *columns):
    """``cls(*columns)``, with a rejected value reported as a FormatError naming the file."""
    try:
        return cls(*columns)
    except ValueError as e:
        raise FormatError(f"{path}: {e}") from None


def write_sparse_csv(xy: np.ndarray, tc: np.ndarray, path):
    _write_table(path, SPARSE_HEADER, xy, tc)


def read_sparse_csv(path):
    data = _read_table(path, SPARSE_HEADER)
    labels = _build(path, SparseCostmap, data[:, :2], data[:, 2])
    return labels.xy, labels.tc


def write_trajectory_csv(traj: Trajectory, path):
    _write_table(path, TRAJECTORY_HEADER, traj.times, traj.positions, traj.quaternions)


def read_trajectory_csv(path) -> Trajectory:
    data = _read_table(path, TRAJECTORY_HEADER)
    return _build(path, Trajectory, data[:, 0], data[:, 1:4], data[:, 4:8])


def write_imu_csv(imu: ImuLog, path):
    _write_table(path, IMU_HEADER, imu.times, imu.accel, imu.gyro)


def read_imu_csv(path) -> ImuLog:
    data = _read_table(path, IMU_HEADER)
    return _build(path, ImuLog, data[:, 0], data[:, 1:4], data[:, 4:7])


def write_cloud_csv(cloud: PointCloud, path):
    _write_table(path, CLOUD_HEADER, cloud.xyz, cloud.rgb)


def read_cloud_csv(path) -> PointCloud:
    data = _read_table(path, CLOUD_HEADER)
    return _build(path, PointCloud, data[:, :3], data[:, 3:6])


# ---------------------------------------------------------------------------
# Simulation run directories
# ---------------------------------------------------------------------------


def write_run_dir(run_dir, traj: Trajectory, imu: ImuLog, clouds: dict, images: dict):
    """Write one simulation run: trajectory, IMU stream and per-frame sensing.

    ``clouds`` and ``images`` map frame index k (a pose index) to the data
    captured at that pose; files are named cloud_<k>.csv and image_<k>.ppm.
    """
    run_dir = Path(run_dir)
    run_dir.mkdir(parents=True, exist_ok=True)
    write_trajectory_csv(traj, run_dir / "trajectory.csv")
    write_imu_csv(imu, run_dir / "imu.csv")
    for k, cloud in clouds.items():
        write_cloud_csv(cloud, run_dir / f"cloud_{k}.csv")
    for k, image in images.items():
        write_ppm(run_dir / f"image_{k}.ppm", image)


def read_run_dir(run_dir):
    """Load a run directory; returns (trajectory, imu, {k: cloud}, {k: image})."""
    run_dir = Path(run_dir)
    traj = read_trajectory_csv(run_dir / "trajectory.csv")
    imu = read_imu_csv(run_dir / "imu.csv")
    clouds = {}
    images = {}
    for p in sorted(run_dir.glob("cloud_*.csv")):
        clouds[int(p.stem.split("_")[1])] = read_cloud_csv(p)
    for p in sorted(run_dir.glob("image_*.ppm")):
        images[int(p.stem.split("_")[1])] = read_ppm(p)
    return traj, imu, clouds, images
