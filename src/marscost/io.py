"""File formats for every pipeline artifact.

Everything is written atomically (temp file + rename) so an interrupted
command never leaves a truncated artifact behind. Floats are serialized with
%.17g so CSV round-trips reproduce the exact double.
"""

import json
import math
import os
import re
import tempfile
from itertools import chain, repeat
from pathlib import Path

import numpy as np

from .types import DenseCostmap, FormatError, GridSpec, Image, ImuLog, PointCloud, Trajectory

COSTMAP_MAXVAL = 65535
COSTMAP_HEADER = "i,j,value,valid"
COSTMAP_SIDECAR_KEYS = ("origin_x_m", "origin_y_m", "resolution_m", "min_value", "max_value")


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


def _rows_of(field: str, sep: str, width: int, n: int) -> str:
    """A %-format string for ``n`` lines of ``width`` fields joined by ``sep``.

    Formatting a whole block of values with one ``%`` runs the per-value
    conversion in C; ``"%.17g" % v`` and ``f"{v:.17g}"`` give the same text.
    """
    return (sep.join([field] * width) + "\n") * n


# ---------------------------------------------------------------------------
# Netpbm rasters
# ---------------------------------------------------------------------------


# one header field: whitespace or "#" comments, then at most 9 digits (larger rasters cannot fit);
# possessive quantifiers (Python 3.11+) keep a hostile header from backtracking
_PNM_FIELD = rb"(?:\s|#[^\r\n]*+)++([0-9]{1,9})"


def _read_pnm(path, magics, n_fields: int, max_maxval: int = None):
    """Magic, header fields and raster bytes of a Netpbm file.

    The header is one of ``magics``, then ``n_fields`` decimal fields (width,
    height and, when ``max_maxval`` is given, a maxval in [1, max_maxval]),
    then one whitespace byte; the raster is everything after it.
    """
    data = Path(path).read_bytes()
    kind = "/".join(m.decode() for m in magics)
    if data[:2] not in magics:
        raise FormatError(f"{path}: not a {kind} raster")
    header = re.compile(_PNM_FIELD * n_fields + rb"\s").match(data, 2)
    if header is None:
        raise FormatError(f"{path}: malformed {kind} header")
    fields = tuple(map(int, header.groups()))
    if min(fields[:2]) < 1:
        raise FormatError(f"{path}: invalid dimensions {fields[0]}x{fields[1]}")
    if n_fields == 3 and not 1 <= fields[2] <= max_maxval:
        raise FormatError(f"{path}: invalid maxval {fields[2]}")
    return data[:2], fields, data[header.end() :]


def read_pgm(path):
    """Read a P2 (ASCII) or P5 (binary) grayscale raster; returns (array, maxval)."""
    magic, (width, height, maxval), raster = _read_pnm(path, (b"P2", b"P5"), 3, 65535)
    if magic == b"P2":
        tokens = raster.split()
        if len(tokens) != width * height or not b"".join(tokens).isdigit():
            raise FormatError(f"{path}: P2 raster must be exactly {width * height} decimal pixels")
        flat = np.array(list(map(float, tokens)))  # exact up to 2**53, so for any maxval
    else:
        dtype = np.dtype(">u2" if maxval > 255 else np.uint8)
        if len(raster) != width * height * dtype.itemsize:
            raise FormatError(f"{path}: P5 raster must be {width * height * dtype.itemsize} bytes")
        flat = np.frombuffer(raster, dtype)
    if flat.max() > maxval:
        raise FormatError(f"{path}: pixel value outside [0, maxval]")
    return flat.astype(np.int64).reshape(height, width), maxval


def write_pgm(path, pixels: np.ndarray, maxval: int = COSTMAP_MAXVAL):
    """Write an ASCII P2 raster, wrapping rows at 16 values per line."""
    pixels = np.asarray(pixels)
    if pixels.ndim != 2:
        raise ValueError("PGM pixels must be 2-D")
    if pixels.min() < 0 or pixels.max() > maxval:
        raise ValueError("pixel values outside [0, maxval]")
    flat = pixels.astype(np.int64).reshape(-1).tolist()
    full = len(flat) - len(flat) % 16
    text = [f"P2\n{pixels.shape[1]} {pixels.shape[0]}\n{maxval}\n",
            _rows_of("%d", " ", 16, full // 16) % tuple(flat[:full])]
    if full < len(flat):
        text.append(_rows_of("%d", " ", len(flat) - full, 1) % tuple(flat[full:]))
    atomic_write_text(path, "".join(text))


def read_pbm(path) -> np.ndarray:
    """Read a P1 bitmap; returns a bool array where 1 bits map to True."""
    _, (width, height), raster = _read_pnm(path, (b"P1",), 2)
    bits = raster.translate(None, b" \t\n\r\x0b\x0c")
    if len(bits) != width * height or bits.translate(None, b"01"):
        raise FormatError(f"{path}: P1 raster must be exactly {width * height} 0/1 bits")
    return (np.frombuffer(bits, dtype=np.uint8) == ord("1")).reshape(height, width)


def write_pbm(path, bits: np.ndarray):
    bits = np.asarray(bits, dtype=bool)
    digits = (bits.reshape(-1).astype(np.uint8) + ord("0")).tobytes()  # b"0" and b"1"
    lines = [b"P1", f"{bits.shape[1]} {bits.shape[0]}".encode("ascii")]
    lines += [digits[k : k + 64] for k in range(0, len(digits), 64)]
    atomic_write_bytes(path, b"\n".join(lines) + b"\n")


def read_ppm(path) -> Image:
    """Read a binary P6 color raster into an Image with values in [0, 1]."""
    _, (width, height, maxval), raster = _read_pnm(path, (b"P6",), 3, 255)
    if len(raster) != width * height * 3:
        raise FormatError(f"{path}: P6 raster must be {width * height * 3} bytes")
    arr = np.frombuffer(raster, dtype=np.uint8).astype(np.float64) / maxval
    return _build(path, Image, arr.reshape(height, width, 3))


def write_ppm(path, image: Image):
    level = np.rint(np.clip(image.pixels, 0.0, 1.0) * 255).astype(np.uint8)
    header = f"P6\n{image.cols} {image.rows}\n255\n".encode("ascii")
    atomic_write_bytes(path, header + level.tobytes())


# ---------------------------------------------------------------------------
# Dense costmap rasters (PGM + JSON sidecar + PBM validity mask)
# ---------------------------------------------------------------------------


def write_costmap_pgm(cmap: DenseCostmap, path):
    """Quantize a dense costmap to a 16-bit PGM, a ``.mask.pbm`` and a ``.meta.json`` sidecar."""
    path = Path(path)
    vals = cmap.values[cmap.valid]
    lo, hi = (float(vals.min()), float(vals.max())) if vals.size else (0.0, 0.0)
    span = hi - lo
    scaled = np.zeros(cmap.values.shape, dtype=np.int64)
    if span > 0:
        scaled[cmap.valid] = np.rint((vals - lo) / span * COSTMAP_MAXVAL).astype(np.int64)
    write_pgm(path, scaled, COSTMAP_MAXVAL)
    write_pbm(path.with_suffix(".mask.pbm"), cmap.valid)
    meta = {
        "origin_x_m": cmap.grid.origin[0],
        "origin_y_m": cmap.grid.origin[1],
        "resolution_m": cmap.grid.resolution,
        "min_value": lo,
        "max_value": hi,
    }
    atomic_write_text(path.with_suffix(".meta.json"), json.dumps(meta, indent=2) + "\n")


def read_sidecar(path, keys) -> dict:
    """The JSON object of a raster's sidecar; each of ``keys`` must be in it.

    Every listed value must be a finite number; other keys are not looked at.
    JSON integers are read as floats.
    """
    try:
        meta = json.loads(Path(path).read_bytes(), parse_int=float)
    except FileNotFoundError:
        raise FormatError(f"missing sidecar {path}") from None
    except ValueError as e:  # not UTF-8, or not JSON
        raise FormatError(f"{path}: invalid sidecar JSON: {e}") from None
    if not isinstance(meta, dict):
        raise FormatError(f"{path}: sidecar must be a JSON object")
    for key in keys:
        if key not in meta:
            raise FormatError(f"{path}: sidecar missing key {key!r}")
        value = meta[key]
        if not (type(value) is float and math.isfinite(value)):
            raise FormatError(f"{path}: key {key!r} must be a finite number, found {value!r}")
    return meta


def _read_scaled_pgm(path, keys, low: str, high: str):
    """``(values, meta, meta_path)``: the PGM ``path`` read through ``<name>.meta.json``,
    which must hold ``keys``; pixel 0 reads as ``meta[low]`` and maxval as ``meta[high]``."""
    path = Path(path)
    pixels, maxval = read_pgm(path)
    meta_path = path.with_suffix(".meta.json")
    meta = read_sidecar(meta_path, keys)
    lo, hi = meta[low], meta[high]
    if lo > hi:  # equal is a constant raster
        raise FormatError(f"{meta_path}: {low} {lo!r} exceeds {high} {hi!r}")
    return lo + pixels.astype(np.float64) / maxval * (hi - lo), meta, meta_path


def read_costmap_pgm(path) -> DenseCostmap:
    """Read ``<name>.pgm`` with ``<name>.meta.json`` and ``<name>.mask.pbm``; no other file."""
    path = Path(path)
    values, meta, meta_path = _read_scaled_pgm(path, COSTMAP_SIDECAR_KEYS, "min_value", "max_value")
    grid = _build(meta_path, GridSpec, (meta["origin_x_m"], meta["origin_y_m"]),
                  meta["resolution_m"], *values.shape)
    mask_path = path.with_suffix(".mask.pbm")
    try:
        valid = read_pbm(mask_path)
    except OSError as e:
        raise FormatError(f"{mask_path}: cannot read the validity mask: {e.strerror}") from None
    if valid.shape != values.shape:
        raise FormatError(f"{mask_path}: {valid.shape[0]}x{valid.shape[1]} mask does not match "
                          f"the {values.shape[0]}x{values.shape[1]} raster {path}")
    values[~valid] = 0.0
    return _build(meta_path, DenseCostmap, grid, values, valid)


def write_costmap_csv(cmap: DenseCostmap, path):
    """Exact per-cell dump: i, j, value, valid (plus a grid header comment)."""
    g = cmap.grid
    i, j = np.indices(cmap.values.shape)
    _write_table(
        path,
        f"# grid origin_x={_fmt(g.origin[0])} origin_y={_fmt(g.origin[1])} "
        f"resolution={_fmt(g.resolution)} rows={g.rows} cols={g.cols}\n{COSTMAP_HEADER}",
        i.ravel(), j.ravel(), cmap.values.ravel(), cmap.valid.ravel(),
    )


def read_costmap_csv(path) -> DenseCostmap:
    """The costmap of a table written by :func:`write_costmap_csv`.

    Rows must come in the writer's row-major order, each cell once; any other
    row, a missing one or one too many raises ``FormatError`` naming ``file:line``.
    """
    lines = _read_lines(path)
    if not lines or not lines[0].startswith("# grid "):
        raise FormatError(f"{path}: missing grid header")
    try:
        keys = dict(kv.split("=") for kv in lines[0][7:].split())
        if any("_" in v for v in keys.values()):  # int() and float() would read "1_0" as 10
            raise ValueError("'_' is not part of a number")
        grid = GridSpec((float(keys["origin_x"]), float(keys["origin_y"])),
                        float(keys["resolution"]), int(keys["rows"]), int(keys["cols"]))
        if max(grid.rows, grid.cols) > 999_999_999:  # 9 digits, as a Netpbm header field
            raise ValueError(f"a {grid.rows}x{grid.cols} grid is too large")
    except KeyError as e:
        raise FormatError(f"{path}:1: missing grid key {e}") from None
    except ValueError as e:
        raise FormatError(f"{path}:1: {e}") from None
    numbers, rows = _table_rows(path, lines, 1, COSTMAP_HEADER)
    i, j, value, flag = rows.T
    n_cells = grid.rows * grid.cols
    n = min(len(rows), n_cells)
    # each cell once, in write_costmap_csv's row-major order; arrays stay sized by the file
    want_i, want_j = divmod(np.arange(n), grid.cols)
    off = (i[:n] != want_i) | (j[:n] != want_j)
    if off.any():
        r = int(np.argmax(off))
        raise FormatError(f"{path}:{numbers[r]}: expected cell ({want_i[r]}, {want_j[r]}) of the "
                          f"{grid.rows}x{grid.cols} grid in row-major order, found "
                          f"({_fmt(i[r])}, {_fmt(j[r])})")
    bad = (flag != 0.0) & (flag != 1.0)
    if bad.any():
        raise FormatError(f"{path}:{numbers[int(np.argmax(bad))]}: valid must be 0 or 1")
    if len(rows) > n_cells:
        raise FormatError(f"{path}:{numbers[n_cells]}: row past the last cell of the "
                          f"{grid.rows}x{grid.cols} grid")
    if len(rows) < n_cells:
        raise FormatError(f"{path}:{len(lines)}: table ends after {n} of {n_cells} cells; "
                          f"cell {divmod(n, grid.cols)} is missing")
    return _build(path, DenseCostmap, grid, value.reshape(grid.rows, grid.cols),
                  (flag == 1.0).reshape(grid.rows, grid.cols))


# ---------------------------------------------------------------------------
# Float tables: sparse labels, trajectory, IMU, point cloud
# ---------------------------------------------------------------------------

SPARSE_HEADER = "x_m,y_m,tc"
TRAJECTORY_HEADER = "t,x,y,z,qw,qx,qy,qz"
IMU_HEADER = "t,ax,ay,az,wx,wy,wz"
CLOUD_HEADER = "x,y,z,r,g,b"


# rows formatted per % call: a bounded block keeps the Python floats of
# tolist() from ever holding a whole large table at once
_TABLE_CHUNK_ROWS = 1024


def _write_table(path, header: str, *columns):
    """One header row, then one row of %.17g floats per entry of the columns."""
    table = np.column_stack(columns)
    text = [header + "\n"]
    for lo in range(0, len(table), _TABLE_CHUNK_ROWS):
        block = table[lo : lo + _TABLE_CHUNK_ROWS]
        fields = _rows_of("%.17g", ",", table.shape[1], len(block))
        text.append(fields % tuple(chain.from_iterable(block.tolist())))
    atomic_write_text(path, "".join(text))


def _table_rows(path, lines: list, at: int, header: str):
    """Line numbers and (n, columns) float array of the rows below the header ``lines[at]``.

    Blank and whitespace-only lines are skipped. All cells are parsed in one
    pass; only a damaged table is scanned line by line, to name its first bad line.
    """
    if len(lines) <= at or lines[at] != header:
        raise FormatError(f"{path}: missing header {header!r}")
    width = header.count(",") + 1
    body = lines[at + 1 :]
    rows = list(filter(str.strip, body))
    cells = ",".join(rows)
    try:
        if "_" in cells or set(map(str.count, rows, repeat(","))) - {width - 1}:
            raise ValueError
        data = np.array(list(map(float, cells.split(","))) if rows else [], dtype=np.float64)
    except ValueError:
        _name_bad_row(path, body, at + 2, width)
        raise AssertionError("a row the table parse rejected passed the line scan") from None
    if len(rows) == len(body):
        numbers = list(range(at + 2, at + 2 + len(body)))
    else:
        numbers = [n for n, line in enumerate(body, start=at + 2) if line.strip()]
    return numbers, data.reshape(-1, width)


def _name_bad_row(path, body: list, first: int, width: int):
    """Raise the FormatError naming the first bad row of ``body``, line ``first`` on."""
    for number, line in enumerate(body, start=first):
        if not line.strip():
            continue
        cells = line.split(",")
        if len(cells) != width:
            raise FormatError(f"{path}:{number}: expected {width} values, found {len(cells)}")
        if "_" in line:  # float() would read "1_0" as 10
            raise FormatError(f"{path}:{number}: '_' is not part of a number")
        try:
            list(map(float, cells))
        except ValueError as e:
            raise FormatError(f"{path}:{number}: {e}") from None


def _read_table(path, header: str) -> np.ndarray:
    """The (n, columns) float array of a table written by :func:`_write_table`."""
    return _table_rows(path, _read_lines(path), 0, header)[1]


def _read_lines(path) -> list:
    try:
        return Path(path).read_bytes().decode("ascii").splitlines()
    except UnicodeDecodeError as e:
        raise FormatError(f"{path}: not an ASCII table: {e}") from None


def _build(path, cls, *columns):
    """``cls(*columns)``, with a rejected value reported as a FormatError naming the file."""
    try:
        return cls(*columns)
    except ValueError as e:
        raise FormatError(f"{path}: {e}") from None


def write_sparse_csv(xy: np.ndarray, tc: np.ndarray, path):
    _write_table(path, SPARSE_HEADER, xy, tc)


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
    write_trajectory_csv(traj, run_dir / "trajectory.csv")
    write_imu_csv(imu, run_dir / "imu.csv")
    for k, cloud in clouds.items():
        write_cloud_csv(cloud, run_dir / f"cloud_{k}.csv")
    for k, image in images.items():
        write_ppm(run_dir / f"image_{k}.ppm", image)


def _frames(run_dir: Path, kind: str, suffix: str, read) -> dict:
    """{k: read(path)} for the files ``<kind>_<k><suffix>``, k a plain decimal number."""
    frames = {}
    for p in sorted(run_dir.glob(f"{kind}_*{suffix}")):
        k = re.fullmatch(rf"{kind}_(0|[1-9][0-9]*){re.escape(suffix)}", p.name)
        if k is None:
            raise FormatError(f"{p}: not a frame file name ({kind}_<k>{suffix})")
        frames[int(k[1])] = read(p)
    return frames


def read_run_dir(run_dir):
    """Load a run directory's sensing; returns (trajectory, {k: cloud}, {k: image}).

    Every frame ``k`` has both its files, so the two dicts hold the same frames.
    The IMU stream is left unread: only labeling uses it, through :func:`read_imu_csv`.
    """
    run_dir = Path(run_dir)
    traj = read_trajectory_csv(run_dir / "trajectory.csv")
    clouds = _frames(run_dir, "cloud", ".csv", read_cloud_csv)
    images = _frames(run_dir, "image", ".ppm", read_ppm)
    if clouds.keys() != images.keys():
        k = min(clouds.keys() ^ images.keys())
        lost = run_dir / (f"image_{k}.ppm" if k in clouds else f"cloud_{k}.csv")
        raise FormatError(f"{lost}: missing; frame {k} needs a cloud and an image")
    k = max(clouds, default=-1)
    if k >= len(traj):
        raise FormatError(f"{run_dir / 'trajectory.csv'}: {len(traj)} poses, but the run has frame {k}")
    return traj, clouds, images
