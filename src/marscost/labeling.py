"""IMU-derived traversability-cost labels.

A driven trajectory, with the one IMU reading taken at each pose, is binned
into BEV grid cells; each visited cell gets a scalar cost from the readings
of the poses inside it (acceleration RMS, path-weighted angular rate,
spatial-domain jerk RMS). The scattered per-cell costs are then densified
with a compactly supported kernel and min-max normalized over the whole
dataset.

All distance-based quantities use path length instead of time, so the labels
are insensitive to pure time reparameterization of the drive.
"""

from dataclasses import dataclass

import numpy as np

from .types import DenseCostmap, GridSpec, ImuLog, SparseCostmap, Trajectory

WEIGHT_FLOOR = 1e-12  # kernel mass below which an interpolated cell stays invalid
MAX_LABEL_CELLS = 2**22  # cells of one label grid; each raster on it takes 8 bytes a cell


@dataclass
class LabelingConfig:
    """Weights and geometry of the labeling pipeline."""

    w1: float = 1.0  # acceleration RMS weight
    w2: float = 1.0  # angular-change weight
    w3: float = 1.0  # spatial jerk weight
    epsilon: float = 1e-3  # minimum segment length, meters
    kernel_radius: float = 1.0  # meters
    coarse_res: float = 0.2  # meters, cell size used for binning
    fine_res: float = 0.05  # meters, interpolated output resolution

    def __post_init__(self):
        for name in ("w1", "w2", "w3", "epsilon", "kernel_radius", "coarse_res", "fine_res"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive")


def match_imu(traj: Trajectory, imu: ImuLog):
    """The IMU reading of each pose, as ``(accel, gyro)``, each ``(n, 3)``.

    The log holds one reading per pose, taken at the pose's own time, as
    :func:`marscost.simulate.synthesize_imu` records it and the ``%.17g``
    tables keep it. Raises ``ValueError`` naming the pose count when the
    lengths differ, else the first pose whose reading has another time.
    """
    if len(imu) != len(traj):
        raise ValueError(f"{len(imu)} IMU readings for a trajectory of {len(traj)} poses "
                         "(one reading per pose)")
    off = imu.times != traj.times
    if off.any():
        bad = int(np.argmax(off))
        raise ValueError(f"pose {bad}: IMU reading at t={float(imu.times[bad])!r}, pose at "
                         f"t={float(traj.times[bad])!r}")
    return imu.accel, imu.gyro


def bin_trajectory(traj: Trajectory, imu: ImuLog, grid: GridSpec):
    """Assign pose/IMU pairs to the grid cells containing their (x, y).

    ``imu`` holds one reading per pose, at the pose's time (see
    :func:`match_imu`). Returns ``(index, cell, accel, gyro)``: the ``(m, 2)``
    (row, col) of each visited cell in first-visit order, the ``(n,)`` row of
    ``index`` each pose falls in, and the ``(n, 3)`` readings of the poses.
    """
    pos = traj.positions
    accel, gyro = match_imu(traj, imu)

    rows_i, cols_j = grid.cell_of(pos[:, 0], pos[:, 1])
    ok = (rows_i >= 0) & (rows_i < grid.rows) & (cols_j >= 0) & (cols_j < grid.cols)
    if not np.all(ok):
        bad = int(np.argmin(ok))
        raise ValueError(f"pose {bad} at ({pos[bad, 0]}, {pos[bad, 1]}) is outside the label grid")

    _, first, inverse = np.unique(rows_i * grid.cols + cols_j, return_index=True,
                                  return_inverse=True)
    by_visit = np.argsort(first)  # sorted cell numbers, ranked by their first pose
    pose = first[by_visit]
    return np.column_stack([rows_i[pose], cols_j[pose]]), np.argsort(by_visit)[inverse], accel, gyro


def cell_costs(cell, positions, accels, gyros, cfg: LabelingConfig) -> np.ndarray:
    """Traversability cost of every cell ``0 .. cell.max()``.

    cost = w1 * rms(|a_i|)
         + w2 * sum(|w_i| ds_i) / sum(ds_i)
         + w3 * rms(|a_{i+1} - a_i| / ds_i)

    over each cell's samples in time order and its consecutive sample pairs
    (a revisited cell pairs its last sample before leaving with its first on
    return), with every segment length ds_i floored at epsilon.
    Single-sample cells contribute only the acceleration term. Each sum adds
    a cell's terms in time order from 0.0 (``np.bincount``).
    """
    order = np.argsort(cell, kind="stable")
    c = cell[order]
    a = accels[order]
    n = np.bincount(c)
    cost = cfg.w1 * np.sqrt(np.bincount(c, np.linalg.norm(a, axis=1) ** 2) / n)
    pair = c[1:] == c[:-1]
    ds = np.maximum(np.linalg.norm(np.diff(positions[order], axis=0), axis=1), cfg.epsilon)[pair]
    w_mag = np.linalg.norm(gyros[order][:-1], axis=1)[pair]
    jerk = np.linalg.norm(np.diff(a, axis=0), axis=1)[pair] / ds
    pc = c[1:][pair]
    den = np.bincount(pc, ds, n.size)
    path_rate = np.bincount(pc, w_mag * ds, n.size) / np.where(n > 1, den, 1.0)
    jerk_rms = np.sqrt(np.bincount(pc, jerk**2, n.size) / np.maximum(n - 1, 1))
    return cost + cfg.w2 * path_rate + cfg.w3 * jerk_rms


def sparse_kernel(d, r: float):
    """Compactly supported interpolation kernel; 1 at d=0, 0 at d>=r.

    K(d; r) = ((2 + cos(2 pi d / r)) / 3) (1 - d / r) + sin(2 pi d / r) / (2 pi)
    for d <= r and 0 beyond. Nonnegative on [0, r]; the tiny negative values
    float cancellation can produce near d = r are clamped to 0.
    """
    if not r > 0:
        raise ValueError("kernel radius must be positive")
    d_arr = np.asarray(d, dtype=np.float64)
    if np.any(d_arr < 0):
        raise ValueError("distance must be nonnegative")
    u = d_arr / r
    two_pi_u = 2.0 * np.pi * u
    k = (2.0 + np.cos(two_pi_u)) / 3.0 * (1.0 - u) + np.sin(two_pi_u) / (2.0 * np.pi)
    k = np.where(u <= 1.0, np.maximum(k, 0.0), 0.0)
    return float(k) if np.ndim(d) == 0 else k


def interpolate_costmap(sparse: SparseCostmap, grid: GridSpec, cfg: LabelingConfig) -> DenseCostmap:
    """Kernel-weighted mean of nearby entries at every cell center.

    value(x, y) = sum_n K(d_n) tc_n / sum_n K(d_n) over entries within the
    kernel radius; cells with total weight below 1e-12 stay invalid. Entries
    are scattered onto the grid (each touches only the disc of cells within
    the radius), which reproduces the naive all-pairs loop to tight float
    agreement because out-of-radius kernel terms are exactly zero.
    """
    if len(sparse) == 0:
        raise ValueError("sparse costmap has no entries")
    r = cfg.kernel_radius
    res = grid.resolution
    ox, oy = grid.origin
    num = np.zeros((grid.rows, grid.cols))
    den = np.zeros((grid.rows, grid.cols))
    xs, ys = grid.cell_centers()
    for n in range(len(sparse)):
        x, y = sparse.xy[n]
        tc = sparse.tc[n]
        j_lo = max(int(np.floor((x - r - ox) / res - 0.5)), 0)
        j_hi = min(int(np.ceil((x + r - ox) / res + 0.5)), grid.cols - 1)
        i_lo = max(int(np.floor((y - r - oy) / res - 0.5)), 0)
        i_hi = min(int(np.ceil((y + r - oy) / res + 0.5)), grid.rows - 1)
        if j_lo > j_hi or i_lo > i_hi:
            continue
        dx = xs[j_lo : j_hi + 1] - x
        dy = ys[i_lo : i_hi + 1] - y
        d = np.hypot(dx[None, :], dy[:, None])
        k = sparse_kernel(d, r)
        num[i_lo : i_hi + 1, j_lo : j_hi + 1] += k * tc
        den[i_lo : i_hi + 1, j_lo : j_hi + 1] += k
    valid = den > WEIGHT_FLOOR
    values = np.zeros_like(num)
    values[valid] = num[valid] / den[valid]
    values.flags.writeable = valid.flags.writeable = False  # held by the costmap uncopied
    return DenseCostmap(grid, values, valid)


@dataclass
class LabelNormalization:
    """Jointly normalized costmaps plus the affine parameters used."""

    maps: list
    low: float
    high: float
    degenerate: bool  # True when all valid cells shared one value


def normalize_labels(maps) -> LabelNormalization:
    """Affine min-max of all valid cells across the dataset onto [0, 1].

    The minimum maps to 0 and the maximum to 1; invalid cells are left
    untouched. A constant-valued dataset maps every valid cell to 0 and sets
    the degeneracy flag.
    """
    maps = list(maps)
    all_vals = np.concatenate([m.values[m.valid] for m in maps]) if maps else np.array([])
    if all_vals.size == 0:
        raise ValueError("no valid cells to normalize")
    lo = float(all_vals.min())
    hi = float(all_vals.max())
    degenerate = hi <= lo
    out = []
    for m in maps:
        values = m.values.copy()
        if degenerate:
            values[m.valid] = 0.0
        else:
            values[m.valid] = (values[m.valid] - lo) / (hi - lo)
        values.flags.writeable = False  # held by the costmap uncopied
        out.append(DenseCostmap(m.grid, values, m.valid))
    return LabelNormalization(out, lo, hi, degenerate)


def label_grids_for(traj: Trajectory, cfg: LabelingConfig):
    """Coarse and fine grids covering the trajectory plus one kernel radius of margin.

    Raises ``ValueError`` when a grid would hold more than ``MAX_LABEL_CELLS`` cells.
    """
    pos = traj.positions
    pad = cfg.kernel_radius
    x0 = float(pos[:, 0].min()) - pad
    y0 = float(pos[:, 1].min()) - pad
    ext_x = float(pos[:, 0].max()) + pad - x0
    ext_y = float(pos[:, 1].max()) + pad - y0
    grids = []
    for res in (cfg.coarse_res, cfg.fine_res):
        rows, cols = (max(float(np.ceil(ext / res)), 1.0) for ext in (ext_y, ext_x))
        if rows * cols > MAX_LABEL_CELLS:  # as Python floats, an overflow is inf without a warning
            raise ValueError(f"the poses span a {rows:.9g} x {cols:.9g} label grid at {res} m, "
                             f"more than {MAX_LABEL_CELLS} cells")
        grids.append(GridSpec((x0, y0), res, int(rows), int(cols)))
    return tuple(grids)


def build_labels(traj: Trajectory, imu: ImuLog, cfg: LabelingConfig):
    """Full labeling pass: bin, score, densify.

    Returns ``(sparse, dense)`` where the sparse map holds one entry per
    visited coarse cell (at the cell center) and the dense map is the
    kernel-interpolated raster at the fine resolution.
    """
    coarse, fine = label_grids_for(traj, cfg)
    index, cell, accel, gyro = bin_trajectory(traj, imu, coarse)
    xs, ys = coarse.cell_centers()
    xy = np.column_stack([xs[index[:, 1]], ys[index[:, 0]]])
    tc = cell_costs(cell, traj.positions, accel, gyro, cfg)
    xy.flags.writeable = tc.flags.writeable = False  # held by the costmap uncopied
    sparse = SparseCostmap(xy, tc)
    dense = interpolate_costmap(sparse, fine, cfg)
    return sparse, dense
