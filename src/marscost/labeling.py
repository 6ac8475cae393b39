"""IMU-derived traversability-cost labels.

A driven trajectory is binned into BEV grid cells; each visited cell gets a
scalar cost from the inertial samples recorded inside it (acceleration RMS,
path-weighted angular rate, spatial-domain jerk RMS). The scattered per-cell
costs are then densified with a compactly supported kernel and min-max
normalized over the whole dataset.

All distance-based quantities use path length instead of time, so the labels
are insensitive to pure time reparameterization of the drive.
"""

from dataclasses import dataclass

import numpy as np

from .types import DenseCostmap, GridSpec, SparseCostmap, Trajectory

WEIGHT_FLOOR = 1e-12  # kernel mass below which an interpolated cell stays invalid


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
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")


@dataclass
class CellSamples:
    """Trajectory/IMU samples that fell into one grid cell, in time order."""

    index: tuple  # (row, col)
    positions: np.ndarray  # (n, 3) meters
    accels: np.ndarray  # (n, 3) m/s^2
    gyros: np.ndarray  # (n, 3) rad/s

    def __post_init__(self):
        self.positions = np.asarray(self.positions, dtype=np.float64).reshape(-1, 3)
        self.accels = np.asarray(self.accels, dtype=np.float64).reshape(-1, 3)
        self.gyros = np.asarray(self.gyros, dtype=np.float64).reshape(-1, 3)
        n = self.positions.shape[0]
        if n < 1 or self.accels.shape[0] != n or self.gyros.shape[0] != n:
            raise ValueError("cell needs >= 1 sample with matching arrays")

    def __len__(self):
        return self.positions.shape[0]


def bin_trajectory(traj: Trajectory, imu, grid: GridSpec):
    """Assign pose/IMU pairs to the grid cells containing their (x, y).

    IMU samples are associated to poses by nearest timestamp (max skew half
    the median pose spacing). Returns one :class:`CellSamples` per visited
    cell; untouched cells are absent.
    """
    imu = list(imu)
    if not imu:
        raise ValueError("no IMU samples")
    pos = traj.positions
    t_pose = traj.times
    t_imu = np.array([s.t for s in imu])
    order = np.argsort(t_imu, kind="stable")
    t_sorted = t_imu[order]

    max_skew = float(np.median(np.diff(t_pose))) / 2.0
    k = np.searchsorted(t_sorted, t_pose)
    k = np.clip(k, 1, len(t_sorted) - 1) if len(t_sorted) > 1 else np.zeros(len(t_pose), int)
    left = np.maximum(k - 1, 0)
    pick = np.where(np.abs(t_sorted[left] - t_pose) <= np.abs(t_sorted[k] - t_pose), left, k)
    skew = np.abs(t_sorted[pick] - t_pose)
    if np.any(skew > max_skew + 1e-12):
        bad = int(np.argmax(skew > max_skew + 1e-12))
        raise ValueError(
            f"pose {bad}: nearest IMU sample is {skew[bad]:.6g}s away (max skew {max_skew:.6g}s)"
        )
    matched = [imu[order[p]] for p in pick]

    rows_i, cols_j = grid.cell_of(pos[:, 0], pos[:, 1])
    ok = (rows_i >= 0) & (rows_i < grid.rows) & (cols_j >= 0) & (cols_j < grid.cols)
    if not np.all(ok):
        bad = int(np.argmin(ok))
        raise ValueError(f"pose {bad} at ({pos[bad, 0]}, {pos[bad, 1]}) is outside the label grid")

    groups = {}
    for n in range(len(traj)):
        groups.setdefault((int(rows_i[n]), int(cols_j[n])), []).append(n)
    out = []
    for key, idx in groups.items():
        out.append(
            CellSamples(
                key,
                pos[idx],
                np.stack([matched[n].accel for n in idx]),
                np.stack([matched[n].gyro for n in idx]),
            )
        )
    return out


def cell_cost(samples: CellSamples, cfg: LabelingConfig) -> float:
    """Traversability cost of one cell.

    cost = w1 * rms(|a_i|)
         + w2 * sum(|w_i| ds_i) / sum(ds_i)
         + w3 * rms(|a_{i+1} - a_i| / ds_i)

    over the cell's consecutive sample pairs, with every segment length
    ds_i floored at epsilon. Single-sample cells contribute only the
    acceleration term.
    """
    a = samples.accels
    n = len(samples)
    a_mag = np.linalg.norm(a, axis=1)
    cost = cfg.w1 * float(np.sqrt(np.mean(a_mag**2)))
    if n >= 2:
        dp = np.diff(samples.positions, axis=0)
        ds = np.maximum(np.linalg.norm(dp, axis=1), cfg.epsilon)
        w_mag = np.linalg.norm(samples.gyros[:-1], axis=1)
        cost += cfg.w2 * float(np.sum(w_mag * ds) / np.sum(ds))
        jerk = np.linalg.norm(np.diff(a, axis=0), axis=1) / ds
        cost += cfg.w3 * float(np.sqrt(np.mean(jerk**2)))
    return cost


def sparse_kernel(d, r: float):
    """Compactly supported interpolation kernel; 1 at d=0, 0 at d>=r.

    K(d; r) = ((2 + cos(2 pi d / r)) / 3) (1 - d / r) + sin(2 pi d / r) / (2 pi)
    for d <= r and 0 beyond. Nonnegative on [0, r]; the tiny negative values
    float cancellation can produce near d = r are clamped to 0.
    """
    if r <= 0:
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
        out.append(DenseCostmap(m.grid, values, m.valid.copy()))
    return LabelNormalization(out, lo, hi, degenerate)


def label_grids_for(traj: Trajectory, cfg: LabelingConfig):
    """Coarse and fine grids covering the trajectory plus one kernel radius of margin."""
    pos = traj.positions
    pad = cfg.kernel_radius
    x0 = float(pos[:, 0].min()) - pad
    y0 = float(pos[:, 1].min()) - pad
    ext_x = float(pos[:, 0].max()) + pad - x0
    ext_y = float(pos[:, 1].max()) + pad - y0
    coarse = GridSpec(
        (x0, y0),
        cfg.coarse_res,
        max(int(np.ceil(ext_y / cfg.coarse_res)), 1),
        max(int(np.ceil(ext_x / cfg.coarse_res)), 1),
    )
    fine = GridSpec(
        (x0, y0),
        cfg.fine_res,
        max(int(np.ceil(ext_y / cfg.fine_res)), 1),
        max(int(np.ceil(ext_x / cfg.fine_res)), 1),
    )
    return coarse, fine


def build_labels(traj: Trajectory, imu, cfg: LabelingConfig):
    """Full labeling pass: bin, score, densify.

    Returns ``(sparse, dense)`` where the sparse map holds one entry per
    visited coarse cell (at the cell center) and the dense map is the
    kernel-interpolated raster at the fine resolution.
    """
    coarse, fine = label_grids_for(traj, cfg)
    cells = bin_trajectory(traj, imu, coarse)
    xy = np.array(
        [
            [
                coarse.origin[0] + (c.index[1] + 0.5) * coarse.resolution,
                coarse.origin[1] + (c.index[0] + 0.5) * coarse.resolution,
            ]
            for c in cells
        ]
    )
    tc = np.array([cell_cost(c, cfg) for c in cells])
    sparse = SparseCostmap(xy, tc)
    dense = interpolate_costmap(sparse, fine, cfg)
    return sparse, dense
