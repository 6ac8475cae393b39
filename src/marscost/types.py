"""Shared domain types for the traversability pipeline.

Grid convention used throughout: a :class:`GridSpec` places cell ``(i, j)``
(row ``i`` indexes y, column ``j`` indexes x) so that a world point ``(x, y)``
falls in row ``floor((y - origin_y) / resolution)`` and column
``floor((x - origin_x) / resolution)``. Cell centers sit at
``origin + (index + 0.5) * resolution``.
"""

from dataclasses import dataclass

import numpy as np


class FormatError(ValueError):
    """Raised for malformed file contents (rasters, sidecars, checkpoints)."""


def _as_float_array(a, shape=None, name="array") -> np.ndarray:
    out = np.asarray(a, dtype=np.float64)
    if shape is not None and out.shape != shape:
        raise ValueError(f"{name} has shape {out.shape}, expected {shape}")
    return out


def _frozen(a, shape, name) -> np.ndarray:
    """Read-only float64 copy of ``a``, which must be finite."""
    out = _as_float_array(a, shape, name).copy()
    if not np.all(np.isfinite(out)):
        raise ValueError(f"{name} must be finite")
    out.flags.writeable = False
    return out


@dataclass(frozen=True)
class Pose:
    """Time-stamped rigid transform: world position and world-from-body quaternion."""

    t: float
    position: np.ndarray  # (3,) meters
    orientation: np.ndarray  # (4,) unit quaternion, scalar first

    def __post_init__(self):
        object.__setattr__(self, "position", _as_float_array(self.position, (3,), "position"))
        object.__setattr__(
            self, "orientation", _as_float_array(self.orientation, (4,), "orientation")
        )
        if not np.isfinite(self.t):
            raise ValueError("pose timestamp must be finite")
        if not np.all(np.isfinite(self.position)):
            raise ValueError("pose position must be finite")
        n = np.linalg.norm(self.orientation)
        if not abs(n - 1.0) <= 1e-9:  # written so that a NaN norm fails
            raise ValueError(f"orientation quaternion norm {n} is not within 1e-9 of 1")


class Trajectory:
    """Drive record: pose times (n,), positions (n, 3) and world-from-body quaternions (n, 4).

    Validated once on construction (n >= 2, finite values, strictly
    increasing times, unit quaternions within 1e-9); the stored arrays are
    read-only. ``traj[k]`` is the :class:`Pose` at index ``k``.
    """

    def __init__(self, times, positions, quaternions):
        self.times = _frozen(times, (np.size(times),), "times")
        n = self.times.shape[0]
        self.positions = _frozen(positions, (n, 3), "positions")
        self.quaternions = _frozen(quaternions, (n, 4), "quaternions")
        if n < 2:
            raise ValueError("trajectory needs at least 2 poses")
        if not np.all(np.diff(self.times) > 0):
            raise ValueError("trajectory timestamps must be strictly increasing")
        if np.any(np.abs(np.linalg.norm(self.quaternions, axis=1) - 1.0) > 1e-9):
            raise ValueError("orientation quaternions must have unit norm within 1e-9")

    def __len__(self):
        return self.times.shape[0]

    def __getitem__(self, k) -> Pose:
        return Pose(float(self.times[k]), self.positions[k], self.quaternions[k])


class ImuLog:
    """Ego-frame inertial stream: times (n,), specific force (gravity included), angular rate."""

    def __init__(self, times, accel, gyro):
        self.times = _frozen(times, (np.size(times),), "times")
        n = self.times.shape[0]
        self.accel = _frozen(accel, (n, 3), "accel")  # m/s^2
        self.gyro = _frozen(gyro, (n, 3), "gyro")  # rad/s
        if n < 1:
            raise ValueError("IMU log needs at least 1 reading")

    def __len__(self):
        return self.times.shape[0]


@dataclass
class PointCloud:
    """Colored points in the sensor frame; may be empty."""

    xyz: np.ndarray  # (n, 3) meters
    rgb: np.ndarray  # (n, 3) in [0, 1]

    def __post_init__(self):
        self.xyz = np.asarray(self.xyz, dtype=np.float64).reshape(-1, 3)
        self.rgb = np.asarray(self.rgb, dtype=np.float64).reshape(-1, 3)
        if self.xyz.shape[0] != self.rgb.shape[0]:
            raise ValueError("xyz and rgb must have the same number of points")
        if not np.all(np.isfinite(self.xyz)):
            raise ValueError("point coordinates must be finite")
        if self.rgb.size and not (self.rgb.min() >= 0.0 and self.rgb.max() <= 1.0):
            raise ValueError("point colors must lie in [0, 1]")

    def __len__(self):
        return self.xyz.shape[0]

    @staticmethod
    def empty() -> "PointCloud":
        return PointCloud(np.zeros((0, 3)), np.zeros((0, 3)))


@dataclass
class Image:
    """Row-major RGB raster with values in [0, 1]."""

    pixels: np.ndarray  # (rows, cols, 3)

    def __post_init__(self):
        self.pixels = np.asarray(self.pixels, dtype=np.float64)
        if self.pixels.ndim != 3 or self.pixels.shape[2] != 3:
            raise ValueError("image pixels must have shape (rows, cols, 3)")
        if self.pixels.shape[0] < 1 or self.pixels.shape[1] < 1:
            raise ValueError("image must have at least one pixel")
        if not (self.pixels.min() >= 0.0 and self.pixels.max() <= 1.0):
            raise ValueError("pixel values must lie in [0, 1]")

    @property
    def rows(self) -> int:
        return self.pixels.shape[0]

    @property
    def cols(self) -> int:
        return self.pixels.shape[1]


@dataclass(frozen=True)
class GridSpec:
    """Axis-aligned BEV grid: world origin of cell (0, 0), cell size, and dimensions."""

    origin: tuple  # (x, y) meters of the low corner of cell (0, 0)
    resolution: float  # meters per cell
    rows: int
    cols: int

    def __post_init__(self):
        object.__setattr__(self, "origin", (float(self.origin[0]), float(self.origin[1])))
        if self.resolution <= 0:
            raise ValueError("grid resolution must be positive")
        if self.rows < 1 or self.cols < 1:
            raise ValueError("grid must have at least one row and one column")

    def cell_of(self, x, y):
        """Row/column indices of the cells containing world points (vectorized)."""
        j = np.floor((np.asarray(x) - self.origin[0]) / self.resolution).astype(np.int64)
        i = np.floor((np.asarray(y) - self.origin[1]) / self.resolution).astype(np.int64)
        return i, j

    def contains(self, x, y):
        i, j = self.cell_of(x, y)
        return (i >= 0) & (i < self.rows) & (j >= 0) & (j < self.cols)

    def cell_centers(self):
        """World coordinates of every cell center as ``(xs (cols,), ys (rows,))``."""
        xs = self.origin[0] + (np.arange(self.cols) + 0.5) * self.resolution
        ys = self.origin[1] + (np.arange(self.rows) + 0.5) * self.resolution
        return xs, ys

    @property
    def extent(self):
        """(x_min, x_max, y_min, y_max) of the covered area."""
        return (
            self.origin[0],
            self.origin[0] + self.cols * self.resolution,
            self.origin[1],
            self.origin[1] + self.rows * self.resolution,
        )


@dataclass
class SparseCostmap:
    """Scattered traversability-cost observations ``(x, y, tc)``."""

    xy: np.ndarray  # (n, 2) meters
    tc: np.ndarray  # (n,) nonnegative costs

    def __post_init__(self):
        self.xy = np.asarray(self.xy, dtype=np.float64).reshape(-1, 2)
        self.tc = np.asarray(self.tc, dtype=np.float64).reshape(-1)
        if self.xy.shape[0] != self.tc.shape[0]:
            raise ValueError("xy and tc must have matching lengths")
        if not np.all(np.isfinite(self.xy)):
            raise ValueError("entry coordinates must be finite")
        if not np.all(np.isfinite(self.tc)) or (self.tc.size and self.tc.min() < 0.0):
            raise ValueError("costs must be finite and nonnegative")

    def __len__(self):
        return self.tc.shape[0]


@dataclass
class DenseCostmap:
    """Per-cell cost raster with a validity mask marking where values are defined."""

    grid: GridSpec
    values: np.ndarray  # (rows, cols)
    valid: np.ndarray = None  # (rows, cols) bool

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.shape != (self.grid.rows, self.grid.cols):
            raise ValueError(
                f"values shape {self.values.shape} does not match grid "
                f"({self.grid.rows}, {self.grid.cols})"
            )
        if self.valid is None:
            self.valid = np.ones(self.values.shape, dtype=bool)
        self.valid = np.asarray(self.valid, dtype=bool)
        if self.valid.shape != self.values.shape:
            raise ValueError("valid mask shape must match values")
        if not np.all(np.isfinite(self.values[self.valid])):
            raise ValueError("values must be finite wherever valid")

    def copy(self) -> "DenseCostmap":
        return DenseCostmap(self.grid, self.values.copy(), self.valid.copy())


@dataclass
class BevFeatureMap:
    """Multi-channel pillar pseudo-image aligned with a BEV grid."""

    grid: GridSpec
    data: np.ndarray  # (rows, cols, channels)

    def __post_init__(self):
        self.data = np.asarray(self.data, dtype=np.float64)
        if self.data.ndim != 3 or self.data.shape[:2] != (self.grid.rows, self.grid.cols):
            raise ValueError(
                f"feature data shape {self.data.shape} does not match grid "
                f"({self.grid.rows}, {self.grid.cols}, C)"
            )
        if not np.all(np.isfinite(self.data)):
            raise ValueError("feature values must be finite")

    @property
    def channels(self) -> int:
        return self.data.shape[2]


@dataclass
class Sample:
    """One training/evaluation example: sensing plus its label raster."""

    cloud: PointCloud
    image: Image
    target: DenseCostmap

    def copy(self) -> "Sample":
        return Sample(
            PointCloud(self.cloud.xyz.copy(), self.cloud.rgb.copy()),
            Image(self.image.pixels.copy()),
            self.target.copy(),
        )
