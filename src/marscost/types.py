"""Shared domain types for the traversability pipeline.

Grid convention used throughout: a :class:`GridSpec` places cell ``(i, j)``
(row ``i`` indexes y, column ``j`` indexes x) so that a world point ``(x, y)``
falls in row ``floor((y - origin_y) / resolution)`` and column
``floor((x - origin_x) / resolution)``. Cell centers sit at
``origin + (index + 0.5) * resolution``.
"""

from dataclasses import dataclass, field

import numpy as np


class FormatError(ValueError):
    """Raised for malformed file contents (rasters, sidecars, checkpoints)."""


def _read_only(a, shape=None, name="array", dtype=np.float64) -> np.ndarray:
    """``a`` as a read-only ``dtype`` array: the ownership rule of every value type.

    An array read-only all the way down its ``.base`` chain to memory numpy
    owns is held as given; anything else (a writable array or a view of one,
    a list, ``bytes``, an ``mmap``) is copied once and the copy made read-only.
    """
    base = a
    while isinstance(base, np.ndarray) and not base.flags.writeable:
        base = base.base
    if base is not None or a.dtype != dtype:
        a = np.array(a, dtype=dtype)
        a.flags.writeable = False
    if shape is not None and a.shape != shape:
        raise ValueError(f"{name} has shape {a.shape}, expected {shape}")
    return a


def _hold(obj, **fields):
    """Set the fields of a frozen dataclass from its ``__post_init__``."""
    for name, value in fields.items():
        object.__setattr__(obj, name, value)


def _frozen(a, shape, name) -> np.ndarray:
    """:func:`_read_only` float64 ``a``, which must be finite."""
    out = _read_only(a, shape, name)
    if not np.all(np.isfinite(out)):
        raise ValueError(f"{name} must be finite")
    return out


@dataclass(frozen=True, eq=False)
class Pose:
    """Time-stamped rigid transform: world position and world-from-body quaternion."""

    t: float
    position: np.ndarray  # (3,) meters
    orientation: np.ndarray  # (4,) unit quaternion, scalar first

    def __post_init__(self):
        _hold(self, position=_frozen(self.position, (3,), "pose position"),
              orientation=_read_only(self.orientation, (4,), "orientation"))
        if not np.isfinite(self.t):
            raise ValueError("pose timestamp must be finite")
        n = np.linalg.norm(self.orientation)
        if not abs(n - 1.0) <= 1e-9:  # written so that a NaN norm fails
            raise ValueError(f"orientation quaternion norm {n} is not within 1e-9 of 1")


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Drive record: pose times (n,), positions (n, 3) and world-from-body quaternions (n, 4).

    Validated once (n >= 2, finite values, strictly increasing times, unit
    quaternions within 1e-9). ``traj[k]`` is the :class:`Pose` at index ``k``.
    """

    times: np.ndarray
    positions: np.ndarray
    quaternions: np.ndarray

    def __post_init__(self):
        times = _frozen(self.times, (np.size(self.times),), "times")
        n = times.shape[0]
        _hold(self, times=times, positions=_frozen(self.positions, (n, 3), "positions"),
              quaternions=_frozen(self.quaternions, (n, 4), "quaternions"))
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


@dataclass(frozen=True, eq=False)
class ImuLog:
    """Ego-frame inertial stream: times (n,), specific force (gravity included), angular rate."""

    times: np.ndarray
    accel: np.ndarray  # (n, 3) m/s^2
    gyro: np.ndarray  # (n, 3) rad/s

    def __post_init__(self):
        times = _frozen(self.times, (np.size(self.times),), "times")
        n = times.shape[0]
        _hold(self, times=times, accel=_frozen(self.accel, (n, 3), "accel"),
              gyro=_frozen(self.gyro, (n, 3), "gyro"))
        if n < 1:
            raise ValueError("IMU log needs at least 1 reading")

    def __len__(self):
        return self.times.shape[0]


@dataclass(frozen=True, eq=False)
class PointCloud:
    """Colored points in the sensor frame; may be empty.

    A cloud never changes, and how its points group into pillars depends on
    ``xyz`` alone, so its pillars (see :func:`marscost.bev.pillarize`) are built
    at most once per grid layout and kept in ``_pillars``, one dict that the
    cloud and its :meth:`recolored` copies share.
    """

    xyz: np.ndarray  # (n, 3) meters
    rgb: np.ndarray  # (n, 3) in [0, 1]
    _pillars: dict = field(init=False, repr=False, default=None)

    def __post_init__(self):
        xyz = _read_only(self.xyz)
        n = len(xyz) if xyz.ndim else 0
        xyz, rgb = _read_only(xyz, (n, 3), "xyz"), _read_only(self.rgb, (n, 3), "rgb")
        if not np.all(np.isfinite(xyz)):
            raise ValueError("point coordinates must be finite")
        if rgb.size and not (rgb.min() >= 0.0 and rgb.max() <= 1.0):
            raise ValueError("point colors must lie in [0, 1]")
        _hold(self, xyz=xyz, rgb=rgb, _pillars={})

    def __len__(self):
        return self.xyz.shape[0]

    def recolored(self, rgb) -> "PointCloud":
        """The same points (the same ``xyz`` object) with colours ``rgb``, sharing
        this cloud's pillars."""
        cloud = PointCloud(self.xyz, rgb)
        _hold(cloud, _pillars=self._pillars)
        return cloud

    @staticmethod
    def empty() -> "PointCloud":
        return PointCloud(np.zeros((0, 3)), np.zeros((0, 3)))


@dataclass(frozen=True, eq=False)
class Image:
    """Row-major RGB raster with values in [0, 1].

    An image never changes, so :func:`marscost.bev.embed_image` computes its
    embedding at most once per object and keeps it in ``_embedding``.
    """

    pixels: np.ndarray  # (rows, cols, 3)
    _embedding: np.ndarray = field(init=False, repr=False, default=None)

    def __post_init__(self):
        pixels = _read_only(self.pixels)
        if pixels.ndim != 3 or pixels.shape[2] != 3:
            raise ValueError("image pixels must have shape (rows, cols, 3)")
        if pixels.shape[0] < 1 or pixels.shape[1] < 1:
            raise ValueError("image must have at least one pixel")
        if not (pixels.min() >= 0.0 and pixels.max() <= 1.0):
            raise ValueError("pixel values must lie in [0, 1]")
        _hold(self, pixels=pixels)

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
        if not np.all(np.isfinite(self.origin)):
            raise ValueError("grid origin must be finite")
        if not 0 < self.resolution < np.inf:
            raise ValueError("grid resolution must be positive and finite")
        if self.rows < 1 or self.cols < 1:
            raise ValueError("grid must have at least one row and one column")

    def cell_of(self, x, y):
        """Row/column indices of the cells containing world points (vectorized)."""
        j = np.floor((np.asarray(x) - self.origin[0]) / self.resolution).astype(np.int64)
        i = np.floor((np.asarray(y) - self.origin[1]) / self.resolution).astype(np.int64)
        return i, j

    def cell_centers(self):
        """World coordinates of every cell center as ``(xs (cols,), ys (rows,))``."""
        xs = self.origin[0] + (np.arange(self.cols) + 0.5) * self.resolution
        ys = self.origin[1] + (np.arange(self.rows) + 0.5) * self.resolution
        return xs, ys


@dataclass(frozen=True, eq=False)
class SparseCostmap:
    """Scattered traversability-cost observations ``(x, y, tc)``."""

    xy: np.ndarray  # (n, 2) meters
    tc: np.ndarray  # (n,) nonnegative costs

    def __post_init__(self):
        xy = _read_only(self.xy)
        n = len(xy) if xy.ndim else 0
        _hold(self, xy=_read_only(xy, (n, 2), "xy"), tc=_read_only(self.tc, (n,), "tc"))
        if not np.all(np.isfinite(self.xy)):
            raise ValueError("entry coordinates must be finite")
        if not np.all(np.isfinite(self.tc)) or (self.tc.size and self.tc.min() < 0.0):
            raise ValueError("costs must be finite and nonnegative")

    def __len__(self):
        return self.tc.shape[0]


@dataclass(frozen=True, eq=False)
class DenseCostmap:
    """Per-cell cost raster with a validity mask marking where values are defined."""

    grid: GridSpec
    values: np.ndarray  # (rows, cols)
    valid: np.ndarray = None  # (rows, cols) bool

    def __post_init__(self):
        values = _read_only(self.values)
        if values.shape != (self.grid.rows, self.grid.cols):
            raise ValueError(f"values shape {values.shape} does not match grid "
                             f"({self.grid.rows}, {self.grid.cols})")
        valid = self.valid
        if valid is None:
            valid = np.ones(values.shape, dtype=bool)
            valid.flags.writeable = False  # fresh and unshared, so held without a copy
        _hold(self, values=values, valid=_read_only(valid, dtype=bool))
        if self.valid.shape != self.values.shape:
            raise ValueError("valid mask shape must match values")
        if not np.all(np.isfinite(self.values[self.valid])):
            raise ValueError("values must be finite wherever valid")


@dataclass(frozen=True, eq=False)
class Sample:
    """One training/evaluation example: sensing plus its label raster."""

    cloud: PointCloud
    image: Image
    target: DenseCostmap
