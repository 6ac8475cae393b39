"""Procedural terrain: elevation/color grids and continuous surface queries.

The heightfield stores node elevations on a regular lattice; the continuous
surface between nodes is the bilinear patch, so height queries, normals and
colors are all defined anywhere strictly inside the node extent.
"""

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .io import read_pgm
from .types import FormatError

SAND_RGB = np.array([0.72, 0.55, 0.40])
DEFAULT_GRAY = 0.5
OCTAVES = 4
BASE_LATTICE = 4  # noise lattice cells across the grid at the first octave
ROUGHNESS_AMPLITUDE_M = 1.2  # first-octave amplitude at roughness = 1


@dataclass
class Heightfield:
    """Elevation grid with per-node color; node (i, j) sits at origin + (j, i) * cell_size."""

    elevations: np.ndarray  # (rows, cols) meters
    cell_size: float  # meters per cell
    origin: tuple = (0.0, 0.0)  # world (x, y) of node (0, 0)
    colors: np.ndarray = None  # (rows, cols, 3) in [0, 1]

    def __post_init__(self):
        self.elevations = np.asarray(self.elevations, dtype=np.float64)
        if self.elevations.ndim != 2 or min(self.elevations.shape) < 2:
            raise ValueError("heightfield needs a grid of at least 2x2 nodes")
        if self.cell_size <= 0:
            raise ValueError("cell_size must be positive")
        if not np.all(np.isfinite(self.elevations)):
            raise ValueError("heights must be finite")
        self.origin = (float(self.origin[0]), float(self.origin[1]))
        if self.colors is None:
            self.colors = np.full(self.elevations.shape + (3,), DEFAULT_GRAY)
        self.colors = np.asarray(self.colors, dtype=np.float64)
        if self.colors.shape != self.elevations.shape + (3,):
            raise ValueError("colors must be (rows, cols, 3) aligned with elevations")
        if self.colors.min() < 0.0 or self.colors.max() > 1.0:
            raise ValueError("colors must lie in [0, 1]")

    @property
    def rows(self) -> int:
        return self.elevations.shape[0]

    @property
    def cols(self) -> int:
        return self.elevations.shape[1]

    @property
    def extent(self):
        """(x_min, x_max, y_min, y_max) spanned by the node lattice."""
        x0, y0 = self.origin
        return (
            x0,
            x0 + (self.cols - 1) * self.cell_size,
            y0,
            y0 + (self.rows - 1) * self.cell_size,
        )

    def contains(self, x, y):
        x0, x1, y0, y1 = self.extent
        x = np.asarray(x)
        y = np.asarray(y)
        return (x >= x0) & (x <= x1) & (y >= y0) & (y <= y1)


def _smooth_lattice_sample(lattice: np.ndarray, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Sample a value-noise lattice at fractional coordinates with smoothstep blending."""
    nu = lattice.shape[0] - 1
    nv = lattice.shape[1] - 1
    u0 = np.clip(np.floor(u).astype(int), 0, nu - 1)
    v0 = np.clip(np.floor(v).astype(int), 0, nv - 1)
    fu = u - u0
    fv = v - v0
    su = fu * fu * (3.0 - 2.0 * fu)
    sv = fv * fv * (3.0 - 2.0 * fv)
    a = lattice[u0, v0]
    b = lattice[u0 + 1, v0]
    c = lattice[u0, v0 + 1]
    d = lattice[u0 + 1, v0 + 1]
    return (
        a * (1 - su) * (1 - sv) + b * su * (1 - sv) + c * (1 - su) * sv + d * su * sv
    )


def generate_heightfield(
    seed: int, rows: int, cols: int, cell_size: float, roughness: float
) -> Heightfield:
    """Multi-octave value-noise terrain; colors darken with slope and height.

    Deterministic for a fixed seed. ``roughness`` in [0, 1] scales the noise
    amplitude; zero yields a perfectly flat field.
    """
    if rows < 2 or cols < 2:
        raise ValueError("rows and cols must be at least 2")
    if cell_size <= 0:
        raise ValueError("cell_size must be positive")
    if not 0.0 <= roughness <= 1.0:
        raise ValueError("roughness must lie in [0, 1]")
    rng = np.random.default_rng(seed)
    z = np.zeros((rows, cols))
    amp = roughness * ROUGHNESS_AMPLITUDE_M
    lat = BASE_LATTICE
    ii, jj = np.meshgrid(np.arange(rows), np.arange(cols), indexing="ij")
    for _ in range(OCTAVES):
        lattice = rng.uniform(-1.0, 1.0, (lat + 1, lat + 1))
        u = ii / max(rows - 1, 1) * lat
        v = jj / max(cols - 1, 1) * lat
        z = z + amp * _smooth_lattice_sample(lattice, u, v)
        amp *= 0.5
        lat *= 2

    gy, gx = np.gradient(z, cell_size)  # d/drow = dz/dy, d/dcol = dz/dx
    slope = np.hypot(gx, gy)
    span = z.max() - z.min()
    height_rel = (z - z.min()) / span if span > 0 else np.zeros_like(z)
    shade = np.clip(1.0 - 1.5 * slope - 0.2 * height_rel, 0.25, 1.0)
    colors = shade[..., None] * SAND_RGB
    return Heightfield(z, cell_size, (0.0, 0.0), colors)


def load_heightfield(path, cell_size: float = None) -> Heightfield:
    """Import a PGM raster plus its ``<name>.meta.json`` elevation sidecar.

    The sidecar declares ``min_height_m``/``max_height_m`` (pixel 0 maps to the
    minimum, maxval to the maximum) and ``cell_size_m``; an explicit
    ``cell_size`` argument overrides the sidecar value. Colors default to gray.
    """
    path = Path(path)
    pixels, maxval = read_pgm(path)
    meta_path = path.with_suffix(".meta.json")
    if not meta_path.exists():
        raise FormatError(f"missing heightmap sidecar {meta_path}")
    try:
        meta = json.loads(meta_path.read_text())
    except json.JSONDecodeError as e:
        raise FormatError(f"invalid sidecar JSON in {meta_path}: {e}") from e
    for key in ("min_height_m", "max_height_m", "cell_size_m"):
        if key not in meta:
            raise FormatError(f"sidecar {meta_path} missing key {key!r}")
    lo = float(meta["min_height_m"])
    hi = float(meta["max_height_m"])
    if cell_size is None:
        cell_size = float(meta["cell_size_m"])
    z = lo + pixels.astype(np.float64) / maxval * (hi - lo)
    return Heightfield(z, cell_size)


def _node_bilinear(hf: Heightfield, grid: np.ndarray, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Bilinear interpolation of a per-node grid (2-D or (rows, cols, k)) at world points."""
    gx = (x - hf.origin[0]) / hf.cell_size
    gy = (y - hf.origin[1]) / hf.cell_size
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


def _require_inside(hf: Heightfield, x: np.ndarray, y: np.ndarray, what: str = "query"):
    inside = hf.contains(x, y)
    if not np.all(inside):
        k = int(np.argmin(np.asarray(inside).reshape(-1)))
        raise ValueError(f"{what} {k} at ({np.ravel(x)[k]}, {np.ravel(y)[k]}) is outside the terrain extent")


def surface_heights(hf: Heightfield, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Bilinear surface height at world points (vectorized); raises outside the extent."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    _require_inside(hf, x, y)
    return _node_bilinear(hf, hf.elevations, x, y)


def _surface_gradient(hf: Heightfield, x, y):
    """(dz/dx, dz/dy) at world points, interpolated from central-difference node gradients."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    _require_inside(hf, x, y)
    gy, gx = np.gradient(hf.elevations, hf.cell_size)
    return _node_bilinear(hf, gx, x, y), _node_bilinear(hf, gy, x, y)


def surface_normals(hf: Heightfield, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Unit surface normals from interpolated central-difference node gradients."""
    dzdx, dzdy = _surface_gradient(hf, x, y)
    n = np.stack([-dzdx, -dzdy, np.ones_like(dzdx)], axis=-1)
    return n / np.linalg.norm(n, axis=-1, keepdims=True)


def surface_colors(hf: Heightfield, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    _require_inside(hf, x, y)
    return np.clip(_node_bilinear(hf, hf.colors, x, y), 0.0, 1.0)


def slope_magnitudes(hf: Heightfield, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """|grad h| at world points; used to couple IMU noise to local terrain."""
    return np.hypot(*_surface_gradient(hf, x, y))


def sample_surface(hf: Heightfield, x: float, y: float):
    """Height, unit normal and color of the surface at one world point."""
    h = surface_heights(hf, np.float64(x), np.float64(y))
    n = surface_normals(hf, np.float64(x), np.float64(y))
    c = surface_colors(hf, np.float64(x), np.float64(y))
    return float(h), n, c
