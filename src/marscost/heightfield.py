"""Procedural terrain: elevation/color grids and continuous surface queries.

The heightfield stores node elevations on a regular lattice whose node (0, 0)
sits at the world origin; the continuous surface between nodes is the
bilinear patch, so height queries, normals and colors are all defined
anywhere strictly inside the node extent.
"""

from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .io import _build, _read_scaled_pgm
from .types import _frozen, _hold, _read_only

SAND_RGB = np.array([0.72, 0.55, 0.40])
DEFAULT_GRAY = 0.5
OCTAVES = 4
BASE_LATTICE = 4  # noise lattice cells across the grid at the first octave
ROUGHNESS_AMPLITUDE_M = 1.2  # first-octave amplitude at roughness = 1
MAX_TERRAIN_NODES = 2**18  # nodes of one heightfield; 512 x 512 nodes' walk tables take 50.5 MiB


def _require_bounded(rows: int, cols: int):
    if rows * cols > MAX_TERRAIN_NODES:
        raise ValueError(f"a {rows}x{cols} grid has more than {MAX_TERRAIN_NODES} nodes")


@dataclass(frozen=True, eq=False)
class Heightfield:
    """Elevation grid with per-node color; node (i, j) sits at world (j, i) * cell_size."""

    elevations: np.ndarray  # (rows, cols) meters
    cell_size: float  # meters per cell
    colors: np.ndarray = None  # (rows, cols, 3) in [0, 1]
    _walk: "_WalkTables" = field(init=False, repr=False, default=None)  # see _walk_tables

    def __post_init__(self):
        z = _frozen(self.elevations, None, "heights")
        if z.ndim != 2 or min(z.shape) < 2:
            raise ValueError("heightfield needs a grid of at least 2x2 nodes")
        _require_bounded(*z.shape)
        if not self.cell_size > 0:
            raise ValueError("cell_size must be positive")
        colors = np.full(z.shape + (3,), DEFAULT_GRAY) if self.colors is None else self.colors
        _hold(self, elevations=z, colors=_read_only(colors))
        if self.colors.shape != z.shape + (3,):
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
        return 0.0, (self.cols - 1) * self.cell_size, 0.0, (self.rows - 1) * self.cell_size

    def contains(self, x, y):
        x0, x1, y0, y1 = self.extent
        x = np.asarray(x)
        y = np.asarray(y)
        return (x >= x0) & (x <= x1) & (y >= y0) & (y <= y1)


@dataclass
class TerrainConfig:
    """Terrain of a run: value noise, or a heightmap raster when ``heightmap_path`` is set.

    A grid holds at most ``MAX_TERRAIN_NODES`` nodes: the tables that
    :func:`marscost.simulate.march_rays` keeps per heightfield grow as
    ``n^2 log^2 n`` on an ``n x n`` grid, and take 50.5 MiB at the bound.
    """

    rows: int = 96
    cols: int = 96
    cell_size: float = 0.2  # meters
    roughness: float = 0.6  # noise amplitude in [0, 1]; 0 is flat
    heightmap_path: str | None = None  # PGM with a .meta.json sidecar (see load_heightfield)

    def __post_init__(self):
        if self.rows < 2 or self.cols < 2:
            raise ValueError("rows and cols must be at least 2")
        _require_bounded(self.rows, self.cols)
        if not self.cell_size > 0:
            raise ValueError("cell_size must be positive")
        if not 0.0 <= self.roughness <= 1.0:
            raise ValueError("roughness must lie in [0, 1]")


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
    TerrainConfig(rows, cols, cell_size, roughness)  # its range checks
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
    z.flags.writeable = colors.flags.writeable = False  # held by the heightfield uncopied
    return Heightfield(z, cell_size, colors)


def load_heightfield(path) -> Heightfield:
    """Import a PGM raster plus its ``<name>.meta.json`` elevation sidecar.

    The sidecar declares ``min_height_m``/``max_height_m`` (pixel 0 maps to the
    minimum, maxval to the maximum) and ``cell_size_m``, the only source of
    the cell size. Colors default to gray.
    """
    keys = ("min_height_m", "max_height_m", "cell_size_m")
    z, meta, meta_path = _read_scaled_pgm(path, keys, *keys[:2])
    return _build(f"{Path(path)} with {meta_path}", Heightfield, z, meta["cell_size_m"])


def build_terrain(terrain: TerrainConfig, seed: int) -> Heightfield:
    """The heightmap at ``terrain.heightmap_path`` if one is set, else noise terrain from ``seed``."""
    if terrain.heightmap_path:
        return load_heightfield(terrain.heightmap_path)
    return generate_heightfield(seed, terrain.rows, terrain.cols, terrain.cell_size,
                                terrain.roughness)


def _node_bilinear(hf: Heightfield, grid: np.ndarray, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Bilinear interpolation of a per-node grid (2-D or (rows, cols, k)) at non-NaN world points."""
    rows, cols = hf.rows, hf.cols
    gx = x / hf.cell_size
    gy = y / hf.cell_size
    # truncating the clamped coordinate is floor-then-clamp for all non-NaN values
    j0 = np.clip(gx, 0, cols - 2).astype(np.intp)
    i0 = np.clip(gy, 0, rows - 2).astype(np.intp)
    k = i0 * cols + j0  # flat index of corner (i0, j0); the others are at +1, +cols, +cols+1
    flat = grid.reshape(rows * cols, *grid.shape[2:])
    fx = gx - j0
    fy = gy - i0
    if grid.ndim == 3:
        fx = fx[..., None]
        fy = fy[..., None]
    ux = 1 - fx
    uy = 1 - fy
    # a * (1 - fx) * (1 - fy) + b * fx * (1 - fy) + c * (1 - fx) * fy + d * fx * fy,
    # in that order, in place: block-sized temporaries cost more than the arithmetic
    out = flat.take(k, axis=0)
    out *= ux
    out *= uy
    for corner, wx, wy in ((1, fx, uy), (cols, ux, fy), (cols + 1, fx, fy)):
        term = flat[corner:].take(k, axis=0)
        term *= wx
        term *= wy
        out += term
    return out


def _require_inside(hf: Heightfield, x: np.ndarray, y: np.ndarray, what: str = "query"):
    inside = hf.contains(x, y)
    if not np.all(inside):
        k = int(np.argmin(np.asarray(inside).reshape(-1)))
        x0, x1, y0, y1 = map(float, hf.extent)
        raise ValueError(f"{what} {k} at ({float(np.ravel(x)[k])}, {float(np.ravel(y)[k])}) is "
                         f"outside the terrain extent x [{x0}, {x1}], y [{y0}, {y1}]")


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


class _WalkTables(NamedTuple):
    """What :func:`marscost.simulate.march_rays` reads of a heightfield's cells.

    Cell ``k`` is the cell whose first corner is node ``k`` of the flat grid,
    so ``k = i * cols + j``; the ``n = rows * cols - cols - 1`` entries of a
    per-cell table cover every cell (a ``j = cols - 1`` entry is never read).
    ``ranges[p, q, bi, bj]`` is the highest cell top over the ``2^p x 2^q``
    blocks from block ``(bi, bj)`` on, a block being 2 x 2 cells: a sparse
    table, so the highest cell top over any box of blocks is the larger of
    four entries. A 96 x 96 grid's tables take 0.98 MiB, 0.63 of them
    ``ranges``; a grid of ``MAX_TERRAIN_NODES`` takes 50.5 MiB at most.
    """

    top: float  # a plane above every node
    tops: np.ndarray  # (n,) highest corner of each cell
    patches: np.ndarray  # (4, n) a, b, c, d of each cell's patch a + b fx + c fy + d fx fy
    ranges: np.ndarray  # (log2 block rows + 1, log2 block cols + 1, block rows, block cols)

    def ceilings(self, i_lo, i_hi, j_lo, j_hi) -> np.ndarray:
        """Per box of cell rows ``i_lo..i_hi`` and columns ``j_lo..j_hi`` (index arrays,
        bounds included), the highest cell top of the blocks that cover it."""
        i_lo, i_hi, j_lo, j_hi = i_lo >> 1, i_hi >> 1, j_lo >> 1, j_hi >> 1
        p = np.frexp(i_hi - i_lo + 1)[1] - 1  # floor(log2)
        q = np.frexp(j_hi - j_lo + 1)[1] - 1
        i_hi -= np.left_shift(1, p) - 1  # the last span of 2^p rows starts here
        j_hi -= np.left_shift(1, q) - 1
        levels, spans, rows, cols = self.ranges.shape
        flat = self.ranges.reshape(-1)
        level = p * spans
        level += q
        level *= rows
        lo = level + i_lo
        lo *= cols
        hi = level + i_hi
        hi *= cols
        out = flat.take(lo + j_lo)
        np.maximum(out, flat.take(lo + j_hi), out=out)
        np.maximum(out, flat.take(hi + j_lo), out=out)
        np.maximum(out, flat.take(hi + j_hi), out=out)
        return out


def _walk_tables(hf: Heightfield) -> _WalkTables:
    """``hf``'s walk tables: built on the first call and held read-only by ``hf``."""
    if hf._walk is None:
        _hold(hf, _walk=_build_walk_tables(hf.elevations))
    return hf._walk


def _build_walk_tables(z: np.ndarray) -> _WalkTables:
    """The walk tables of the elevation grid ``z``."""
    rows, cols = z.shape
    flat = z.reshape(-1)
    n = rows * cols - cols - 1
    top = z.max() + 1e-6 * (1.0 + np.abs(z).max())
    tops = np.maximum(flat[:n], flat[1 : n + 1])
    np.maximum(tops, flat[cols : cols + n], out=tops)
    np.maximum(tops, flat[cols + 1 :], out=tops)
    a = flat[:n]
    b = flat[1 : n + 1] - a
    c = flat[cols : cols + n] - a
    d = flat[cols + 1 :] - a - b - c
    patches = np.stack([a, b, c, d])
    # cell tops in 2 x 2 blocks; an odd count of cells pads the last block with -inf
    cells = np.full((rows - 1 + (rows - 1) % 2, cols - 1 + (cols - 1) % 2), -np.inf)
    cells[: rows - 1, : cols - 1] = np.append(tops, -np.inf).reshape(rows - 1, cols)[:, :-1]
    block_rows, block_cols = cells.shape[0] // 2, cells.shape[1] // 2
    blocks = cells.reshape(block_rows, 2, block_cols, 2).max(axis=(1, 3))
    ranges = np.empty((block_rows.bit_length(), block_cols.bit_length(), block_rows, block_cols))
    ranges[0, 0] = blocks
    for p in range(1, ranges.shape[0]):  # spans a span never reads keep the shorter span's value
        h = 1 << (p - 1)
        ranges[p, 0] = ranges[p - 1, 0]
        np.maximum(ranges[p - 1, 0, :-h], ranges[p - 1, 0, h:], out=ranges[p, 0, :-h])
    for q in range(1, ranges.shape[1]):
        h = 1 << (q - 1)
        ranges[:, q] = ranges[:, q - 1]
        np.maximum(ranges[:, q - 1, :, :-h], ranges[:, q - 1, :, h:], out=ranges[:, q, :, :-h])
    for table in (tops, patches, ranges):
        table.flags.writeable = False
    return _WalkTables(float(top), tops, patches, ranges)
