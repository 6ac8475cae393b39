"""Kinematic rover simulation over a heightfield.

The rover is glued to the surface: poses follow the waypoint polyline at
constant speed, the chassis rides a fixed height above the bilinear surface,
and orientation aligns yaw with the path tangent and pitch/roll with the
surface normal. Sensor models are deterministic functions of (inputs, seed).
"""

from functools import lru_cache

import numpy as np

from .geometry import (
    matrix_to_quat,
    quat_conjugate,
    quat_multiply,
    quat_rotation_vector,
    quat_to_matrix,
    row_dot,
)
from .heightfield import (
    Heightfield,
    _node_bilinear,
    _require_inside,
    _walk_tables,
    slope_magnitudes,
    surface_colors,
    surface_heights,
    surface_normals,
)
from .types import Image, ImuLog, PointCloud, Pose, Trajectory

CHASSIS_HEIGHT_M = 0.35  # chassis origin above the surface; free design constant
GRAVITY_M_S2 = 9.81  # the IMU's gravity

# LiDAR field of view (matches a 360 deg dome unit with -7..52 deg elevation)
LIDAR_AZ_SPAN = 2.0 * np.pi
LIDAR_EL_MIN = np.deg2rad(-7.0)
LIDAR_EL_MAX = np.deg2rad(52.0)
GOLDEN_RATIO_FRAC = 0.6180339887498949

# Camera intrinsics: 90 x 65 deg FoV, mounted with a fixed downward tilt
CAMERA_HFOV = np.deg2rad(90.0)
CAMERA_VFOV = np.deg2rad(65.0)
CAMERA_TILT = np.deg2rad(15.0)
CAMERA_RANGE_M = 80.0
SKY_RGB = np.array([0.82, 0.68, 0.52])

RAY_TOL_M = 1e-3  # max |z - surface| for an accepted LiDAR hit
_BLOCK_RAY_CELLS = 16384  # ray-cells per numpy block of the walk; bounds its memory


def generate_trajectory(
    hf: Heightfield,
    waypoints,
    speed: float,
    dt: float,
    chassis_height: float = CHASSIS_HEIGHT_M,
) -> Trajectory:
    """Constant-speed drive along a piecewise-linear waypoint path.

    Poses are spaced ``speed * dt`` meters apart along the path (timestamps
    ``k * dt``), so a straight 10 m leg at speed 1 and dt 0.1 yields 101 poses.
    """
    if not (speed > 0 and dt > 0):
        raise ValueError("speed and dt must be positive")
    step = speed * dt
    wp, seg, seg_len, cum, n = _drive_legs(hf, waypoints, step)
    s = np.arange(n) * step
    idx = np.clip(np.searchsorted(cum, s, side="right") - 1, 0, len(seg_len) - 1)
    frac = (s - cum[idx]) / seg_len[idx]
    xy = wp[idx] + seg[idx] * frac[:, None]

    tangents = seg[idx] / seg_len[idx][:, None]
    z = surface_heights(hf, xy[:, 0], xy[:, 1]) + chassis_height
    normals = surface_normals(hf, xy[:, 0], xy[:, 1])

    # body x: the path tangent with its part along the normal taken out
    t3 = np.column_stack([tangents, np.zeros(n)])
    x_b = t3 - row_dot(t3, normals)[:, None] * normals
    x_b /= np.sqrt(row_dot(x_b, x_b))[:, None]
    y_b = np.cross(normals, x_b)
    quats = matrix_to_quat(np.stack([x_b, y_b, normals], axis=-1))

    t = np.arange(n) * dt
    positions = np.column_stack([xy, z])
    t.flags.writeable = positions.flags.writeable = quats.flags.writeable = False  # held uncopied
    return Trajectory(t, positions, quats)


def _drive_legs(hf: Heightfield, waypoints, step: float):
    """The legs of a drive along ``waypoints`` with poses ``step`` meters apart.

    Returns ``(wp, seg, seg_len, cum, n)``: the ``(k, 2)`` waypoints, their
    legs, the legs' lengths, the path length at each waypoint and the pose
    count. Raises ``ValueError`` naming the waypoint when one lies outside the
    terrain or repeats the one before it, and when the path is shorter than
    one step, since a trajectory needs at least 2 poses.
    """
    wp = np.asarray(waypoints, dtype=np.float64).reshape(-1, 2)
    if wp.shape[0] < 2:
        raise ValueError("need at least 2 waypoints")
    _require_inside(hf, wp[:, 0], wp[:, 1], "waypoint")
    seg = np.diff(wp, axis=0)
    seg_len = np.hypot(seg[:, 0], seg[:, 1])
    if np.any(seg_len == 0):
        k = int(np.argmax(seg_len == 0)) + 1
        raise ValueError(f"waypoint {k} at ({float(wp[k, 0])}, {float(wp[k, 1])}) repeats "
                         f"waypoint {k - 1}")
    cum = np.concatenate([[0.0], np.cumsum(seg_len)])
    n = int(np.floor(cum[-1] / step + 1e-9)) + 1
    if n < 2:
        raise ValueError(f"the path is {float(cum[-1])} m long, shorter than one pose step of "
                         f"{step} m (speed * dt), and a trajectory needs at least 2 poses")
    return wp, seg, seg_len, cum, n


def synthesize_imu(
    traj: Trajectory,
    hf: Heightfield,
    gravity: float = GRAVITY_M_S2,
    noise_scale: float = 0.0,
    seed: int = 0,
) -> ImuLog:
    """Derive one IMU sample per pose from the trajectory kinematics.

    Specific force is the second difference of position plus gravity, rotated
    into the body frame, plus zero-mean Gaussian noise whose std is
    ``noise_scale`` times the local slope magnitude (rougher ground shakes
    harder). Angular rate is the body-frame finite difference of orientation.
    """
    t = traj.times
    pos = traj.positions
    quats = traj.quaternions
    n = len(traj)

    accel_w = np.zeros((n, 3))
    if n >= 3:
        dt0 = (t[2:] - t[1:-1])[:, None]
        dt1 = (t[1:-1] - t[:-2])[:, None]
        accel_w[1:-1] = (
            2.0
            * (dt1 * pos[2:] - (dt0 + dt1) * pos[1:-1] + dt0 * pos[:-2])
            / (dt0 * dt1 * (dt0 + dt1))
        )
        accel_w[0] = accel_w[1]
        accel_w[-1] = accel_w[-2]

    specific_w = accel_w + np.array([0.0, 0.0, gravity])

    gyro_b = np.zeros((n, 3))
    rel = quat_multiply(quat_conjugate(quats[:-1]), quats[1:])  # a trajectory holds two poses or more
    gyro_b[:-1] = quat_rotation_vector(rel) / np.diff(t)[:, None]
    gyro_b[-1] = gyro_b[-2]

    rng = np.random.default_rng(seed)
    sigma = noise_scale * slope_magnitudes(hf, pos[:, 0], pos[:, 1])
    noise = rng.standard_normal((n, 3)) * sigma[:, None]

    world_from_body = quat_to_matrix(quats)
    accel_b = (np.swapaxes(world_from_body, -1, -2) @ specific_w[:, :, None])[:, :, 0] + noise
    accel_b.flags.writeable = gyro_b.flags.writeable = False  # held by the log uncopied
    return ImuLog(t, accel_b, gyro_b)


def march_rays(
    hf: Heightfield,
    origin: np.ndarray,
    directions: np.ndarray,
    max_range: float,
    tol: float = RAY_TOL_M,
):
    """Intersect world-frame rays with the bilinear surface exactly, cell by cell.

    Returns ``(hit (n,) bool, points (n, 3) world)``. A ray misses when it
    leaves the terrain extent or passes ``max_range`` before reaching the
    surface. Hits lie in the extent with |z - surface(x, y)| <= tol; ``points``
    keeps the roots that fail this too (an origin under the surface is its own).

    The walk (Amanatides & Woo, 1987) cuts each ray at the grid lines it
    crosses, a growing block at a time: 4 crossings per ray in the first
    round, doubling up to 32. In each cell ``z - surface`` is a
    quadratic in t; the hit is the first root in the first cell that has one.

    A rising ray's ceiling is the highest cell top in the box of cells its
    path spans, rounded out to 2 x 2-cell blocks and read in O(1) from
    ``hf``'s range-max table (Tevs, Ihrke and Seidel, 2008). A
    ray that starts above its ceiling never walks, and one that rises past
    it stops at the end of that round; the cells after that lie under the
    ray, so no root is lost. The tables of :func:`_walk_tables` (cell tops,
    patch coefficients and the range-max table over 2 x 2-cell blocks,
    0.98 MiB at 96 x 96 nodes) are built on ``hf``'s first walk and kept.
    """
    directions = np.asarray(directions, dtype=np.float64).reshape(-1, 3)
    n = directions.shape[0]
    if not 0 < max_range < np.inf:
        raise ValueError("max_range must be positive and finite")
    origin = np.asarray(origin, dtype=np.float64)
    if not bool(np.all(hf.contains(origin[0], origin[1]))):
        raise ValueError("ray origin is outside the terrain extent")

    tables = _walk_tables(hf)
    top, tops = tables.top, tables.tops
    # in grid units a ray is g0 + u * t; an axis with no finite t per unit crosses no grid line
    g0 = origin[:2] / hf.cell_size
    u = directions[:, :2] / hf.cell_size
    dz = directions[:, 2]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        t_unit = np.abs(1.0 / u)
        still = ~np.isfinite(t_unit)
        t_unit[still] = np.inf
        to_edge = np.where(u > 0, [hf.cols - 1, hf.rows - 1] - g0, g0)
        t_edge = np.where(still, np.inf, to_edge * t_unit)
        t_end = np.minimum(t_edge[:, 0], t_edge[:, 1])
        np.minimum(t_end, max_range, out=t_end)
        t_top = (top - origin[2]) / dz
    # a falling ray starts where it comes down to the top plane and a rising one ends where
    # it goes up through it; one above the plane that does not fall never starts
    t_cur = np.where(dz < 0, np.maximum(t_top, 0.0), 0.0 if origin[2] <= top else np.inf)
    t_end = np.where(dz > 0, np.minimum(t_end, t_top), t_end)

    t_hit = np.full(n, np.inf)
    finite = np.isfinite(directions)
    rays = np.flatnonzero(finite[:, 0] & finite[:, 1] & finite[:, 2] & (t_cur < t_end))
    # a rising ray meets no cell above its ceiling: one that starts above it never walks
    ceiling = _ceilings(hf, tables, g0, u, t_end, rays[dz.take(rays) > 0], n)
    rays = rays[origin[2] <= ceiling.take(rays)]
    cols = hf.cols
    u_x, u_y = u.T.copy()  # contiguous, for the per-cell work
    width = 4
    while rays.size:
        per_block = _BLOCK_RAY_CELLS // width
        for s in range(0, rays.size, per_block):
            r = rays[s : s + per_block]
            tc, te, dzr = t_cur.take(r), t_end.take(r), dz.take(r)
            ur, ux, uy = u.take(r, axis=0), u_x.take(r), u_y.take(r)
            # the next `width` grid lines crossed on each axis, merged in order
            g = g0 + ur * tc[:, None]
            ahead = np.abs(np.where(ur > 0, np.floor(g) + 1, np.ceil(g) - 1) - g0)
            cross = ahead[:, :, None] + np.arange(width)
            cross *= t_unit.take(r, axis=0)[:, :, None]
            cross = cross.reshape(r.size, -1)
            cross.sort(axis=1)
            # a row per cut, clamped to [tc, te]: operations run along the rays
            cuts = np.empty((width + 1, r.size))
            cuts[0] = tc
            cuts[1:] = cross[:, :width].T
            np.maximum(cuts, tc, out=cuts)
            np.minimum(cuts, te, out=cuts)
            lo, seg = cuts[:-1], cuts[1:] - cuts[:-1]
            # each segment lies in one cell, found from its midpoint as _node_bilinear finds it
            mid = 0.5 * seg
            mid += lo
            j0 = _cell_index(ux * mid, g0[0], cols - 2)
            i0 = _cell_index(uy * mid, g0[1], hf.rows - 2)
            k = i0 * cols
            k += j0
            z_lo = dzr * lo
            z_lo += origin[2]
            # only a segment that gets down to its cell's highest corner can meet the surface
            z_min = dzr * seg
            z_min += z_lo
            np.minimum(z_min, z_lo, out=z_min)
            near = np.flatnonzero((z_min <= tops.take(k)) & (seg > 0))  # flat (cut, ray) indices
            m = near % r.size
            lo_near, ux_near, uy_near = lo.take(near), ux.take(m), uy.take(m)
            fx = g0[0] + ux_near * lo_near - j0.take(near)  # the segment's start in its cell
            fy = g0[1] + uy_near * lo_near - i0.take(near)
            root = _patch_root(tables.patches, k.take(near), fx, fy, ux_near, uy_near,
                               dzr.take(m), z_lo.take(near), seg.take(near))
            # segments follow each other along the ray, so the first root is the least t
            root += lo_near
            np.minimum.at(t_hit, r.take(m), root)
            t_cur.put(r, cuts[-1])
        # and one that has risen past it (z_lo only grows from here) stops
        t_now = t_cur.take(rays)
        z_now = dz.take(rays) * t_now  # as z_lo is found
        z_now += origin[2]
        rays = rays[np.isinf(t_hit.take(rays)) & (t_now < t_end.take(rays))
                    & (z_now <= ceiling.take(rays))]
        width = min(2 * width, 32)

    found = np.flatnonzero(np.isfinite(t_hit))
    found_points = directions.take(found, axis=0) * t_hit.take(found)[:, None]
    found_points += origin
    points = np.zeros((n, 3))
    points[found] = found_points
    x, y, z = found_points.T
    inside = hf.contains(x, y)  # a root on the extent's edge can round to just outside it
    h = _node_bilinear(hf, hf.elevations, np.where(inside, x, origin[0]),
                       np.where(inside, y, origin[1]))
    hit = np.zeros(n, dtype=bool)
    hit[found] = inside & (np.abs(z - h) <= tol)
    return hit, points


def _ceilings(hf, tables, g0, u, t_end, up, n):
    """(n,) heights: for each ray in ``up``, the highest cell top of the 2 x 2-cell blocks
    that cover the box of cells its path ``g0 + u * t``, ``t`` in ``[0, t_end]``, spans;
    inf for the rest.

    The box's corners are indexed as :func:`_cell_index` indexes the walk's
    midpoints, so every cell the walk gives a ray lies in the ray's box.
    """
    ceiling = np.full(n, np.inf)
    last = np.array([hf.cols - 2, hf.rows - 2])
    ends = u.take(up, axis=0)
    ends *= t_end.take(up)[:, None]
    ends = _cell_index(ends, g0, last)
    start = _cell_index(np.zeros(2), g0, last)
    lo = np.minimum(ends, start)
    hi = np.maximum(ends, start)
    ceiling[up] = tables.ceilings(lo[:, 1], hi[:, 1], lo[:, 0], hi[:, 0])
    return ceiling


def _patch_root(patches, k, fx, fy, ux, uy, dz, z0, seg):
    """First ``s`` in ``[0, seg]`` where segments meet their cells' surface, else inf.

    A segment starts at ``(fx, fy)`` in cell ``k`` at height ``z0`` and moves
    ``(ux, uy)`` grid units and ``dz`` meters per unit ``s``, so ``z - surface`` is
    a quadratic ``c0 + c1 s + c2 s^2`` over the patch ``a + b fx + c fy + d fx fy``
    of ``patches[:, k]``.
    """
    a, b, c, d = patches.take(k, axis=1)
    slope_x = b + d * fy  # surface slopes per grid unit at the segment's start
    slope_y = c + d * fx
    c0 = z0 - (a + slope_x * fx + c * fy)
    c1 = dz - (slope_x * ux + slope_y * uy)
    c2 = -d * ux * uy
    with np.errstate(divide="ignore", invalid="ignore"):
        # q / c2 and c0 / q are the roots without cancellation; for c0 > 0 the
        # first one ahead is c0 / q if c1 < 0 (-c0 / c1 when c2 = 0), else q / c2
        q = -0.5 * (c1 + np.copysign(np.sqrt(c1 * c1 - 4.0 * c2 * c0), c1))
        root = np.where(c1 < 0, c0 / q, q / c2)
    root[c0 <= 0] = 0.0  # starts under the surface
    root[~((root >= 0) & (root <= seg))] = np.inf
    return root


def _cell_index(x, g, top):
    """``clip(g + x, 0, top)`` as an index array; ``x`` is overwritten."""
    x += g
    np.maximum(x, 0, out=x)
    np.minimum(x, top, out=x)
    return x.astype(np.intp)


def lidar_directions(rays: int, seed: int = 0) -> np.ndarray:
    """Deterministic golden-angle fan over the LiDAR FoV with seeded sub-step jitter."""
    rng = np.random.default_rng(seed)
    k = np.arange(rays)
    el_span = LIDAR_EL_MAX - LIDAR_EL_MIN
    el = LIDAR_EL_MIN + (k + 0.5) / rays * el_span
    az = (k * GOLDEN_RATIO_FRAC % 1.0) * LIDAR_AZ_SPAN
    el = el + (rng.random(rays) - 0.5) * el_span / rays * 0.5
    az = az + (rng.random(rays) - 0.5) * LIDAR_AZ_SPAN / rays * 0.5
    return np.column_stack(
        [np.cos(el) * np.cos(az), np.cos(el) * np.sin(az), np.sin(el)]
    )


def simulate_lidar(
    hf: Heightfield, pose: Pose, rays: int, max_range: float, seed: int = 0
) -> PointCloud:
    """Cast a deterministic ray fan from the pose; hits carry surface color.

    Returned points are expressed in the sensor frame; rays that miss (leave
    the extent or exceed ``max_range``) are omitted. :func:`march_rays`
    rejects a pose outside the terrain extent, as it does for the camera.
    """
    if rays <= 0:
        raise ValueError("rays must be positive")
    r = quat_to_matrix(pose.orientation)
    dirs_world = lidar_directions(rays, seed) @ r.T
    hit, pts_w = march_rays(hf, pose.position, dirs_world, max_range)
    pts_w = pts_w[hit]
    if pts_w.size == 0:
        return PointCloud.empty()
    colors = surface_colors(hf, pts_w[:, 0], pts_w[:, 1])
    pts_s = (pts_w - pose.position) @ r
    pts_s.flags.writeable = colors.flags.writeable = False  # held by the cloud uncopied
    return PointCloud(pts_s, colors)


@lru_cache(maxsize=8)
def camera_directions(h_px: int, w_px: int) -> np.ndarray:
    """Body-frame unit ray of each pixel, row-major ``(h_px * w_px, 3)``.

    Built on first use for each image size and kept read-only.
    """
    cp, sp = np.cos(CAMERA_TILT), np.sin(CAMERA_TILT)
    fwd_b = np.array([cp, 0.0, -sp])
    right_b = np.array([0.0, -1.0, 0.0])
    up_b = np.cross(right_b, fwd_b)  # = (sin, 0, cos)

    jj, ii = np.meshgrid(np.arange(w_px), np.arange(h_px))
    ndc_x = (jj + 0.5) / w_px * 2.0 - 1.0
    ndc_y = (ii + 0.5) / h_px * 2.0 - 1.0
    tan_h = np.tan(CAMERA_HFOV / 2.0)
    tan_v = np.tan(CAMERA_VFOV / 2.0)
    dirs_b = (
        fwd_b[None, None, :]
        + ndc_x[..., None] * tan_h * right_b[None, None, :]
        - ndc_y[..., None] * tan_v * up_b[None, None, :]
    ).reshape(-1, 3)
    dirs_b /= np.linalg.norm(dirs_b, axis=1, keepdims=True)
    dirs_b.flags.writeable = False
    return dirs_b


def render_camera(hf: Heightfield, pose: Pose, h_px: int, w_px: int) -> Image:
    """Pinhole render of the colored surface; rays that miss get the sky color."""
    if h_px < 1 or w_px < 1:
        raise ValueError("image dimensions must be positive")
    r = quat_to_matrix(pose.orientation)
    dirs_w = camera_directions(h_px, w_px) @ r.T

    hit, pts = march_rays(hf, pose.position, dirs_w, CAMERA_RANGE_M)
    pixels = np.tile(SKY_RGB, (h_px * w_px, 1))
    if np.any(hit):
        pixels[hit] = surface_colors(hf, pts[hit, 0], pts[hit, 1])
    pixels = np.clip(pixels.reshape(h_px, w_px, 3), 0.0, 1.0)
    pixels.flags.writeable = False  # held by the image uncopied
    return Image(pixels)
