"""Kinematic rover simulation over a heightfield.

The rover is glued to the surface: poses follow the waypoint polyline at
constant speed, the chassis rides a fixed height above the bilinear surface,
and orientation aligns yaw with the path tangent and pitch/roll with the
surface normal. Sensor models are deterministic functions of (inputs, seed).
"""

import numpy as np

from .geometry import matrix_to_quat, quat_conjugate, quat_multiply, quat_rotation_vector, quat_to_matrix
from .heightfield import (
    Heightfield,
    _node_bilinear,
    slope_magnitudes,
    surface_colors,
    surface_heights,
    surface_normals,
)
from .types import Image, ImuLog, PointCloud, Pose, Trajectory

CHASSIS_HEIGHT_M = 0.35  # chassis origin above the surface; free design constant

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
_BLOCK_RAY_STEPS = 16384  # ray-steps per numpy block of the march; bounds its memory


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
    wp = np.asarray(waypoints, dtype=np.float64).reshape(-1, 2)
    if wp.shape[0] < 2:
        raise ValueError("need at least 2 waypoints")
    if not (speed > 0 and dt > 0):
        raise ValueError("speed and dt must be positive")
    inside = hf.contains(wp[:, 0], wp[:, 1])
    if not np.all(inside):
        k = int(np.argmin(inside))
        raise ValueError(f"waypoint {k} at {tuple(wp[k])} is outside the terrain extent")

    seg = np.diff(wp, axis=0)
    seg_len = np.hypot(seg[:, 0], seg[:, 1])
    if np.any(seg_len == 0):
        raise ValueError("consecutive waypoints must be distinct")
    cum = np.concatenate([[0.0], np.cumsum(seg_len)])
    total = cum[-1]

    step = speed * dt
    n = int(np.floor(total / step + 1e-9)) + 1
    s = np.arange(n) * step
    idx = np.clip(np.searchsorted(cum, s, side="right") - 1, 0, len(seg_len) - 1)
    frac = (s - cum[idx]) / seg_len[idx]
    xy = wp[idx] + seg[idx] * frac[:, None]

    tangents = seg[idx] / seg_len[idx][:, None]
    z = surface_heights(hf, xy[:, 0], xy[:, 1]) + chassis_height
    normals = surface_normals(hf, xy[:, 0], xy[:, 1])

    quats = np.empty((n, 4))
    for k in range(n):
        nk = normals[k]
        t3 = np.array([tangents[k, 0], tangents[k, 1], 0.0])
        x_b = t3 - np.dot(t3, nk) * nk
        x_b /= np.linalg.norm(x_b)
        y_b = np.cross(nk, x_b)
        quats[k] = matrix_to_quat(np.column_stack([x_b, y_b, nk]))

    t = np.arange(n) * dt
    positions = np.column_stack([xy, z])
    return Trajectory(t, positions, quats)


def synthesize_imu(
    traj: Trajectory,
    hf: Heightfield,
    gravity: float = 9.81,
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
    for k in range(n - 1):
        rel = quat_multiply(quat_conjugate(quats[k]), quats[k + 1])
        gyro_b[k] = quat_rotation_vector(rel) / (t[k + 1] - t[k])
    if n >= 2:
        gyro_b[-1] = gyro_b[-2]

    rng = np.random.default_rng(seed)
    sigma = noise_scale * slope_magnitudes(hf, pos[:, 0], pos[:, 1])
    noise = rng.standard_normal((n, 3)) * sigma[:, None]

    accel_b = np.empty((n, 3))
    for k in range(n):
        accel_b[k] = quat_to_matrix(quats[k]).T @ specific_w[k] + noise[k]
    return ImuLog(t, accel_b, gyro_b)


def march_rays(
    hf: Heightfield,
    origin: np.ndarray,
    directions: np.ndarray,
    max_range: float,
    step: float = None,
    tol: float = RAY_TOL_M,
):
    """Intersect world-frame rays with the surface by fixed-step march + bisection.

    Returns ``(hit (n,) bool, points (n, 3) world)``. A ray misses when it
    leaves the terrain extent or exceeds ``max_range`` before crossing the
    surface. Accepted hits satisfy |z - surface(x, y)| <= tol.

    The march visits ``t_k = min(t_{k-1} + step, max_range)`` from ``t_0 = 0``
    and stops a ray at its first step outside the extent or at or below the
    surface. No step above the terrain's maximum height can be below it, so
    a falling ray starts one step before it reaches that plane, a rising one
    ends one step after it passes it, and the steps in between are tested a
    block at a time. The skipped steps could not have stopped the ray, so
    hits and points are exactly those of testing every step in turn.
    """
    directions = np.asarray(directions, dtype=np.float64).reshape(-1, 3)
    n = directions.shape[0]
    if step is None:
        step = hf.cell_size / 4.0
    if not 0 < max_range < np.inf:
        raise ValueError("max_range must be positive and finite")
    if not step > 0:
        raise ValueError("step must be positive")
    origin = np.asarray(origin, dtype=np.float64)
    if not bool(np.all(hf.contains(origin[0], origin[1]))):
        raise ValueError("ray origin is outside the terrain extent")

    # every bilinear surface height lies within [bottom, top]
    pad = 1e-6 * (1.0 + np.abs(hf.elevations).max())
    top = hf.elevations.max() + pad
    bottom = hf.elevations.min() - pad
    ts = _march_steps(hf, origin, directions, step, max_range, top, bottom)
    last_k = ts.size - 1

    # candidate band [first, last] of each ray. Computed z_k is monotone in k:
    # an edge stays only where z at the step beyond it is exactly above the
    # plane, so every skipped step is too; elsewhere the band is reopened.
    oz, dz = origin[2], directions[:, 2]
    with np.errstate(divide="ignore", invalid="ignore"):
        k_top = np.searchsorted(ts, (top - oz) / dz)  # first step at or past the top plane
    first = np.where(dz < 0, np.maximum(k_top - 1, 1), 1)
    last = np.where(dz >= 0, np.minimum(k_top + 1, last_k), last_k)
    first[~(oz + dz * ts[first - 1] > top)] = 1
    last[~(oz + dz * ts[last] > top)] = last_k

    # first stop of each ray, tested over growing blocks of its band's steps
    k_stop = np.zeros(n, dtype=np.int64)  # 0: no stop
    hit = np.zeros(n, dtype=bool)
    rays = np.flatnonzero(first <= last)
    width = 4
    while rays.size:
        per_block = _BLOCK_RAY_STEPS // width
        for s in range(0, rays.size, per_block):
            r = rays[s : s + per_block]
            ks = first[r, None] + np.arange(width)
            valid = ks <= last[r, None]
            t = ts[np.minimum(ks, last_k)]
            x = origin[0] + directions[r, 0, None] * t
            y = origin[1] + directions[r, 1, None] * t
            z = origin[2] + directions[r, 2, None] * t
            inside = hf.contains(x, y)
            # outside or NaN points are looked up at the origin; that height is never used
            xs = np.where(inside, x, origin[0])
            ys = np.where(inside, y, origin[1])
            below = inside & (z <= _heights_unchecked(hf, xs, ys))
            stops = valid & (below | ~inside)
            j = stops.argmax(axis=1)
            found = np.flatnonzero(stops[np.arange(r.size), j])
            k_stop[r[found]] = ks[found, j[found]]
            hit[r[found]] = below[found, j[found]]
        rays = rays[(k_stop[rays] == 0) & (first[rays] + width <= last[rays])]
        first[rays] += width
        width = min(2 * width, 64)

    points = np.zeros((n, 3))
    idx = np.flatnonzero(hit)
    if idx.size:
        lo = ts[k_stop[idx] - 1]
        hi = ts[k_stop[idx]]
        rx, ry, rz = np.ascontiguousarray(directions[idx].T)  # gathered once, per component
        for _ in range(24):  # interval shrinks to step / 2^24 << tol
            mid = 0.5 * (lo + hi)
            h = _heights_unchecked(hf, origin[0] + rx * mid, origin[1] + ry * mid)
            below = oz + rz * mid <= h
            hi = np.where(below, mid, hi)
            lo = np.where(below, lo, mid)
        tm = 0.5 * (lo + hi)
        points[idx] = origin[None, :] + directions[idx] * tm[:, None]
        h = _heights_unchecked(hf, points[idx, 0], points[idx, 1])
        ok = np.abs(points[idx, 2] - h) <= tol
        hit[idx] = ok
    return hit, points


def _march_steps(hf, origin, directions, step, max_range, top, bottom):
    """The march's step parameters, up to ``max_range`` or until no ray can still cross.

    Accumulates ``t = min(t + step, max_range)`` from 0. Every 64, 128, 256...
    steps it stops once each ray is settled at the last one: outside the
    extent or below ``bottom`` (its first stop is behind it), or above
    ``top`` and not descending (no later step can be below the surface).
    """
    ts = [0.0]
    check = 64
    while ts[-1] < max_range:
        ts.append(min(ts[-1] + step, max_range))
        if len(ts) == check:
            check *= 2
            x, y, z = (origin[None, :] + directions * ts[-1]).T
            settled = ~hf.contains(x, y) | (z < bottom) | ((z > top) & (directions[:, 2] >= 0))
            if settled.all():
                break
    return np.array(ts)


def _heights_unchecked(hf: Heightfield, x, y):
    # callers guarantee the points are inside the extent
    return _node_bilinear(hf, hf.elevations, np.asarray(x), np.asarray(y))


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
    the extent or exceed ``max_range``) are omitted.
    """
    if rays <= 0:
        raise ValueError("rays must be positive")
    if not bool(np.all(hf.contains(pose.position[0], pose.position[1]))):
        raise ValueError("sensor pose is outside the terrain extent")
    r = quat_to_matrix(pose.orientation)
    dirs_world = lidar_directions(rays, seed) @ r.T
    hit, pts_w = march_rays(hf, pose.position, dirs_world, max_range)
    pts_w = pts_w[hit]
    if pts_w.size == 0:
        return PointCloud.empty()
    colors = surface_colors(hf, pts_w[:, 0], pts_w[:, 1])
    pts_s = (pts_w - pose.position) @ r
    return PointCloud(pts_s, colors)


def render_camera(hf: Heightfield, pose: Pose, h_px: int, w_px: int) -> Image:
    """Pinhole render of the colored surface; rays that miss get the sky color."""
    if h_px < 1 or w_px < 1:
        raise ValueError("image dimensions must be positive")
    if not bool(np.all(hf.contains(pose.position[0], pose.position[1]))):
        raise ValueError("camera pose is outside the terrain extent")
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
    r = quat_to_matrix(pose.orientation)
    dirs_w = dirs_b @ r.T

    hit, pts = march_rays(hf, pose.position, dirs_w, CAMERA_RANGE_M)
    pixels = np.tile(SKY_RGB, (h_px * w_px, 1))
    if np.any(hit):
        pixels[hit] = surface_colors(hf, pts[hit, 0], pts[hit, 1])
    return Image(np.clip(pixels.reshape(h_px, w_px, 3), 0.0, 1.0))
