import time
import tracemalloc

import numpy as np
import pytest

from marscost import simulate
from marscost.dataset import synthesize_dataset
from marscost.geometry import quat_to_matrix
from marscost.heightfield import (
    Heightfield,
    _node_bilinear,
    generate_heightfield,
    slope_magnitudes,
    surface_heights,
    surface_normals,
)
from marscost.simulate import (
    CHASSIS_HEIGHT_M,
    RAY_TOL_M,
    _BLOCK_RAY_CELLS,
    camera_directions,
    generate_trajectory,
    march_rays,
    render_camera,
    simulate_lidar,
    synthesize_imu,
)
from marscost.types import ImuLog, Pose, Trajectory
from test_geometry import (
    conjugate_one,
    matrix_to_quat_one,
    multiply_one,
    rotation_vector_one,
    to_matrix_one,
)


def test_trajectory_pose_count_and_spacing(flat_field):
    traj = generate_trajectory(flat_field, [(1.0, 1.0), (1.0, 3.0)], speed=1.0, dt=0.1)
    # 2 m leg at 0.1 m spacing -> 21 poses
    assert len(traj) == 21
    pos = traj.positions
    gaps = np.linalg.norm(np.diff(pos[:, :2], axis=0), axis=1)
    assert np.all(np.abs(gaps - 0.1) <= 1e-9)
    assert np.all(np.abs(np.diff(traj.times) - 0.1) <= 1e-12)


def test_trajectory_101_poses_over_10m():
    hf = generate_heightfield(3, 80, 80, 0.2, 0.2)
    traj = generate_trajectory(hf, [(2.0, 2.0), (12.0, 2.0)], speed=1.0, dt=0.1)
    assert len(traj) == 101


def test_trajectory_flat_has_zero_pitch_roll(flat_field):
    traj = generate_trajectory(flat_field, [(1.0, 1.0), (6.0, 5.0)], speed=1.0, dt=0.2)
    for p in traj:
        up = quat_to_matrix(p.orientation)[:, 2]  # the body up-axis in the world frame
        assert np.allclose(up, [0, 0, 1], atol=1e-12)
        assert p.position[2] == pytest.approx(1.5 + CHASSIS_HEIGHT_M, abs=1e-12)


def test_trajectory_waypoint_outside_extent(flat_field):
    with pytest.raises(ValueError, match="waypoint 1"):
        generate_trajectory(flat_field, [(1.0, 1.0), (99.0, 1.0)], speed=1.0, dt=0.1)


def test_trajectory_waypoint_message_prints_plain_floats(flat_field):
    with pytest.raises(ValueError, match=r"waypoint 1 at \(99\.5, 1\.0\) is outside"):
        generate_trajectory(flat_field, [(1.0, 1.0), (99.5, 1.0)], speed=1.0, dt=0.1)


def test_trajectory_rejects_degenerate_input(flat_field):
    with pytest.raises(ValueError):
        generate_trajectory(flat_field, [(1.0, 1.0)], speed=1.0, dt=0.1)
    with pytest.raises(ValueError, match=r"waypoint 2 at \(2\.0, 1\.0\) repeats waypoint 1"):
        generate_trajectory(flat_field, [(1.0, 1.0), (2.0, 1.0), (2.0, 1.0)], speed=1.0, dt=0.1)
    with pytest.raises(ValueError, match=r"shorter than one pose step of 0\.1 m \(speed \* dt\)"):
        generate_trajectory(flat_field, [(1.0, 1.0), (1.05, 1.0)], speed=1.0, dt=0.1)
    with pytest.raises(ValueError):
        generate_trajectory(flat_field, [(1.0, 1.0), (2.0, 1.0)], speed=0.0, dt=0.1)


def test_imu_flat_straight_run(flat_field):
    traj = generate_trajectory(flat_field, [(1.0, 2.0), (6.0, 2.0)], speed=1.0, dt=0.1)
    imu = synthesize_imu(traj, flat_field, gravity=9.81, noise_scale=0.0, seed=0)
    assert len(imu) == len(traj)
    assert np.allclose(imu.accel[1:-1], [0.0, 0.0, 9.81], atol=1e-9)
    assert np.allclose(imu.gyro[1:-1], 0.0, atol=1e-9)


def test_imu_deterministic(rough_field):
    traj = generate_trajectory(rough_field, [(1.5, 1.5), (8.0, 7.0)], speed=1.0, dt=0.1)
    a = synthesize_imu(traj, rough_field, noise_scale=2.0, seed=5)
    b = synthesize_imu(traj, rough_field, noise_scale=2.0, seed=5)
    assert np.array_equal(a.accel, b.accel)
    assert np.array_equal(a.gyro, b.gyro)


def test_imu_rough_segment_has_larger_accel_variance():
    # one flat half, one rough half, same straight path across both
    rng_z = generate_heightfield(9, 60, 120, 0.2, 0.8).elevations
    z = np.zeros((60, 120))
    z[:, 60:] = rng_z[:, 60:]
    from marscost.heightfield import Heightfield

    hf = Heightfield(z, 0.2)
    traj = generate_trajectory(hf, [(1.0, 6.0), (22.0, 6.0)], speed=1.0, dt=0.1)
    imu = synthesize_imu(traj, hf, noise_scale=2.0, seed=3)
    accel = imu.accel
    xs = traj.positions[:, 0]
    flat_var = np.var(accel[xs < 10.0], axis=0).sum()
    rough_var = np.var(accel[xs > 14.0], axis=0).sum()
    assert rough_var > flat_var


def _trajectory_reference(hf, waypoints, speed, dt, chassis_height=CHASSIS_HEIGHT_M):
    """``generate_trajectory`` as one loop step per pose, on one-row geometry (no checks)."""
    wp = np.asarray(waypoints, dtype=np.float64).reshape(-1, 2)
    seg = np.diff(wp, axis=0)
    seg_len = np.hypot(seg[:, 0], seg[:, 1])
    cum = np.concatenate([[0.0], np.cumsum(seg_len)])
    step = speed * dt
    n = int(np.floor(cum[-1] / step + 1e-9)) + 1
    s = np.arange(n) * step
    idx = np.clip(np.searchsorted(cum, s, side="right") - 1, 0, len(seg_len) - 1)
    xy = wp[idx] + seg[idx] * ((s - cum[idx]) / seg_len[idx])[:, None]
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
        quats[k] = matrix_to_quat_one(np.column_stack([x_b, y_b, nk]))
    return Trajectory(np.arange(n) * dt, np.column_stack([xy, z]), quats)


def _imu_reference(traj, hf, gravity=9.81, noise_scale=0.0, seed=0):
    """``synthesize_imu`` as one loop step per pose, on one-row geometry."""
    t, pos, quats, n = traj.times, traj.positions, traj.quaternions, len(traj)
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
        rel = multiply_one(conjugate_one(quats[k]), quats[k + 1])
        gyro_b[k] = rotation_vector_one(rel) / (t[k + 1] - t[k])
    if n >= 2:
        gyro_b[-1] = gyro_b[-2]
    rng = np.random.default_rng(seed)
    sigma = noise_scale * slope_magnitudes(hf, pos[:, 0], pos[:, 1])
    noise = rng.standard_normal((n, 3)) * sigma[:, None]
    accel_b = np.empty((n, 3))
    for k in range(n):
        accel_b[k] = to_matrix_one(quats[k]).T @ specific_w[k] + noise[k]
    return ImuLog(t, accel_b, gyro_b)


def _drive_case(seed: int):
    """A seeded terrain of roughness seed / 39 and a 2- to 4-waypoint drive across it."""
    rng = np.random.default_rng(seed)
    size = 24 + 8 * (seed % 4)
    hf = generate_heightfield(seed, size, size, float(rng.uniform(0.1, 0.3)), seed / 39)
    x0, x1, y0, y1 = hf.extent
    k = 2 + seed % 3
    waypoints = np.column_stack([rng.uniform(x0, x1, k), rng.uniform(y0, y1, k)])
    return hf, waypoints, float(rng.uniform(0.5, 2.0)), float(rng.uniform(0.05, 0.2))


def test_drive_matches_the_per_pose_reference_bit_for_bit():
    n_poses = n_turning = 0
    for seed in range(40):
        hf, waypoints, speed, dt = _drive_case(seed)
        traj = generate_trajectory(hf, waypoints, speed, dt)
        ref = _trajectory_reference(hf, waypoints, speed, dt)
        for name in ("times", "positions", "quaternions"):
            assert getattr(traj, name).tobytes() == getattr(ref, name).tobytes(), (seed, name)
        imu = synthesize_imu(traj, hf, noise_scale=3.0, seed=seed)
        ref_imu = _imu_reference(traj, hf, noise_scale=3.0, seed=seed)
        assert imu.accel.tobytes() == ref_imu.accel.tobytes(), seed
        assert imu.gyro.tobytes() == ref_imu.gyro.tobytes(), seed
        n_turning += bool(np.any(imu.gyro != 0.0))  # only a straight drive on flat ground is still
        n_poses += len(traj)
    assert n_poses > 2000 and n_turning >= 39


def test_imu_of_two_and_three_pose_drives(flat_field):
    for end in [(1.15, 1.0), (1.25, 1.0)]:  # two poses, then three
        traj = generate_trajectory(flat_field, [(1.0, 1.0), end], speed=1.0, dt=0.1)
        imu = synthesize_imu(traj, flat_field, noise_scale=1.0, seed=2)
        ref = _imu_reference(traj, flat_field, noise_scale=1.0, seed=2)
        assert len(imu) == len(traj) == round((end[0] - 1.0) / 0.1) + 1
        assert imu.accel.tobytes() == ref.accel.tobytes()
        assert imu.gyro.tobytes() == ref.gyro.tobytes()


def test_lidar_downward_ray_on_flat_plane(flat_field):
    # independent oracle: a ray tilted t from vertical hits the plane at h / cos(t)
    origin = np.array([4.0, 4.0, 1.5 + 2.0])  # 2 m above the surface
    tilt = np.deg2rad(20.0)
    direction = np.array([np.sin(tilt), 0.0, -np.cos(tilt)])
    hit, pts = march_rays(flat_field, origin, direction[None, :], max_range=10.0)
    assert hit[0]
    rng = np.linalg.norm(pts[0] - origin)
    assert rng == pytest.approx(2.0 / np.cos(tilt), abs=1e-3)


def test_lidar_empty_when_out_of_range(flat_field):
    traj = generate_trajectory(flat_field, [(4.0, 4.0), (5.0, 4.0)], speed=1.0, dt=0.5)
    cloud = simulate_lidar(flat_field, traj[0], rays=200, max_range=0.05, seed=1)
    assert len(cloud) == 0


def test_lidar_deterministic(rough_field):
    traj = generate_trajectory(rough_field, [(2.0, 2.0), (7.0, 7.0)], speed=1.0, dt=0.5)
    a = simulate_lidar(rough_field, traj[3], rays=300, max_range=12.0, seed=4)
    b = simulate_lidar(rough_field, traj[3], rays=300, max_range=12.0, seed=4)
    assert np.array_equal(a.xyz, b.xyz)
    assert np.array_equal(a.rgb, b.rgb)
    assert len(a) > 0


def test_lidar_hits_lie_on_surface(rough_field):
    traj = generate_trajectory(rough_field, [(2.0, 2.0), (7.0, 7.0)], speed=1.0, dt=0.5)
    pose = traj[2]
    cloud = simulate_lidar(rough_field, pose, rays=400, max_range=12.0, seed=2)
    r = quat_to_matrix(pose.orientation)
    world = cloud.xyz @ r.T + pose.position
    h = surface_heights(rough_field, world[:, 0], world[:, 1])
    assert np.max(np.abs(world[:, 2] - h)) <= 1e-3


@pytest.mark.parametrize("x, y", [(-0.01, 4.0), (4.0, 8.5), (99.0, 99.0)])
def test_sensors_off_the_terrain_are_rejected_by_the_walk(flat_field, x, y):
    """Both sensors cast from the pose, so :func:`march_rays` checks its extent for them."""
    pose = Pose(0.0, np.array([x, y, 2.0]), np.array([1.0, 0.0, 0.0, 0.0]))
    with pytest.raises(ValueError, match="ray origin is outside the terrain extent"):
        simulate_lidar(flat_field, pose, rays=16, max_range=5.0)
    with pytest.raises(ValueError, match="ray origin is outside the terrain extent"):
        render_camera(flat_field, pose, 4, 6)


def test_camera_dims_and_determinism(rough_field):
    traj = generate_trajectory(rough_field, [(2.0, 2.0), (6.0, 6.0)], speed=1.0, dt=0.5)
    img_a = render_camera(rough_field, traj[1], 20, 30)
    img_b = render_camera(rough_field, traj[1], 20, 30)
    assert img_a.pixels.shape == (20, 30, 3)
    assert np.array_equal(img_a.pixels, img_b.pixels)


def test_camera_flat_field_two_colors(flat_field):
    traj = generate_trajectory(flat_field, [(2.0, 4.0), (6.0, 4.0)], speed=1.0, dt=0.5)
    img = render_camera(flat_field, traj[0], 16, 24)
    from marscost.simulate import SKY_RGB

    surface_rgb = flat_field.colors[0, 0]
    px = img.pixels.reshape(-1, 3)
    is_sky = np.all(np.abs(px - SKY_RGB) < 1e-12, axis=1)
    is_surface = np.all(np.abs(px - surface_rgb) < 1e-12, axis=1)
    assert np.all(is_sky | is_surface)
    assert is_surface.any()


def test_camera_directions_are_built_once_and_read_only(rough_field):
    rays = camera_directions(9, 13)
    assert rays.shape == (9 * 13, 3)
    assert np.allclose(np.linalg.norm(rays, axis=1), 1.0, atol=1e-15)
    with pytest.raises(ValueError, match="read-only"):
        rays[0, 0] = 0.0
    with pytest.raises(ValueError, match="read-only"):
        rays *= 2.0
    pose = generate_trajectory(rough_field, [(2.0, 2.0), (6.0, 6.0)], speed=1.0, dt=0.5)[1]
    hits = camera_directions.cache_info().hits
    render_camera(rough_field, pose, 9, 13)
    assert camera_directions(9, 13) is rays
    assert camera_directions.cache_info().hits == hits + 2
    # the middle pixel column looks straight ahead, tilted down; the top row looks higher
    mid = rays.reshape(9, 13, 3)[:, 6]
    assert np.all(mid[:, 1] == 0.0) and np.all(np.diff(mid[:, 2]) < 0.0)


def _march_reference(
    hf: Heightfield,
    origin: np.ndarray,
    directions: np.ndarray,
    max_range: float,
    step: float = None,
    tol: float = RAY_TOL_M,
):
    """Approximate oracle: a fixed-step march, then 24 bisections of the crossing step.

    A ray stops at its first step ``t_k = min(k * step, max_range)`` outside
    the extent (a miss) or at or below the surface. A feature thinner than
    one step can be stepped over, so a finer step is a better oracle.
    """
    directions = np.asarray(directions, dtype=np.float64).reshape(-1, 3)
    n = directions.shape[0]
    if step is None:
        step = hf.cell_size / 4.0
    origin = np.asarray(origin, dtype=np.float64)
    if not bool(np.all(hf.contains(origin[0], origin[1]))):
        raise ValueError("ray origin is outside the terrain extent")

    ts = np.minimum(step * np.arange(int(np.ceil(max_range / step)) + 1), max_range)
    k_stop = np.zeros(n, dtype=np.int64)  # 0: no stop
    below_at_stop = np.zeros(n, dtype=bool)
    active = np.arange(n)
    for k0 in range(1, ts.size, 1024):  # 1024 steps of the active rays at a time
        ks = np.arange(k0, min(k0 + 1024, ts.size))
        p = origin + directions[active, None, :] * ts[ks, None]
        inside = hf.contains(p[..., 0], p[..., 1])
        x = np.where(inside, p[..., 0], origin[0])
        y = np.where(inside, p[..., 1], origin[1])
        below = inside & (p[..., 2] <= _node_bilinear(hf, hf.elevations, x, y))
        stop = below | ~inside
        j = stop.argmax(axis=1)
        found = stop[np.arange(active.size), j]
        k_stop[active[found]] = ks[j[found]]
        below_at_stop[active[found]] = below[found, j[found]]
        active = active[~found]
        if not active.size:
            break

    hit = below_at_stop
    points = np.zeros((n, 3))
    idx = np.flatnonzero(hit)
    if idx.size:
        lo = ts[k_stop[idx] - 1]
        hi = ts[k_stop[idx]]
        for _ in range(24):  # interval shrinks to step / 2^24 << tol
            mid = 0.5 * (lo + hi)
            p = origin[None, :] + directions[idx] * mid[:, None]
            below = p[:, 2] <= _node_bilinear(hf, hf.elevations, p[:, 0], p[:, 1])
            hi = np.where(below, mid, hi)
            lo = np.where(below, lo, mid)
        tm = 0.5 * (lo + hi)
        points[idx] = origin[None, :] + directions[idx] * tm[:, None]
        h = _node_bilinear(hf, hf.elevations, points[idx, 0], points[idx, 1])
        ok = np.abs(points[idx, 2] - h) <= tol
        hit[idx] = ok
    return hit, points


def _ray_set(seed: int, n: int = 300) -> np.ndarray:
    """Random unit rays plus horizontal, grazing, vertical, zero and NaN ones."""
    rng = np.random.default_rng(seed)
    d = rng.normal(size=(n, 3))
    d /= np.linalg.norm(d, axis=1, keepdims=True)
    special = [
        [1.0, 0.0, 0.0], [0.6, -0.8, 0.0], [-0.6, 0.8, -0.0],  # horizontal
        [1.0, 0.0, 1e-17], [0.0, -1.0, -1e-17], [0.7, 0.7, 1e-13], [-0.7, 0.7, -1e-13],
        [0.99, 0.0, -0.02], [0.0, 0.99, 0.02], [-0.7, -0.7, -0.05],  # grazing
        [0.0, 0.0, -1.0], [0.0, 0.0, 1.0], [0.0, 0.0, 0.0], [np.nan, 0.0, -1.0],
    ]
    return np.vstack([d, special])


def _bumps(seed: int) -> Heightfield:
    """Rough field with a deep basin in the middle, walled by terrain above its floor."""
    hf = generate_heightfield(seed, 40, 40, 0.25, 0.9)
    ii, jj = np.mgrid[0:40, 0:40]
    basin = 1.5 * np.exp(-((ii - 20) ** 2 + (jj - 20) ** 2) / 60.0)
    return Heightfield(hf.elevations - basin, hf.cell_size, hf.colors)


_FLAT = Heightfield(np.full((32, 32), 1.5), 0.25)
_ROUGH = generate_heightfield(seed=7, rows=48, cols=48, cell_size=0.2, roughness=0.7)
_BASIN = _bumps(5)

MARCH_CASES = {
    # name: (field, origin xy, origin height above the surface, max_range, kwargs)
    "flat": (_FLAT, (4.0, 4.0), 2.0, 10.0, {}),
    "flat_on_edge": (_FLAT, (0.0, 7.75), 0.3, 6.0, {}),
    "under_flat_surface": (_FLAT, (3.0, 5.0), -0.01, 6.0, {}),
    "rough": (_ROUGH, (4.7, 4.3), 0.35, 12.0, {}),
    "rough_near_edge": (_ROUGH, (0.3, 9.1), 0.35, 12.0, {}),
    "rough_high_above": (_ROUGH, (5.0, 3.0), 4.0, 30.0, {}),
    "basin_below_walls": (_BASIN, (5.0, 5.0), 0.2, 12.0, {}),
    "odd_range_and_step": (_ROUGH, (3.1, 6.2), 0.35, 7.31, {}),
    "explicit_tol": (_BASIN, (4.4, 5.6), 0.3, 11.0, {"tol": 1e-10}),
    "short_range": (_ROUGH, (4.7, 4.3), 0.35, 0.12, {}),
}

FINE_STEPS_PER_CELL = 200  # the oracle's step is cell_size / 200


def _agree(hit, points, ref_hit, ref_points):
    """Per ray: the same hit flag, and for a hit the same point within ``RAY_TOL_M``."""
    close = np.linalg.norm(points - ref_points, axis=1) <= RAY_TOL_M
    return (hit == ref_hit) & (~hit | close)


def _settled(hf, origin, dirs, max_range, hit, points, ref, step, **kwargs):
    """Per ray: agreement with the march result ``ref``, or else with a march at ``step``.

    A fixed step steps over features thinner than itself, so a ray on which
    the caster and the march disagree is settled by a finer march.
    """
    agree = _agree(hit, points, *ref)
    odd = np.flatnonzero(~agree)
    if odd.size:
        finer = _march_reference(hf, origin, dirs[odd], max_range, step=step, **kwargs)
        agree[odd] = _agree(hit[odd], points[odd], *finer)
    return agree


@pytest.mark.parametrize("case", MARCH_CASES)
def test_march_matches_stepping_oracle_bit_for_bit(case):
    # the caster is exact: its hits lie on the surface, and a fine-step march agrees
    hf, (x, y), above, max_range, kwargs = MARCH_CASES[case]
    origin = np.array([x, y, surface_heights(hf, x, y) + above])
    dirs = _ray_set(seed=list(MARCH_CASES).index(case))
    hit, points = march_rays(hf, origin, dirs, max_range, **kwargs)
    h = surface_heights(hf, points[hit, 0], points[hit, 1])
    assert np.all(np.abs(points[hit, 2] - h) <= min(1e-9, kwargs.get("tol", RAY_TOL_M)))
    step = hf.cell_size / FINE_STEPS_PER_CELL
    ref = _march_reference(hf, origin, dirs, max_range, step=step, **kwargs)
    assert np.all(_settled(hf, origin, dirs, max_range, hit, points, ref, step / 10, **kwargs))


def test_march_cases_cover_hits_misses_and_high_terrain():
    hits, crossings = {}, {}
    for case, (hf, (x, y), above, max_range, kwargs) in MARCH_CASES.items():
        origin = np.array([x, y, surface_heights(hf, x, y) + above])
        dirs = _ray_set(seed=list(MARCH_CASES).index(case))
        hit, points = march_rays(hf, origin, dirs, max_range, **kwargs)
        hits[case] = int(hit.sum())
        crossings[case] = int(np.any(points != 0.0, axis=1).sum())  # found, maybe rejected by tol
        if case == "basin_below_walls":
            assert hf.elevations.max() > origin[2] + 1.0  # terrain rises above the origin
    n = len(_ray_set(seed=0))
    assert hits.pop("short_range") == crossings.pop("short_range") == 0
    # a ray from under the plane meets it at its origin, 0.01 m off: tol rejects it
    assert hits.pop("under_flat_surface") == 0 < crossings.pop("under_flat_surface")
    assert all(0 < k < n for k in hits.values())
    # the root is exact to rounding, so even a 1e-10 m tolerance accepts every crossing
    assert hits["explicit_tol"] == crossings["explicit_tol"]


def test_march_hits_a_peak_thinner_than_a_step():
    # a single raised node: the surface is above 90 % of its height only within
    # 0.1 cells of it, narrower than the default step of a quarter cell
    z = np.zeros((16, 16))
    z[8, 8] = 0.5
    hf = Heightfield(z, 0.25)
    a = 0.1
    d = np.array([[np.cos(a), np.sin(a), 0.0]])
    # 16.5 default steps from the node: the two steps around it are 0.125 cells off
    origin = np.array([2.0, 2.0, 0.0]) - 16.5 * 0.0625 * d[0]
    origin[2] = 0.9 * 0.5
    coarse_hit, _ = _march_reference(hf, origin, d, 3.0)
    assert not coarse_hit[0]
    hit, points = march_rays(hf, origin, d, 3.0)
    fine = _march_reference(hf, origin, d, 3.0, step=hf.cell_size / FINE_STEPS_PER_CELL)
    assert hit[0] and points[0, 0] < 2.0
    assert _agree(hit, points, *fine)[0]


def test_march_time_does_not_grow_with_range():
    # a ray that settles above the surface, inside the extent, stays there at any range
    hf = generate_heightfield(3, 8, 8, 1.0, 1.0)
    origin = np.array([1.0, 1.0, surface_heights(hf, 1.0, 1.0) + 0.05])
    dirs = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, -1.0]])
    t0 = time.perf_counter()
    hit, points = march_rays(hf, origin, dirs, 1e9)
    assert time.perf_counter() - t0 < 0.5
    assert hit.tolist() == [False, True, True]
    assert np.array_equal(points[2], [1.0, 1.0, origin[2] - 0.05])
    # the extent ends 6 m ahead, so a 20 m march sees all the horizontal ray can meet
    fine = _march_reference(hf, origin, dirs[1:], 20.0, step=hf.cell_size / FINE_STEPS_PER_CELL)
    assert np.all(_agree(hit[1:], points[1:], *fine))


def _walk_reference(
    hf: Heightfield,
    origin: np.ndarray,
    directions: np.ndarray,
    max_range: float,
    tol: float = RAY_TOL_M,
):
    """``march_rays`` with its walk as it was: two crossings in the first round, ``np.clip``."""
    directions = np.asarray(directions, dtype=np.float64).reshape(-1, 3)
    n = directions.shape[0]
    if not 0 < max_range < np.inf:
        raise ValueError("max_range must be positive and finite")
    origin = np.asarray(origin, dtype=np.float64)
    if not bool(np.all(hf.contains(origin[0], origin[1]))):
        raise ValueError("ray origin is outside the terrain extent")

    top = hf.elevations.max() + 1e-6 * (1.0 + np.abs(hf.elevations).max())  # above the surface
    # in grid units a ray is g0 + u * t; an axis with no finite t per unit crosses no grid line
    g0 = origin[:2] / hf.cell_size
    u = directions[:, :2] / hf.cell_size
    dz = directions[:, 2]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        t_unit = np.abs(1.0 / u)
        still = ~np.isfinite(t_unit)
        t_unit[still] = np.inf
        to_edge = np.where(u > 0, [hf.cols - 1, hf.rows - 1] - g0, g0)
        t_end = np.min(np.where(still, np.inf, to_edge * t_unit), axis=1, initial=max_range)
        t_top = (top - origin[2]) / dz
    # a falling ray starts where it comes down to the top plane and a rising one ends where
    # it goes up through it; one above the plane that does not fall never starts
    t_cur = np.where(dz < 0, np.maximum(t_top, 0.0), 0.0 if origin[2] <= top else np.inf)
    t_end = np.where(dz > 0, np.minimum(t_end, t_top), t_end)

    t_hit = np.full(n, np.inf)
    rays = np.flatnonzero(np.isfinite(directions).all(axis=1) & (t_cur < t_end))
    flat = hf.elevations.reshape(-1)
    cols = hf.cols
    # tops[k]: the highest corner of the cell whose first corner is flat[k]
    tops = np.maximum.reduce([flat[: -cols - 1], flat[1:-cols], flat[cols:-1], flat[cols + 1 :]])
    width = 2
    while rays.size:
        per_block = _BLOCK_RAY_CELLS // width
        for s in range(0, rays.size, per_block):
            r = rays[s : s + per_block]
            tc, te = t_cur[r, None], t_end[r, None]
            ur = u[r]
            # the next `width` grid lines crossed on each axis, merged in order
            g = g0 + ur * tc
            ahead = np.abs(np.where(ur > 0, np.floor(g) + 1, np.ceil(g) - 1) - g0)
            cross = ((ahead[:, :, None] + np.arange(width)) * t_unit[r, :, None]).reshape(r.size, -1)
            bounds = np.clip(np.concatenate([tc, np.sort(cross, axis=1)[:, :width]], axis=1), tc, te)
            cuts = np.ascontiguousarray(bounds.T)  # a row per cut: operations run along the rays
            lo, seg = cuts[:-1], cuts[1:] - cuts[:-1]
            ux, uy, dzr = ur[:, 0], ur[:, 1], dz[r]
            # each segment lies in one cell, found from its midpoint as _node_bilinear finds it
            mid = lo + 0.5 * seg
            j0 = np.clip(g0[0] + ux * mid, 0, cols - 2).astype(np.intp)
            i0 = np.clip(g0[1] + uy * mid, 0, hf.rows - 2).astype(np.intp)
            k = i0 * cols + j0
            z_lo = origin[2] + dzr * lo
            # only a segment that gets down to its cell's highest corner can meet the surface
            w, m = np.nonzero((seg > 0) & (np.minimum(z_lo, z_lo + dzr * seg) <= tops.take(k)))
            fx = g0[0] + ux[m] * lo[w, m] - j0[w, m]  # the segment's start in its cell
            fy = g0[1] + uy[m] * lo[w, m] - i0[w, m]
            root = _patch_root_reference(flat, cols, k[w, m], fx, fy, ur[m], dzr[m], z_lo[w, m], seg[w, m])
            # segments follow each other along the ray, so the first root is the least t
            np.minimum.at(t_hit, r[m], lo[w, m] + root)
            t_cur[r] = bounds[:, -1]
        rays = rays[np.isinf(t_hit[rays]) & (t_cur[rays] < t_end[rays])]
        width = min(2 * width, 32)

    hit = np.isfinite(t_hit)
    points = np.zeros((n, 3))
    points[hit] = origin + directions[hit] * t_hit[hit, None]
    x, y, z = points[hit].T
    inside = hf.contains(x, y)  # a root on the extent's edge can round to just outside it
    h = _node_bilinear(hf, hf.elevations, np.where(inside, x, origin[0]),
                       np.where(inside, y, origin[1]))
    hit[hit] = inside & (np.abs(z - h) <= tol)
    return hit, points


def _patch_root_reference(flat, cols, k, fx, fy, u, dz, z0, seg):
    """``_patch_root`` as it was, for ``_walk_reference``."""
    ux, uy = u[:, 0], u[:, 1]
    a = flat.take(k)
    b = flat[1:].take(k) - a
    c = flat[cols:].take(k) - a
    d = flat[cols + 1 :].take(k) - a - b - c
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



@pytest.mark.parametrize("case", MARCH_CASES)
def test_walk_matches_the_reference_walk_bit_for_bit(case):
    hf, (x, y), above, max_range, kwargs = MARCH_CASES[case]
    origin = np.array([x, y, surface_heights(hf, x, y) + above])
    dirs = _ray_set(seed=list(MARCH_CASES).index(case))
    hit, points = march_rays(hf, origin, dirs, max_range, **kwargs)
    ref_hit, ref_points = _walk_reference(hf, origin, dirs, max_range, **kwargs)
    assert hit.tobytes() == ref_hit.tobytes()
    assert points.tobytes() == ref_points.tobytes()


def test_walk_matches_the_reference_walk_on_a_synthesized_run(monkeypatch):
    calls = []
    monkeypatch.setattr(simulate, "march_rays", _recording(march_rays, calls))
    synthesize_dataset(seed=29, n_runs=1)
    camera = [c for c in calls if c[3] == simulate.CAMERA_RANGE_M]
    assert 0 < len(camera) and 2 * len(camera) == len(calls)
    for hf, origin, dirs, max_range, (hit, points) in calls:
        ref_hit, ref_points = _walk_reference(hf, origin, dirs, max_range)
        assert hit.tobytes() == ref_hit.tobytes()
        assert points.tobytes() == ref_points.tobytes()
    # enough rays walk past the first rounds for the start width to matter
    assert sum(c[2].shape[0] for c in calls) > 50_000


def _ceiling_checks(calls, ceilings):
    """Per ``march_rays`` call and its rays' ceilings: every hit of the reference walk lies
    at or before its ray's ceiling time. Returns the counts of rising rays retired before
    the walk and of rising hits checked."""
    retired = checked = 0
    assert len(calls) == len(ceilings)
    for (hf, origin, dirs, max_range, kwargs), ceiling in zip(calls, ceilings):
        ref_hit, ref_points = _walk_reference(hf, origin, dirs, max_range, **kwargs)
        rising = dirs[:, 2] > 0  # a ray that does not rise has no ceiling
        assert np.all(np.isinf(ceiling[~rising]))
        # a rising ray is at or before its ceiling time while its height is at or under the
        # ceiling; a hit is on the surface, under its cell's highest corner, within rounding
        up = ref_hit & rising
        assert np.all(ref_points[up, 2] <= ceiling[up] + 1e-9)
        retired += int(np.count_nonzero(rising & (origin[2] > ceiling)))
        checked += int(np.count_nonzero(up))
    return retired, checked


def _record_ceilings(monkeypatch):
    ceilings = []
    ceil = simulate._ceilings

    def record(*args):
        ceilings.append(ceil(*args))
        return ceilings[-1]

    monkeypatch.setattr(simulate, "_ceilings", record)
    return ceilings


def test_rising_rays_meet_the_surface_only_under_their_ceiling(monkeypatch):
    ceilings = _record_ceilings(monkeypatch)
    calls = []
    for case, (hf, (x, y), above, max_range, kwargs) in MARCH_CASES.items():
        origin = np.array([x, y, surface_heights(hf, x, y) + above])
        dirs = _ray_set(seed=list(MARCH_CASES).index(case))
        march_rays(hf, origin, dirs, max_range, **kwargs)
        calls.append((hf, origin, dirs, max_range, kwargs))
    retired, checked = _ceiling_checks(calls, ceilings)
    assert retired > 0 and checked > 0
    basin = list(MARCH_CASES).index("basin_below_walls")  # walls above the origin stop no ray
    assert _ceiling_checks(calls[basin : basin + 1], ceilings[basin : basin + 1])[1] > 0

    calls.clear()
    ceilings.clear()
    recorded = []
    monkeypatch.setattr(simulate, "march_rays", _recording(march_rays, recorded))
    synthesize_dataset(seed=29, n_runs=1)
    retired, checked = _ceiling_checks([c[:4] + ({},) for c in recorded], ceilings)
    assert retired > 1000 and checked > 1000


def _recording(cast, calls):
    def record(hf, origin, directions, max_range):
        out = cast(hf, origin, directions, max_range)
        calls.append((hf, origin, directions, max_range, out))
        return out

    return record


def test_synthesized_dataset_matches_stepping_oracle(monkeypatch):
    kwargs = dict(seed=4, n_runs=2, terrain_size=48, lidar_rays=150, camera_px=(8, 12))
    fast_calls, slow_calls = [], []
    monkeypatch.setattr(simulate, "march_rays", _recording(march_rays, fast_calls))
    fast = synthesize_dataset(**kwargs)
    monkeypatch.setattr(simulate, "march_rays", _recording(_march_reference, slow_calls))
    slow = synthesize_dataset(**kwargs)
    assert len(fast) == len(slow) > 0
    for a, b in zip(fast, slow):  # labels come from the drive, not from the rays
        assert a.target.values.tobytes() == b.target.values.tobytes()
        assert a.target.valid.tobytes() == b.target.valid.tobytes()
    lidar = [
        (f, s) for f, s in zip(fast_calls, slow_calls) if f[3] != simulate.CAMERA_RANGE_M
    ]
    assert len(fast_calls) == len(slow_calls) == 2 * len(lidar) > 0
    n_hits = n_settled = 0
    for (hf, origin, dirs, max_range, (hit, points)), (*call, ref) in lidar:
        assert np.array_equal(origin, call[1]) and np.array_equal(dirs, call[2])
        # the default-step oracle's point on each ray, unless a finer march overrules it
        odd = ~_agree(hit, points, *ref)
        step = hf.cell_size / FINE_STEPS_PER_CELL
        assert np.all(_settled(hf, origin, dirs, max_range, hit, points, ref, step))
        n_hits += int(hit.sum())
        n_settled += int(odd.sum())
    # the finer march is needed for a few grazing rays only
    assert n_hits > 100 * max(n_settled, 1)


def _camera_frame_peak(hf, pose, rows, cols) -> int:
    render_camera(hf, pose, rows, cols)  # warm the lazily built tables first
    tracemalloc.start()
    try:
        render_camera(hf, pose, rows, cols)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_camera_march_memory_is_bounded():
    # the walk runs in blocks of at most _BLOCK_RAY_CELLS ray-cells. A 32x48
    # frame (1536 rays) never fills a block and peaks near 1.3 MiB with or
    # without the limit; a 128x192 frame peaks near 8 MiB with it and near
    # 20 MiB without it, so only the larger frame can tell the two apart
    hf = generate_heightfield(seed=3, rows=96, cols=96, cell_size=0.2, roughness=0.6)
    pose = generate_trajectory(hf, [(3.0, 3.0), (15.0, 14.0)], speed=1.0, dt=0.5)[0]
    assert _camera_frame_peak(hf, pose, 32, 48) <= 4 * 2**20
    assert _camera_frame_peak(hf, pose, 128, 192) <= 12 * 2**20
