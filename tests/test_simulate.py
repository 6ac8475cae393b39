import numpy as np
import pytest

from marscost.geometry import quat_rotate, quat_to_matrix
from marscost.heightfield import generate_heightfield, surface_heights
from marscost.simulate import (
    CHASSIS_HEIGHT_M,
    generate_trajectory,
    march_rays,
    render_camera,
    simulate_lidar,
    synthesize_imu,
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
        up = quat_rotate(p.orientation, np.array([0.0, 0.0, 1.0]))
        assert np.allclose(up, [0, 0, 1], atol=1e-12)
        assert p.position[2] == pytest.approx(1.5 + CHASSIS_HEIGHT_M, abs=1e-12)


def test_trajectory_waypoint_outside_extent(flat_field):
    with pytest.raises(ValueError, match="waypoint 1"):
        generate_trajectory(flat_field, [(1.0, 1.0), (99.0, 1.0)], speed=1.0, dt=0.1)


def test_trajectory_rejects_degenerate_input(flat_field):
    with pytest.raises(ValueError):
        generate_trajectory(flat_field, [(1.0, 1.0)], speed=1.0, dt=0.1)
    with pytest.raises(ValueError):
        generate_trajectory(flat_field, [(1.0, 1.0), (1.0, 1.0)], speed=1.0, dt=0.1)
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
