import math
import re
import warnings

import numpy as np
import pytest

from marscost.labeling import (
    MAX_LABEL_CELLS,
    LabelingConfig,
    bin_trajectory,
    build_labels,
    cell_costs,
    interpolate_costmap,
    label_grids_for,
    match_imu,
    normalize_labels,
    sparse_kernel,
)
from marscost.simulate import generate_trajectory, synthesize_imu
from marscost.types import DenseCostmap, GridSpec, ImuLog, SparseCostmap, Trajectory

CFG = LabelingConfig()


def _straight_traj_imu(n=21, spacing=0.1, accel=(0.0, 0.0, 9.81), gyro=(0.0, 0.0, 0.0)):
    t = np.arange(n) * 0.1
    pos = np.column_stack([0.05 + np.arange(n) * spacing, np.full(n, 0.05), np.zeros(n)])
    quat = np.tile([1.0, 0, 0, 0], (n, 1))
    traj = Trajectory(t, pos, quat)
    imu = ImuLog(t, np.tile(accel, (n, 1)), np.tile(gyro, (n, 1)))
    return traj, imu


# ---------------------------------------------------------------------------
# binning
# ---------------------------------------------------------------------------


def test_bin_two_samples_per_cell():
    traj, imu = _straight_traj_imu(n=20, spacing=0.1)
    grid = GridSpec((0.0, 0.0), 0.2, 4, 12)
    index, cell, _, _ = bin_trajectory(traj, imu, grid)
    assert np.all(np.bincount(cell) == 2)
    assert len(index) == 10


def test_bin_floor_arithmetic():
    t = np.array([0.0, 0.1])
    pos = np.array([[0.3, 0.5, 0.0], [0.31, 0.5, 0.0]])
    quat = np.tile([1.0, 0, 0, 0], (2, 1))
    traj = Trajectory(t, pos, quat)
    imu = ImuLog([0.0, 0.1], [(0, 0, 1), (0, 0, 1)], [(0, 0, 0), (0, 0, 0)])
    index, cell, _, _ = bin_trajectory(traj, imu, GridSpec((0.0, 0.0), 0.2, 8, 8))
    assert index.tolist() == [[2, 1]]  # row = floor(y / res), col = floor(x / res)
    assert cell.tolist() == [0, 0]


def test_bin_pose_outside_grid_names_index():
    traj, imu = _straight_traj_imu(n=10)
    with pytest.raises(ValueError, match="pose 5"):
        bin_trajectory(traj, imu, GridSpec((0.0, 0.0), 0.1, 10, 5))


def test_bin_rejects_misaligned_imu():
    traj, _ = _straight_traj_imu(n=10)
    # an IMU clock offset
    imu = ImuLog(traj.times + 0.4, np.tile((0, 0, 1), (len(traj), 1)), np.zeros((len(traj), 3)))
    with pytest.raises(ValueError, match="IMU"):
        bin_trajectory(traj, imu, GridSpec((0.0, 0.0), 0.2, 8, 8))


def test_match_imu_takes_one_reading_per_pose_at_its_time():
    traj, imu = _straight_traj_imu(n=10)
    accel = np.column_stack([np.arange(10.0), np.zeros(10), np.ones(10)])
    accel_back, gyro_back = match_imu(traj, ImuLog(imu.times, accel, imu.gyro))
    assert np.array_equal(accel_back, accel) and np.array_equal(gyro_back, imu.gyro)
    dropped = ImuLog(np.delete(imu.times, 4), np.delete(accel, 4, 0), np.delete(imu.gyro, 4, 0))
    with pytest.raises(ValueError, match="^9 IMU readings for a trajectory of 10 poses"):
        match_imu(traj, dropped)
    times = imu.times.copy()
    times[6] = np.nextafter(times[6], np.inf)  # one ulp late
    with pytest.raises(ValueError, match=r"^pose 6: IMU reading at t=0\.6000000000000002, "
                       r"pose at t=0\.6000000000000001$"):
        match_imu(traj, ImuLog(times, accel, imu.gyro))


# ---------------------------------------------------------------------------
# cell cost
# ---------------------------------------------------------------------------


def test_cell_cost_constant_accel():
    cost = cell_costs(
        np.zeros(4, int),
        np.column_stack([np.arange(4) * 0.1, np.zeros(4), np.zeros(4)]),
        np.tile([0.0, 0.0, 9.81], (4, 1)),
        np.zeros((4, 3)),
        CFG,
    )[0]
    assert cost == pytest.approx(9.81, abs=1e-12)


def test_cell_cost_constant_gyro_term():
    w = 0.2 / math.sqrt(3.0)
    cfg = LabelingConfig(w1=1.0, w2=3.0, w3=1.0)
    cost = cell_costs(
        np.zeros(5, int),
        np.column_stack([np.arange(5) * 0.07, np.zeros(5), np.zeros(5)]),
        np.zeros((5, 3)),
        np.tile([w, w, w], (5, 1)),  # |gyro| = 0.2 everywhere
        cfg,
    )[0]
    assert cost == pytest.approx(3.0 * 0.2, abs=1e-12)


def _cost_oracle(positions, accels, gyros, cfg):
    """Independent scalar-loop recomputation of the three cost terms."""
    n = len(positions)
    acc_sq = 0.0
    for i in range(n):
        acc_sq += sum(a * a for a in accels[i])
    term1 = math.sqrt(acc_sq / n)
    if n < 2:
        return cfg.w1 * term1
    num = den = jerk_sq = 0.0
    for i in range(n - 1):
        ds = math.sqrt(sum((positions[i + 1][k] - positions[i][k]) ** 2 for k in range(3)))
        ds = max(ds, cfg.epsilon)
        wmag = math.sqrt(sum(g * g for g in gyros[i]))
        num += wmag * ds
        den += ds
        jm = math.sqrt(sum((accels[i + 1][k] - accels[i][k]) ** 2 for k in range(3))) / ds
        jerk_sq += jm * jm
    return cfg.w1 * term1 + cfg.w2 * num / den + cfg.w3 * math.sqrt(jerk_sq / (n - 1))


def test_cell_cost_matches_brute_force_oracle():
    rng = np.random.default_rng(9)
    pos = np.cumsum(rng.uniform(0.01, 0.1, (3, 3)), axis=0)
    acc = rng.normal(0, 3, (3, 3))
    gyr = rng.normal(0, 1, (3, 3))
    expected = _cost_oracle(pos.tolist(), acc.tolist(), gyr.tolist(), CFG)
    assert cell_costs(np.zeros(3, int), pos, acc, gyr, CFG)[0] == pytest.approx(expected, abs=1e-12)


def test_cell_cost_many_random_cells_vs_oracle():
    rng = np.random.default_rng(10)
    for _ in range(25):
        n = int(rng.integers(1, 7))
        pos = np.cumsum(rng.uniform(0.0, 0.08, (n, 3)), axis=0)
        acc = rng.normal(0, 4, (n, 3))
        gyr = rng.normal(0, 2, (n, 3))
        cost = cell_costs(np.zeros(n, int), pos, acc, gyr, CFG)[0]
        expected = _cost_oracle(pos.tolist(), acc.tolist(), gyr.tolist(), CFG)
        assert cost == pytest.approx(expected, rel=1e-12)
        assert cost >= 0.0


def test_cell_cost_single_sample_uses_accel_only():
    cost = cell_costs(np.zeros(1, int), np.array([[0.0, 0.0, 0.0]]), np.array([[3.0, 0.0, 4.0]]),
                      np.array([[9.0, 9.0, 9.0]]), CFG)[0]
    assert cost == pytest.approx(5.0, abs=1e-12)


def test_cell_cost_epsilon_guards_zero_distance():
    pos = np.zeros((3, 3))  # stationary: every segment floors at epsilon
    acc = np.array([[0, 0, 1.0], [0, 0, 2.0], [0, 0, 1.0]])
    got = cell_costs(np.zeros(3, int), pos, acc, np.zeros((3, 3)), CFG)[0]
    assert np.isfinite(got)
    expected = _cost_oracle(pos.tolist(), acc.tolist(), np.zeros((3, 3)).tolist(), CFG)
    assert got == pytest.approx(expected, abs=1e-12)


def _costs_by_cell(traj, imu, grid, cfg=CFG):
    """``{(row, col): cost}`` of every visited cell, as ``build_labels`` scores them."""
    index, cell, accel, gyro = bin_trajectory(traj, imu, grid)
    return dict(zip(map(tuple, index.tolist()), cell_costs(cell, traj.positions, accel, gyro, cfg)))


def test_cell_cost_time_reparameterization_invariance(flat_field):
    # same spatial samples produced at different drive clocks carry the same cost
    traj_a = generate_trajectory(flat_field, [(1.0, 1.0), (5.0, 1.0)], speed=1.0, dt=0.1)
    traj_b = generate_trajectory(flat_field, [(1.0, 1.0), (5.0, 1.0)], speed=0.5, dt=0.2)
    assert np.allclose(traj_a.positions, traj_b.positions, atol=1e-12)
    imu_a = synthesize_imu(traj_a, flat_field, seed=0)
    imu_b = ImuLog(synthesize_imu(traj_b, flat_field, seed=0).times, imu_a.accel, imu_a.gyro)
    grid = GridSpec((0.0, 0.0), 0.2, 12, 32)
    assert _costs_by_cell(traj_a, imu_a, grid) == _costs_by_cell(traj_b, imu_b, grid)


@pytest.mark.parametrize("waypoints, speed", [
    ([(1.0, 1.0), (8.0, 8.0), (8.0, 1.0), (1.0, 8.0)], 1.0),  # crosses itself
    ([(1.0, 1.0), (3.0, 2.0)], 0.1),  # slow: about 20 samples per cell
], ids=["self_crossing", "slow"])
def test_cell_costs_match_the_oracle_over_scalar_rebinning(rough_field, waypoints, speed):
    traj = generate_trajectory(rough_field, waypoints, speed=speed, dt=0.1)
    imu = synthesize_imu(traj, rough_field, noise_scale=2.0, seed=17)
    coarse, _ = label_grids_for(traj, CFG)
    index, cell, accel, gyro = bin_trajectory(traj, imu, coarse)
    costs = cell_costs(cell, traj.positions, accel, gyro, CFG)
    # independently re-bin: scalar floor arithmetic over the raw streams, in time order
    by_cell = {}
    for n, (p, a, g) in enumerate(zip(traj.positions, imu.accel, imu.gyro)):
        key = (math.floor((p[1] - coarse.origin[1]) / coarse.resolution),
               math.floor((p[0] - coarse.origin[0]) / coarse.resolution))
        by_cell.setdefault(key, []).append((n, list(p), list(a), list(g)))
    assert index.tolist() == [list(key) for key in by_cell]  # first-visit order
    poses = [[r[0] for r in raw] for raw in by_cell.values()]
    if speed < 1.0:
        assert max(map(len, poses)) >= 8  # past numpy's pairwise-summation threshold
    else:
        assert any(np.any(np.diff(n) > 1) for n in poses)  # a cell visited twice
    for raw, cost in zip(by_cell.values(), costs):
        expected = _cost_oracle([r[1] for r in raw], [r[2] for r in raw], [r[3] for r in raw], CFG)
        assert cost == pytest.approx(expected, rel=1e-12)


# ---------------------------------------------------------------------------
# kernel
# ---------------------------------------------------------------------------


def test_kernel_exact_values():
    assert sparse_kernel(0.0, 1.0) == 1.0
    assert sparse_kernel(1.0, 1.0) == 0.0
    assert abs(sparse_kernel(0.5, 1.0) - 1.0 / 6.0) < 1e-12
    assert sparse_kernel(0.25, 1.0) == pytest.approx(0.659155, abs=1e-6)
    assert sparse_kernel(2.0, 1.0) == 0.0


def test_kernel_scales_with_radius():
    # K depends only on d / r
    for u in (0.1, 0.33, 0.77):
        assert sparse_kernel(u * 2.5, 2.5) == pytest.approx(sparse_kernel(u, 1.0), abs=1e-12)


def test_kernel_nonnegative_on_dense_grid():
    d = np.linspace(0.0, 1.0, 10_000)
    k = sparse_kernel(d, 1.0)
    assert np.all(k >= 0.0)
    assert np.all(k <= 1.0 + 1e-12)


def test_kernel_continuous_at_radius():
    assert sparse_kernel(1.0 - 1e-9, 1.0) == pytest.approx(0.0, abs=1e-8)
    assert sparse_kernel(1.0 + 1e-9, 1.0) == 0.0


def test_kernel_rejects_bad_arguments():
    with pytest.raises(ValueError):
        sparse_kernel(-0.1, 1.0)
    with pytest.raises(ValueError):
        sparse_kernel(np.array([0.1, -0.2]), 1.0)
    with pytest.raises(ValueError):
        sparse_kernel(0.1, 0.0)


# ---------------------------------------------------------------------------
# interpolation
# ---------------------------------------------------------------------------


def _brute_force_interpolate(sparse, grid, r):
    """Naive all-pairs oracle written straight from the weighted-mean formula."""
    values = np.zeros((grid.rows, grid.cols))
    valid = np.zeros((grid.rows, grid.cols), dtype=bool)
    for i in range(grid.rows):
        for j in range(grid.cols):
            cx = grid.origin[0] + (j + 0.5) * grid.resolution
            cy = grid.origin[1] + (i + 0.5) * grid.resolution
            num = den = 0.0
            for n in range(len(sparse)):
                d = math.hypot(sparse.xy[n, 0] - cx, sparse.xy[n, 1] - cy)
                if d <= r:
                    u = d / r
                    k = (2 + math.cos(2 * math.pi * u)) / 3 * (1 - u) + math.sin(
                        2 * math.pi * u
                    ) / (2 * math.pi)
                    k = max(k, 0.0)
                    num += k * sparse.tc[n]
                    den += k
            if den > 1e-12:
                values[i, j] = num / den
                valid[i, j] = True
    return values, valid


def test_interpolate_single_entry_at_cell_center():
    grid = GridSpec((0.0, 0.0), 0.2, 5, 5)
    sparse = SparseCostmap([[0.5, 0.5]], [7.5])  # exactly the center of cell (2, 2)
    dense = interpolate_costmap(sparse, grid, CFG)
    assert dense.valid[2, 2]
    assert dense.values[2, 2] == pytest.approx(7.5, abs=1e-12)


def test_interpolate_invalid_beyond_radius():
    grid = GridSpec((0.0, 0.0), 0.5, 9, 9)
    sparse = SparseCostmap([[0.25, 0.25]], [3.0])
    dense = interpolate_costmap(sparse, grid, CFG)
    xs, ys = grid.cell_centers()
    d = np.hypot(xs[None, :] - 0.25, ys[:, None] - 0.25)
    assert not dense.valid[d > CFG.kernel_radius].any()
    assert dense.valid[d < CFG.kernel_radius - 1e-9].all()
    assert np.all(dense.values[~dense.valid] == 0.0)


def test_interpolate_matches_brute_force_oracle():
    rng = np.random.default_rng(12)
    grid = GridSpec((-1.0, -1.0), 0.2, 20, 20)
    sparse = SparseCostmap(rng.uniform(-1, 3, (5, 2)), rng.uniform(0, 20, 5))
    dense = interpolate_costmap(sparse, grid, CFG)
    exp_values, exp_valid = _brute_force_interpolate(sparse, grid, CFG.kernel_radius)
    assert np.array_equal(dense.valid, exp_valid)
    assert np.max(np.abs(dense.values - exp_values)) <= 1e-9


def test_interpolate_is_convex_combination():
    rng = np.random.default_rng(13)
    grid = GridSpec((0.0, 0.0), 0.25, 12, 12)
    sparse = SparseCostmap(rng.uniform(0, 3, (8, 2)), rng.uniform(1, 9, 8))
    dense = interpolate_costmap(sparse, grid, CFG)
    assert dense.values[dense.valid].min() >= sparse.tc.min() - 1e-12
    assert dense.values[dense.valid].max() <= sparse.tc.max() + 1e-12


def test_interpolate_rejects_empty_input():
    grid = GridSpec((0.0, 0.0), 0.2, 4, 4)
    with pytest.raises(ValueError):
        interpolate_costmap(SparseCostmap(np.zeros((0, 2)), np.zeros(0)), grid, CFG)


# ---------------------------------------------------------------------------
# normalization
# ---------------------------------------------------------------------------


def _map_of(values, valid=None):
    values = np.asarray(values, dtype=np.float64)
    grid = GridSpec((0.0, 0.0), 1.0, values.shape[0], values.shape[1])
    return DenseCostmap(grid, values, valid)


def test_normalize_endpoints():
    m = _map_of([[0.0, 5.0], [10.0, 2.0]])
    out = normalize_labels([m])
    assert out.maps[0].values.min() == 0.0
    assert out.maps[0].values.max() == 1.0
    assert not out.degenerate


def test_normalize_constant_degenerate():
    out = normalize_labels([_map_of([[4.0, 4.0], [4.0, 4.0]])])
    assert out.degenerate
    assert np.all(out.maps[0].values == 0.0)


def test_normalize_joint_affine():
    a = _map_of([[0.0, 10.0]])
    b = _map_of([[5.0, 20.0]])
    out = normalize_labels([a, b])
    assert out.low == 0.0 and out.high == 20.0
    assert out.maps[0].values[0, 1] == pytest.approx(0.5, abs=1e-15)


def test_normalize_preserves_order_and_invalid_cells():
    rng = np.random.default_rng(14)
    values = rng.uniform(-5, 40, (6, 6))
    valid = rng.uniform(0, 1, (6, 6)) > 0.4
    m = DenseCostmap(GridSpec((0, 0), 1.0, 6, 6), values, valid)
    out = normalize_labels([m]).maps[0]
    v_in = values[valid]
    v_out = out.values[valid]
    order = np.argsort(v_in)
    assert np.all(np.diff(v_out[order]) > 0)  # strictly monotone for distinct values
    assert np.array_equal(out.values[~valid], values[~valid])


def test_normalize_rejects_no_valid_cells():
    m = _map_of([[1.0]], valid=np.zeros((1, 1), dtype=bool))
    with pytest.raises(ValueError):
        normalize_labels([m])


# ---------------------------------------------------------------------------
# end-to-end labeling
# ---------------------------------------------------------------------------


def test_build_labels_flat_run_constant(flat_field):
    traj = generate_trajectory(flat_field, [(1.0, 2.0), (6.0, 2.0)], speed=1.0, dt=0.1)
    imu = synthesize_imu(traj, flat_field, noise_scale=0.0, seed=0)
    sparse, dense = build_labels(traj, imu, CFG)
    assert np.allclose(sparse.tc, sparse.tc[0], atol=1e-9)
    vals = dense.values[dense.valid]
    assert np.allclose(vals, vals[0], atol=1e-9)


def test_build_labels_fine_grid_dims(flat_field):
    traj = generate_trajectory(flat_field, [(1.0, 2.0), (6.0, 2.0)], speed=1.0, dt=0.1)
    imu = synthesize_imu(traj, flat_field, seed=0)
    _, dense = build_labels(traj, imu, CFG)
    pos = traj.positions
    ext_x = pos[:, 0].max() - pos[:, 0].min() + 2 * CFG.kernel_radius
    ext_y = pos[:, 1].max() - pos[:, 1].min() + 2 * CFG.kernel_radius
    assert dense.grid.cols == math.ceil(ext_x / CFG.fine_res)
    assert dense.grid.rows == math.ceil(ext_y / CFG.fine_res)


def test_label_grids_stop_at_max_label_cells():
    """A fine grid of exactly ``MAX_LABEL_CELLS`` cells is sized; one column more is
    refused, and so is a cell count that overflows a float, without a warning."""
    cfg = LabelingConfig(kernel_radius=1.0, coarse_res=0.25, fine_res=0.125)
    quat = np.tile([1.0, 0, 0, 0], (2, 1))
    at = Trajectory([0.0, 1.0], [(0.0, 0.0, 0.0), (254.0, 254.0, 0.0)], quat)  # 256 m with the margin
    coarse, fine = label_grids_for(at, cfg)
    assert (coarse.rows, coarse.cols, fine.rows, fine.cols) == (1024, 1024, 2048, 2048)
    assert fine.rows * fine.cols == MAX_LABEL_CELLS
    over = Trajectory([0.0, 1.0], [(0.0, 0.0, 0.0), (254.125, 254.0, 0.0)], quat)
    message = f"the poses span a 2048 x 2049 label grid at 0.125 m, more than {MAX_LABEL_CELLS} cells"
    with pytest.raises(ValueError, match=re.escape(message)):
        label_grids_for(over, cfg)
    huge = Trajectory([0.0, 1.0], [(-1e307, -1e307, 0.0), (1e307, 1e307, 0.0)], quat)  # cells overflow
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=re.escape("a 8e+307 x 8e+307 label grid at 0.25 m")):
            label_grids_for(huge, cfg)


def test_build_labels_rough_patch_costs_more():
    from marscost.heightfield import Heightfield, generate_heightfield

    bumpy = generate_heightfield(21, 40, 120, 0.2, 0.9).elevations
    z = np.zeros((40, 120))
    z[:, 60:] = bumpy[:, 60:]
    hf = Heightfield(z, 0.2)
    traj = generate_trajectory(hf, [(1.0, 4.0), (22.0, 4.0)], speed=1.0, dt=0.1)
    imu = synthesize_imu(traj, hf, noise_scale=2.0, seed=4)
    sparse, _ = build_labels(traj, imu, CFG)
    flat_costs = sparse.tc[sparse.xy[:, 0] < 10.0]
    rough_costs = sparse.tc[sparse.xy[:, 0] > 14.0]
    assert rough_costs.mean() > flat_costs.mean()


def test_build_labels_deterministic(rough_field):
    traj = generate_trajectory(rough_field, [(1.5, 1.5), (8.0, 7.5)], speed=1.0, dt=0.1)
    imu = synthesize_imu(traj, rough_field, noise_scale=1.0, seed=8)
    s1, d1 = build_labels(traj, imu, CFG)
    s2, d2 = build_labels(traj, imu, CFG)
    assert np.array_equal(s1.tc, s2.tc)
    assert np.array_equal(d1.values, d2.values)
