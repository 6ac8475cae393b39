"""The simulate and label stages, and training samples cut from their output.

``simulate_run`` and ``label_runs`` are the only implementation of the first
two pipeline stages; the in-memory ``synthesize_dataset`` and the CLI both
call them.

A sample's BEV window is world-axis aligned, centered on the rover pose and
snapped to the fine label grid, so the label patch is an exact nearest-cell
lookup (integer index arithmetic, no resampling). Point clouds are moved
from the sensor frame into the window-local frame: xy relative to the window
origin, z relative to the chassis.
"""

from dataclasses import dataclass

import numpy as np

from .geometry import quat_to_matrix
from .heightfield import generate_heightfield
from .labeling import LabelingConfig, build_labels, normalize_labels
from .simulate import CHASSIS_HEIGHT_M, generate_trajectory, render_camera, simulate_lidar, synthesize_imu
from .types import DenseCostmap, GridSpec, PointCloud, Pose, Sample


@dataclass
class BevLayout:
    """Geometry of the per-sample BEV window."""

    size: int = 32  # cells per side (square)
    resolution: float = 0.2  # meters per cell

    def __post_init__(self):
        if self.size < 4:
            raise ValueError("BEV window needs at least 4 cells per side")
        if self.resolution <= 0:
            raise ValueError("resolution must be positive")


@dataclass
class SimConfig:
    """Drive and sensor settings of a simulated run."""

    chassis_height: float = CHASSIS_HEIGHT_M  # meters above the surface
    speed: float = 1.0  # m/s
    dt: float = 0.1  # seconds between poses
    gravity: float = 9.81  # m/s^2
    imu_noise_scale: float = 3.0  # IMU noise std per unit of local slope
    lidar_rays: int = 900
    lidar_max_range: float = 18.0  # meters
    camera_h_px: int = 32
    camera_w_px: int = 48
    sensor_stride: int = 8  # poses between sensed frames


def _cells_per_bev(layout: BevLayout, label_res: float) -> int:
    ratio = layout.resolution / label_res
    k = round(ratio)
    if k < 1 or abs(ratio - k) > 1e-9:
        raise ValueError(
            f"BEV resolution {layout.resolution} must be an integer multiple of the "
            f"label resolution {label_res}"
        )
    return k


def extract_target(labels: DenseCostmap, pose_xy, layout: BevLayout):
    """Cut the rover-centered label window out of the fine label raster.

    The window origin snaps to the label lattice; each BEV cell takes the
    label cell containing its center (valid only where the label is). Cells
    falling outside the raster are invalid. Returns the window costmap (local
    origin (0, 0)) and the window's world origin.
    """
    k = _cells_per_bev(layout, labels.grid.resolution)
    res = labels.grid.resolution
    half = layout.size * layout.resolution / 2.0
    # window origin in label-cell units (integer snap keeps lookups exact)
    off_j = round((pose_xy[0] - half - labels.grid.origin[0]) / res)
    off_i = round((pose_xy[1] - half - labels.grid.origin[1]) / res)
    origin = (
        labels.grid.origin[0] + off_j * res,
        labels.grid.origin[1] + off_i * res,
    )
    grid = GridSpec((0.0, 0.0), layout.resolution, layout.size, layout.size)
    values = np.zeros((layout.size, layout.size))
    valid = np.zeros((layout.size, layout.size), dtype=bool)
    bev_idx = np.arange(layout.size)
    rows = off_i + bev_idx * k + k // 2
    cols = off_j + bev_idx * k + k // 2
    ok_r = (rows >= 0) & (rows < labels.grid.rows)
    ok_c = (cols >= 0) & (cols < labels.grid.cols)
    rr = rows[ok_r][:, None]
    cc = cols[ok_c][None, :]
    sub_valid = labels.valid[rr, cc]
    sub_values = labels.values[rr, cc]
    mesh = np.ix_(ok_r, ok_c)
    valid[mesh] = sub_valid
    values[mesh] = np.where(sub_valid, sub_values, 0.0)
    return DenseCostmap(grid, values, valid), origin


def localize_cloud(cloud: PointCloud, pose: Pose, window_origin) -> PointCloud:
    """Sensor-frame points -> window-local frame (xy offset, z above chassis)."""
    r = quat_to_matrix(pose.orientation)
    world = cloud.xyz @ r.T + pose.position
    local = world - np.array([window_origin[0], window_origin[1], pose.position[2]])
    return PointCloud(local, cloud.rgb.copy())


def build_samples(traj, labels: DenseCostmap, clouds: dict, images: dict,
                  layout: BevLayout, min_valid_cells: int = 8):
    """Pair each sensed frame with its label window; skip windows with too few labels."""
    samples = []
    for k in sorted(clouds.keys() & images.keys()):
        pose = traj[k]
        target, origin = extract_target(labels, pose.position[:2], layout)
        if int(target.valid.sum()) < min_valid_cells:
            continue
        samples.append(
            Sample(localize_cloud(clouds[k], pose, origin), images[k], target)
        )
    return samples


def split_samples(samples, holdout_fraction: float, seed: int):
    """Deterministic shuffle split into (train, heldout)."""
    if not 0.0 <= holdout_fraction < 1.0:
        raise ValueError("holdout_fraction must lie in [0, 1)")
    samples = list(samples)
    order = np.random.default_rng(np.random.SeedSequence([seed, 0x5147])).permutation(
        len(samples)
    )
    n_hold = int(round(holdout_fraction * len(samples)))
    hold_idx = set(order[:n_hold].tolist())
    train = [samples[i] for i in range(len(samples)) if i not in hold_idx]
    hold = [samples[i] for i in range(len(samples)) if i in hold_idx]
    return train, hold


def simulate_run(hf, waypoints, sim: SimConfig, imu_seed: int, lidar_seed):
    """One drive: trajectory, IMU, and LiDAR plus camera every ``sim.sensor_stride`` poses.

    ``lidar_seed`` maps a pose index to the seed of its LiDAR sweep, so each
    caller keeps its own seed scheme. Returns ``(traj, imu, clouds, images)``
    with the frames keyed by pose index, as :func:`io.read_run_dir` does.
    """
    traj = generate_trajectory(hf, waypoints, sim.speed, sim.dt, sim.chassis_height)
    imu = synthesize_imu(
        traj, hf, gravity=sim.gravity, noise_scale=sim.imu_noise_scale, seed=imu_seed
    )
    clouds = {}
    images = {}
    for k in range(0, len(traj), sim.sensor_stride):
        clouds[k] = simulate_lidar(
            hf, traj[k], sim.lidar_rays, sim.lidar_max_range, seed=lidar_seed(k)
        )
        images[k] = render_camera(hf, traj[k], sim.camera_h_px, sim.camera_w_px)
    return traj, imu, clouds, images


def label_runs(drives, labeling: LabelingConfig):
    """Label each drive and normalize all runs jointly.

    ``drives`` holds ``(traj, imu, ...)`` tuples. Returns the sparse labels
    of each run and the joint :class:`LabelNormalization` of their rasters.
    """
    labeled = [build_labels(d[0], d[1], labeling) for d in drives]
    return [sparse for sparse, _ in labeled], normalize_labels([dense for _, dense in labeled])


def synthesize_dataset(
    seed: int,
    n_runs: int = 4,
    terrain_size: int = 96,
    cell_size: float = 0.2,
    roughness: float = 0.6,
    speed: float = 1.0,
    dt: float = 0.1,
    imu_noise_scale: float = 3.0,
    lidar_rays: int = 700,
    camera_px: tuple = (32, 48),
    sensor_stride: int = 6,
    layout: BevLayout = BevLayout(),
    labeling: LabelingConfig = None,
):
    """End-to-end in-memory dataset: terrain -> drives -> labels -> samples.

    Drives diagonal-ish paths across one shared procedural terrain, labels
    each run, normalizes jointly, and cuts one sample per sensed frame.
    Deterministic per seed.
    """
    if labeling is None:
        labeling = LabelingConfig(fine_res=0.1)
    sim = SimConfig(
        speed=speed,
        dt=dt,
        imu_noise_scale=imu_noise_scale,
        lidar_rays=lidar_rays,
        camera_h_px=camera_px[0],
        camera_w_px=camera_px[1],
        sensor_stride=sensor_stride,
    )
    hf = generate_heightfield(seed, terrain_size, terrain_size, cell_size, roughness)
    x0, x1, y0, y1 = hf.extent
    margin = 2.5
    lo_x, hi_x = x0 + margin, x1 - margin
    lo_y, hi_y = y0 + margin, y1 - margin
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0xDA7A]))

    drives = []
    for r in range(n_runs):
        corners = [
            [lo_x + 0.3 * r, lo_y + 0.2 * r],
            [hi_x - 0.3 * r, hi_y - 0.2 * r],
        ]
        if r % 2 == 1:
            corners = [[lo_x + 0.3 * r, hi_y - 0.2 * r], [hi_x - 0.3 * r, lo_y + 0.2 * r]]
        jitter = rng.uniform(-0.5, 0.5, (2, 2))
        waypoints = np.asarray(corners) + jitter
        drives.append(
            simulate_run(hf, waypoints, sim, seed + 101 * r, lambda k: seed + 7 * r + k)
        )
    _, norm = label_runs(drives, labeling)

    samples = []
    for (traj, _, clouds, images), labels in zip(drives, norm.maps):
        samples.extend(build_samples(traj, labels, clouds, images, layout))
    return samples
