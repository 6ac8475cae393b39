import numpy as np
import pytest

from marscost.dataset import BevLayout, SimConfig
from marscost.evaluation import AblationSpec
from marscost.heightfield import Heightfield, generate_heightfield
from marscost.labeling import LabelingConfig, sparse_kernel
from marscost.net import huber_loss, smoothness_loss
from marscost.simulate import generate_trajectory, march_rays, simulate_lidar
from marscost.train import AugmentConfig
from marscost.types import GridSpec, Pose

NAN = float("nan")
FIELD = Heightfield(np.zeros((8, 8)), 0.5)
POSE = Pose(0.0, [1.0, 1.0, 1.0], [1.0, 0.0, 0.0, 0.0])
MAP = np.zeros((2, 2))

# each call passes a NaN where the library requires a positive (or nonnegative) number,
# or an infinite range, which a ray that never settles would march forever
NAN_CALLS = {
    "Heightfield.cell_size": lambda: Heightfield(np.zeros((4, 4)), NAN),
    "generate_heightfield.cell_size": lambda: generate_heightfield(1, 8, 8, NAN, 0.5),
    "GridSpec.resolution": lambda: GridSpec((0.0, 0.0), NAN, 2, 2),
    "GridSpec.origin": lambda: GridSpec((NAN, 0.0), 1.0, 2, 2),
    "BevLayout.resolution": lambda: BevLayout(resolution=NAN),
    "SimConfig.speed": lambda: SimConfig(speed=NAN),
    "SimConfig.imu_noise_scale": lambda: SimConfig(imu_noise_scale=NAN),
    "simulate_lidar.max_range": lambda: simulate_lidar(FIELD, POSE, 10, NAN),
    "march_rays.max_range": lambda: march_rays(FIELD, [1.0, 1.0, 1.0], [[0.0, 0.0, -1.0]], NAN),
    "march_rays.max_range=inf": lambda: march_rays(FIELD, [1.0, 1.0, 1.0], [[0.0, 0.0, -1.0]], np.inf),
    "simulate_lidar.max_range=inf": lambda: simulate_lidar(FIELD, POSE, 10, np.inf),
    "generate_trajectory.speed": lambda: generate_trajectory(FIELD, [(1, 1), (3, 3)], NAN, 0.1),
    "generate_trajectory.dt": lambda: generate_trajectory(FIELD, [(1, 1), (3, 3)], 1.0, NAN),
    "LabelingConfig.kernel_radius": lambda: LabelingConfig(kernel_radius=NAN),
    "sparse_kernel.r": lambda: sparse_kernel(0.5, NAN),
    "huber_loss.delta": lambda: huber_loss(MAP, MAP, MAP == 0.0, NAN),
    "smoothness_loss.lam": lambda: smoothness_loss(MAP, NAN),
    "AblationSpec.noise_sigma_image": lambda: AblationSpec("baseline", noise_sigma_image=NAN),
    "AugmentConfig.noise_sigma": lambda: AugmentConfig(noise_sigma=NAN),
}


@pytest.mark.parametrize("call", sorted(NAN_CALLS))
def test_nan_fails_positivity_checks(call):
    with pytest.raises(ValueError, match="positive|nonnegative|finite"):
        NAN_CALLS[call]()
