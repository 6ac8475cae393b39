"""marscost: synthetic rover traversability pipeline.

Simulates a rover over procedural terrain, derives continuous traversability
cost labels from IMU signals, fuses LiDAR BEV features with a global image
embedding, trains a small costmap regressor, and evaluates robustness under
input corruptions.
"""

__version__ = "0.1.0"

from .bev import FilmParams, PillarTensor, embed_image, film_modulate, pillar_encode, pillarize
from .checkpoint import load_checkpoint, save_checkpoint
from .evaluation import (
    AblationSpec,
    MetricsReport,
    apply_ablation,
    export_costmap,
    import_costmap,
    mae,
    mse,
    run_ablation_suite,
)
from .heightfield import Heightfield, generate_heightfield, load_heightfield, sample_surface
from .labeling import (
    CellSamples,
    LabelingConfig,
    bin_trajectory,
    build_labels,
    cell_cost,
    interpolate_costmap,
    normalize_labels,
    sparse_kernel,
)
from .net import (
    ModelParams,
    NetConfig,
    forward,
    huber_loss,
    init_params,
    loss_and_grads,
    smoothness_loss,
)
from .simulate import generate_trajectory, render_camera, simulate_lidar, synthesize_imu
from .train import AdamState, AugmentConfig, TrainConfig, adam_step, augment, fit
from .types import (
    BevFeatureMap,
    DenseCostmap,
    GridSpec,
    Image,
    ImuLog,
    PointCloud,
    Pose,
    Sample,
    SparseCostmap,
    Trajectory,
)
