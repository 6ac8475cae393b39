"""marscost: synthetic rover traversability pipeline.

Simulates a rover over procedural terrain, derives continuous traversability
cost labels from IMU signals, fuses LiDAR BEV features with a global image
embedding, trains a small costmap regressor, and evaluates robustness under
input corruptions.
"""

__version__ = "0.1.0"


def _pin_one_blas_thread() -> None:
    """Put BLAS on one thread: threaded GEMMs round differently, so the thread count would
    change trained weights. Sets the thread variables before numpy loads, else tells
    numpy's bundled scipy-openblas; any other BLAS is left alone."""
    import os
    import sys
    from pathlib import Path

    if "numpy" not in sys.modules:
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            os.environ[var] = "1"
        return
    import ctypes

    libs = Path(sys.modules["numpy"].__file__).parent.parent / "numpy.libs"
    for lib in libs.glob("libscipy_openblas*"):
        set_threads = getattr(ctypes.CDLL(str(lib)), "scipy_openblas_set_num_threads64_", None)
        if set_threads:
            set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
            set_threads(1)


_pin_one_blas_thread()

from .bev import PillarTensor, embed_image, pillarize
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
from .heightfield import Heightfield, generate_heightfield, load_heightfield
from .labeling import (
    LabelingConfig,
    bin_trajectory,
    build_labels,
    cell_costs,
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
