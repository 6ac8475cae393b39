import numpy as np
import pytest

from marscost.heightfield import Heightfield, generate_heightfield
from marscost.net import (
    NetConfig,
    forward_cached,
    huber_loss,
    init_params,
    smoothness_loss,
)
from marscost.types import DenseCostmap, GridSpec, Image, PointCloud, Sample

TOY_NET = NetConfig(
    channels=4,
    stage2_channels=4,
    stage3_channels=6,
    film_hidden=4,
    head_channels=8,
    max_points_per_pillar=8,
)


@pytest.fixture
def flat_field():
    z = np.full((32, 32), 1.5)
    return Heightfield(z, 0.25)


@pytest.fixture
def rough_field():
    return generate_heightfield(seed=7, rows=48, cols=48, cell_size=0.2, roughness=0.7)


def make_toy_instance(seed: int, grid_size: int = 16, n_extra: int = 40):
    """Deterministic network + sample used by the gradient checks.

    The cloud covers every cell (plus extras) and parameters come from
    :func:`init_params`, whose nonzero biases keep pre-activations away from
    the exact ReLU corner; seeds are chosen so no finite-difference step
    crosses a kink.
    """
    params = init_params(TOY_NET, seed=seed)
    rng = np.random.default_rng(seed + 1000)
    res = 0.25
    grid = GridSpec((0.0, 0.0), res, grid_size, grid_size)
    xs, ys = np.meshgrid((np.arange(grid_size) + 0.5) * res, (np.arange(grid_size) + 0.5) * res)
    base = np.column_stack([xs.ravel(), ys.ravel()])
    xy = np.vstack(
        [base + rng.uniform(-0.1, 0.1, base.shape), rng.uniform(0, grid_size * res, (n_extra, 2))]
    )
    xyz = np.column_stack([xy, rng.uniform(-0.3, 0.5, len(xy))])
    cloud = PointCloud(xyz, rng.uniform(0, 1, (len(xy), 3)))
    image = Image(rng.uniform(0, 1, (12, 16, 3)))
    target = DenseCostmap(
        grid,
        rng.uniform(0.1, 0.9, (grid_size, grid_size)),
        rng.uniform(0, 1, (grid_size, grid_size)) > 0.35,
    )
    return params, Sample(cloud, image, target)


def random_sample(seed: int, grid_size: int = 12, n_points: int = 60) -> Sample:
    rng = np.random.default_rng(seed)
    res = 0.25
    grid = GridSpec((0.0, 0.0), res, grid_size, grid_size)
    xyz = np.column_stack(
        [rng.uniform(0, grid_size * res, (n_points, 2)), rng.uniform(-0.4, 0.6, n_points)]
    )
    cloud = PointCloud(xyz, rng.uniform(0, 1, (n_points, 3)))
    image = Image(rng.uniform(0, 1, (10, 14, 3)))
    target = DenseCostmap(
        grid,
        rng.uniform(0, 1, (grid_size, grid_size)),
        rng.uniform(0, 1, (grid_size, grid_size)) > 0.3,
    )
    return Sample(cloud, image, target)


def sample_loss(params, sample: Sample, delta: float, lam: float) -> float:
    """Huber + smoothness of one sample, forward only: the loss that the
    finite-difference gradient checks perturb."""
    values, _ = forward_cached(params, sample.cloud, sample.image, sample.target.grid)
    hub, _ = huber_loss(values, sample.target.values, sample.target.valid, delta)
    smo, _ = smoothness_loss(values, lam)
    return hub + smo
