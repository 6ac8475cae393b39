"""Every function the benchmark traces is still defined where the benchmark looks for it.

The traced benchmark wraps ``marscost.<module>.<attr>`` for each target in
``perfbench/layers.py``; a rename or removal there would silently drop a
traced layer. Its hooks also read some arguments by position, so those
must keep their place and name; the first test only imports the target
list. The workloads' own calls into marscost must still bind to the
signatures they name. What the benchmark counts also rests on which traced
function calls which: the last tests pin those calls.
"""

import importlib
import inspect
from pathlib import Path

import numpy as np
import pytest

import marscost.bev
import marscost.dataset
import marscost.heightfield
import marscost.io
import marscost.labeling
import marscost.net
import marscost.ops
import marscost.simulate
import marscost.train
import marscost.types
from marscost.evaluation import AblationSpec, apply_ablation

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_every_traced_target_resolves(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    layers = importlib.import_module("layers")
    assert layers.TARGETS
    for target in layers.TARGETS:
        module, attr = target.path.rsplit(".", 1)
        func = getattr(importlib.import_module(f"marscost.{module}"), attr, None)
        assert callable(func), f"traced target {target.path} is not a marscost function"


# (target, index, name) of each argument perfbench/layers.py and workloads.py read by position
POSITIONAL_READS = [
    ("bev.pillarize", 0, "cloud"),
    ("dataset.build_samples", 2, "clouds"),
    ("dataset.build_samples", 3, "images"),
    ("ops.conv2d_backward", 0, "cache"),
    ("simulate.simulate_lidar", 0, "hf"),
    ("simulate.simulate_lidar", 1, "pose"),
    ("net.loss_and_grads", 1, "batch"),
]


@pytest.mark.parametrize("path, index, name", POSITIONAL_READS)
def test_benchmark_positional_arguments_keep_their_place(path, index, name):
    module, attr = path.rsplit(".", 1)
    func = getattr(importlib.import_module(f"marscost.{module}"), attr)
    params = list(inspect.signature(func).parameters)
    assert params[index : index + 1] == [name], f"{path} parameters are now {params}"


# each call perfbench/workloads.py makes into marscost, as (function, args, keywords);
# strings stand in for the values, which binding does not look at
BENCHMARK_CALLS = {
    "predict": ("evaluation.predict", ("params", "sample"), {}),
    "run_ablation_suite": ("evaluation.run_ablation_suite", ("params", "dataset", "specs"), {}),
    "fit": ("train.fit", ("dataset", "cfg", "net"), {}),
    "split_samples": ("dataset.split_samples", ("samples", 0.25), {"seed": 11}),
    "synthesize_dataset": ("dataset.synthesize_dataset", (11,), {"n_runs": 4}),
    "synthesize_dataset_smoke": ("dataset.synthesize_dataset", (11,), "SMOKE_DATASET"),
    "AblationSpec": ("evaluation.AblationSpec", ("baseline",), {"seed": 3}),
    "AugmentConfig": ("train.AugmentConfig", (),
                      {"rotate": False, "translate": False, "noise_sigma": 0.0}),
}


@pytest.mark.parametrize("call", list(BENCHMARK_CALLS))
def test_benchmark_calls_keep_their_shape(monkeypatch, call):
    path, args, kwargs = BENCHMARK_CALLS[call]
    if kwargs == "SMOKE_DATASET":
        monkeypatch.syspath_prepend(str(PERFBENCH))
        kwargs = importlib.import_module("workloads").SMOKE_DATASET
    module, attr = path.rsplit(".", 1)
    func = getattr(importlib.import_module(f"marscost.{module}"), attr)
    inspect.signature(func).bind(*args, **kwargs)  # a TypeError names what no longer fits


def test_adam_step_returns_params_and_a_state_counting_steps():
    """The ``learn`` workload's ``train.adam_step`` hook unpacks the result as
    ``(params, state)`` and runs its interim passes on ``state.k``."""
    params = marscost.net.init_params(marscost.net.NetConfig(1, 1, 1, 1, 1, 1), seed=0)
    state = marscost.train.AdamState.fresh(params)
    zero = params.like(np.zeros_like(params.theta))
    for step in (1, 2, 3):
        result = marscost.train.adam_step(params, zero, state, 1e-3)
        assert isinstance(result, tuple) and len(result) == 2
        params, state = result
        assert isinstance(state.k, int) and state.k == step


def test_build_labels_returns_the_sparse_and_dense_maps():
    """The ``labeling.build_labels`` hook counts ``result[1].valid`` as labeled fine cells."""
    hf = marscost.heightfield.generate_heightfield(seed=2, rows=24, cols=24, cell_size=0.25, roughness=0.5)
    traj = marscost.simulate.generate_trajectory(hf, [(1.0, 1.0), (4.0, 4.0)], 1.0, 0.1)
    imu = marscost.simulate.synthesize_imu(traj, hf, seed=0)
    result = marscost.labeling.build_labels(traj, imu, marscost.labeling.LabelingConfig())
    assert isinstance(result, tuple) and len(result) == 2
    sparse, dense = result
    assert isinstance(sparse, marscost.types.SparseCostmap) and len(sparse) > 0
    assert isinstance(dense, marscost.types.DenseCostmap)
    assert dense.valid.dtype == bool and 0 < np.count_nonzero(dense.valid) < dense.valid.size


@pytest.mark.parametrize("k, stride", [(3, 1), (1, 1), (3, 2)])
def test_conv_backward_does_not_call_the_traced_forward(monkeypatch, k, stride):
    """A traced run books ``ops.conv2d_forward`` as forward time and forward
    flops; the backward pass must not reach it through that attribute."""
    rng = np.random.default_rng(stride)
    _, cache = marscost.ops.conv2d_forward(rng.normal(0, 1, (9, 8, 3)), rng.normal(0, 1, (k, k, 3, 4)),
                                           np.zeros(4), stride=stride, pad=1)
    calls = []
    forward = marscost.ops.conv2d_forward
    monkeypatch.setattr(marscost.ops, "conv2d_forward", lambda *a, **kw: calls.append(a) or forward(*a, **kw))
    dx, _, _ = marscost.ops.conv2d_backward(cache, rng.normal(0, 1, (*cache["out_hw"], 4)))
    assert dx.shape == (9, 8, 3) and calls == []


def _counting(calls, func):
    def count(*args, **kwargs):
        calls.append(args)
        return func(*args, **kwargs)

    return count


def test_each_sensor_casts_once_through_the_module_attribute(monkeypatch):
    """``synth`` splits camera from LiDAR rays by the traced ``render_camera`` or
    ``simulate_lidar`` span around each ``simulate.march_rays`` call."""
    hf = marscost.heightfield.generate_heightfield(seed=2, rows=24, cols=24, cell_size=0.25, roughness=0.5)
    pose = marscost.simulate.generate_trajectory(hf, [(1.0, 1.0), (4.0, 4.0)], 1.0, 0.5)[2]
    calls = []
    monkeypatch.setattr(marscost.simulate, "march_rays", _counting(calls, marscost.simulate.march_rays))
    marscost.simulate.simulate_lidar(hf, pose, 64, 10.0, seed=1)
    assert len(calls) == 1 and calls[0][2].shape == (64, 3)
    marscost.simulate.render_camera(hf, pose, 6, 9)
    assert len(calls) == 2 and calls[1][2].shape == (54, 3)


def test_simulate_run_senses_each_frame_once(monkeypatch):
    """``synth`` counts frames from the ``simulate_lidar`` and ``render_camera``
    calls that ``dataset.simulate_run`` makes."""
    hf = marscost.heightfield.generate_heightfield(seed=2, rows=24, cols=24, cell_size=0.25, roughness=0.5)
    sim = marscost.dataset.SimConfig(lidar_rays=32, camera_h_px=4, camera_w_px=6, sensor_stride=3)
    lidar, camera = [], []
    monkeypatch.setattr(marscost.dataset, "simulate_lidar", _counting(lidar, marscost.dataset.simulate_lidar))
    monkeypatch.setattr(marscost.dataset, "render_camera", _counting(camera, marscost.dataset.render_camera))
    traj, _, clouds, images = marscost.dataset.simulate_run(hf, [(1.0, 1.0), (4.5, 3.0)], sim, 0, 0)
    frames = list(range(0, len(traj), 3))
    assert len(frames) > 3 and sorted(clouds) == sorted(images) == frames
    times = [traj.times[k] for k in frames]
    assert [args[1].t for args in lidar] == [args[1].t for args in camera] == times


def _sensed_run():
    hf = marscost.heightfield.generate_heightfield(seed=2, rows=24, cols=24, cell_size=0.25, roughness=0.5)
    sim = marscost.dataset.SimConfig(lidar_rays=32, camera_h_px=4, camera_w_px=6, sensor_stride=3)
    return marscost.dataset.simulate_run(hf, [(1.0, 1.0), (4.5, 3.0)], sim, 0, 0)


# ``dataset.frames_sensed`` counts the frames of the ``clouds`` and ``images`` of
# each ``build_samples`` call; the next two tests keep that every frame sensed


def test_read_run_dir_returns_one_frame_set(tmp_path):
    traj, imu, clouds, images = _sensed_run()
    marscost.io.write_run_dir(tmp_path / "run", traj, imu, clouds, images)
    _, read_clouds, read_images = marscost.io.read_run_dir(tmp_path / "run")
    assert read_clouds.keys() == read_images.keys() == clouds.keys()


def test_build_samples_rejects_unpaired_frames():
    traj, imu, clouds, images = _sensed_run()
    labels = marscost.labeling.build_labels(traj, imu, marscost.labeling.LabelingConfig())[1]
    layout = marscost.dataset.BevLayout(size=8, resolution=0.2)
    assert marscost.dataset.build_samples(traj, labels, clouds, images, layout)
    lone = dict(images)
    del lone[max(lone)]
    with pytest.raises(ValueError, match=rf"frames \[{max(images)}\]"):
        marscost.dataset.build_samples(traj, labels, clouds, lone, layout)


def test_recoloured_clouds_keep_the_clean_points_and_their_pillar_counts(monkeypatch):
    """``learn``'s inference p50 rests on the two recolouring modes reusing the
    clean cloud's ``xyz`` and its pillar grouping, and the ``bev.pillarize``
    hook counts ``len(cloud)``, ``n_outside`` and ``n_dropped`` of each call."""
    rng = np.random.default_rng(4)
    grid = marscost.types.GridSpec((0.0, 0.0), 0.5, 6, 6)
    cloud = marscost.types.PointCloud(rng.uniform(-1.0, 4.0, (80, 3)), rng.uniform(0, 1, (80, 3)))
    image = marscost.types.Image(rng.uniform(0, 1, (4, 6, 3)))
    sample = marscost.types.Sample(cloud, image, marscost.types.DenseCostmap(grid, np.zeros((6, 6))))
    builds = []
    monkeypatch.setattr(marscost.bev, "_pillarize", _counting(builds, marscost.bev._pillarize))
    clean = marscost.bev.pillarize(cloud, grid, 2)
    assert clean.n_outside > 0 and clean.n_dropped > 0
    for mode in ("no_color_pointcloud", "no_image_encoder"):
        recoloured = apply_ablation(sample, AblationSpec(mode)).cloud
        assert recoloured is not cloud and recoloured.xyz is cloud.xyz
        pt = marscost.bev.pillarize(recoloured, grid, 2)
        assert pt.indices is clean.indices and pt.counts is clean.counts
        assert (len(recoloured), pt.n_outside, pt.n_dropped) == (80, clean.n_outside, clean.n_dropped)
    assert len(builds) == 1
