"""The ownership rule shared by every value type (see ``marscost.types._read_only``)."""

import dataclasses
import sys
from collections import Counter
from operator import attrgetter

import numpy as np
import pytest

from marscost import heightfield, types
from marscost.dataset import synthesize_dataset
from marscost.evaluation import ABLATION_MODES, AblationSpec, apply_ablation
from marscost.heightfield import Heightfield
from marscost.train import AugmentConfig, augment
from marscost.types import (
    DenseCostmap, GridSpec, Image, ImuLog, PointCloud, Pose, Sample, SparseCostmap, Trajectory,
)

GRID = GridSpec((0.0, 0.0), 0.5, 2, 3)
_U = np.random.default_rng(5).uniform(0.1, 0.9, 64)  # nonzero, so zeroing an input shows


def _u(*shape):
    return _U[: int(np.prod(shape))].reshape(shape)


# name: (build from the arrays, the arrays, where each array is held)
CASES = {
    "Pose": (lambda p, q: Pose(0.5, p, q), [_u(3), [1.0, 0.0, 0.0, 0.0]],
             ["position", "orientation"]),
    "Trajectory": (Trajectory, [[0.5, 1.0, 1.5], _u(3, 3), [[1.0, 0.0, 0.0, 0.0]] * 3],
                   ["times", "positions", "quaternions"]),
    "ImuLog": (ImuLog, [[0.5, 1.0], _u(2, 3), _u(2, 3)], ["times", "accel", "gyro"]),
    "PointCloud": (PointCloud, [_u(4, 3), _u(4, 3)], ["xyz", "rgb"]),
    "Image": (Image, [_u(3, 2, 3)], ["pixels"]),
    "SparseCostmap": (SparseCostmap, [_u(4, 2), _u(4)], ["xy", "tc"]),
    "DenseCostmap": (lambda v, m: DenseCostmap(GRID, v, m), [_u(2, 3), np.ones((2, 3), bool)],
                     ["values", "valid"]),
    "Sample": (lambda xyz, rgb, px, v, m: Sample(PointCloud(xyz, rgb), Image(px),
                                                 DenseCostmap(GRID, v, m)),
               [_u(4, 3), _u(4, 3), _u(3, 2, 3), _u(2, 3), np.ones((2, 3), bool)],
               ["cloud.xyz", "cloud.rgb", "image.pixels", "target.values", "target.valid"]),
    "Heightfield": (lambda z, c: Heightfield(z, 0.5, c), [_u(3, 3), _u(3, 3, 3)],
                    ["elevations", "colors"]),
}


def _made(name, prepare):
    build, arrays, paths = CASES[name]
    given = [prepare(np.array(a)) for a in arrays]
    obj = build(*given)
    return given, obj, [attrgetter(p)(obj) for p in paths]


def _read_only(a):
    a.flags.writeable = False
    return a


def _read_only_view(a):
    return _read_only(a.view())


def _bytes_buffer(a):
    return np.frombuffer(a.tobytes(), a.dtype).reshape(a.shape)


@pytest.mark.parametrize("name", CASES)
def test_value_types_hold_read_only_arrays_copied_only_when_writable(name):
    given, obj, held = _made(name, lambda a: a)
    for f in dataclasses.fields(obj):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(obj, f.name, getattr(obj, f.name))
    for g, h in zip(given, held):
        assert not h.flags.writeable and not np.shares_memory(g, h)
        with pytest.raises(ValueError, match="read-only"):
            h[...] = h
        before = g.copy()
        g[...] = 0  # the caller's array stays the caller's
        assert np.array_equal(h, before)
    given, _, held = _made(name, _read_only)  # nothing can write these: held as given
    assert all(np.shares_memory(g, h) for g, h in zip(given, held))
    for prepare in (_read_only_view, _bytes_buffer):  # read-only, but over writable memory
        given, _, held = _made(name, prepare)
        assert not any(np.shares_memory(g, h) for g, h in zip(given, held))
        assert all(not h.flags.writeable for h in held)


def test_every_array_holding_type_follows_the_rule():
    holding = {
        cls.__name__
        for module in (types, heightfield)
        for cls in vars(module).values()
        if dataclasses.is_dataclass(cls) and cls.__module__ == module.__name__
        and any(f.type is np.ndarray for f in dataclasses.fields(cls))
    }
    assert holding == set(CASES) - {"Sample"}


# functions that build fresh arrays for a value type and keep no reference to them
PRODUCERS = ("simulate_lidar", "render_camera", "localize_cloud", "build_labels",
             "generate_trajectory", "synthesize_imu", "generate_heightfield",
             "rotate_sample", "translate_sample", "sensor_noise", "apply_ablation")


def test_producers_hand_their_fresh_arrays_over_uncopied(monkeypatch):
    read_only = types._read_only
    copies = Counter()

    def counting(a, *args, **kwargs):
        held = read_only(a, *args, **kwargs)
        if held is not a:
            frame = sys._getframe(1)
            while frame is not None and frame.f_code.co_name not in PRODUCERS:
                frame = frame.f_back
            copies[frame and frame.f_code.co_name] += 1
        return held

    monkeypatch.setattr(types, "_read_only", counting)
    samples = synthesize_dataset(seed=11, n_runs=1)
    noisy = AugmentConfig(rotate=True, translate=True, noise_sigma=0.01)
    for i, s in enumerate(samples):
        augment(s, i, noisy)
        for mode in ABLATION_MODES:
            apply_ablation(s, AblationSpec(mode))
    assert {name: copies[name] for name in PRODUCERS} == dict.fromkeys(PRODUCERS, 0), copies


# an array of the wrong shape is an error, never reshaped into a plausible record
MISSHAPED = {
    "PointCloud.xyz": (lambda: PointCloud(np.arange(12.0).reshape(3, 4), np.full((4, 3), 0.5)),
                       r"xyz has shape \(3, 4\), expected \(3, 3\)"),
    "PointCloud.rgb": (lambda: PointCloud(np.zeros((4, 3)), np.full(12, 0.5)),
                       r"rgb has shape \(12,\), expected \(4, 3\)"),
    "SparseCostmap.xy": (lambda: SparseCostmap(np.zeros((2, 3)), np.zeros(3)),
                         r"xy has shape \(2, 3\), expected \(2, 2\)"),
    "SparseCostmap.tc": (lambda: SparseCostmap(np.zeros((3, 2)), np.zeros((3, 1))),
                         r"tc has shape \(3, 1\), expected \(3,\)"),
}


@pytest.mark.parametrize("case", MISSHAPED)
def test_misshaped_arrays_raise_naming_the_shape(case):
    build, message = MISSHAPED[case]
    with pytest.raises(ValueError, match=message):
        build()
