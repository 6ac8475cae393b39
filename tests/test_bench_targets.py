"""Every function the benchmark traces is still defined where the benchmark looks for it.

The traced benchmark wraps ``marscost.<module>.<attr>`` for each target in
``perfbench/layers.py``; a rename or removal there would silently drop a
traced layer. Its hooks also read some arguments by position, so those
must keep their place and name. This test only imports the target list.
"""

import importlib
import inspect
from pathlib import Path

import numpy as np
import pytest

import marscost.ops

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
