"""Every function the benchmark traces is still defined where the benchmark looks for it.

The traced benchmark wraps ``marscost.<module>.<attr>`` for each target in
``perfbench/layers.py``; a rename or removal there would silently drop a
traced layer. Its hooks also read some arguments by position, so those
must keep their place and name. This test only imports the target list.
"""

import importlib
import inspect
from pathlib import Path

import pytest

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
