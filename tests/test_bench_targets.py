"""Every function the benchmark traces is still defined where the benchmark looks for it.

The traced benchmark wraps ``marscost.<module>.<attr>`` for each target in
``perfbench/layers.py``; a rename or removal there would silently drop a
traced layer. This test only imports the target list.
"""

import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_every_traced_target_resolves(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    layers = importlib.import_module("layers")
    assert layers.TARGETS
    for target in layers.TARGETS:
        module, attr = target.path.rsplit(".", 1)
        func = getattr(importlib.import_module(f"marscost.{module}"), attr, None)
        assert callable(func), f"traced target {target.path} is not a marscost function"
