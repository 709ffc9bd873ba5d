"""Every package binding the benchmark wraps resolves, so a rename under ``src/`` fails here.

A traced benchmark run wraps each function that ``perfbench/layers.py``
names in ``make_layers()`` and each suite of ``verify.SUITES`` it lists.
This test only looks them up; it installs no wrapper.
"""

import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_benchmark_bindings_resolve(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    layers = importlib.import_module("layers")
    for layer in layers.make_layers():
        module = importlib.import_module(f"{layers.PACKAGE}.{layer.module}")
        owner, _, name = layer.attr.rpartition(".")
        target = vars(getattr(module, owner)).get(name) if owner else getattr(module, name, None)
        assert callable(target), layer.metric
    verify = importlib.import_module(f"{layers.PACKAGE}.verify")
    for name in layers.SUITES:
        assert callable(verify.SUITES.get(name)), name
