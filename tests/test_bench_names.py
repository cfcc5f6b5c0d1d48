"""The benchmark names package functions by their spelling: ``bench/layers.py``
traces them and ``bench/workloads.py`` imports them. A rename that breaks
``bench/run.py`` fails here in about a second instead of in the
benchmark's own minute-long tests."""

import importlib
import importlib.util
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TRACED = _load("layers").TRACED


@pytest.mark.parametrize("module, attribute", [(m, a) for _, m, a in TRACED], ids=[p for p, _, _ in TRACED])
def test_traced_function_resolves(module, attribute):
    target = importlib.import_module(module)
    for part in attribute.split("."):
        target = getattr(target, part)
    assert callable(target)


def test_workload_imports_resolve():
    _load("workloads")
