"""The traced benchmark run wraps wsqopt functions by name and reads some of
their arguments by name and position; this guards both against renames."""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "wsbench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("wsbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_layer_resolves(tracing):
    for module, function, _ in tracing.LAYERS:
        target = getattr(importlib.import_module(f"wsqopt.{module}"), function, None)
        assert callable(target), f"wsqopt.{module}.{function}"


@pytest.mark.parametrize(
    "module, function, position, name",
    [
        ("variational", "grid_search", 1, "spec"),
        ("relaxation", "gw_best_cuts", 1, "n_samples"),
        ("simulator", "energy_table", 0, "ising"),
    ],
)
def test_counted_arguments_are_in_place(module, function, position, name):
    target = getattr(importlib.import_module(f"wsqopt.{module}"), function)
    assert list(inspect.signature(target).parameters)[position] == name
