"""Every public name a qcwalk module lists in ``__all__`` exists, once."""

import importlib

import pytest

MODULES = ("graph", "config", "spectral", "walks", "distance", "checks", "cli")


@pytest.mark.parametrize("name", MODULES)
def test_all_names_exist_once(name):
    mod = importlib.import_module(f"qcwalk.{name}")
    assert len(mod.__all__) == len(set(mod.__all__)), f"qcwalk.{name}.__all__ repeats a name"
    missing = [attr for attr in mod.__all__ if not hasattr(mod, attr)]
    assert not missing, f"qcwalk.{name}.__all__ lists missing names {missing}"


@pytest.mark.parametrize(
    "name, attr",
    [
        ("spectral", "heat_propagator"),
        ("spectral", "unitary_propagator"),
        ("walks", "time_blocks"),
        ("walks", "reduce_propagators"),
        ("walks", "node_observables"),
    ],
)
def test_grid_kernel_steps_are_public(name, attr):
    # a traced run wraps each module's __all__, so every step of a block is attributed to its layer
    assert attr in importlib.import_module(f"qcwalk.{name}").__all__
