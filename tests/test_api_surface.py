"""Each module's ``__all__`` lists exactly its public top-level functions
and classes, plus public constants it chooses to export."""

import importlib
import inspect
import pkgutil

import pytest

import diracflow

MODULES = sorted(info.name for info in pkgutil.iter_modules(diracflow.__path__))
WITH_ALL = [name for name in MODULES
            if hasattr(importlib.import_module(f"diracflow.{name}"), "__all__")]


def test_modules_with_a_public_list():
    assert WITH_ALL == ["callias", "dirac1d", "inequalities", "opcore", "relindex",
                        "reporting", "scenarios", "specflow", "surgery"]


@pytest.mark.parametrize("name", WITH_ALL)
def test_all_lists_the_public_functions_and_classes(name):
    mod = importlib.import_module(f"diracflow.{name}")
    defined = {attr for attr, obj in vars(mod).items()
               if not attr.startswith("_")
               and (inspect.isfunction(obj) or inspect.isclass(obj))
               and obj.__module__ == mod.__name__}
    listed = set(mod.__all__)
    assert len(mod.__all__) == len(listed), "duplicate names"
    assert listed >= defined, sorted(defined - listed)
    # every other listed name is a constant of the module
    for attr in listed - defined:
        obj = getattr(mod, attr)
        assert not (inspect.isfunction(obj) or inspect.isclass(obj)), attr


def test_package_exports_are_listed_by_their_modules():
    for attr, obj in vars(diracflow).items():
        if attr.startswith("_") or not (inspect.isfunction(obj) or inspect.isclass(obj)):
            continue
        mod = importlib.import_module(obj.__module__)
        if hasattr(mod, "__all__"):
            assert attr in mod.__all__, f"{mod.__name__}.{attr}"
