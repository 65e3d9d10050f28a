"""Each module's ``__all__`` lists exactly its public top-level functions
and classes, plus public constants it chooses to export."""

import ast
import importlib
import inspect
import pathlib
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


# Public functions that no code in src/ calls, each with the reason it stays.
UNREFERENCED_ALLOWED = {
    "specflow.constant_path": "test instrument: a path with a constant sample",
    "specflow.concat_paths": "test instrument: concatenation additivity of the flow",
    "specflow.conjugated_path": "test instrument: unitary invariance of the flow",
    "specflow.sf_partition": "public route; endpoint_identity runs its body directly",
    "dirac1d.kernel_vectors": "test instrument: the kernel basis behind the index",
    "scenarios.engineered_threshold_path": "test instrument: an index change at a known coupling",
    "opcore.banded_shift_template": "test instrument: a nesting-violating tower template",
    "callias.tower_family": "test instrument: the tower scenario's fibres at one dimension",
    "surgery.cylindrical_end": "paper surgery awaiting a scenario check",
    "surgery.collar_flatten": "paper surgery awaiting a scenario check",
}


def _unreferenced_public_functions():
    """Names module.f of the functions in a module's __all__ that no
    Name or attribute in src/ refers to outside f's own definition;
    imports and __all__ entries do not count as references."""
    trees = {path.stem: ast.parse(path.read_text())
             for path in sorted(pathlib.Path(diracflow.__file__).parent.glob("*.py"))}
    nodes = [node for tree in trees.values() for node in ast.walk(tree)]
    unreferenced = set()
    for name in WITH_ALL:
        mod = importlib.import_module(f"diracflow.{name}")
        for fn in trees[name].body:
            if not (isinstance(fn, ast.FunctionDef) and fn.name in mod.__all__):
                continue
            own = {id(node) for node in ast.walk(fn)}
            if not any(id(node) not in own
                       and fn.name in (getattr(node, "id", None), getattr(node, "attr", None))
                       for node in nodes):
                unreferenced.add(f"{name}.{fn.name}")
    return unreferenced


def test_every_public_function_is_used_in_src_or_allowed():
    unreferenced = _unreferenced_public_functions()
    assert unreferenced <= set(UNREFERENCED_ALLOWED), sorted(
        unreferenced - set(UNREFERENCED_ALLOWED))
    # an allowlist entry whose function gained a caller or went away is stale
    assert set(UNREFERENCED_ALLOWED) <= unreferenced, sorted(
        set(UNREFERENCED_ALLOWED) - unreferenced)
