"""Each module's ``__all__`` lists exactly its public top-level functions
and classes, plus public constants it chooses to export; src/ calls every
public function, and sets every defaulted parameter of one, unless an
allowlist below gives the reason it stays."""

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
    "opcore.banded_shift_template": "test instrument: a bounded, nested tower perturbation",
    "callias.tower_family": "test instrument: the tower scenario's fibres at one dimension",
}


def _source_trees():
    """The parsed modules of src/, by module name."""
    return {path.stem: ast.parse(path.read_text())
            for path in sorted(pathlib.Path(diracflow.__file__).parent.glob("*.py"))}


def _public_functions(trees):
    """(module, f) -> the definition of each function in a module's __all__."""
    return {(name, fn.name): fn for name in WITH_ALL for fn in trees[name].body
            if isinstance(fn, ast.FunctionDef)
            and fn.name in importlib.import_module(f"diracflow.{name}").__all__}


def _unreferenced_public_functions():
    """Names module.f of the functions in a module's __all__ that no
    Name or attribute in src/ refers to outside f's own definition;
    imports and __all__ entries do not count as references."""
    trees = _source_trees()
    nodes = [node for tree in trees.values() for node in ast.walk(tree)]
    unreferenced = set()
    for (name, _), fn in _public_functions(trees).items():
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


_BUILDER_DATA = "data of a path builder, which tests choose"

# Defaulted parameters of public functions that no call in src/ sets, each
# with the reason it stays a parameter rather than a constant.
UNSET_PARAMETERS_ALLOWED = {
    "callias.rhs_pairing.reference": "tests vary it: the pairing's independence of the "
                                     "reference and the error for a singular one",
    "dirac1d.fredholm_bounds.k_hat": "tests place the paper's compact region between samples",
    "scenarios.chain_path.n_samples": _BUILDER_DATA,
    "scenarios.engineered_threshold_path.alpha": "test instrument: the threshold it engineers",
    "scenarios.engineered_threshold_path.n_samples": _BUILDER_DATA,
    "specflow.constant_path.span": _BUILDER_DATA,
    "specflow.constant_path.n_samples": _BUILDER_DATA,
    "specflow.tanh_path.span": _BUILDER_DATA,
    "specflow.tanh_path.n_samples": _BUILDER_DATA,
    "specflow.random_smooth_path.span": _BUILDER_DATA,
    "specflow.sf_partition.n_chunks": "tests check that the flow does not depend on the partition",
}


def _callee(module, local, func):
    """(module, name) of the function a call in ``module`` names, by a bare
    name or as module.name; None when it names neither.  ``local`` maps
    the module's imported names to (module, name), or (module, None) for
    an imported module."""
    if isinstance(func, ast.Name):
        return local.get(func.id, (module, func.id))
    if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
        target, name = local.get(func.value.id, (None, ""))
        if target is not None and name is None:
            return target, func.attr
    return None


def _defaults(fn):
    """Parameter name -> default expression of a function definition."""
    args = fn.args
    positional = args.posonlyargs + args.args
    pairs = list(zip(positional[len(positional) - len(args.defaults):], args.defaults))
    pairs += [(a, d) for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
    return {a.arg: d for a, d in pairs}


def _unset_defaulted_parameters():
    """Names module.f.p of the defaulted parameters p of the functions f in
    a module's __all__ that no call in src/ outside f's own definition
    sets, by position or by keyword; a call with *args or **kwargs sets
    every parameter, and passing p its own default expression does not
    set it."""
    trees = _source_trees()
    public = _public_functions(trees)
    defaults = {key: _defaults(fn) for key, fn in public.items()}
    given = {key: set() for key in public}
    for module, tree in trees.items():
        local = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                local.update((alias.asname or alias.name,
                              (node.module, alias.name) if node.module else (alias.name, None))
                             for alias in node.names)
        for top in tree.body:
            for node in ast.walk(top):
                key = _callee(module, local, node.func) if isinstance(node, ast.Call) else None
                if key not in public or public[key] is top:
                    continue
                fn = public[key].args
                names = [a.arg for a in fn.posonlyargs + fn.args + fn.kwonlyargs]
                if any(isinstance(a, ast.Starred) for a in node.args) \
                        or any(kw.arg is None for kw in node.keywords):
                    given[key].update(names)
                passed = list(zip(names, node.args)) + [(kw.arg, kw.value)
                                                        for kw in node.keywords]
                default = defaults[key]
                given[key].update(name for name, value in passed
                                  if name not in default
                                  or ast.dump(value) != ast.dump(default[name]))
    return {f"{module}.{name}.{param}" for (module, name), default in defaults.items()
            for param in default if param not in given[(module, name)]}


def test_every_defaulted_parameter_is_set_in_src_or_allowed():
    unset = _unset_defaulted_parameters()
    assert unset <= set(UNSET_PARAMETERS_ALLOWED), sorted(
        unset - set(UNSET_PARAMETERS_ALLOWED))
    # an entry whose parameter gained a caller or went away is stale
    assert set(UNSET_PARAMETERS_ALLOWED) <= unset, sorted(
        set(UNSET_PARAMETERS_ALLOWED) - unset)
