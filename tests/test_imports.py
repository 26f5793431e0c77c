"""Import hygiene: every name a module imports is referenced in it, every
module-level private name is loaded somewhere in the package, and the
package imports nothing outside its declared runtime dependencies."""

import ast
import pathlib
import sys

import pytest

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "rotordyn"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """Names bound by import statements and never loaded as a name."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(name for name in imported if name not in used)


def test_checker_flags_unused_imports():
    source = ("from __future__ import annotations\n"
              "import math\nimport os.path\nimport numpy as np\n"
              "from .kinematics import rotation, skew as s\n"
              "x = np.zeros(3)\ny = os.path.join\n")
    assert unused_imports(source) == ["math", "rotation", "s"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    assert unused_imports(path.read_text()) == []


# pyproject.toml declares numpy as the one runtime dependency
RUNTIME_MODULES = set(sys.stdlib_module_names) | {"numpy", "rotordyn"}


def absolute_imports(source: str) -> set[str]:
    """Top-level modules an absolute import names."""
    imported = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            imported |= {a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            imported.add(node.module.split(".")[0])
    return imported


def undeclared_imports(source: str) -> list[str]:
    """Top-level modules an absolute import names that are not the
    standard library, numpy or the package itself."""
    return sorted(absolute_imports(source) - RUNTIME_MODULES)


def test_checker_flags_undeclared_imports():
    source = ("import os.path, numpy as np\nimport scipy.linalg\n"
              "from sympy import Matrix\nfrom . import fast\n"
              "from .kinematics import skew\nfrom rotordyn import lab\n"
              "def f():\n    import pandas\n")
    assert undeclared_imports(source) == ["pandas", "scipy", "sympy"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda p: p.name)
def test_imports_only_declared_runtime_dependencies(path):
    assert undeclared_imports(path.read_text()) == []


def test_fast_kernels_import_no_numpy():
    """The fast kernels are float code only: ``lab.simulate_model`` turns
    an ndarray rotor input into floats before a kernel sees it."""
    assert "numpy" not in absolute_imports((SRC / "fast.py").read_text())


def parameters_with_defaults(source: str) -> list[str]:
    """``function.parameter`` for every parameter, positional or keyword
    only, that has a default, in every function of ``source``: nested
    functions and lambdas too."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.Lambda)):
            args = node.args
            positional = args.posonlyargs + args.args
            defaulted = positional[len(positional) - len(args.defaults):]
            defaulted += [a for a, d in zip(args.kwonlyargs,
                                            args.kw_defaults) if d is not None]
            name = getattr(node, "name", "<lambda>")
            found += [f"{name}.{a.arg}" for a in defaulted]
    return sorted(found)


def test_checker_flags_parameter_defaults():
    source = ("def plain(y, u, params, *rest, **kw): pass\n"
              "def opt(y, u=None, /, w=0.0, *, k=1, m): pass\n"
              "def outer(a):\n    def inner(b, c=2): pass\n"
              "f = lambda x, s=0.0: x\n")
    assert parameters_with_defaults(source) == [
        "<lambda>.s", "inner.c", "opt.k", "opt.u", "opt.w"]


def test_fast_kernels_have_no_optional_parameter():
    """Every caller of a fast kernel passes every argument: the plant's
    rotor momentum h, too, is an argument and not a default."""
    assert parameters_with_defaults((SRC / "fast.py").read_text()) == []


def loaded_names(tree, own=frozenset()) -> set[str]:
    """Names a module loads: as a name, an attribute or an import.  A name
    in ``own`` counts only as an attribute or an import."""
    loaded = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            if node.id not in own:
                loaded.add(node.id)
        elif isinstance(node, ast.Attribute):
            loaded.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            loaded.update(a.name for a in node.names)
    return loaded


def bound_names(tree) -> list[str]:
    """Names a module binds at module level by def, class or assignment."""
    bound = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            bound.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target])
            bound += [n.id for t in targets for n in ast.walk(t)
                      if isinstance(n, ast.Name)]
    return bound


def unused_private_names(modules: dict[str, str]) -> list[str]:
    """Private names (``_x``) bound at module level in one module and
    loaded nowhere in the package: not as a name, an attribute or an
    import."""
    trees = {name: ast.parse(source) for name, source in modules.items()}
    loaded = set().union(*map(loaded_names, trees.values()))
    return sorted(f"{name}.{b}" for name, tree in trees.items()
                  for b in bound_names(tree)
                  if b.startswith("_") and not b.startswith("__")
                  and b not in loaded)


def test_checker_flags_unused_private_names():
    modules = {"a": "def _used(): pass\ndef _dead(): pass\n_X = 1\n"
                    "_Y, z = 2, 3\n",
               "b": "from .a import _used\nprint(a._X)\n"}
    assert unused_private_names(modules) == ["a._Y", "a._dead"]


def test_every_private_name_is_used():
    modules = {p.stem: p.read_text() for p in SRC.glob("*.py")}
    assert unused_private_names(modules) == []


def uncalled_public_functions(module: str, modules: dict[str, str],
                              within: bool = False) -> list[str]:
    """Public module-level functions of ``module`` that no other module
    loads: a kernel only the tests reach.  A name another module binds at
    module level itself (``step = _step``) is its own, so only an import
    or an attribute load of it counts there.  With ``within``, a load in
    ``module`` itself counts too, outside the function's own body."""
    trees = [ast.parse(source) for name, source in modules.items()
             if name != module]
    others = set().union(*(loaded_names(tree, set(bound_names(tree)))
                           for tree in trees))
    body = ast.parse(modules[module]).body
    functions = [node for node in body if isinstance(node, ast.FunctionDef)
                 and not node.name.startswith("_")]

    def used(fn):
        return fn.name in others or within and any(
            fn.name in loaded_names(node) for node in body if node is not fn)
    return sorted(fn.name for fn in functions if not used(fn))


def test_checker_flags_uncalled_public_functions():
    modules = {"fast": "def used(): pass\ndef dead(): pass\n"
                       "def _private(): pass\ndef by_attr(): pass\n"
                       "def self_only(): dead()\n"
                       "def recursive(): recursive()\n",
               "lab": "from .fast import used\nf = fast.by_attr\n"}
    assert uncalled_public_functions("fast", modules) == [
        "dead", "recursive", "self_only"]
    assert uncalled_public_functions("fast", modules, within=True) == [
        "recursive", "self_only"]


def test_checker_does_not_count_a_same_named_binding_as_a_caller():
    # control binding its own step = _step loads that binding, not
    # integrators.step; an import or an attribute load still counts
    modules = {"integrators": "def _step(): pass\ndef step(): pass\n"
                              "def march(): pass\ndef simulate(): pass\n",
               "control": "from .integrators import _step, march\n"
                          "step = _step\nmarch(step)\n"
                          "def run(): step()\n",
               "lab": "simulate = integrators.simulate\nsimulate()\n"}
    assert uncalled_public_functions("integrators", modules) == ["step"]


def test_every_fast_kernel_has_a_caller_in_the_package():
    modules = {p.stem: p.read_text() for p in SRC.glob("*.py")}
    assert uncalled_public_functions("fast", modules) == []


def test_every_kinematics_function_has_a_caller_in_the_package():
    modules = {p.stem: p.read_text() for p in SRC.glob("*.py")}
    assert uncalled_public_functions("kinematics", modules, within=True) == []


# Public functions that stay with no caller in the package: the readable
# matrix-form spec in ``models``, each with a test that calls it.
SPEC_ONLY = {
    "models": {
        "gen_to_body": "test_models.py::TestStateConversions::test_roundtrip",
        "ne_attitude_in_eta":
            "test_acceptance.py::test_criterion_2_equivalence_proof",
        "rotated_inertia":
            "test_models.py::TestRotatedInertia::test_closed_form_321",
    },
}


@pytest.mark.parametrize("module",
                         ["control", "lab", "integrators", "cli", "models"])
def test_every_public_function_has_a_caller_in_the_package(module):
    modules = {p.stem: p.read_text() for p in SRC.glob("*.py")}
    assert uncalled_public_functions(module, modules, within=True) == sorted(
        SPEC_ONLY.get(module, {}))


def defined_test(path: pathlib.Path, name: str) -> ast.FunctionDef:
    """The test ``name`` (``Class::test`` or ``test``) defined in ``path``."""
    scope = ast.parse(path.read_text()).body
    for part in name.split("::"):
        scope = next(node for node in scope
                     if isinstance(node, (ast.ClassDef, ast.FunctionDef))
                     and node.name == part)
        found, scope = scope, scope.body
    return found


@pytest.mark.parametrize("module, function", [
    (m, f) for m, spec in SPEC_ONLY.items() for f in spec])
def test_spec_only_functions_are_called_by_their_named_test(module, function):
    path, name = SPEC_ONLY[module][function].split("::", 1)
    node = defined_test(SRC.parents[1] / "tests" / path, name)
    assert function in loaded_names(node)


def test_only_integrators_loads_the_step_failure_policy():
    """``integrators.march`` alone classifies a failed step: no other
    module loads the runaway test or its reason."""
    loaders = {p.stem for p in SRC.glob("*.py")
               if {"_bad", "RUNAWAY"} & loaded_names(ast.parse(p.read_text()))}
    assert loaders == {"integrators"}
