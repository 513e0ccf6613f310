"""Every public name a qcwalk module lists in ``__all__`` exists, once, and every import is read.

Every ``qcwalk.<module>.<name>`` that the README or a docstring mentions resolves too.
"""

import ast
import importlib
import re
from pathlib import Path

import pytest

# The benchmark's span tracer imports these seven modules, one layer each, and wraps
# every function each lists in __all__, and the __post_init__ of each class listed
# there that defines one. The names are listed by hand here, as below, so the suite
# does not import the benchmark.
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
        ("spectral", "form_propagators"),
        ("spectral", "full_propagators"),
        ("spectral", "reduce_propagators"),
        ("walks", "time_blocks"),
        ("walks", "node_observables"),
    ],
)
def test_grid_kernel_steps_are_public(name, attr):
    # a traced run wraps each module's __all__, so every step of a block is attributed to its layer
    assert attr in importlib.import_module(f"qcwalk.{name}").__all__


# The benchmark's per-layer metrics count calls to these spectral names.
COUNTED_SPECTRAL_NAMES = ("eigendecompose",)


@pytest.mark.parametrize("name", MODULES)
def test_traced_modules_import_with_all(name):
    mod = importlib.import_module(f"qcwalk.{name}")
    assert isinstance(mod.__all__, (list, tuple)) and mod.__all__


@pytest.mark.parametrize("attr", COUNTED_SPECTRAL_NAMES)
def test_counted_spectral_names_stay_public(attr):
    assert attr in importlib.import_module("qcwalk.spectral").__all__


SRC = Path(__file__).resolve().parents[1] / "src" / "qcwalk"


# the package's __init__ imports names to re-export them, so it is left out
@pytest.mark.parametrize(
    "path", [p for p in sorted(SRC.glob("*.py")) if p.name != "__init__.py"], ids=lambda p: p.name
)
def test_no_module_imports_a_name_it_never_reads(path):
    # a deletion that leaves its imports behind fails here
    tree = ast.parse(path.read_text())
    imported = {
        (alias.asname or alias.name).split(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__"
        for alias in node.names
    }
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    assert not imported - read, f"{path.name} imports {sorted(imported - read)} and never reads them"


#: what reads the packed propagator layout: its cached arrays, its cutoff and a branch on it
LAYOUT_NAMES = re.compile(r"_pairs|pair_(products|index|incidence)|PAIR_PRODUCT_MAX_N|propagator_shape\) == 1")


@pytest.mark.parametrize(
    "path", [p for p in sorted(SRC.glob("*.py")) if p.name != "spectral.py"], ids=lambda p: p.name
)
def test_only_spectral_reads_the_propagator_layout(path):
    # the kernel and verify's checks read a formed stack through spectral's steps
    # (reduce_propagators, full_propagators), so a change of layout edits one module
    found = sorted({m.group(0) for m in LAYOUT_NAMES.finditer(path.read_text())})
    assert not found, f"{path.name} names {found}, which belong to qcwalk.spectral"


def test_checks_reads_the_propagator_pair_not_the_stack():
    # verify's checks read exp(L t) and exp(i L t) as full_propagators returns them and hand
    # the whole formed stack to the reduction, so they never rebuild the unitary or index a stack
    text = (SRC / "checks.py").read_text()
    found = [token for token in ("1j", "props[") if token in text]
    assert not found, f"checks.py contains {found}"


def test_checks_does_not_size_propagator_blocks():
    # the optimality sweep forms its whole grid at once, so verify's checks never size a
    # propagator block from the layout's entry count
    assert "propagator_shape" not in (SRC / "checks.py").read_text()


def _module_level_names(tree: ast.Module) -> set[str]:
    """Names a module binds at its top level by def, class or assignment (not by import)."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(n.id for target in targets for n in ast.walk(target) if isinstance(n, ast.Name))
    return names


def _names_read(tree: ast.Module) -> set[str]:
    """Every bare name loaded and every attribute taken in a module."""
    return {
        node.id if isinstance(node, ast.Name) else node.attr
        for node in ast.walk(tree)
        if (isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)) or isinstance(node, ast.Attribute)
    }


PACKAGE = {p.name: ast.parse(p.read_text()) for p in sorted(SRC.glob("*.py"))}
PACKAGE_READS = set().union(*(_names_read(tree) for tree in PACKAGE.values()))


@pytest.mark.parametrize("path", sorted(PACKAGE), ids=str)
def test_every_module_level_name_is_public_or_read(path):
    # a deletion that leaves a constant or helper behind, defined but read nowhere, fails here
    module = f"qcwalk.{path.removesuffix('.py')}".removesuffix(".__init__")
    public = set(getattr(importlib.import_module(module), "__all__", ()))
    unread = {
        name
        for name in _module_level_names(PACKAGE[path]) - public - PACKAGE_READS
        if not (name.startswith("__") and name.endswith("__"))
    }
    assert not unread, f"{path} defines {sorted(unread)}, which no module of the package reads"


REEXPORTED = {
    alias.asname or alias.name
    for node in PACKAGE["__init__.py"].body
    if isinstance(node, ast.ImportFrom)
    for alias in node.names
}


# cli is left out: main dispatches its cmd_* by name
@pytest.mark.parametrize("name", [m for m in MODULES if m != "cli"])
def test_every_public_name_is_read_or_reexported(name):
    # a name the package keeps public but never runs (a test's oracle, say) fails here
    public = set(importlib.import_module(f"qcwalk.{name}").__all__)
    unused = public - PACKAGE_READS - REEXPORTED
    assert not unused, f"qcwalk.{name} lists {sorted(unused)} in __all__, which no module of the package reads"


def _package_imports(tree: ast.Module) -> set[str]:
    """The qcwalk modules a module imports, relatively (``from .graph``, ``from . import walks``) or by name."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level == 1 and not module:
                found.update(alias.name for alias in node.names)
            elif node.level == 1 or module.startswith("qcwalk."):
                found.add(module.removeprefix("qcwalk.").split(".")[0])
            elif module == "qcwalk":
                found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            found.update(a.name.split(".")[1] for a in node.names if a.name.startswith("qcwalk."))
    return found


@pytest.mark.parametrize("name", MODULES)
def test_a_module_imports_only_earlier_layers(name):
    # the layers stack in MODULES order; spectral decomposes whatever Laplacian it is given,
    # so it does not import graph, the layer that builds one
    earlier = set(MODULES[: MODULES.index(name)]) - ({"graph"} if name == "spectral" else set())
    imported = _package_imports(PACKAGE[f"{name}.py"])
    assert imported <= earlier, f"qcwalk.{name} imports {sorted(imported - earlier)}, not layers below it"


README = Path(__file__).resolve().parents[1] / "README.md"


def _documented_names() -> set[tuple[str, str]]:
    """Every ``qcwalk.<module>.<name>`` the README and the package's docstrings mention."""
    docs = [README.read_text()]
    for tree in PACKAGE.values():
        for node in ast.walk(tree):
            if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                docs.append(ast.get_docstring(node) or "")
    return {found for doc in docs for found in re.findall(r"\bqcwalk\.([A-Za-z_]\w*)\.([A-Za-z_]\w*)", doc)}


def test_documented_names_resolve():
    # a name moved to another module fails here wherever the docs still point to the old one
    documented = _documented_names()
    assert documented, "no qcwalk.<module>.<name> found in the README or the docstrings"
    stale = sorted(
        f"qcwalk.{module}.{name}"
        for module, name in documented
        if not hasattr(importlib.import_module(f"qcwalk.{module}"), name)
    )
    assert not stale, f"the README or a docstring names {stale}, which do not exist"
