"""Every name a module of the package or of its tests imports is used in
that module, and the export lists agree: a module's ``__all__`` names only
what it defines, and the package ``__init__`` imports only names in those
lists.  Only the modules in ``SCIPY_IMPORTS`` import scipy, and only the
names listed there.  The modules the benchmark's tracer wraps all exist."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).parent.parent / "src" / "dunklkit"
SOURCES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
TESTS = sorted(Path(__file__).parent.glob("*.py"))
TRACER = Path(__file__).parent.parent / "perfbench" / "trace_child.py"
# scipy.special is about half of the import time of every command: only the
# Gauss rule's Laguerre roots and the Dunkl kernel's normalisation and Bessel
# route need it
SCIPY_IMPORTS = {
    "quadrature.py": ["scipy.special.roots_genlaguerre"],
    "structure.py": ["scipy.special.gamma", "scipy.special.jv"],
}


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


@pytest.mark.parametrize("path", SOURCES + TESTS, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_detects_an_unused_import():
    assert unused_imports("import os\nfrom a import b, c\nc()\n") == ["line 1: os", "line 2: b"]


def exported(source: str, name: str = "__all__") -> list[str]:
    """The string entries of a module's top-level ``__all__`` (or ``name``)."""
    for node in ast.parse(source).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == name for t in node.targets
        ):
            return [elt.value for elt in node.value.elts]
    return []


def undefined_exports(source: str) -> list[str]:
    defined = set()
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defined.add(node.name)
        elif isinstance(node, ast.Assign):
            defined.update(t.id for t in node.targets if isinstance(t, ast.Name))
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            defined.add(node.target.id)
    return [name for name in exported(source) if name not in defined]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_all_names_are_defined(path):
    assert undefined_exports(path.read_text()) == []


def test_package_imports_only_exported_names():
    stale = []
    for node in ast.parse((PACKAGE / "__init__.py").read_text()).body:
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            names = exported((PACKAGE / f"{node.module}.py").read_text())
            stale += [f"{node.module}.{a.name}" for a in node.names if a.name not in names]
    assert stale == []


def test_detects_a_stale_export():
    source = "__all__ = ['kept', 'gone', 'K']\ndef kept(): pass\nK = 1\n"
    assert undefined_exports(source) == ["gone"]


def test_traced_modules_exist():
    # the tracer wraps the public functions of each module it names, so a
    # module renamed or merged away would silently drop out of its spans
    modules = exported(TRACER.read_text(), "MODULES")
    assert modules and [m for m in modules if not (PACKAGE / f"{m}.py").is_file()] == []


def scipy_imports(source: str) -> list[str]:
    """Every scipy name a module imports, at any depth, as a dotted path."""
    names = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names += [a.name for a in node.names if a.name.split(".")[0] == "scipy"]
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "scipy":
            names += [f"{node.module}.{a.name}" for a in node.names]
    return sorted(names)


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_scipy_import_boundary(path):
    assert scipy_imports(path.read_text()) == SCIPY_IMPORTS.get(path.name, [])


def test_detects_a_scipy_import():
    source = (
        "import scipy.linalg\nimport numpy\nfrom scipy.special import jv, gamma\n"
        "def f():\n    from scipy import sparse\n"
    )
    assert scipy_imports(source) == [
        "scipy.linalg", "scipy.sparse", "scipy.special.gamma", "scipy.special.jv"
    ]
