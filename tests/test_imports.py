"""Every name a module of the package or of its tests imports is used in
that module, and the export lists agree: a module's ``__all__`` names only
what it defines, and the package ``__init__`` imports only names in those
lists.  Only the modules in ``SCIPY_IMPORTS`` import scipy, only the names
listed there and only inside function bodies, so the commands that never
reach those functions never load scipy.  Each module imports from the
package only the modules ``PACKAGE_IMPORTS`` lists for it.  The modules the
benchmark's tracer wraps all exist.  Every public function, class and method
of the package is reached from a command of the CLI, apart from those
``UNREACHED`` keeps with their reasons: what only the tests call belongs in
``tests/``."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).parent.parent / "src" / "dunklkit"
SOURCES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
TESTS = sorted(Path(__file__).parent.glob("*.py"))
TRACER = Path(__file__).parent.parent / "perfbench" / "trace_child.py"
# scipy.special is more than half of the import time of every command: only the
# Dunkl kernel's Bessel route (arguments |z| > 8) needs it, and of the commands
# only verify-kernels reaches that route
SCIPY_IMPORTS = {"structure.py": ["scipy.special.jv"]}
# the package modules each module imports from; the oscillator conjugation is
# the one flow in operators, so the free flow (freeprop) stays out of it
PACKAGE_IMPORTS = {
    "cli.py": ["freeprop", "hartree", "hermite", "operators", "quadrature", "strichartz",
               "structure"],
    "dunklops.py": ["hermite"],
    "freeprop.py": ["hermite", "structure"],
    "hartree.py": ["hermite", "operators", "quadrature"],
    "hermite.py": ["quadrature", "structure"],
    "operators.py": ["hermite", "quadrature"],
    "quadrature.py": ["structure"],
    "strichartz.py": ["hermite", "operators", "quadrature"],
    "structure.py": [],
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


# Definitions that no command reaches, kept for the reason given; the check
# counts them as reached, and so what they call.
UNREACHED = {
    "dunklops.hamiltonian_matrix": "the benchmark's tracer names the dunklops module "
                                   "(test_traced_modules_exist), so it stays until the "
                                   "benchmark changes",
    "strichartz.duhamel_solution": "acceptance criterion 11 is stated on it",
}


def _names(nodes) -> set[str]:
    """Every name and attribute the nodes and their children refer to."""
    return {n.id if isinstance(n, ast.Name) else n.attr
            for node in nodes for n in ast.walk(node)
            if isinstance(n, (ast.Name, ast.Attribute))}


def _is_command(node) -> bool:
    """A click command or group: decorated by a call of ``.command`` or ``.group``."""
    return any(isinstance(d, ast.Call) and isinstance(d.func, ast.Attribute)
               and d.func.attr in ("command", "group") for d in node.decorator_list)


def unreached(sources: dict[str, str], kept=()) -> list[str]:
    """The public functions, classes and methods of the modules ``sources``
    (name -> source) that no click command reaches, as ``module.name`` or
    ``module.Class.method``.

    A definition is reached when a reached one refers to its name, as a name
    or an attribute; the commands, the names in ``kept`` and each module's
    statements outside its definitions are reached to begin with.  A class
    takes its non-public methods along, which run unnamed (``__post_init__``)
    or from its other methods.
    """
    refers: dict[str, set[str]] = {}
    reached = set(kept)
    names = set()
    for module, source in sources.items():
        for node in ast.parse(source).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names |= _names([node])
                continue
            key = f"{module}.{node.name}"
            if _is_command(node):
                reached.add(key)
            body = [node]
            if isinstance(node, ast.ClassDef):
                body = [*node.decorator_list, *node.bases]
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                        refers[f"{key}.{item.name}"] = _names([item])
                    else:
                        body.append(item)
            refers[key] = _names(body)
    frontier = set(reached)
    while frontier:
        for key in frontier:
            names |= refers.get(key, set())
        frontier = {k for k in refers if k not in reached and k.rsplit(".", 1)[1] in names}
        reached |= frontier
    public = (k for k in refers if not k.rsplit(".", 1)[1].startswith("_"))
    return sorted(k for k in public if k not in reached)


def test_every_public_definition_is_reached_from_the_cli():
    sources = {p.stem: p.read_text() for p in SOURCES}
    assert unreached(sources, UNREACHED) == []
    # each entry is a definition that no command reaches: else it needs no reason
    assert set(UNREACHED) <= set(unreached(sources))


def test_detects_an_unreached_definition():
    cli = (
        "import click\nfrom .core import used\n@click.group()\ndef main(): pass\n"
        "@main.command()\ndef run():\n    used().go()\n"
    )
    core = (
        "def used():\n    return Box()\ndef orphan():\n    helper()\n"
        "def helper(): pass\ndef _private(): pass\ndef recursive():\n    recursive()\n"
        "class Box:\n    def go(self): pass\n    def stop(self): pass\n"
        "    def __post_init__(self): pass\n"
    )
    assert unreached({"cli": cli, "core": core}) == [
        "core.Box.stop", "core.helper", "core.orphan", "core.recursive"
    ]
    assert unreached({"cli": cli, "core": core}, ["core.orphan"]) == [
        "core.Box.stop", "core.recursive"
    ]


def _scipy_names(nodes) -> list[str]:
    names = []
    for node in nodes:
        if isinstance(node, ast.Import):
            names += [a.name for a in node.names if a.name.split(".")[0] == "scipy"]
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "scipy":
            names += [f"{node.module}.{a.name}" for a in node.names]
    return sorted(names)


def scipy_imports(source: str) -> list[str]:
    """Every scipy name a module imports, at any depth, as a dotted path."""
    return _scipy_names(ast.walk(ast.parse(source)))


def eager_scipy_imports(source: str) -> list[str]:
    """The scipy names a module imports outside every function body: these
    load with the module itself."""
    tree = ast.parse(source)
    deferred = {
        id(node)
        for func in ast.walk(tree) if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
        for node in ast.walk(func)
    }
    return _scipy_names(node for node in ast.walk(tree) if id(node) not in deferred)


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_scipy_import_boundary(path):
    source = path.read_text()
    assert scipy_imports(source) == SCIPY_IMPORTS.get(path.name, [])
    assert eager_scipy_imports(source) == []


def test_detects_a_scipy_import():
    source = (
        "import scipy.linalg\nimport numpy\nfrom scipy.special import jv, gamma\n"
        "def f():\n    from scipy import sparse\n"
        "class C:\n    from scipy.special import erf\n"
    )
    assert scipy_imports(source) == [
        "scipy.linalg", "scipy.sparse", "scipy.special.erf", "scipy.special.gamma",
        "scipy.special.jv",
    ]
    assert eager_scipy_imports(source) == [
        "scipy.linalg", "scipy.special.erf", "scipy.special.gamma", "scipy.special.jv"
    ]


def package_imports(source: str) -> list[str]:
    """The package modules a module imports from, at any depth: relative
    imports and absolute ``dunklkit.*`` ones."""
    modules = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.level:
            if node.module:
                modules.add(node.module.split(".")[0])
            else:
                modules.update(a.name for a in node.names)
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("dunklkit."):
            modules.add(node.module.split(".")[1])
        elif isinstance(node, ast.Import):
            modules.update(
                a.name.split(".")[1] for a in node.names if a.name.startswith("dunklkit.")
            )
    return sorted(modules)


def test_import_table_covers_the_package():
    assert sorted(PACKAGE_IMPORTS) == [p.name for p in SOURCES]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_package_import_boundary(path):
    assert package_imports(path.read_text()) == PACKAGE_IMPORTS[path.name]


def test_detects_a_package_import():
    source = (
        "import numpy\nfrom .freeprop import LensMap\nfrom . import hermite\n"
        "import dunklkit.quadrature\nfrom dunklkit.structure import weight\n"
        "def f():\n    from .hermite.sub import g\n    from ..other import h\n"
    )
    assert package_imports(source) == [
        "freeprop", "hermite", "other", "quadrature", "structure"
    ]


# Runs one command through the CLI entry point, then prints the scipy modules
# it loaded as the last line of standard output.
CHILD = """
import json, sys
from dunklkit.cli import main
try:
    main(sys.argv[1:])
except SystemExit as exc:
    code = exc.code
print(json.dumps(sorted(m for m in sys.modules if m.split(".")[0] == "scipy")))
sys.exit(code)
"""


@pytest.mark.parametrize("command", [
    ["strichartz"],
    ["sweep", "--steps", "2", "--j-values", "1 2", "--seeds", "1"],
    ["dual-schatten"],
    ["inhomogeneous"],
    ["mhls", "--n", "2", "--beta", "0.5"],
    ["hartree", "--steps", "5"],
    ["kss"],
], ids=lambda c: c[0])
def test_command_does_not_load_scipy(tmp_path, command):
    config = tmp_path / "small.cfg"
    config.write_text(
        "d = 1\nkappa = 0.5\nn_degree = 16\ngrid_order = 24\ntime_nodes = 32\n"
        f"output = {tmp_path / 'reports'}\n"
    )
    path = os.pathsep.join(filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", CHILD, "-c", str(config), *command],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path}, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert json.loads(result.stdout.splitlines()[-1]) == []
