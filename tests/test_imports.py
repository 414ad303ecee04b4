"""Every name a module of the package or of its tests imports is used in
that module, and the export lists agree: a module's ``__all__`` names only
what it defines, and the package ``__init__`` imports only names in those
lists.  Only the modules in ``SCIPY_IMPORTS`` import scipy, only the names
listed there and only inside function bodies, so the commands that never
reach those functions never load scipy.  Each module imports from the
package only the modules ``PACKAGE_IMPORTS`` lists for it.  The one
power-sum root of the package, ``x ** (1 / p)``, is in
``quadrature.lp_norm``, so every norm is scaled as that one is, and the one
SVD is in ``operators.schatten_norm``, so one spectral route serves every
Schatten norm; ``eigvalsh`` is there too, for operators given as their
parity blocks, and in ``quadrature.plain_rule`` alone besides.  Only the
two shell kernels of ``operators``, one per direction, call
``_diagonals``, so a chunked kernel has no unchunked twin,
and those two alone call ``_chunks``, so both directions follow one plan.
Every command of the CLI prints and exits through ``_config_errors`` or
``_finish`` alone, so every report and every exit code has one path.
The modules the benchmark's tracer wraps all exist.  Every
public function, class and method of the package is reached from a command
of the CLI, apart from those ``UNREACHED`` keeps with their reasons: what
only the tests call belongs in ``tests/``.  The private names a module
imports from another module of the package are the ones ``PRIVATE_IMPORTS``
lists for it."""

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


def scopes_of(source: str, match) -> list[str]:
    """The definitions, as ``name`` or ``Class.method``, that hold a node for
    which ``match`` is true: one entry per such node."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, f"{scope}.{child.name}" if scope else child.name)
                continue
            if match(child):
                found.append(scope or "<module>")
            visit(child, scope)

    visit(ast.parse(source), "")
    return found


def power_roots(source: str) -> list[str]:
    """The definitions that raise something to the power ``1 / x`` or
    ``1.0 / x``: one entry per such power."""
    return scopes_of(source, lambda node: (
        isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow)
        and isinstance(node.right, ast.BinOp) and isinstance(node.right.op, ast.Div)
        and isinstance(node.right.left, ast.Constant) and node.right.left.value == 1
    ))


def name_uses(source: str, name: str) -> list[str]:
    """The definitions that name ``name``, as an attribute (``np.linalg.svd``)
    or as a name: one entry per use."""
    return scopes_of(source, lambda node: (
        isinstance(node, ast.Attribute) and node.attr == name
        or isinstance(node, ast.Name) and node.id == name
    ))


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_one_power_sum_root(path):
    assert power_roots(path.read_text()) == (["lp_norm"] if path.name == "quadrature.py" else [])


def test_detects_a_power_root():
    source = (
        "y = 2 ** (1 / 3)\ndef f(v, p):\n    return sum(v ** p) ** (1.0 / p)\n"
        "def g(v, r):\n    return v ** (2.0 / r) + v ** -(1 / r)\n"
        "class C:\n    def h(self, r):\n        def inner(x):\n            return x ** (1 / r)\n"
    )
    assert power_roots(source) == ["<module>", "f", "C.h.inner"]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_one_singular_value_route(path):
    assert name_uses(path.read_text(), "svd") == (
        ["schatten_norm"] if path.name == "operators.py" else []
    )


def test_detects_an_svd():
    source = (
        "import numpy as np\nfrom numpy.linalg import svd\ns = np.linalg.svd(a)\n"
        "def f(a):\n    return svd(a)\n"
        "class C:\n    def g(self, a):\n        return scipy.linalg.svd(a, compute_uv=False)\n"
    )
    assert name_uses(source, "svd") == ["<module>", "f", "C.g"]


# the spectra the package takes: the Schatten norms of operators given as
# their parity blocks, and the nodes of the Golub-Welsch rule
EIGVALSH_USES = {"operators.py": ["schatten_norm"], "quadrature.py": ["plain_rule"]}


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_one_eigenvalue_route_per_use(path):
    assert name_uses(path.read_text(), "eigvalsh") == EIGVALSH_USES.get(path.name, [])


def test_detects_an_eigvalsh():
    source = (
        "import numpy as np\nfrom numpy.linalg import eigvalsh\nw = np.linalg.eigvalsh(a)\n"
        "def residual(blocks):\n    return [eigvalsh(b) for b in blocks]\n"
        "class C:\n    def spectrum(self, a):\n        return np.linalg.eigvalsh(a).max()\n"
    )
    assert name_uses(source, "eigvalsh") == ["<module>", "residual", "C.spectrum"]


def command_ends(source: str) -> list[str]:
    """The definitions that print or exit: one entry per use of ``echo``,
    ``exit`` or ``print``, as an attribute (``click.echo``, ``sys.exit``) or
    as a name, and per ``SystemExit``."""
    ends = {"echo", "exit", "print", "SystemExit"}
    return scopes_of(source, lambda node: (
        isinstance(node, ast.Attribute) and node.attr in ends
        or isinstance(node, ast.Name) and node.id in ends
    ))


def test_one_command_end():
    assert set(command_ends((PACKAGE / "cli.py").read_text())) == {"_config_errors", "_finish"}


def test_detects_a_command_end():
    source = (
        "import sys\nsys.exit(2)\ndef f():\n    click.echo('line')\n"
        "@main.command()\ndef g(cfg):\n    def tail():\n        print(cfg)\n"
        "    raise SystemExit(1)\nclass C:\n    def h(self, ctx):\n        ctx.exit(2)\n"
    )
    assert command_ends(source) == ["<module>", "f", "g.tail", "g", "C.h"]


def diagonal_calls(source: str) -> list[str]:
    """The definitions that call ``_diagonals``, the per-axis products of the
    shell kernels: one entry per call."""
    return scopes_of(source, lambda node: (
        isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
        and node.func.id == "_diagonals"
    ))


# the two shell kernels, one per direction, each chunked within itself
SHELL_KERNELS = {"_shells_to_pairs", "_pairs_to_shells"}


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_one_shell_kernel_per_direction(path):
    outermost = {scope.split(".")[0] for scope in diagonal_calls(path.read_text())}
    assert outermost == (SHELL_KERNELS if path.name == "operators.py" else set())


def test_detects_a_diagonal_loop():
    source = (
        "rows = list(_diagonals(phi))\ndef f(phi):\n    for d in _diagonals(phi):\n        pass\n"
        "def _pairs_to_shells(phi):\n    def add():\n        return [r for r in _diagonals(phi)]\n"
        "    return add\ndef g(phi):\n    return _diagonals\n"
    )
    assert diagonal_calls(source) == ["<module>", "f", "_pairs_to_shells.add"]


def chunk_calls(source: str) -> list[str]:
    """The definitions that call ``_chunks``, the plan of the shell kernels:
    one entry per call."""
    return scopes_of(source, lambda node: (
        isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
        and node.func.id == "_chunks"
    ))


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_one_plan_for_both_shell_kernels(path):
    # each kernel takes the plan once, and nothing else plans a chunk
    assert sorted(chunk_calls(path.read_text())) == (
        sorted(SHELL_KERNELS) if path.name == "operators.py" else []
    )


def test_detects_a_chunk_plan():
    source = (
        "plan = _chunks(b, 1, 9)\ndef _shells_to_pairs(b):\n    for c in _chunks(b, 1, 9):\n"
        "        pass\ndef _pairs_to_shells(b):\n    def windows():\n"
        "        return _chunks(b, 0, 9)\n    return windows\ndef g(b):\n    return _chunks\n"
    )
    assert chunk_calls(source) == ["<module>", "_shells_to_pairs", "_pairs_to_shells.windows"]


# Definitions that no command reaches, kept for the reason given; the check
# counts them as reached, and so what they call.
UNREACHED = {
    "dunklops.hamiltonian_matrix": "the benchmark's tracer names the dunklops module "
                                   "(test_traced_modules_exist), so it stays until the "
                                   "benchmark changes",
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


# the private names each module imports from other package modules; the
# oscillator flow's shell layout stays inside operators, so strichartz has none
PRIVATE_IMPORTS = {
    "cli.py": [],
    "dunklops.py": ["hermite._ladder"],
    "freeprop.py": ["hermite._kernel_body"],
    "hartree.py": [],
    "hermite.py": ["structure._kernel_product"],
    "operators.py": [],
    "quadrature.py": [],
    "strichartz.py": [],
    "structure.py": [],
}


def private_imports(source: str) -> list[str]:
    """The private names (leading underscore) a module imports from the
    package, at any depth, as ``module.name``."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and (
            node.level or (node.module or "").startswith("dunklkit.")
        ):
            module = (node.module or "").removeprefix("dunklkit.").split(".")[0]
            names.update(f"{module}.{a.name}" for a in node.names if a.name.startswith("_"))
    return sorted(names)


def test_import_table_covers_the_package():
    assert sorted(PACKAGE_IMPORTS) == [p.name for p in SOURCES]
    assert sorted(PRIVATE_IMPORTS) == [p.name for p in SOURCES]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_private_import_boundary(path):
    assert private_imports(path.read_text()) == PRIVATE_IMPORTS[path.name]


def test_detects_a_private_import():
    source = (
        "from .operators import density, _pairs_to_shells\n"
        "from dunklkit.quadrature import _exponents\nfrom numpy import _core\n"
        "def f():\n    from .hermite import _table\n"
    )
    assert private_imports(source) == [
        "hermite._table", "operators._pairs_to_shells", "quadrature._exponents"
    ]


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
