"""Packaging metadata: every declared console script can be imported, the
package imports nothing beyond itself and the standard library, and every
public definition has a reader."""

import ast
import importlib
import sys
import tomllib
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PYPROJECT = ROOT / "pyproject.toml"
PACKAGE = ROOT / "src" / "nijcalc"


def test_every_console_script_target_imports():
    scripts = tomllib.loads(PYPROJECT.read_text())["project"].get("scripts", {})
    for name, target in scripts.items():
        module, _, attr = target.partition(":")
        entry = importlib.import_module(module)
        for part in attr.split("."):
            entry = getattr(entry, part)
        assert callable(entry), f"console script {name} -> {target} is not callable"


def _imported_modules(tree):
    """(line, module) for each absolute import; relative imports name None."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name
        elif isinstance(node, ast.ImportFrom):
            yield node.lineno, None if node.level else node.module


def test_package_imports_only_itself_and_the_standard_library():
    sources = sorted(PACKAGE.glob("*.py"))
    assert sources
    bad = []
    for path in sources:
        for line, module in _imported_modules(ast.parse(path.read_text())):
            if module is None:
                continue
            top = module.partition(".")[0]
            if top != "nijcalc" and top not in sys.stdlib_module_names:
                bad.append(f"{path.name}:{line} imports {module}")
    assert bad == []


def _package_modules_imported(tree):
    """The package modules a tree imports, by their names in the package."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level or node.module.startswith("nijcalc")):
            module = (node.module or "").removeprefix("nijcalc").lstrip(".")
            if module:
                yield module.partition(".")[0]
            else:  # from . import a, b
                yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            yield from (alias.name.removeprefix("nijcalc.") for alias in node.names
                        if alias.name.startswith("nijcalc."))


def test_only_classify_imports_the_quadratic_extension():
    """Q(sqrt d) is computed in where the 4D frame needs it: classify is
    the one module of the package that imports quadext, and the kernels
    of tensor and linalg work over Q."""
    importers = [path.stem for path in sorted(PACKAGE.glob("*.py"))
                 if "quadext" in _package_modules_imported(ast.parse(path.read_text()))]
    assert importers == ["classify"]


def _private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def test_no_module_reads_another_modules_private_names():
    """Names starting with one underscore stay inside their module: no
    `module._name` on an imported package module and no `from .m import _name`."""
    modules = {path.stem for path in PACKAGE.glob("*.py")}
    bad = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        aliases = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (node.level or
                                                     node.module.startswith("nijcalc")):
                for alias in node.names:
                    if _private(alias.name):
                        bad.append(f"{path.name}:{node.lineno} imports {alias.name}")
                    if alias.name in modules:
                        aliases.add(alias.asname or alias.name)
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name.startswith("nijcalc.") and alias.asname:
                        aliases.add(alias.asname)
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id in aliases and _private(node.attr)):
                bad.append(f"{path.name}:{node.lineno} reads {node.value.id}.{node.attr}")
    assert bad == []


def _names_read(tree):
    """Names a tree reads: identifiers, attributes and imported names."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name.rpartition(".")[2]


def test_every_public_definition_is_named_elsewhere():
    """Each public module-level def and class of the package is named
    outside its own definition, in the package, the tests or the benchmark."""
    sources = (sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "tests").glob("*.py"))
               + sorted((ROOT / "perfbench").glob("*.py")))
    trees = {path: ast.parse(path.read_text()) for path in sources}
    read = Counter(name for tree in trees.values() for name in _names_read(tree))
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in trees[path].body:
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and not node.name.startswith("_")
                    and read[node.name] == Counter(_names_read(node))[node.name]):
                unused.append(f"{path.name}:{node.lineno} {node.name}")
    assert unused == []


def _module_level_names(node):
    """The names a module-level statement defines."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        return [node.name]
    targets = (node.targets if isinstance(node, ast.Assign)
               else [node.target] if isinstance(node, ast.AnnAssign) else [])
    return [t.id for target in targets for t in ast.walk(target)
            if isinstance(t, ast.Name)]


def test_every_private_definition_is_named_elsewhere():
    """Each private module-level def, class and assignment of the package
    is named in the package outside its own statement: a helper that no
    production code reaches any more is dead, even when a test still
    reads it."""
    trees = {path: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
    read = Counter(name for tree in trees.values() for name in _names_read(tree))
    unused = []
    for path, tree in trees.items():
        for node in tree.body:
            for name in _module_level_names(node):
                if _private(name) and read[name] == Counter(_names_read(node))[name]:
                    unused.append(f"{path.name}:{node.lineno} {name}")
    assert unused == []
