"""Packaging metadata: every declared console script can be imported, and
the package imports nothing beyond itself and the standard library."""

import ast
import importlib
import sys
import tomllib
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
