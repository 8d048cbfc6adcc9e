"""Every name a module lists in ``__all__`` is an attribute of it, so a
deleted name cannot stay exported (``errors`` has no ``__all__``), and no
module but the package's ``__init__``, test modules included, imports a
name it never uses, so a deleted caller cannot leave its imports behind."""
import ast
import importlib
import pathlib
import pkgutil

import pytest

import evolutes

MODULES = ["evolutes"] + [f"evolutes.{info.name}" for info in
                          pkgutil.iter_modules(evolutes.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ())
               if not hasattr(module, n)]
    assert missing == []


def _unused_imports(source: str) -> list:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in imported.items()
                  if name not in used)


@pytest.mark.parametrize("path", sorted(
    path for path in pathlib.Path(evolutes.__file__).parent.glob("*.py")
    if path.name != "__init__.py") + sorted(
    pathlib.Path(__file__).parent.glob("*.py")),
    ids=lambda path: path.stem)
def test_no_module_imports_a_name_it_never_uses(path):
    assert _unused_imports(path.read_text()) == []
