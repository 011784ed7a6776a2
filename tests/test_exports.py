"""Every name a robustpl module exports in ``__all__`` exists, and every
name a module imports is used."""

import ast
import importlib
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "robustpl"


@pytest.mark.parametrize("module", ["descent", "zf", "quadform", "bench"])
def test_all_names_resolve(module):
    mod = importlib.import_module(f"robustpl.{module}")
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert not missing


@pytest.mark.parametrize("path", sorted(p for p in SRC.glob("*.py") if p.stem != "__init__"),
                         ids=lambda p: p.stem)
def test_every_import_is_used(path):
    # used in the module, listed in its __all__, or imported on a
    # "# noqa: F401" line (names a wrapper looks up on the module)
    source = path.read_text()
    tree, lines = ast.parse(source), source.splitlines()
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            used |= set(ast.literal_eval(node.value))
    unused = [alias.asname or alias.name for node in ast.walk(tree)
              if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__"
              for alias in node.names
              if (alias.asname or alias.name.split(".")[0]) not in used
              and "# noqa: F401" not in lines[alias.lineno - 1]]
    assert not unused, f"{path.name} imports {unused} and does not use them"
