"""Every name a robustpl module exports in ``__all__`` exists, every name a
module imports is used, every private helper is read somewhere, and no
module reads a clock."""

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


def _private_definitions(tree):
    """(name, line) of every private (``_``-prefixed, not dunder) module-level
    function, class or constant, and every private method, of a module."""
    def private(name):
        return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))

    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and private(node.name):
            yield node.name, node.lineno
        targets = node.targets if isinstance(node, ast.Assign) else (
            [node.target] if isinstance(node, ast.AnnAssign) else [])
        for target in targets:
            for name in ast.walk(target):
                if isinstance(name, ast.Name) and private(name.id):
                    yield name.id, node.lineno
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and private(item.name):
                    yield f"{node.name}.{item.name}", item.lineno


def test_no_private_helper_is_orphaned():
    # a private helper that no code in src/robustpl reads (a name, an
    # attribute or an import, its own definition aside) is dead code
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and not isinstance(node.ctx, ast.Store):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                read.update(alias.name for alias in node.names)
    orphans = [f"{module}:{line} {name}" for module, tree in trees.items()
               for name, line in _private_definitions(tree) if name.split(".")[-1] not in read]
    assert not orphans, f"private helpers nothing in src/robustpl reads: {orphans}"


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.stem)
def test_no_module_reads_a_clock(path):
    # a solve's outputs are deterministic; a caller times a call with its own clock
    nodes = list(ast.walk(ast.parse(path.read_text())))
    modules = [alias.name for node in nodes if isinstance(node, ast.Import) for alias in node.names]
    modules += [node.module or "" for node in nodes if isinstance(node, ast.ImportFrom)]
    clocks = sorted({module.split(".")[0] for module in modules} & {"time", "datetime"})
    assert not clocks, f"{path.name} imports {clocks}"
