"""The perfbench tracer wraps functions by the name each module looks them
up under, so every such name must exist even where the module's own code
no longer calls it; and every import kept only for the tracer must still
be one it wraps."""

import ast
import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TRACER_ONLY = "# noqa: F401 (perfbench/tracing.py"


def load_tracing():
    path = ROOT / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_every_traced_name_resolves():
    tracing = load_tracing()
    missing = [f"{module.__name__}.{name}"
               for pairs in tracing.LAYERS.values() for module, name in pairs
               if not callable(getattr(module, name, None))]
    assert missing == []


def tracer_only_imports():
    """(module name, imported name) of every import on a src/robustpl line
    marked as kept for perfbench/tracing.py."""
    marked = []
    for path in sorted((ROOT / "src" / "robustpl").glob("*.py")):
        lines = path.read_text().splitlines()
        for node in ast.walk(ast.parse("\n".join(lines))):
            if isinstance(node, ast.ImportFrom):
                marked += [(f"robustpl.{path.stem}", alias.asname or alias.name)
                           for alias in node.names if TRACER_ONLY in lines[alias.lineno - 1]]
    return marked


def test_every_tracer_only_import_is_traced():
    traced = {(module.__name__, name)
              for pairs in load_tracing().LAYERS.values() for module, name in pairs}
    marked = tracer_only_imports()
    assert len(marked) >= 1
    assert [pair for pair in marked if pair not in traced] == []


def workload_epsilon() -> float:
    """``EPSILON`` of perfbench/workloads.py, read without importing it."""
    tree = ast.parse((ROOT / "perfbench" / "workloads.py").read_text())
    (value,) = [node.value for node in tree.body if isinstance(node, ast.Assign)
                and [getattr(t, "id", None) for t in node.targets] == ["EPSILON"]]
    return ast.literal_eval(value)


def test_benchmark_band_check_is_the_solvers_band():
    # perfbench's exact-library check reads DescentConfig.delta_min as the band
    # width, while every solver derives its band from eps: at the workloads'
    # eps the two must agree
    from robustpl import DescentConfig, OutageOracle

    from conftest import make_zf_setup

    epsilon = workload_epsilon()
    oracle = OutageOracle(*make_zf_setup(9, epsilon=epsilon))
    assert [float(w) for w in oracle.width] == [DescentConfig.delta_min] * 3
