"""List the statements of src/robustpl function bodies that a program never runs.

    python3 scripts/line_trace.py SCRIPT [ARGS...]
    python3 scripts/line_trace.py -m MODULE [ARGS...]
    python3 scripts/line_trace.py -c CODE [ARGS...]

The program runs in this process, as ``python3`` would run it, with this
checkout's ``src`` first on ``sys.path`` and ``sys.settrace`` (and
``threading.settrace``) recording the lines executed in files under
``src/robustpl``; the other frames are not traced line by line.  Worker
processes are not traced: trace a sweep with one worker.

A statement is any statement inside a function or method body, docstrings
aside; it ran if a line event fell anywhere in its span, so a statement that
shares a line with one that ran counts as run.  After the program ends this
prints, for each module of ``src/robustpl`` (imported or not), the count of
statements that never ran and, one per line, their ``file:line``, the
enclosing function and the statement's first source line.  Exits with the
traced program's exit code.
"""

from __future__ import annotations

import ast
import runpy
import sys
import threading
import traceback
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
PACKAGE = SRC / "robustpl"
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def body_statements(tree) -> list:
    """(first line, last line, function) of every statement inside a
    function body of the module, docstrings aside; a decorated definition
    starts at its first decorator."""
    spans = []

    def visit(node, scope, function):
        for child in ast.iter_child_nodes(node):
            docstring = (isinstance(node, DEFINITIONS) and child is node.body[0] and isinstance(child, ast.Expr)
                         and isinstance(child.value, ast.Constant) and isinstance(child.value.value, str))
            if function and isinstance(child, ast.stmt) and not docstring:
                first = min([child.lineno] + [d.lineno for d in getattr(child, "decorator_list", [])])
                spans.append((first, child.end_lineno, function))
            if isinstance(child, DEFINITIONS):
                name = f"{scope}{child.name}"
                visit(child, f"{name}.", function if isinstance(child, ast.ClassDef) else name)
            else:
                visit(child, scope, function)

    visit(tree, "", None)
    return spans


def unrun(path: Path, lines: set) -> tuple:
    """(count of function-body statements, [(line, function, source) of each
    one with no executed line in its span]) of the module at path."""
    source = path.read_text()
    text, spans = source.splitlines(), body_statements(ast.parse(source))
    return len(spans), [(first, function, text[first - 1].strip()) for first, last, function in spans
                        if not any(line in lines for line in range(first, last + 1))]


def run(argv: list) -> int:
    """Run ``python3 argv...`` in this process; its exit code."""
    mode = argv[0] if argv[0] in ("-c", "-m") else None
    sys.argv = ["-c", *argv[2:]] if mode == "-c" else argv[1:] if mode == "-m" else list(argv)
    sys.path[0] = "" if mode else str(Path(argv[0]).resolve().parent)
    sys.path.insert(1, str(SRC))
    try:
        if mode == "-c":
            exec(compile(argv[1], "<string>", "exec"), {"__name__": "__main__"})
        elif mode == "-m":
            runpy.run_module(argv[1], run_name="__main__", alter_sys=True)
        else:
            runpy.run_path(argv[0], run_name="__main__")
    except SystemExit as exc:
        if exc.code is None or isinstance(exc.code, int):
            return exc.code or 0
        print(exc.code, file=sys.stderr)
        return 1
    except Exception:
        traceback.print_exc()
        return 1
    return 0


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if not argv or (argv[0] in ("-c", "-m") and len(argv) < 2):
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    executed, wanted = {}, {}

    def local(frame, event, arg):
        if event == "line":
            executed[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def tracer(frame, event, arg):
        filename = frame.f_code.co_filename
        if filename not in wanted:
            wanted[filename] = Path(filename).resolve().is_relative_to(PACKAGE)
            if wanted[filename]:
                executed.setdefault(filename, set())
        return local if wanted[filename] else None

    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        code = run(argv)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    lines = {}
    for filename, hits in executed.items():
        lines.setdefault(Path(filename).resolve(), set()).update(hits)
    for path in sorted(PACKAGE.glob("*.py")):
        total, missed = unrun(path, lines.get(path, set()))
        print(f"{path.name}: {len(missed)} of {total} function-body statements never ran")
        for line, function, text in missed:
            print(f"  {path.name}:{line} {function}: {text}")
    return code


if __name__ == "__main__":
    sys.exit(main())
