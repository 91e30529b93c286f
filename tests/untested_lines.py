"""Print every statement of the package that the test suite never runs.

Runs the suite in process under sys.settrace and threading.settrace,
tracing only frames of src/coalition_forge, and prints each statement no
test executed as `file:line: source`. Code that runs only inside a
subprocess a test starts is not traced, so it shows here too. pytest's
own report goes to stderr; the exit code is pytest's when a test fails.

    python3 tests/untested_lines.py

It takes about 2 minutes on 2 cores, a few times the suite's own time.
"""

from __future__ import annotations

import ast
import contextlib
import os
import sys
import threading
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "coalition_forge"


def _statement_lines(tree: ast.Module) -> dict[int, list[int]]:
    """For each statement that compiles to code, its first line and the
    lines a line event for it may carry: a simple statement's whole span,
    a compound one's header (decorators included) up to its body.
    Docstrings and global and nonlocal statements compile to none."""
    docstrings = {
        id(node.body[0])
        for node in ast.walk(tree)
        if isinstance(node, (ast.Module, ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and node.body and isinstance(node.body[0], ast.Expr)
        and isinstance(node.body[0].value, ast.Constant) and isinstance(node.body[0].value.value, str)
    }
    found = {}
    for node in ast.walk(tree):
        if not isinstance(node, ast.stmt) or id(node) in docstrings:
            continue
        if isinstance(node, (ast.Global, ast.Nonlocal)):
            continue
        first = min([node.lineno, *(d.lineno for d in getattr(node, "decorator_list", []))])
        body = getattr(node, "body", None)
        last = body[0].lineno - 1 if body else node.end_lineno
        found[node.lineno] = list(range(first, max(first, last) + 1))
    return found


def main() -> int:
    import pytest

    prefix = str(PACKAGE) + os.sep
    hits: dict[str, set[int]] = defaultdict(set)

    def trace(frame, event, arg):
        if not frame.f_code.co_filename.startswith(prefix):
            return None
        lines = hits[frame.f_code.co_filename]

        def local(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return local

        return local

    sys.path.insert(0, str(ROOT / "src"))
    os.chdir(ROOT)
    threading.settrace(trace)
    sys.settrace(trace)
    try:
        with contextlib.redirect_stdout(sys.stderr):
            status = pytest.main(["-q", "-p", "no:cacheprovider", "--continue-on-collection-errors"])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    for path in sorted(PACKAGE.rglob("*.py")):
        source = path.read_text(encoding="utf-8")
        text = source.splitlines()
        ran = hits.get(str(path), set())
        for line, span in sorted(_statement_lines(ast.parse(source)).items()):
            if ran.isdisjoint(span):
                print(f"{path.relative_to(ROOT)}:{line}: {text[line - 1].strip()}")
    return int(status)


if __name__ == "__main__":
    sys.exit(main())
