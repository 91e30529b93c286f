"""Tests for the package surface: the public names and their users, the
runtime dependencies and the benchmark's self-test, which reaches into
private helpers."""

from __future__ import annotations

import ast
import importlib
import os
import pkgutil
import re
import subprocess
import sys
import types
from pathlib import Path

import numpy as np

import coalition_forge


def test_star_import_binds_exactly_all():
    namespace: dict = {}
    exec("from coalition_forge import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(set(coalition_forge.__all__))
    assert len(coalition_forge.__all__) == len(set(coalition_forge.__all__))
    assert not [n for n in namespace if n.startswith("_")]
    assert not [n for n, v in namespace.items() if isinstance(v, types.ModuleType)]


# Public names that nothing but the tests uses, each with its reason.
UNUSED_PUBLIC_NAMES: set[str] = set()


def _names_used(tree: ast.AST) -> set[str]:
    """Names a module reads, looks up as attributes or spells in a string
    other than a docstring (the benchmark's tracer keys its hooks by
    "module.function"), leaving out uses inside the function or class of
    the same name."""
    used: set[str] = set()
    docstrings = {
        id(node.body[0].value)
        for node in ast.walk(tree)
        if isinstance(node, (ast.Module, ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and node.body and isinstance(node.body[0], ast.Expr)
        and isinstance(node.body[0].value, ast.Constant)
    }

    def visit(node: ast.AST, inside: frozenset[str]) -> None:
        found: set[str] = set()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            inside = inside | {node.name}
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            found = {node.id}
        elif isinstance(node, ast.Attribute):
            found = {node.attr}
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            found = set() if id(node) in docstrings else set(re.findall(r"\w+", node.value))
        used.update(found - inside)
        for child in ast.iter_child_nodes(node):
            visit(child, inside)

    visit(tree, frozenset())
    return used


def test_every_public_name_has_a_user():
    # A public name earns its place by a use outside its own definition and
    # __init__.py: in the package, the benchmark, the README or the
    # acceptance tests.
    root = Path(__file__).resolve().parents[1]
    sources = [
        *(p for p in (root / "src").rglob("*.py") if p.name != "__init__.py"),
        *(root / "bench").glob("*.py"),
        root / "tests" / "test_acceptance.py",
    ]
    used = set().union(*(_names_used(ast.parse(p.read_text(encoding="utf-8"))) for p in sources))
    used |= set(re.findall(r"\w+", (root / "README.md").read_text(encoding="utf-8")))
    unused = sorted(set(coalition_forge.__all__) - used)
    assert unused == sorted(UNUSED_PUBLIC_NAMES)


def _without_class(tree: ast.Module, name: str) -> ast.Module:
    """The module with its top-level class of that name left out."""
    body = [n for n in tree.body if not (isinstance(n, ast.ClassDef) and n.name == name)]
    return ast.Module(body=body, type_ignores=[])


def test_every_public_member_has_a_user():
    # A public method or property of an exported class earns its place by a
    # read outside its own class body: in the package, the benchmark, the
    # README or the acceptance tests. Reads are matched by name alone, so a
    # member that shares its name with another attribute (any .m, such as
    # Forecast.m or BetaBinary.m) counts as read wherever that name is
    # read: this test cannot find such a member unused, and it is checked
    # by hand.
    root = Path(__file__).resolve().parents[1]
    trees = [
        ast.parse(p.read_text(encoding="utf-8"))
        for p in (
            *(root / "src").rglob("*.py"),
            *(root / "bench").glob("*.py"),
            root / "tests" / "test_acceptance.py",
        )
    ]
    readme = set(re.findall(r"\w+", (root / "README.md").read_text(encoding="utf-8")))
    unused = []
    for cls in (getattr(coalition_forge, n) for n in coalition_forge.__all__):
        if not isinstance(cls, type):
            continue
        members = {
            name for name, value in vars(cls).items()
            if not name.startswith("_")
            and isinstance(value, (types.FunctionType, property, classmethod, staticmethod))
        }
        if not members:
            continue
        used = readme.union(*(_names_used(_without_class(t, cls.__name__)) for t in trees))
        unused += [f"{cls.__name__}.{name}" for name in sorted(members - used)]
    assert unused == []


def _private_definitions(tree: ast.Module) -> set[str]:
    """Private names a module binds at its top level: functions, classes
    and assigned names, leaving out dunders."""
    names: set[str] = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name))
    return {n for n in names if n.startswith("_") and not n.startswith("__")}


def test_every_private_name_has_a_reader():
    # A private helper earns its place by a read in the package or the
    # benchmark outside its own definition; an import alone is no read.
    # One left behind when its last caller is deleted shows here.
    root = Path(__file__).resolve().parents[1]
    package = [ast.parse(p.read_text(encoding="utf-8")) for p in (root / "src").rglob("*.py")]
    bench = [ast.parse(p.read_text(encoding="utf-8")) for p in (root / "bench").glob("*.py")]
    defined = set().union(*(_private_definitions(tree) for tree in package))
    used = set().union(*(_names_used(tree) for tree in package + bench))
    assert sorted(defined - used) == []


def _errors_used(tree: ast.AST) -> set[str]:
    """Names a module raises, subclasses or warns with as the category."""
    def name(node: ast.AST | None) -> str | None:
        node = node.func if isinstance(node, ast.Call) else node
        return node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)

    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Raise):
            used.add(name(node.exc))
        elif isinstance(node, ast.ClassDef):
            used.update(name(base) for base in node.bases)
        elif isinstance(node, ast.Call) and name(node.func) == "warn":
            category = [k.value for k in node.keywords if k.arg == "category"] or node.args[1:2]
            used.update(name(c) for c in category)
    return used


def test_every_error_class_has_a_raiser():
    # An error class earns its place by being raised or used as a warning
    # category in the package outside errors.py and __init__.py, or by a
    # subclass: one whose last raiser is deleted shows here, though
    # __init__.py still exports it.
    sample = ast.parse(
        "raise A\nraise B('x') from None\nclass C(D): pass\nwarnings.warn('x', E)\n"
        "warnings.warn('x', category=F, stacklevel=2)\ntry:\n    H('x')\nexcept G:\n    pass\n"
    )
    assert _errors_used(sample) == {"A", "B", "D", "E", "F"}
    package = Path(__file__).resolve().parents[1] / "src" / "coalition_forge"
    errors = ast.parse((package / "errors.py").read_text(encoding="utf-8"))
    defined = {node.name for node in errors.body if isinstance(node, ast.ClassDef)}
    used = _errors_used(errors) | set().union(*(
        _errors_used(ast.parse(path.read_text(encoding="utf-8")))
        for path in package.rglob("*.py") if path.name not in ("errors.py", "__init__.py")
    ))
    assert sorted(defined - used) == []


def _file_writes(tree: ast.AST) -> list[ast.Call]:
    """Calls in tree that may write a file: write_text, write_bytes,
    os.open, and open, Path.open or os.fdopen with a mode that is not a
    literal read mode."""
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
        owner = getattr(func.value, "id", None) if isinstance(func, ast.Attribute) else None
        if name in ("write_text", "write_bytes") or (name == "open" and owner == "os"):
            found.append(node)
        elif name in ("open", "fdopen"):
            # A method open (Path.open) takes the mode first; open,
            # io.open and os.fdopen take it after the file.
            at = 0 if name == "open" and owner not in (None, "io") else 1
            mode = [k.value for k in node.keywords if k.arg == "mode"] or node.args[at:at + 1]
            if mode and not (
                isinstance(mode[0], ast.Constant) and isinstance(mode[0].value, str)
                and not set(mode[0].value) & set("wax+")
            ):
                found.append(node)
    return found


def test_only_the_cli_writer_writes_files():
    # cli._write is the one place that writes a file, in place and cut to
    # length: a second writer would bring back a truncating open.
    sample = ast.parse(
        "Path(p).write_text(t)\np.write_bytes(b)\nos.open(p, f)\nopen(p, 'w')\n"
        "open(p, mode='a')\np.open('r+')\nos.fdopen(fd, 'w')\nopen(p)\np.open()\n"
        "open(p, 'rb')\nio.open(p, encoding='utf-8')\n"
    )
    assert [call.lineno for call in _file_writes(sample)] == [1, 2, 3, 4, 5, 6, 7]
    root = Path(__file__).resolve().parents[1] / "src"
    found = []
    for path in sorted(root.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        allowed = {
            id(n) for top in tree.body if path.name == "cli.py"
            and isinstance(top, ast.FunctionDef) and top.name == "_write" for n in ast.walk(top)
        }
        found += [f"{path.name}:{call.lineno}" for call in _file_writes(tree) if id(call) not in allowed]
    assert found == []


ARGPARSE_PRIVATE = {"_actions", "_subparsers", "_group_actions", "_option_string_actions"}


def _argparse_private_reads(tree: ast.AST) -> list[int]:
    """Lines in tree that read one of argparse's private attributes, as an
    attribute or by name through getattr."""
    return sorted(
        node.lineno for node in ast.walk(tree)
        if (isinstance(node, ast.Attribute) and node.attr in ARGPARSE_PRIVATE)
        or (isinstance(node, ast.Constant) and node.value in ARGPARSE_PRIVATE)
    )


def test_no_module_reads_private_argparse_attributes():
    # argparse's private attributes change between Python versions: the
    # CLI reaches each command's parser through build_parser's own map.
    sample = ast.parse(
        "p._actions\np._subparsers._group_actions\ngetattr(p, '_option_string_actions')\n"
        "p.commands\np.parse_known_args(a)\n"
    )
    assert _argparse_private_reads(sample) == [1, 2, 2, 3]
    root = Path(__file__).resolve().parents[1] / "src" / "coalition_forge"
    found = [
        f"{path.name}:{line}"
        for path in sorted(root.rglob("*.py"))
        for line in _argparse_private_reads(ast.parse(path.read_text(encoding="utf-8")))
    ]
    assert found == []


def test_no_module_holds_an_array():
    # Workspaces, tiles and tables live for one call: an array bound at
    # module level would be state shared by every caller and thread, and
    # memory held for the life of the process. The scans run first, so a
    # cache they filled would show.
    from coalition_forge import (
        Coalition, Forecast, Player, check_strict_properness, grid_search_equalizer,
        quadratic_rule,
    )

    rule = quadratic_rule((0.1, 0.2, 0.3))
    check_strict_properness(rule, Forecast((0.2, 0.3, 0.5)), 100)
    players = [Player(Forecast((0.2, 0.3, 0.5)), 1.0), Player(Forecast((0.5, 0.3, 0.2)), 2.0)]
    grid_search_equalizer(rule, players, Coalition((0, 1)), 100)
    found = []
    for info in pkgutil.walk_packages(coalition_forge.__path__, "coalition_forge."):
        module = importlib.import_module(info.name)
        for name, value in vars(module).items():
            inner = value.values() if isinstance(value, dict) else (
                value if isinstance(value, (list, tuple, set, frozenset)) else ())
            if isinstance(value, np.ndarray) or any(isinstance(v, np.ndarray) for v in inner):
                found.append(f"{info.name}.{name}")
    assert found == []


def test_runtime_needs_only_numpy():
    # Every top-level module that importing the package and its CLI loads
    # is in the standard library, numpy or the package itself.
    code = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import coalition_forge, coalition_forge.cli\n"
        "loaded = {n.partition('.')[0] for n in set(sys.modules) - before}\n"
        "print(' '.join(sorted(loaded - set(sys.stdlib_module_names))))\n"
    )
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True,
        timeout=60, check=True,
    )
    assert done.stdout.split() == ["coalition_forge", "numpy"]


def test_benchmark_self_test_passes():
    # bench/selftest.py shows every benchmark check rejecting a corrupted
    # output; it calls private arbitrage helpers, so a change to them that
    # breaks it shows here.
    root = Path(__file__).resolve().parents[1]
    done = subprocess.run(
        [sys.executable, "bench/selftest.py"], cwd=root, capture_output=True,
        text=True, timeout=120,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    assert "FAILED" not in done.stdout
