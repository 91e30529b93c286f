"""Tests for the package surface: the public names, the runtime
dependencies and the benchmark's self-test, which reaches into private
helpers."""

from __future__ import annotations

import importlib
import os
import pkgutil
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
