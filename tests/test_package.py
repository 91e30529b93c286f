"""Tests for the package surface: the public names, the runtime
dependencies and the benchmark's self-test, which reaches into private
helpers."""

from __future__ import annotations

import os
import subprocess
import sys
import types
from pathlib import Path

import coalition_forge


def test_star_import_binds_exactly_all():
    namespace: dict = {}
    exec("from coalition_forge import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(set(coalition_forge.__all__))
    assert len(coalition_forge.__all__) == len(set(coalition_forge.__all__))
    assert not [n for n in namespace if n.startswith("_")]
    assert not [n for n, v in namespace.items() if isinstance(v, types.ModuleType)]


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
