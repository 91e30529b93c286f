"""Span tracing from outside the program.

Tracer.install() replaces every public function of coalition_forge where
a module binds it (coalition_forge.arbitrage.score, coalition_forge.
simulate.score_table, ...), plus the samplers' draw methods and cli.main,
with a wrapper that records a span (id, name, start, end, parent, thread).
Spans stay in memory until write(); recording takes a lock, because the
sweep runs trials on the program's worker threads. A span opened on a
worker thread with no open span of its own gets the main thread's
innermost open span as parent: that is the call that started the pool.
"""

from __future__ import annotations

import collections
import functools
import gzip
import inspect
import itertools
import threading
import time
from pathlib import Path

import coalition_forge
from coalition_forge import arbitrage, cli, mechanisms, rules, scenario, simplex, simulate

MODULES = (coalition_forge, simplex, rules, arbitrage, mechanisms, simulate, scenario, cli)
SAMPLERS = (simulate.BetaBinary, simulate.DirichletM, simulate.FiniteMixture)


def _count_rows(counts, args, result):
    counts["rules.score_table.rows"] += len(args[1])


def _count_points(counts, args, result):
    counts["simplex.grid_array.points"] += len(result)


def _count_properness(counts, args, result):
    counts["rules.properness.checked"] += result.checked
    counts["rules.properness.skipped"] += result.skipped


# Work counts taken from a call's arguments or result, by span name.
HOOKS = {
    "rules.score_table": _count_rows,
    "simplex.grid_array": _count_points,
    "rules.check_strict_properness": _count_properness,
}


def _label(fn) -> str:
    return f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.counts: collections.Counter = collections.Counter()
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main = threading.get_ident()
        self._main_stack: list[int] = []
        self._patched: list[tuple] = []

    def _stack(self) -> list[int]:
        if threading.get_ident() == self._main:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, label: str, fn):
        hook = HOOKS.get(label)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            parent = 0
            if stack:
                parent = stack[-1]
            elif stack is not self._main_stack:
                try:
                    parent = self._main_stack[-1]
                except IndexError:
                    pass
            sid = next(self._ids)
            stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                with self._lock:
                    self.spans.append((sid, label, start, end, parent, threading.get_ident()))
            if hook is not None:
                with self._lock:
                    hook(self.counts, args, result)
            return result

        return traced

    def install(self) -> None:
        wrapped = {}
        for module in MODULES:
            for attr, value in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(value):
                    continue
                home = value.__module__
                if not home.startswith("coalition_forge.") or home.startswith("coalition_forge.scenarios"):
                    continue
                # cli's own helpers are part of main's self time.
                if home == "coalition_forge.cli" and value.__name__ != "main":
                    continue
                if value not in wrapped:
                    wrapped[value] = self._wrap(_label(value), value)
                self._patch(module, attr, wrapped[value])
        for cls in SAMPLERS:
            self._patch(cls, "draw", self._wrap("simulate.draw", cls.__dict__["draw"]))

    def _patch(self, owner, attr, new) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def layers(self) -> dict[str, dict[str, float]]:
        """Calls and self time per span name. Self time is a span's
        duration minus the part of it that its child spans cover."""
        children = collections.defaultdict(list)
        for sid, _, start, end, parent, _ in self.spans:
            children[parent].append((start, end))
        out = collections.defaultdict(lambda: {"calls": 0, "s": 0.0})
        for sid, name, start, end, _, _ in self.spans:
            entry = out[name]
            entry["calls"] += 1
            entry["s"] += (end - start) - _covered(children.get(sid, ()), start, end)
        return dict(out)

    def write(self, path: Path) -> None:
        """Spans as gzip'd tab-separated lines: id, name, start, end,
        parent (0 for none), thread."""
        with gzip.open(path, "wt", compresslevel=1) as f:
            f.write("id\tname\tstart\tend\tparent\tthread\n")
            for sid, name, start, end, parent, thread in self.spans:
                f.write(f"{sid}\t{name}\t{start:.9f}\t{end:.9f}\t{parent}\t{thread}\n")


def _covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total, reach = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total
