"""The four workloads. Each builds its inputs from the benchmark seed in
__init__ (the set-up that setup_s times), and run_round() makes one round
of the same operations, timing each call into the program and checking
every output with bench/checks.py.

Program functions are looked up on their modules at call time, so the
wrappers that bench/tracer.py installs see every call.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import statistics
import sys
import time
import traceback
from pathlib import Path

import numpy as np

import checks
import reference as ref
from coalition_forge import arbitrage, cli, mechanisms, rules, scenario, simulate
from coalition_forge import scenarios as bundled
from coalition_forge.arbitrage import Coalition, Player
from coalition_forge.simplex import Forecast


class Stats:
    """Timings and counts of one phase of a run. Every round makes the same
    top-level calls, identified by their position k in the round."""

    def __init__(self):
        self.times: dict[int, list[float]] = {}  # k -> seconds, one per round
        self.done: dict[int, int] = {}  # k -> operations completed per round
        self.busy = 0.0  # seconds inside the program
        self.completed = 0
        self.attempted = 0
        self.failed = 0
        self.sweep_cpu = 0.0  # process CPU seconds inside sweep calls
        self.sweep_wall = 0.0  # wall seconds inside sweep calls
        self.rounds = 0

    def add(self, k: int, seconds: float, ops: int = 1, failed: bool = False) -> None:
        self.times.setdefault(k, []).append(seconds)
        self.done[k] = 0 if failed else ops
        self.busy += seconds
        self.attempted += ops
        if failed:
            self.failed += ops
        else:
            self.completed += ops

    def fail(self, k: int, seconds: float, exc: BaseException, ops: int = 1) -> None:
        """A program call that raised: a failed operation, not a crash.
        Its traceback goes to stderr on the phase's first round."""
        if k not in self.times:
            print(f"bench: call {k} failed:", file=sys.stderr)
            traceback.print_exception(exc, file=sys.stderr)
        self.add(k, seconds, ops, failed=True)

    def add_sweep(self, k: int, wall: float, cpu: float, ops: int) -> None:
        self.add(k, wall, ops)
        self.sweep_wall += wall
        self.sweep_cpu += cpu

    # The CPU of a shared host can run a round at half speed for seconds at
    # a time. Each call's best time over the rounds is the estimate that
    # stays put under that noise; summary() gives the raw figures beside it.

    def best(self) -> dict[int, float]:
        """Each call's fastest time over the rounds."""
        return {k: min(v) for k, v in self.times.items()}

    def p50_ms(self) -> float:
        """Median over the round's calls of each call's best time."""
        return 1e3 * statistics.median(self.best().values())

    def ops_per_s(self) -> float:
        """Operations completed in one round over the round's best-case time."""
        best = self.best()
        return sum(self.done[k] for k in best) / sum(best.values())

    def summary(self) -> str:
        calls = [t for v in self.times.values() for t in v]
        line = (f"rounds {self.rounds}, calls {len(calls)}, raw ops_per_s {self.completed / self.busy:.6g}, "
                f"raw op_p50_ms {1e3 * statistics.median(calls):.6g}")
        if len(calls) >= 100:
            line += f", raw op_p90_ms {1e3 * statistics.quantiles(calls, n=10)[-1]:.6g}"
        return line


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, stream])


def _floats(a) -> list[float]:
    return [float(x) for x in a]


# ----------------------------------------------------------------- sweep

class Sweep:
    """expected_surplus_sweep on the two bundled sweep scenarios (quadratic
    rule, Beta(2, 2) binary beliefs, n = 100, 9 fractions x 2,000 trials)
    and on a generated 5-state pair (spherical rule, Dirichlet(1, ..., 1),
    traditional and competitive). One operation is one trial."""

    name = "sweep"
    PAIR_N = 50
    PAIR_FRACTIONS = (0.2, 0.5, 0.8)
    PAIR_TRIALS = 1000

    def __init__(self, seed: int, workdir: Path):
        seeds = [int(s) for s in _rng(seed, 1).integers(0, 2**31, size=4)]
        self.jobs = []
        for name, s in zip(("sweep_traditional", "sweep_competitive"), seeds):
            sc, _ = scenario.load_scenario(bundled.path(name))
            sim = sc.simulation
            self.jobs.append({
                "mech": sc.mechanism, "sampler": sim.sampler, "n": sim.n,
                "fractions": sim.fractions, "trials": sim.trials, "seed": s,
                "check": "beta22", "competitive": sc.mechanism.kind is mechanisms.MechanismKind.COMPETITIVE,
            })
        dirichlet = simulate.DirichletM((1.0,) * 5)
        for kind, s in zip((mechanisms.MechanismKind.TRADITIONAL, mechanisms.MechanismKind.COMPETITIVE), seeds[2:]):
            self.jobs.append({
                "mech": mechanisms.MechanismSpec(kind, rules.spherical_rule()), "sampler": dirichlet,
                "n": self.PAIR_N, "fractions": self.PAIR_FRACTIONS, "trials": self.PAIR_TRIALS, "seed": s,
                "check": "pair",
            })
        self.previous = None

    def warmup(self) -> None:
        for job in self.jobs:
            first = [dataclasses.asdict(r) for r in _sweep(job, 20).rows]
            again = [dataclasses.asdict(r) for r in _sweep(job, 20).rows]
            checks.check_sweep_repeat(first, again)

    def run_round(self, stats: Stats) -> None:
        rows = [_timed_sweep(stats, k, job) for k, job in enumerate(self.jobs)]
        for job, r in zip(self.jobs, rows):
            if job["check"] == "beta22" and r is not None:
                checks.check_sweep_beta22(r, job["n"], job["fractions"], job["trials"], job["competitive"])
        pair = self.jobs[2]
        if rows[2] is not None and rows[3] is not None:
            checks.check_sweep_pair(rows[2], rows[3], pair["n"], pair["fractions"], pair["trials"])
        _check_repeat(self.previous, rows)
        self.previous = rows


def _sweep(job: dict, trials: int):
    return simulate.expected_surplus_sweep(job["mech"], job["sampler"], job["n"], job["fractions"], trials, job["seed"])


def _timed_sweep(stats: Stats, k: int, job: dict):
    """One timed sweep call; its rows as dicts, or None if it raised."""
    ops = len(job["fractions"]) * job["trials"]
    t0, c0 = time.perf_counter(), time.process_time()
    try:
        result = _sweep(job, job["trials"])
    except Exception as exc:
        stats.fail(k, time.perf_counter() - t0, exc, ops)
        return None
    t1, c1 = time.perf_counter(), time.process_time()
    stats.add_sweep(k, t1 - t0, c1 - c0, ops)
    return [dataclasses.asdict(r) for r in result.rows]


def _check_repeat(previous, rows) -> None:
    """Each sweep's rows equal those of the same call one round earlier."""
    for first, again in zip(previous or (), rows):
        if first is not None and again is not None:
            checks.check_sweep_repeat(first, again)


# ------------------------------------------------------------ coalitions

RULE_KINDS = ("quadratic", "logarithmic", "generalized_logarithmic", "spherical")
STATE_COUNTS = (2, 3, 5, 8)
# (members, players) per mechanism; market scoring needs members <= outsiders + 1
# so that no member reports right after another.
SIZES = {
    "traditional": ((2, 6), (12, 30), (50, 60)),
    "competitive": ((2, 6), (12, 30), (50, 60)),
    "market": ((2, 5), (10, 24), (30, 60)),
}
CUSTOM_SIZES = ((2, 4), (6, 12), (20, 30), (40, 50))
# Members whose beliefs all lie within this (max-norm spread) are redrawn.
# The surplus grows with the square of the spread: below about 1e-6 it
# falls under the oracle's fixed 1e-12 tolerance, and the oracle reports
# TIES for a correct equalizer (see NEAR_CASES). At 1e-4 surpluses stay
# near 1e-9 or above, so whether a generated coalition fails never
# depends on the seed; seeds 0 to 999 needed 7 such redraws in all.
MIN_SPREAD = 1e-4

# Fixed coalitions, independent of the seed, on which the program fails
# today; counted in `failed`. On the near-vertex spherical ("dust") ones
# the equalizer returns a negative float-dust entry and arbitrage_report
# raises NegativeEntry. On the near-agreement ("near") ones, members
# about 1e-7 apart, the surplus is near 1e-15 and the dominance oracle
# reports TIES, not DOMINATES. Rule, mechanism, beliefs; members are the
# first two players.
DUST_CASES = (
    ("spherical", "traditional", ((1 - 7.19e-11, 7.19e-11, 0.0), (1.0, 0.0, 0.0), (0.2, 0.3, 0.5))),
    ("spherical", "competitive", ((1 - 2e-10, 2e-10, 0.0), (1.0, 0.0, 0.0), (0.5, 0.25, 0.25))),
    ("spherical", "traditional", ((0.0, 1 - 5e-11, 5e-11, 0.0), (0.0, 1.0, 0.0, 0.0), (0.25, 0.25, 0.25, 0.25))),
)
NEAR_CASES = (
    ("spherical", "traditional", ((3.5e-8, 1 - 3.5e-8), (9.4e-8, 1 - 9.4e-8), (0.5, 0.5))),
    ("quadratic", "competitive", ((0.3, 0.7), (0.3 + 1e-7, 0.7 - 1e-7), (0.5, 0.5))),
    ("logarithmic", "traditional", ((0.2, 0.3, 0.5), (0.2 + 1e-7, 0.3, 0.5 - 1e-7), (0.3, 0.3, 0.4))),
)

# Two small sweeps a round, (rule, mechanism, sampler, n, fractions,
# trials): one trial is one random coalition playing its equalizer, so
# the simulate layer is measured here. They are kept to about 2 % of a
# round, because their time swings with where the default thread pool's
# threads run (see the sweep workload in bench/README.md).
SMALL_SWEEPS = (
    ("quadratic", "competitive", "beta22", 20, (0.25, 0.5), 10),
    ("spherical", "traditional", "dirichlet5", 20, (0.25, 0.5), 10),
)
SAMPLERS = {"beta22": simulate.BetaBinary(2.0, 2.0), "dirichlet5": simulate.DirichletM((1.0,) * 5)}


def _members_spread(P: np.ndarray) -> float:
    return float((P.max(axis=0) - P.min(axis=0)).max())


def _alternating_order(rng, members: list[int], outsiders: list[int]) -> list[int]:
    """A reporting order where no member follows another member."""
    outsiders = list(rng.permutation(outsiders))
    gaps = sorted(rng.choice(len(outsiders) + 1, size=len(members), replace=False))
    members = list(rng.permutation(members))
    order, k = [], 0
    for g in range(len(outsiders) + 1):
        if k < len(gaps) and gaps[k] == g:
            order.append(int(members[k]))
            k += 1
        if g < len(outsiders):
            order.append(int(outsiders[g]))
    return order


class Coalitions:
    """A seeded batch of generated scenario files: four rules x m in
    {2, 3, 5, 8} x traditional, competitive and market scoring, three
    coalition sizes each, plus custom binary rules from logit_generator,
    the fixed failing sets and two small sweeps. One operation is one
    coalition: a scenario, or one sweep trial."""

    name = "coalitions"

    def __init__(self, seed: int, workdir: Path):
        rng = _rng(seed, 2)
        self.cases = []
        k = 0
        for kind in RULE_KINDS:
            for m in STATE_COUNTS:
                for mech in ("traditional", "competitive", "market"):
                    for c, n in SIZES[mech]:
                        self.cases.append(self._scenario_case(rng, workdir / f"c{k:03d}.json", kind, m, mech, c, n))
                        k += 1
        for j, (c, n) in enumerate(CUSTOM_SIZES * 4):
            self.cases.append(self._custom_case(rng, ("traditional", "competitive")[j // 4 % 2], c, n))
        for kind, fixed in (("dust", DUST_CASES), ("near", NEAR_CASES)):
            for j, (rule, mech, beliefs) in enumerate(fixed):
                self.cases.append(self._fault_case(workdir / f"{kind}{j}.json", kind, rule, mech, beliefs))
        seeds = [int(x) for x in _rng(seed, 5).integers(0, 2**31, size=len(SMALL_SWEEPS))]
        self.sweeps = []
        for (rule, mech, sampler, n, fractions, trials), s in zip(SMALL_SWEEPS, seeds):
            self.sweeps.append({
                "mech": mechanisms.MechanismSpec(mechanisms.MechanismKind(mech), Grid._program_rule(rule, 1.0, None, 0.0)),
                "sampler": SAMPLERS[sampler], "n": n, "fractions": fractions, "trials": trials, "seed": s,
                "check": sampler, "competitive": mech == "competitive",
            })
        self.previous = None

    @staticmethod
    def _write(path: Path, rule: dict, mechanism, beliefs, wagers, members) -> None:
        raw_rule = {"kind": rule["kind"], "b": rule["b"]}
        if rule["a"] is not None:
            raw_rule["a"] = rule["a"]
        if rule["kind"] == "generalized_logarithmic":
            raw_rule["l"] = rule["l"]
        doc = {
            "schema_version": 1,
            "event": {"m": len(beliefs[0])},
            "rule": raw_rule,
            "mechanism": mechanism,
            "players": [{"belief": _floats(b), "wager": float(w)} for b, w in zip(beliefs, wagers)],
            "coalition": [i + 1 for i in members],
        }
        path.write_text(json.dumps(doc), encoding="utf-8")

    def _scenario_case(self, rng, path, kind, m, mech, c, n) -> dict:
        alpha = float(rng.choice((0.7, 1.5, 4.0)))
        beliefs = rng.dirichlet(np.full(m, alpha), size=n)
        members = [int(i) for i in rng.choice(n, size=c, replace=False)]
        while _members_spread(beliefs[members]) < MIN_SPREAD:
            beliefs[members] = rng.dirichlet(np.full(m, alpha), size=c)
        wagers = np.ones(n) if mech == "market" else rng.uniform(0.5, 2.0, size=n)
        a = _floats(rng.uniform(-1.0, 1.0, size=m)) if rng.random() < 0.5 else None
        l = float(rng.uniform(0.05, 0.3)) if kind == "generalized_logarithmic" else 0.0
        rule = ref.rule_dict(kind, float(rng.uniform(0.5, 2.0)), a, l)
        mechanism, prior, order = mech, None, None
        if mech == "market":
            prior = rng.dirichlet(np.full(m, 2.0))
            mechanism = {"kind": "market", "prior": _floats(prior)}
            order = _alternating_order(rng, members, [i for i in range(n) if i not in members])
        self._write(path, rule, mechanism, beliefs, wagers, members)
        family = kind if kind in ("quadratic", "logarithmic") else None
        return {
            "type": "scenario", "path": path, "rule": rule, "mechanism": mech, "equalizer": family,
            "beliefs": beliefs, "wagers": wagers, "members": members, "P": beliefs[members], "w": wagers[members],
            "prior": prior, "order": order,
        }

    def _custom_case(self, rng, mech, c, n) -> dict:
        # Member beliefs stratified over (0.05, 0.95) so they disagree.
        p = 0.05 + 0.9 * (np.arange(c) + 0.25 + 0.5 * rng.random(c)) / c
        p = np.concatenate([p, rng.uniform(0.05, 0.95, n - c)])
        order = rng.permutation(n)
        beliefs = np.column_stack([p, 1.0 - p])[order]
        members = [int(i) for i in np.flatnonzero(order < c)]
        wagers = rng.uniform(0.5, 2.0, size=n)
        players = [Player(Forecast(tuple(_floats(b))), float(w)) for b, w in zip(beliefs, wagers)]
        gen = rules.logit_generator()
        rule = rules.custom_binary_rule(gen)
        kind = mechanisms.MechanismKind(mech)
        return {
            "type": "custom", "rule": ref.rule_dict("logarithmic"), "mechanism": mech, "equalizer": "logarithmic",
            "beliefs": beliefs, "wagers": wagers, "members": members, "P": beliefs[members], "w": wagers[members],
            "players": players, "coalition": Coalition(tuple(members)), "generator": gen,
            "program_rule": rule, "spec": mechanisms.MechanismSpec(kind, rule),
        }

    def _fault_case(self, path, kind, rule, mech, beliefs) -> dict:
        beliefs = np.asarray(beliefs)
        wagers = np.ones(len(beliefs))
        rule = ref.rule_dict(rule)
        self._write(path, rule, mech, beliefs, wagers, [0, 1])
        return {"type": kind, "path": path, "rule": rule, "P": beliefs[:2], "w": wagers[:2]}

    def warmup(self) -> None:
        for case in [c for c in self.cases if c["type"] in ("scenario", "custom")][::16]:
            self._run(case)
        for job in self.sweeps:
            _sweep(job, 2)

    @staticmethod
    def _reporting(players, members, q):
        chosen = set(members)
        return [dataclasses.replace(p, report=q if i in chosen else p.belief) for i, p in enumerate(players)]

    def _run(self, case: dict) -> dict:
        """One operation; returns what the program returned."""
        if case["type"] == "custom":
            players, co, rule = case["players"], case["coalition"], case["program_rule"]
            q1 = arbitrage.binary_equalizer(case["generator"], players, co)
            arb = arbitrage.arbitrage_report(rule, players, co)
            verdict = arbitrage.verify_dominance_oracle(rule, players, co, arb.q)
            table = mechanisms.payment_table(case["spec"], self._reporting(players, case["members"], arb.q))
            profit = mechanisms.intermediary_profit_by_outcome(case["spec"], players, co, arb.q)
            return {"q1": q1, "arb": arb, "closed": None, "verdict": verdict, "table": table, "profit": profit}
        sc, _ = scenario.load_scenario(case["path"])
        players, co = list(sc.players), sc.coalition
        arb = arbitrage.arbitrage_report(sc.rule, players, co)
        if case["type"] == "dust":
            return {"arb": arb}
        if case["type"] == "near":
            return {"arb": arb, "verdict": arbitrage.verify_dominance_oracle(sc.rule, players, co, arb.q)}
        closed = arbitrage.closed_form_surplus(sc.rule, players, co)
        verdict = arbitrage.verify_dominance_oracle(sc.rule, players, co, arb.q)
        table = mechanisms.payment_table(sc.mechanism, self._reporting(players, case["members"], arb.q))
        if case["mechanism"] == "market":
            prior = sc.mechanism.market_prior
            profit = tuple(
                mechanisms.coalition_surplus_market(sc.rule, players, case["order"], co, arb.q, j, prior)
                for j in range(sc.m)
            )
        else:
            profit = mechanisms.intermediary_profit_by_outcome(sc.mechanism, players, co, arb.q)
        return {"arb": arb, "closed": closed, "verdict": verdict, "table": table, "profit": profit}

    @staticmethod
    def check(case: dict, out: dict) -> None:
        q = np.asarray(out["arb"].q.probs)
        if case["type"] in ("dust", "near"):
            checks.check_fault_case(case, q)
            return
        if case["type"] == "custom":
            checks.check_binary_equalizer(case, out["q1"])
        checks.require(not out["arb"].agreement, "disagreeing members reported as agreeing")
        s = checks.check_equalizer(case, q, out["arb"].surplus_by_outcome, out["closed"], out["verdict"].margins)
        checks.require(out["verdict"].verdict.value == "dominates", f"oracle verdict {out['verdict'].verdict.value!r}")
        reports = case["beliefs"].copy()
        reports[case["members"]] = q
        checks.check_payments({**case, "reports": reports}, out["table"].payments)
        checks.check_profit({**case, "q": q}, out["profit"], s)

    @staticmethod
    def failed(case: dict, out: dict) -> bool:
        """A near-agreement coalition fails while the oracle does not find
        that the equalizer dominates truthful reporting."""
        return case["type"] == "near" and out["verdict"].verdict.value != "dominates"

    def run_round(self, stats: Stats) -> None:
        for k, case in enumerate(self.cases):
            t0 = time.perf_counter()
            try:
                out = self._run(case)
            except Exception as exc:
                stats.fail(k, time.perf_counter() - t0, exc)
                continue
            stats.add(k, time.perf_counter() - t0, failed=self.failed(case, out))
            self.check(case, out)
        rows = [_timed_sweep(stats, k, job) for k, job in enumerate(self.sweeps, start=len(self.cases))]
        for job, r in zip(self.sweeps, rows):
            if r is None:
                continue
            if job["check"] == "beta22":
                checks.check_sweep_beta22(r, job["n"], job["fractions"], job["trials"], job["competitive"])
            else:
                checks.check_sweep_positive(r, job["n"], job["fractions"], job["trials"])
        _check_repeat(self.previous, rows)
        self.previous = rows


# ------------------------------------------------------------------ grid

# Every rule and every lattice size once, the linear control beside the
# quadratic rule on the smallest lattice. Each check of 0.2 to 0.5 s
# needs many rounds a run for its best time on a host whose speed swings
# for seconds at a time: all twenty pairs make a round of 8 s, two rules
# a size one of 3.3 s, this one of about 1.5 s.
GRID_CHECKS = (
    (3, 400, "quadratic"), (3, 400, "linear"),
    (4, 100, "generalized_logarithmic"),
    (5, 50, "spherical"),
    (6, 30, "logarithmic"),
)
# Sizes whose belief is put on the lattice, so the truthful report itself
# is one of the grid points the checker must exclude.
ON_LATTICE = {(3, 400), (5, 50)}
SEARCHES = ((3, 200), (4, 60))


class Grid:
    """check_strict_properness for the four proper families and the linear
    control at (m, resolution) in {(3, 400), (4, 100), (5, 50), (6, 30)}
    (GRID_CHECKS), and grid_search_equalizer at m = 3 and 4. One
    operation is one call."""

    name = "grid"

    def __init__(self, seed: int, workdir: Path):
        rng = _rng(seed, 3)
        self.checks = []
        for m, res, kind in GRID_CHECKS:
            p = rng.dirichlet(np.full(m, 2.0))
            if (m, res) in ON_LATTICE:
                k = np.maximum(1, np.floor(p * res)).astype(int)
                k[int(np.argmax(k))] += res - int(k.sum())
                p = k / res
            l = float(rng.uniform(0.05, 0.3)) if kind == "generalized_logarithmic" else 0.0
            b = float(rng.uniform(0.5, 2.0))
            a = _floats(rng.uniform(-1.0, 1.0, size=m))
            sample = self._lattice_sample(rng, p, res)
            self.checks.append({
                "rule": ref.rule_dict(kind, b, a, l), "program_rule": self._program_rule(kind, b, a, l),
                "belief": p, "forecast": Forecast(tuple(_floats(p))), "resolution": res,
                "sample": sample,
            })
        self.searches = []
        for m, res in SEARCHES:
            for kind in ("quadratic", "logarithmic"):
                c = int(rng.integers(3, 7))
                P = rng.dirichlet(np.full(m, 2.0), size=c)
                w = rng.uniform(0.5, 2.0, size=c)
                players = [Player(Forecast(tuple(_floats(p))), float(x)) for p, x in zip(P, w)]
                self.searches.append({
                    "rule": ref.rule_dict(kind), "program_rule": self._program_rule(kind, 1.0, None, 0.0),
                    "P": P, "w": w, "players": players, "coalition": Coalition(tuple(range(c))),
                    "resolution": res,
                })

    @staticmethod
    def _lattice_sample(rng, p, res) -> np.ndarray:
        """Lattice reports for spot checks of max_margin: 48 spread over
        the simplex and 16 one step away from the belief's nearest point."""
        m = len(p)
        far = rng.multinomial(res, rng.dirichlet(np.ones(m), size=48))
        base = np.round(p * res).astype(int)
        base[int(np.argmax(base))] += res - int(base.sum())
        near = np.repeat(base[None, :], 16, axis=0)
        for row in near:
            i, j = rng.choice(m, size=2, replace=False)
            if row[i] > 0:
                row[i] -= 1
                row[j] += 1
        return np.vstack([far, near]) / res

    @staticmethod
    def _program_rule(kind, b, a, l):
        if kind == "generalized_logarithmic":
            return rules.generalized_log_rule(l, a, b)
        return {"quadratic": rules.quadratic_rule, "logarithmic": rules.logarithmic_rule,
                "spherical": rules.spherical_rule, "linear": rules.linear_rule}[kind](a, b)

    def warmup(self) -> None:
        for case in self.checks:
            rules.check_strict_properness(case["program_rule"], case["forecast"], 10)

    def run_round(self, stats: Stats) -> None:
        for k, case in enumerate(self.checks):
            t0 = time.perf_counter()
            try:
                r = rules.check_strict_properness(case["program_rule"], case["forecast"], case["resolution"])
            except Exception as exc:
                stats.fail(k, time.perf_counter() - t0, exc)
                continue
            stats.add(k, time.perf_counter() - t0)
            nearest = np.asarray(r.nearest_competitor.probs)
            checks.check_properness(case, r.passed, r.max_margin, nearest, r.checked, r.skipped)
        for k, case in enumerate(self.searches, start=len(self.checks)):
            t0 = time.perf_counter()
            try:
                g = arbitrage.grid_search_equalizer(case["program_rule"], case["players"], case["coalition"], case["resolution"])
            except Exception as exc:
                stats.fail(k, time.perf_counter() - t0, exc)
                continue
            stats.add(k, time.perf_counter() - t0)
            checks.check_grid_search(case, np.asarray(g.probs))


# ------------------------------------------------------------------- cli

# Subcommands that yield a result for each bundled scenario, with the
# documented exit code where it is not 0.
CLI_CASES = (
    ("example1", "score", 0), ("example1", "arbitrage", 0), ("example1", "verify", 0),
    ("example2", "score", 0), ("example2", "arbitrage", 0), ("example2", "verify", 0),
    ("example3", "score", 0), ("example3", "arbitrage", 0), ("example3", "verify", 0),
    ("example3_mean", "score", 0), ("example3_mean", "arbitrage", 0), ("example3_mean", "verify", 1),
    ("intermediary", "arbitrage", 0), ("intermediary", "verify", 0), ("intermediary", "simulate", 0),
    ("market_session", "arbitrage", 3), ("market_session", "verify", 0), ("market_session", "simulate", 0),
    ("sweep_competitive", "verify", 0), ("sweep_traditional", "verify", 0),
)
FORMATS = ("csv", "json", "table")


def _cli_expectations(raw: dict, command: str) -> dict:
    """What a scenario's subcommand must report, from the raw file."""
    rule = raw["rule"]
    rd = ref.rule_dict(rule["kind"], rule.get("b", 1.0), rule.get("a"), rule.get("l", 0.0))
    players = raw.get("players", [])
    beliefs = np.asarray([p["belief"] for p in players]) if players else None
    wagers = np.asarray([p.get("wager", 1.0) for p in players]) if players else None
    members = [i - 1 for i in raw.get("coalition", [])]
    mech = raw["mechanism"]
    mech_name = mech["kind"] if isinstance(mech, dict) else mech
    m = raw["event"]["m"]
    prior = np.asarray(mech.get("prior", [1.0 / m] * m)) if isinstance(mech, dict) else None
    case = {"rule": rd, "mechanism": mech_name, "wagers": wagers, "beliefs": beliefs, "members": members,
            "prior": prior, "equalizer": rule["kind"] if rule["kind"] in ("quadratic", "logarithmic") else None}
    if members:
        case["P"], case["w"] = beliefs[members], wagers[members]
    if command == "score":
        case["reports"] = np.asarray([p["report"] for p in players])
        return {"kind": "score", "case": case}
    if command == "arbitrage":
        return {"kind": "arbitrage", "case": case}
    if command == "simulate":
        if raw["simulation"]["mode"] == "market_session":
            return {"kind": "market_session"}
        q = ref.quadratic_equalizer(case["P"], case["w"])
        s = ref.coalition_surplus(rd, case["P"], case["w"], q)
        scale = 1.0 - case["w"].sum() / wagers.sum() if mech_name == "competitive" else 1.0
        return {"kind": "intermediary", "profit": (scale * s).tolist()}
    # verify: properness passes for every proper rule; dominance and the
    # scaling identity need a coalition with a coordinated report.
    status = {"properness": "pass", "dominance": "skipped", "surplus_scaling_identity": "skipped"}
    if len(members) >= 2:
        reports = [players[i].get("report") for i in members]
        coordinated = None
        if all(r is not None for r in reports):
            coordinated = reports
            margins = ref.coalition_surplus(rd, case["P"], case["w"], reports[0])
            status["dominance"] = "pass" if margins.min() > 1e-12 else "fail"
        elif float((case["P"].max(axis=0) - case["P"].min(axis=0)).max()) > 1e-12:
            coordinated = "equalizer"
            status["dominance"] = "pass"
        if coordinated is not None and len(players) > len(members):
            status["surplus_scaling_identity"] = "pass"
    return {"kind": "verify", "status": status}


class Cli:
    """coalition_forge.cli.main in-process on every bundled scenario and
    subcommand that yields a result, in csv, json and table format, to
    stdout and with --out. One operation is one main() call."""

    name = "cli"

    def __init__(self, seed: int, workdir: Path):
        rng = _rng(seed, 4)
        self.expect = {}
        for name, command, _ in CLI_CASES:
            raw = json.loads(Path(bundled.path(name)).read_text(encoding="utf-8"))
            self.expect[name, command] = _cli_expectations(raw, command)
        session_seed = int(rng.integers(0, 2**31))
        self.calls = []
        for name, command, code in CLI_CASES:
            for fmt in FORMATS:
                for to_file in (False, True):
                    argv = [command, "--scenario", name, "--format", fmt]
                    out = None
                    if to_file:
                        out = str(workdir / f"{name}-{command}-{fmt}")
                        argv += ["--out", out]
                    if command == "simulate" and name == "market_session":
                        argv += ["--seed", str(session_seed)]
                    self.calls.append((name, command, fmt, out, code, argv))
        self.calls = [self.calls[i] for i in rng.permutation(len(self.calls))]

    @staticmethod
    def _main(argv):
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            t0 = time.perf_counter()
            code = cli.main(argv)
            t1 = time.perf_counter()
        return code, stdout.getvalue(), t1 - t0

    def warmup(self) -> None:
        for call in self.calls[:10]:
            self._main(call[5])

    def _check(self, name, command, fmt, out, expected_code, code, stdout, parsed) -> None:
        checks.require(code == expected_code, f"{name} {command}: exit {code}, documented {expected_code}")
        if code == 3:
            checks.require(stdout == "", f"{name} {command}: output on exit 3")
            return
        texts = []
        if command == "simulate" and out:
            # simulate writes OUT.csv and OUT.json and still prints.
            texts = [("csv", Path(out + ".csv").read_text()), ("json", Path(out + ".json").read_text())]
        elif out:
            checks.require(stdout == "", f"{name} {command}: stdout written with --out")
            stdout = Path(out).read_text()
        checks.require(stdout.strip() != "", f"{name} {command} --format {fmt}: empty output")
        if fmt == "table":
            if command == "verify":
                last = stdout.strip().splitlines()[-1]
                checks.require(last == ("result: FAIL" if code == 1 else "result: PASS"), f"{name} verify: {last!r} with exit {code}")
        else:
            texts.append((fmt, stdout))
        for f, text in texts:
            got = checks.parse_cli(command, f, text)
            checks.check_cli_output(self.expect[name, command], got)
            seen = parsed.setdefault((name, command), {})
            other = seen.get("json" if f == "csv" else "csv")
            if other is not None:
                checks.check_cli_agree(*((got, other) if f == "csv" else (other, got)))
            seen[f] = got

    def run_round(self, stats: Stats) -> None:
        parsed = {}
        for k, (name, command, fmt, out, expected_code, argv) in enumerate(self.calls):
            t0 = time.perf_counter()
            try:
                code, stdout, seconds = self._main(argv)
            except Exception as exc:
                stats.fail(k, time.perf_counter() - t0, exc)
                continue
            stats.add(k, seconds)
            self._check(name, command, fmt, out, expected_code, code, stdout, parsed)


WORKLOADS = {w.name: w for w in (Sweep, Coalitions, Grid, Cli)}
