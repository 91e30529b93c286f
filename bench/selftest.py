"""Self-test of the benchmark's checks.

    python3 bench/selftest.py

Each case produces a true output of the program on a small input, shows
that its check accepts it, then corrupts the output (a perturbed q, a
sweep mean moved by ten standard errors, a payment column that no longer
sums to zero, ...) and shows that the check rejects it. Exits 1 if any
check accepts a corrupted output or rejects a true one.
"""

from __future__ import annotations

import copy
import sys
import tempfile
from pathlib import Path

import numpy as np

from run import import_program

import_program()

import checks  # noqa: E402
import reference as ref  # noqa: E402
import workloads  # noqa: E402
from coalition_forge import arbitrage, mechanisms, rules, simulate  # noqa: E402

CASES = []


def case(fn):
    CASES.append(fn)
    return fn


def expect(check, good, bad) -> list[str]:
    """check(*good) must pass and check(*b) must fail for each b in bad."""
    problems = []
    try:
        check(*good)
    except checks.CheckFailed as exc:
        problems.append(f"true output rejected: {exc}")
    for label, args in bad:
        try:
            check(*args)
        except checks.CheckFailed:
            continue
        problems.append(f"corruption not caught: {label}")
    return problems


def _rows(result):
    return [vars(r).copy() for r in result.rows]


def _moved(rows, k, key, delta):
    rows = copy.deepcopy(rows)
    rows[k][key] += delta
    return rows


@case
def sweep_beta22():
    sc_rule = rules.quadratic_rule()
    n, fractions, trials = 20, (0.2, 0.5), 400
    spec = mechanisms.MechanismSpec(mechanisms.MechanismKind.COMPETITIVE, sc_rule)
    rows = _rows(simulate.expected_surplus_sweep(spec, simulate.BetaBinary(2.0, 2.0), n, fractions, trials, 5))
    _, se = ref.beta22_sweep_row(rows[1]["coalition_size"], n, trials, True)
    return expect(checks.check_sweep_beta22, (rows, n, fractions, trials, True), [
        ("mean moved by ten standard errors", (_moved(rows, 1, "mean", 10 * se), n, fractions, trials, True)),
        ("traditional expectation for a competitive sweep", (rows, n, fractions, trials, False)),
        ("coalition_size off by one", (_moved(rows, 0, "coalition_size", 1), n, fractions, trials, True)),
        ("trials differ from the request", (_moved(rows, 0, "trials", -1), n, fractions, trials, True)),
    ])


@case
def sweep_pair():
    n, fractions, trials = 30, (0.2, 0.6), 300
    sampler = simulate.DirichletM((1.0,) * 5)
    out = []
    for kind, seed in ((mechanisms.MechanismKind.TRADITIONAL, 1), (mechanisms.MechanismKind.COMPETITIVE, 2)):
        spec = mechanisms.MechanismSpec(kind, rules.spherical_rule())
        out.append(_rows(simulate.expected_surplus_sweep(spec, sampler, n, fractions, trials, seed)))
    trad, comp = out
    err = np.hypot(comp[0]["se"], trad[0]["se"])
    return expect(checks.check_sweep_pair, (trad, comp, n, fractions, trials), [
        ("competitive mean moved by ten combined errors", (trad, _moved(comp, 0, "mean", 10 * err), n, fractions, trials)),
        ("unscaled competitive mean", (trad, [dict(c, mean=t["mean"]) for t, c in zip(trad, comp)], n, fractions, trials)),
        ("negative traditional mean", (_moved(trad, 1, "mean", -2 * trad[1]["mean"]), comp, n, fractions, trials)),
    ]) + expect(checks.check_sweep_positive, (trad, n, fractions, trials), [
        ("negative mean", (_moved(trad, 0, "mean", -2 * trad[0]["mean"]), n, fractions, trials)),
        ("a row missing", (trad[:1], n, fractions, trials)),
    ]) + expect(checks.check_sweep_repeat, (trad, copy.deepcopy(trad)), [
        ("repeat differs in the last digit", (trad, _moved(trad, 0, "mean", 1e-15 * abs(trad[0]["mean"]) + 1e-300))),
    ])


def workdir() -> Path:
    out = Path(__file__).resolve().parent.parent / ".bench_out"
    out.mkdir(exist_ok=True)
    return out


def _coalition_outputs():
    """One generated case of each type, mechanism and rule, with outputs."""
    with tempfile.TemporaryDirectory(dir=workdir()) as tmp:
        batch = workloads.Coalitions(7, Path(tmp))
        picked = {}
        for c in batch.cases:
            key = (c["type"], c.get("mechanism"), c["rule"]["kind"])
            if key not in picked and c["type"] in ("scenario", "custom"):
                picked[key] = (c, batch._run(c))
        near = [(c, batch._run(c)) for c in batch.cases if c["type"] == "near"]
        return batch, list(picked.values()), near


def _perturbed_q(q):
    q = np.array(q, dtype=np.float64)
    d = 1e-6 * min(q[0], 1.0 - q[0]) + 1e-7
    q[0] += d
    q[1] -= d
    return q


@case
def coalitions():
    batch, picked, near_outputs = _coalition_outputs()
    problems = []
    for c, out in picked:
        tag = f"{c['type']}/{c.get('mechanism')}/{c['rule']['kind']}: "
        q = np.asarray(out["arb"].q.probs)
        s_prog = np.asarray(out["arb"].surplus_by_outcome)
        margins = out["verdict"].margins
        problems += [tag + p for p in expect(checks.check_equalizer, (c, q, s_prog, out["closed"], margins), [
            ("perturbed q", (c, _perturbed_q(q), s_prog, out["closed"], margins)),
            ("q off the simplex", (c, q * 1.001, s_prog, out["closed"], margins)),
            ("surplus_by_outcome scaled", (c, q, s_prog * (1 + 1e-6), out["closed"], margins)),
            ("oracle margin moved", (c, q, s_prog, out["closed"], np.asarray(margins) + [1e-6] + [0] * (len(q) - 1))),
        ] + ([("closed form moved", (c, q, s_prog, out["closed"] * (1 + 1e-6), margins))] if out["closed"] is not None else []))]
        reports = c["beliefs"].copy()
        reports[c["members"]] = q
        full = {**c, "reports": reports, "q": q}
        pay = np.asarray(out["table"].payments)
        bad = pay.copy()
        bad[0, 0] += 1e-6 * (abs(bad[0, 0]) + 1)
        problems += [tag + p for p in expect(checks.check_payments, (full, pay), [
            ("one payment moved (column no longer sums to zero / telescopes)", (full, bad)),
        ])]
        profit = np.asarray(out["profit"])
        s = ref.coalition_surplus(c["rule"], c["P"], c["w"], q)
        bad_profit = [("profit moved", (full, profit * (1 + 1e-6), s))]
        if c["mechanism"] == "competitive":
            bad_profit.append(("profit without the (1 - W_C/W) factor", (full, s, s)))
        problems += [tag + p for p in expect(checks.check_profit, (full, profit, s), bad_profit)]
        if c["type"] == "custom":
            problems += [tag + p for p in expect(checks.check_binary_equalizer, (c, out["q1"]), [
                ("perturbed binary equalizer", (c, out["q1"] * (1 + 1e-7))),
            ])]
    dust = next(c for c in batch.cases if c["type"] == "dust")
    # The spherical equalizer with its float dust clipped: what a fix returns.
    raw = arbitrage._spherical_equalizer(arbitrage._spherical_y(dust["P"], dust["w"]))
    fixed = np.clip(raw, 0.0, None) / np.clip(raw, 0.0, None).sum()
    problems += ["dust: " + p for p in expect(checks.check_fault_case, (dust, fixed), [
        ("the negative entry itself", (dust, raw)),
        ("a report that does not equalize", (dust, np.asarray([0.5, 0.5, 0.0]))),
    ])]
    for near, out in near_outputs:
        # The program's report is right; only the oracle's verdict is not.
        q = np.asarray(out["arb"].q.probs)
        far = np.full(len(q), 1.0 / len(q))
        far[0] += 0.1
        far[-1] -= 0.1
        tag = f"near {near['rule']['kind']}: "
        problems += [tag + p for p in expect(checks.check_fault_case, (near, q), [
            ("a report far from the members", (near, far)),
            ("q off the simplex", (near, q * 1.001)),
        ])]
        if not batch.failed(near, out):
            problems.append(tag + f"oracle verdict {out['verdict'].verdict.value!r}: the fault this case counts is gone")
    return problems


@case
def grid():
    with tempfile.TemporaryDirectory(dir=workdir()) as tmp:
        g = workloads.Grid(3, Path(tmp))
    problems = []
    for c in g.checks:
        res = min(c["resolution"], 40)
        c = {**c, "resolution": res}
        c["sample"] = workloads.Grid._lattice_sample(np.random.default_rng(0), c["belief"], res)
        r = rules.check_strict_properness(c["program_rule"], c["forecast"], res)
        nearest = np.asarray(r.nearest_competitor.probs)
        vertex = np.eye(len(nearest))[int(np.argmin(c["belief"]))]
        tag = f"properness {c['rule']['kind']} m={len(nearest)}: "
        problems += [tag + p for p in expect(checks.check_properness, (c, r.passed, r.max_margin, nearest, r.checked, r.skipped), [
            ("checked count off by one", (c, r.passed, r.max_margin, nearest, r.checked - 1, r.skipped)),
            ("verdict flipped", (c, not r.passed, r.max_margin, nearest, r.checked, r.skipped)),
            ("max_margin moved", (c, r.passed, r.max_margin + 1e-6, nearest, r.checked, r.skipped)),
            ("nearest competitor moved to another vertex", (c, r.passed, r.max_margin, vertex, r.checked, r.skipped)),
        ])]
    for c in g.searches:
        c = {**c, "resolution": 20}
        found = np.asarray(arbitrage.grid_search_equalizer(c["program_rule"], c["players"], c["coalition"], 20).probs)
        far = np.eye(len(found))[int(np.argmin(found))]
        problems += [f"grid search {c['rule']['kind']}: " + p for p in expect(checks.check_grid_search, (c, found), [
            ("a worse lattice point", (c, far)),
            ("off the lattice", (c, found * 0.999 + 0.001 / len(found))),
        ])]
    return problems


@case
def cli_outputs():
    with tempfile.TemporaryDirectory(dir=workdir()) as tmp:
        work = workloads.Cli(1, Path(tmp))
        problems = []
        for name, command in (("example1", "score"), ("example2", "score"), ("example3", "score"), ("example1", "arbitrage"),
                              ("example2", "verify"), ("intermediary", "simulate")):
            parsed = {}
            for fmt in ("csv", "json"):
                code, text, _ = work._main([command, "--scenario", name, "--format", fmt])
                parsed[fmt] = checks.parse_cli(command, fmt, text)
            expect_ = work.expect[name, command]
            good = parsed["json"]
            bad = copy.deepcopy(good)
            key = next(iter(bad))
            if key == "status":
                bad[key]["properness"] = "fail"
            elif isinstance(bad[key][0], list):
                bad[key][0][0] += 1e-6
            else:
                bad[key][0] += 1e-6
            tag = f"cli {name} {command}: "
            problems += [tag + p for p in expect(checks.check_cli_output, (expect_, good), [("one number or status changed", (expect_, bad))])]
            problems += [tag + p for p in expect(checks.check_cli_agree, (parsed["csv"], good), [("csv and json disagree", (parsed["csv"], bad))])]
    return problems


def main() -> int:
    failures = 0
    for fn in CASES:
        problems = fn()
        print(f"{fn.__name__}: {'ok' if not problems else 'FAILED'}")
        for p in problems:
            print(f"  {p}")
        failures += len(problems)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
