"""Output checks. Each function takes the program's outputs as plain
numbers, compares them with bench/reference.py or with an identity the
method must satisfy, and raises CheckFailed with a reason when they
disagree. bench/selftest.py feeds every check a corrupted output."""

from __future__ import annotations

import csv
import io
import json
import math

import numpy as np

import reference as ref

# Equalization, closed-form and identity checks are relative to the
# surplus level; the absolute floor covers float dust around zero.
RTOL = 1e-9
ATOL = 1e-12
SWEEP_SIGMAS = 6.0


class CheckFailed(Exception):
    pass


def require(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


# ----------------------------------------------------------------- sweep

def check_sweep_shape(rows: list[dict], n: int, fractions, trials: int) -> None:
    require(len(rows) == len(fractions), f"{len(rows)} rows for {len(fractions)} fractions")
    for row, f in zip(rows, fractions):
        require(row["coalition_size"] == round(f * n), f"coalition_size {row['coalition_size']} at f={f}")
        require(row["trials"] == trials, f"trials {row['trials']} != {trials}")


def check_sweep_beta22(rows: list[dict], n: int, fractions, trials: int, competitive: bool) -> None:
    """Quadratic rule, Beta(2, 2) beliefs: every row mean within
    SWEEP_SIGMAS reference standard errors of its expectation."""
    check_sweep_shape(rows, n, fractions, trials)
    for row in rows:
        mu, se = ref.beta22_sweep_row(row["coalition_size"], n, trials, competitive)
        z = (row["mean"] - mu) / se
        require(abs(z) <= SWEEP_SIGMAS, f"row c={row['coalition_size']}: mean {row['mean']!r} is {z:.2f} se from {mu!r}")


def check_sweep_positive(rows: list[dict], n: int, fractions, trials: int) -> None:
    """Every trial's coalition plays its equalizer against disagreeing
    beliefs, so every row mean is above 0."""
    check_sweep_shape(rows, n, fractions, trials)
    for row in rows:
        require(row["mean"] > 0.0, f"non-positive mean {row['mean']!r} at c={row['coalition_size']}")


def check_sweep_pair(trad: list[dict], comp: list[dict], n: int, fractions, trials: int) -> None:
    """Traditional and competitive sweeps of one population model: means
    positive, and competitive = (1 - c/n) x traditional within the
    combined error of the two means."""
    check_sweep_positive(trad, n, fractions, trials)
    check_sweep_positive(comp, n, fractions, trials)
    for t, c in zip(trad, comp):
        scale = 1.0 - t["coalition_size"] / n
        err = math.hypot(c["se"], scale * t["se"])
        require(err > 0.0, f"zero standard error at c={t['coalition_size']}")
        gap = c["mean"] - scale * t["mean"]
        require(abs(gap) <= SWEEP_SIGMAS * err, f"competitive {c['mean']!r} vs (1-c/n) x {t['mean']!r}: gap {gap!r} > {SWEEP_SIGMAS} x {err!r}")


def check_sweep_repeat(first: list[dict], again: list[dict]) -> None:
    require(first == again, "a repeated sweep with the same seed returned different rows")


# ------------------------------------------------------------ coalitions

def _equalized(s) -> bool:
    s = np.asarray(s, dtype=np.float64)
    return float(s.max() - s.min()) <= RTOL * float(np.abs(s).max()) + ATOL


def check_equalizer(case: dict, q, surplus_by_outcome, closed_form=None, margins=None) -> np.ndarray:
    """q on the simplex; its reference surplus positive, equal across
    outcomes, and equal to the program's surplus, closed form and oracle
    margins; q equal to the reference equalizer where one exists."""
    rule, P, w = case["rule"], case["P"], case["w"]
    require(ref.on_simplex(q), f"q {list(q)!r} is not on the simplex")
    s = ref.coalition_surplus(rule, P, w, q)
    require(bool((s > 0.0).all()), f"reference surplus {s.tolist()!r} not positive")
    require(_equalized(s), f"reference surplus {s.tolist()!r} not equal across outcomes")
    require(ref.close(surplus_by_outcome, s, RTOL, ATOL), f"surplus_by_outcome {list(surplus_by_outcome)!r} vs reference {s.tolist()!r}")
    if closed_form is not None:
        require(ref.close(closed_form, s.mean(), RTOL, ATOL), f"closed_form_surplus {closed_form!r} vs reference {s.mean()!r}")
    if margins is not None:
        require(ref.close(margins, s, RTOL, ATOL), f"oracle margins {list(margins)!r} vs reference {s.tolist()!r}")
    family = case.get("equalizer")
    if family == "quadratic":
        want = ref.quadratic_equalizer(P, w)
    elif family == "logarithmic":
        want = ref.logarithmic_equalizer(P, w)
    else:
        want = None
    if want is not None:
        require(ref.close(q, want, RTOL, ATOL), f"q {list(q)!r} vs reference {family} equalizer {want.tolist()!r}")
    return s


def check_payments(case: dict, payments) -> None:
    """Payment table with members reporting q and outsiders truthful."""
    rule, mech = case["rule"], case["mechanism"]
    reports = case["reports"]
    pay = np.asarray(payments, dtype=np.float64)
    if mech == "traditional":
        want = ref.traditional_payments(rule, reports, case["wagers"])
    elif mech == "competitive":
        want = ref.competitive_payments(rule, reports, case["wagers"])
        scale = np.abs(want).max() + 1.0
        require(bool(np.all(np.abs(pay.sum(axis=0)) <= RTOL * scale)), f"competitive columns sum to {pay.sum(axis=0).tolist()!r}, not 0")
    else:
        want = ref.market_payments(rule, reports, case["prior"])
        ends = ref.scores(rule, np.vstack([reports[-1], case["prior"]]))
        require(ref.close(pay.sum(axis=0), ends[0] - ends[1], RTOL, 1e-10), "market payments do not telescope to S(last) - S(prior)")
    require(ref.close(pay, want, RTOL, 1e-10), f"{mech} payments differ from the reference")


def check_profit(case: dict, profit, surplus) -> None:
    """Intermediary profit: the plain surplus under side wagers, and
    (1 - W_C/W) of it in the self-financed pool (Lambert et al. 2008);
    under market scoring the members' summed score gain."""
    mech = case["mechanism"]
    if mech == "market":
        gain = ref.coalition_surplus(case["rule"], case["P"], np.ones(len(case["P"])), case["q"])
        require(ref.close(profit, gain, RTOL, 1e-10), f"market coalition surplus {list(profit)!r} vs summed gain {gain.tolist()!r}")
        return
    scale = 1.0
    if mech == "competitive":
        scale = 1.0 - float(np.sum(case["w"])) / float(np.sum(case["wagers"]))
    require(ref.close(profit, scale * np.asarray(surplus), RTOL, 1e-10), f"{mech} intermediary profit {list(profit)!r} vs {scale!r} x {list(surplus)!r}")


def check_binary_equalizer(case: dict, q1: float) -> None:
    """The logit generator induces the logarithmic score, whose equalizer
    is the normalized weighted geometric mean."""
    want = ref.logarithmic_equalizer(case["P"], case["w"])[0]
    require(ref.close(q1, want, RTOL, ATOL), f"binary_equalizer {q1!r} vs geometric mean {want!r}")


def check_fault_case(case: dict, q) -> None:
    """A fixed coalition on which the program fails today (near-vertex
    spherical beliefs, or members that disagree by about 1e-7): any report
    on the simplex whose reference surplus is equal across outcomes and
    not below -1e-12, so a correct fix passes."""
    require(ref.on_simplex(q), f"q {list(q)!r} is not on the simplex")
    s = ref.coalition_surplus(case["rule"], case["P"], case["w"], q)
    require(_equalized(s), f"reference surplus {s.tolist()!r} not equal across outcomes")
    require(float(s.min()) >= -1e-12, f"reference surplus {s.tolist()!r} below -1e-12")


# ------------------------------------------------------------------ grid

def check_properness(case: dict, passed: bool, max_margin: float, nearest, checked: int, skipped: int) -> None:
    rule, p, res = case["rule"], np.asarray(case["belief"]), case["resolution"]
    m = len(p)
    total = math.comb(res + m - 1, m - 1)
    on_lattice = bool(np.all(np.abs(p * res - np.round(p * res)) <= 1e-9))
    require(checked + skipped + int(on_lattice) == total, f"checked {checked} + skipped {skipped} + {int(on_lattice)} != C({res + m - 1}, {m - 1}) = {total}")
    require(ref.on_simplex(nearest), "nearest competitor is not on the simplex")
    truth = float(ref.expected_scores(rule, p, p)[0])
    at_nearest = float(ref.expected_scores(rule, nearest, p)[0]) - truth
    require(abs(at_nearest - max_margin) <= 1e-9, f"max_margin {max_margin!r} vs reference {at_nearest!r} at the nearest competitor")
    sample = np.asarray(case["sample"], dtype=np.float64)
    with np.errstate(invalid="ignore"):
        sampled = ref.expected_scores(rule, sample, p) - truth
    sampled = sampled[np.isfinite(sampled)]
    require(bool(np.all(sampled <= max_margin + 1e-12)), "a sampled lattice report beats the reported max_margin")
    if rule["kind"] == "linear":
        k = int(np.argmax(p))
        require(not passed, "the linear control passed the properness check")
        require(int(np.argmax(nearest)) == k and abs(float(nearest[k]) - 1.0) <= 1e-12, f"linear nearest competitor {list(nearest)!r} is not vertex {k}")
        require(abs(max_margin - rule["b"] * (p[k] - float(p @ p))) <= 1e-9, "linear max_margin differs from b (p_max - |p|^2)")
    else:
        require(passed and max_margin < 0.0, f"{rule['kind']} failed properness (max_margin {max_margin!r})")


def check_grid_search(case: dict, g) -> None:
    """The grid-search report's worst-outcome surplus lies between that of
    the lattice point nearest the equalizer (the search maximizes over the
    lattice) and that of the equalizer itself (which is maximin)."""
    rule, P, w, res = case["rule"], case["P"], case["w"], case["resolution"]
    g = np.asarray(g, dtype=np.float64)
    require(ref.on_simplex(g) and bool(np.all(np.abs(g * res - np.round(g * res)) <= 1e-9)), "grid-search report is not a lattice point")
    q = ref.quadratic_equalizer(P, w) if rule["kind"] == "quadratic" else ref.logarithmic_equalizer(P, w)
    k = np.round(q * res)
    k[int(np.argmax(k))] += res - k.sum()
    with np.errstate(divide="ignore", invalid="ignore"):
        best = float(ref.coalition_surplus(rule, P, w, q).min())
        floor = float(np.nan_to_num(ref.coalition_surplus(rule, P, w, k / res), nan=-np.inf).min())
        worst_g = float(ref.coalition_surplus(rule, P, w, g).min())
    require(worst_g <= best + RTOL * abs(best) + ATOL, f"grid report worst surplus {worst_g!r} exceeds the equalizer's {best!r}")
    require(worst_g >= floor - RTOL * abs(floor) - ATOL, f"grid report worst surplus {worst_g!r} below the lattice point nearest the equalizer ({floor!r})")


# ------------------------------------------------------------------- cli

def parse_cli(command: str, fmt: str, text: str) -> dict:
    """Numbers of a csv or json output, keyed alike for both formats."""
    if fmt == "json":
        payload = json.loads(text)["payload"]
        if command == "score":
            return {"payments": payload["payments"]}
        if command == "arbitrage":
            return {"q": payload["q"], "surplus": payload["surplus_by_outcome"], "margins": payload["oracle_margins"],
                    "closed_form": payload["closed_form_surplus"], "verdict": payload["verdict"]}
        if command == "verify":
            return {"status": {c["check"]: c["status"] for c in payload["checks"]}}
        if "profit_by_outcome" in payload:
            return {"profit": payload["profit_by_outcome"]}
        return {"surplus": payload["surplus_by_outcome"]}
    rows = list(csv.reader(io.StringIO(text)))
    header, body = rows[0], rows[1:]
    require(len(body) > 0, f"empty {command} csv")
    if command == "score":
        return {"payments": [[float(x) for x in r[1:]] for r in body]}
    if command == "arbitrage":
        return {"q": [float(r[1]) for r in body], "surplus": [float(r[2]) for r in body],
                "margins": [float(r[3]) for r in body]}
    if command == "verify":
        return {"status": {r[0]: r[1] for r in body}}
    return {header[1]: [float(r[1]) for r in body]}


def check_cli_agree(parsed_csv: dict, parsed_json: dict) -> None:
    for key, value in parsed_csv.items():
        require(parsed_json.get(key) == value, f"csv and json disagree on {key}")


def check_cli_output(expect: dict, parsed: dict) -> None:
    """One parsed csv or json output against the scenario's reference."""
    kind = expect["kind"]
    if kind == "score":
        check_payments(expect["case"], parsed["payments"])
    elif kind == "arbitrage":
        check_equalizer(expect["case"], parsed["q"], parsed["surplus"], parsed.get("closed_form"), parsed["margins"])
        if "verdict" in parsed:
            require(parsed["verdict"] == "dominates", f"verdict {parsed['verdict']!r}")
    elif kind == "verify":
        require(parsed["status"] == expect["status"], f"verify statuses {parsed['status']!r} vs {expect['status']!r}")
    elif kind == "intermediary":
        require(ref.close(parsed["profit"], expect["profit"], RTOL, 1e-10), f"intermediary profit {parsed['profit']!r} vs {expect['profit']!r}")
    elif kind == "market_session":
        s = parsed["surplus"]
        require(min(s) > 0.0 and _equalized(s), f"market session surplus {s!r} not positive and equal across outcomes")
    else:
        raise CheckFailed(f"unknown expectation kind {kind!r}")
