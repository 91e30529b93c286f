"""Pins every output of the coalition path on 200 seeded random
coalitions: the equalizing report and its surplus, the closed form, the
dominance oracle, payment tables under all three mechanisms, the
intermediary's profit and the competitive and market coalition gains.

One sha256 over the reprs of all results, errors and warnings is kept in
tests/data/coalition_path_digest.json. A change that moves any of them on
purpose re-records it with `PYTHONPATH=src python tests/test_coalition_path.py`.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import warnings
from pathlib import Path

import numpy as np

from coalition_forge import (
    Coalition,
    MechanismKind,
    MechanismSpec,
    arbitrage_report,
    binary_equalizer,
    closed_form_surplus,
    coalition_surplus_competitive,
    coalition_surplus_market,
    custom_binary_rule,
    generalized_log_rule,
    intermediary_profit_by_outcome,
    linear_rule,
    logarithmic_rule,
    logit_generator,
    payment_table,
    quadratic_rule,
    spherical_rule,
    verify_dominance_oracle,
)
from coalition_forge.simplex import Forecast

from conftest import binary_quadratic_generator, disagreeing_players, random_forecast, weighted_mean

DIGEST = Path(__file__).parent / "data" / "coalition_path_digest.json"
CASES = 200
SEED = 20_241_018
KINDS = (
    "quadratic", "logarithmic", "generalized_logarithmic", "spherical", "linear",
    "custom_binary",
)


def _rule(rng: np.random.Generator, kind: str, m: int):
    a = rng.uniform(-1.0, 1.0, size=m).tolist() if rng.random() < 0.5 else None
    b = float(rng.uniform(0.5, 2.0))
    if kind == "quadratic":
        return quadratic_rule(a, b), None
    if kind == "logarithmic":
        return logarithmic_rule(a, b), None
    if kind == "generalized_logarithmic":
        floor = float(rng.choice((0.0, 0.05, 0.2, rng.uniform(0.01, 0.5))))
        return generalized_log_rule(floor, a, b), None
    if kind == "spherical":
        return spherical_rule(a, b), None
    if kind == "linear":
        return linear_rule(a, b), None
    gen = (logit_generator, binary_quadratic_generator)[int(rng.integers(2))]()
    return custom_binary_rule(gen, a, b), gen


def _vertex(rng: np.random.Generator, m: int) -> Forecast:
    probs = [0.0] * m
    probs[int(rng.integers(m))] = 1.0
    return Forecast(tuple(probs))


def _case(i: int) -> dict:
    rng = np.random.default_rng([SEED, i])
    kind = KINDS[i % len(KINDS)]
    m = 2 if kind == "custom_binary" else int(rng.integers(2, 9))
    rule, gen = _rule(rng, kind, m)
    n = int(rng.integers(3, 13))
    c = int(rng.integers(2, n))
    players = disagreeing_players(rng, n, m, equal_wagers=bool(rng.random() < 0.3))
    members = tuple(int(x) for x in rng.choice(n, size=c, replace=False))
    # Some outsiders submitted a report; one in ten cases has an outsider
    # at a vertex, where the logarithmic and custom binary scores are
    # undefined.
    outsiders = [k for k in range(n) if k not in members]
    for k in outsiders:
        if rng.random() < 0.3:
            players[k] = dataclasses.replace(players[k], report=random_forecast(rng, m))
    if rng.random() < 0.1:
        k = outsiders[int(rng.integers(len(outsiders)))]
        players[k] = dataclasses.replace(players[k], report=_vertex(rng, m))
    prior = random_forecast(rng, m) if rng.random() < 0.7 else None
    ordering = [int(x) for x in rng.permutation(n)]
    return {
        "rule": rule, "gen": gen, "players": players,
        "coalition": Coalition(members), "prior": prior, "ordering": ordering,
    }


def _outcome(fn) -> str:
    """repr of what fn returns or raises, and of the warnings it emits."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            text = repr(fn())
        except Exception as exc:  # the type and text of every error are pinned
            text = f"{type(exc).__name__}: {exc}"
    return text + "".join(f" [{w.category.__name__}: {w.message}]" for w in caught)


def case_lines(i: int) -> list[str]:
    case = _case(i)
    rule, players, co = case["rule"], case["players"], case["coalition"]
    chosen = [players[k] for k in co.members]
    try:
        q = arbitrage_report(rule, players, co).q
    except Exception:
        q = weighted_mean([p.belief for p in chosen], [p.wager for p in chosen])
    members = set(co.members)
    reporting = [
        dataclasses.replace(p, report=q if k in members else p.report or p.belief)
        for k, p in enumerate(players)
    ]
    lines = [
        _outcome(lambda: arbitrage_report(rule, players, co)),
        _outcome(lambda: closed_form_surplus(rule, players, co)),
        _outcome(lambda: verify_dominance_oracle(rule, players, co, q)),
    ]
    if case["gen"] is not None:
        lines.append(_outcome(lambda: binary_equalizer(case["gen"], players, co)))
    for kind in MechanismKind:
        prior = case["prior"] if kind is MechanismKind.MARKET else None
        spec = MechanismSpec(kind, rule, prior)
        lines.append(_outcome(lambda: payment_table(spec, reporting)))
        if kind is not MechanismKind.MARKET:
            lines.append(_outcome(lambda: intermediary_profit_by_outcome(spec, players, co, q)))
    for j in range(q.m):
        lines.append(_outcome(lambda: coalition_surplus_competitive(rule, players, co, q, j)))
        lines.append(_outcome(lambda: coalition_surplus_market(
            rule, players, case["ordering"], co, q, j, case["prior"])))
    return [f"{i} {line}" for line in lines]


def path_digest(text: str) -> dict:
    digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
    return {"cases": CASES, "lines": text.count("\n") + 1, "sha256": digest}


def path_text() -> str:
    return "\n".join(line for i in range(CASES) for line in case_lines(i))


def test_coalition_path_outputs_are_pinned():
    text = path_text()
    assert path_digest(text) == json.loads(DIGEST.read_text(encoding="utf-8"))
    # The pinned lines are not all one kind of result: errors from the
    # linear rule and from undefined outsider reports, and ordering
    # warnings, are among them.
    for fragment in (
        "UnsupportedRule", "LogOfZero", "OutOfDomain", "OrderingViolationWarning",
        "Verdict.DOMINATES",
    ):
        assert fragment in text, fragment


if __name__ == "__main__":
    record = path_digest(path_text())
    DIGEST.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8")
