"""Property tests of the paper's identities on extreme beliefs: the
equalizing report dominates, equalizes and earns its closed-form surplus;
self-financing competitive columns, the (1 - w_C/W) scaling of the
competitive coalition gain, and market-scoring telescoping; and of the
scenario format: the parser reads every valid scenario and its canonical
JSON text to the same Scenario.

Beliefs come from Dirichlet draws with alpha = 0.01, which pile almost all
mass on one state, and, under the quadratic and spherical rules, from rows
with exact zeros. The unfloored logarithmic rule cannot score a zero, so
its draws keep every entry at 1e-12 or more.
"""

from __future__ import annotations

import dataclasses
import json
import math
import warnings

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from coalition_forge import (
    Coalition,
    DegenerateBelief,
    Forecast,
    MechanismKind,
    MechanismSpec,
    OrderingViolationWarning,
    Player,
    arbitrage_report,
    check_strict_properness,
    closed_form_surplus,
    coalition_surplus_competitive,
    coalition_surplus_market,
    custom_binary_rule,
    generalized_log_rule,
    canonical_json,
    grid_search_equalizer,
    intermediary_profit_by_outcome,
    logarithmic_rule,
    logit_generator,
    parse_scenario,
    payment_table,
    quadratic_rule,
    score,
    score_table,
    spherical_rule,
    verify_dominance_oracle,
    Verdict,
)

RULES = {
    "quadratic": quadratic_rule(b=1.5),
    "spherical": spherical_rule(b=0.7),
    "generalized_log": generalized_log_rule(0.05),
    "logarithmic": logarithmic_rule(b=0.9),
}
ZEROS_ALLOWED = ("quadratic", "spherical")

PROPERTY_SETTINGS = settings(
    max_examples=80,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def _extreme_rows(rng: np.random.Generator, count: int, m: int, name: str) -> list[Forecast]:
    alpha = rng.choice([0.01, 1.0])
    rows = rng.dirichlet(np.full(m, alpha), size=count)
    if name in ZEROS_ALLOWED:
        # Zero out some entries, keeping each row's largest one.
        cut = rng.random((count, m)) < 0.4
        cut[np.arange(count), rows.argmax(axis=1)] = False
        rows = np.where(cut, 0.0, rows)
    elif name == "logarithmic":
        rows = np.maximum(rows, 1e-12)
    rows = rows / rows.sum(axis=1, keepdims=True)
    return [Forecast(tuple(float(x) for x in row)) for row in rows]


@st.composite
def pools(draw):
    """A rule name, a pool of players with extreme beliefs and reports,
    and a proper sub-coalition with one extreme coordinated report."""
    name = draw(st.sampled_from(sorted(RULES)))
    m = draw(st.integers(2, 6))
    n = draw(st.integers(3, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    beliefs = _extreme_rows(rng, n, m, name)
    reports = _extreme_rows(rng, n, m, name)
    wagers = rng.uniform(0.1, 3.0, size=n)
    players = [Player(b, float(w), r) for b, w, r in zip(beliefs, wagers, reports)]
    size = draw(st.integers(2, n - 1))
    coalition = Coalition(tuple(int(i) for i in rng.permutation(n)[:size]))
    q = _extreme_rows(rng, 1, m, name)[0]
    return name, players, coalition, q


@PROPERTY_SETTINGS
@given(pools())
def test_competitive_columns_sum_to_zero(pool):
    name, players, _, _ = pool
    table = payment_table(MechanismSpec(MechanismKind.COMPETITIVE, RULES[name]), players)
    for j in range(len(table.payments[0])):
        assert abs(table.column_sum(j)) <= 1e-9


@PROPERTY_SETTINGS
@given(pools())
def test_competitive_gain_is_scaled_traditional_gain(pool):
    name, players, coalition, q = pool
    rule = RULES[name]
    w_c = coalition.wager_total(players)
    w_n = math.fsum(p.wager for p in players)
    spec = MechanismSpec(MechanismKind.TRADITIONAL, rule)
    traditional = intermediary_profit_by_outcome(spec, players, coalition, q)
    for j, gain in enumerate(traditional):
        scaled = (1.0 - w_c / w_n) * gain
        direct = coalition_surplus_competitive(rule, players, coalition, q, j)
        assert abs(direct - scaled) <= 1e-9 * max(1.0, abs(scaled))


@PROPERTY_SETTINGS
@given(pools())
def test_market_payments_telescope_on_extreme_reports(pool):
    name, players, _, q = pool
    rule = RULES[name]
    reports = [p.report for p in players]
    table = payment_table(MechanismSpec(MechanismKind.MARKET, rule, q), players)
    for j in range(q.m):
        expected = score(rule, reports[-1], j) - score(rule, q, j)
        column = [row[j] for row in table.payments]
        assert abs(math.fsum(column) - expected) <= 1e-9 * max(1.0, abs(expected))


@st.composite
def extreme_coalitions(draw):
    """A rule name, 2 to 4 members with extreme beliefs over 2 to 7 states
    and wagers in [0.5, 3), and one uniform outsider. Members come from
    Dirichlet draws (alpha down to 0.01), from one belief spread by 1e-11
    to 1e-5 (near agreement), or within 1e-12 to 1e-6 of one vertex."""
    name = draw(st.sampled_from(sorted(RULES)))
    m = draw(st.integers(2, 7))
    k = draw(st.integers(2, 4))
    alpha = draw(st.sampled_from([0.01, 0.1, 1.0, 50.0]))
    shape = draw(st.sampled_from(["spread", "near_agreement", "near_vertex"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if shape == "spread":
        rows = rng.dirichlet(np.full(m, alpha), size=k)
    elif shape == "near_agreement":
        spread = 10.0 ** rng.uniform(-11.0, -5.0)
        rows = rng.dirichlet(np.full(m, alpha)) + spread * rng.dirichlet(np.ones(m), size=k)
    else:
        distance = 10.0 ** rng.uniform(-12.0, -6.0, size=(k, 1))
        rows = distance * rng.dirichlet(np.full(m, alpha), size=k)
        rows[:, rng.integers(m)] += 1.0 - distance[:, 0]
    rows = rows / rows.sum(axis=1, keepdims=True)
    wagers = rng.uniform(0.5, 3.0, size=k)
    players = [Player(Forecast(tuple(row.tolist())), float(w)) for row, w in zip(rows, wagers)]
    players.append(Player(Forecast((1.0 / m,) * m), 1.0))
    return name, players, Coalition(tuple(range(k)))


@settings(PROPERTY_SETTINGS, max_examples=400)
@given(extreme_coalitions())
def test_equalizer_dominates_equalizes_and_meets_its_closed_form(case):
    name, players, coalition = case
    rule = RULES[name]
    try:
        result = arbitrage_report(rule, players, coalition)
    except DegenerateBelief:
        # The unfloored logarithmic rule cannot aggregate a zero entry.
        assert name == "logarithmic"
        return
    assert result.equalized
    if result.agreement:
        return
    verdict = verify_dominance_oracle(rule, players, coalition, result.q)
    assert verdict.verdict is Verdict.DOMINATES
    # The surplus is a difference of wagered scores, so its rounding error
    # scales with them, not with the surplus: near 1e-10 under the log
    # rule a relative bound fails. Allow 8 ulps of the scores' total.
    members = [players[i] for i in coalition.members]
    table = score_table(rule, np.asarray([result.q.probs] + [p.belief.probs for p in members]))
    peaks = np.abs(table).max(axis=1)
    scale = math.fsum(p.wager * (peaks[0] + peak) for p, peak in zip(members, peaks[1:]))
    direct = math.fsum(result.surplus_by_outcome) / result.q.m
    assert abs(closed_form_surplus(rule, players, coalition) - direct) <= 8 * 2**-52 * scale


# Offsets a (one value in every state) and scales b of the rules
# a + b * S that the invariance test compares with the unit rule S.
OFFSETS = (0.0, 1e8, -1e8)
SCALES = (1e-9, 1.0, 1e6)
FAMILIES = ("quadratic", "logarithmic", "generalized_log", "spherical", "custom_binary")


def _family_rule(name: str, m: int, a: float, b: float):
    offsets = None if a == 0.0 else (a,) * m
    if name == "quadratic":
        return quadratic_rule(offsets, b)
    if name == "logarithmic":
        return logarithmic_rule(offsets, b)
    if name == "generalized_log":
        return generalized_log_rule(0.05, offsets, b)
    if name == "spherical":
        return spherical_rule(offsets, b)
    return custom_binary_rule(logit_generator(), offsets, b)


@st.composite
def random_coalitions(draw):
    """A rule family, 3 to 6 players over 2 to 5 states (2 for the custom
    binary rule) with wagers in [0.5, 3), a proper sub-coalition whose
    members either disagree freely or lie within 1e-9 to 1e-3 of one
    belief, a market ordering and an opening report."""
    name = draw(st.sampled_from(FAMILIES))
    m = 2 if name == "custom_binary" else draw(st.integers(2, 5))
    n = draw(st.integers(3, 6))
    k = draw(st.integers(2, n - 1))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        spread = 10.0 ** rng.uniform(-9.0, -3.0)
        rows = rng.dirichlet(np.full(m, 2.0)) + spread * rng.dirichlet(np.ones(m), size=k)
    else:
        rows = rng.dirichlet(np.ones(m), size=k)
    rows = np.vstack([rows / rows.sum(axis=1, keepdims=True), rng.dirichlet(np.ones(m), size=n - k)])
    order = rng.permutation(n)
    wagers = rng.uniform(0.5, 3.0, size=n)
    players = [
        Player(Forecast(tuple(rows[i].tolist())), float(w)) for i, w in zip(order, wagers)
    ]
    coalition = Coalition(tuple(int(i) for i in np.flatnonzero(order < k)))
    prior = Forecast(tuple(rng.dirichlet(np.ones(m)).tolist()))
    return name, players, coalition, [int(i) for i in rng.permutation(n)], prior


def _coalition_outputs(rule, players, coalition, ordering, prior):
    """Every coalition result of a rule: the equalizing report with its
    flags, the oracle's verdict, and the gains, each on the rule's scale."""
    arb = arbitrage_report(rule, players, coalition)
    q = arb.q
    verdict = verify_dominance_oracle(rule, players, coalition, q)
    gains = [arb.surplus_by_outcome, verdict.margins]
    for kind in (MechanismKind.TRADITIONAL, MechanismKind.COMPETITIVE):
        gains.append(intermediary_profit_by_outcome(MechanismSpec(kind, rule), players, coalition, q))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", OrderingViolationWarning)
        gains.append(tuple(
            coalition_surplus_competitive(rule, players, coalition, q, j) for j in range(q.m)
        ))
        gains.append(tuple(
            coalition_surplus_market(rule, players, ordering, coalition, q, j, prior)
            for j in range(q.m)
        ))
    closed = None
    if rule.kind.value != "custom_binary":
        closed = closed_form_surplus(rule, players, coalition)
    flags = ([x.hex() for x in q.probs], arb.agreement, arb.equalized, verdict.verdict, verdict.witness)
    return flags, gains, closed


@settings(PROPERTY_SETTINGS, max_examples=120)
@given(random_coalitions())
def test_gains_flags_and_verdicts_do_not_depend_on_offsets_or_scale(case):
    # Under a + b * S the offsets cancel from every coalition gain and the
    # gain scales by b, so q, the flags and the verdict are those of S, and
    # each gain, margin, profit and closed form is b times S's, bit for bit.
    name, players, coalition, ordering, prior = case
    m = players[0].belief.m
    flags, gains, closed = _coalition_outputs(
        _family_rule(name, m, 0.0, 1.0), players, coalition, ordering, prior
    )
    for a in OFFSETS:
        for b in SCALES:
            got_flags, got_gains, got_closed = _coalition_outputs(
                _family_rule(name, m, a, b), players, coalition, ordering, prior
            )
            assert got_flags == flags, (a, b)
            for got, unit in zip(got_gains, gains):
                assert got == tuple(b * x for x in unit), (a, b)
            assert got_closed == (None if closed is None else b * closed), (a, b)


@settings(PROPERTY_SETTINGS, max_examples=40)
@given(random_coalitions(), st.integers(10, 14))
def test_properness_and_grid_search_do_not_depend_on_offsets_or_scale(case, resolution):
    # Both lattice scans decide on the unit rule S: every (a, b) gives the
    # (0, 1) properness report, with max_margin b times its, bit for bit,
    # and the (0, 1) grid-search report.
    name, players, coalition, _, _ = case
    m = players[0].belief.m
    belief = players[coalition.members[0]].belief
    unit = _family_rule(name, m, 0.0, 1.0)
    report = check_strict_properness(unit, belief, resolution)
    best = grid_search_equalizer(unit, players, coalition, resolution)
    for a in OFFSETS:
        for b in SCALES:
            rule = _family_rule(name, m, a, b)
            got = check_strict_properness(rule, belief, resolution)
            assert got == dataclasses.replace(report, max_margin=b * report.max_margin), (a, b)
            assert grid_search_equalizer(rule, players, coalition, resolution) == best, (a, b)


def test_scans_keep_their_answer_under_large_offsets_and_a_small_scale():
    # Scored with the offsets, every margin of these scans would round
    # against 1e8: the check would fail at max_margin 0.0, nearest (0, 1),
    # and the search would return the first lattice row, (0, 1).
    rule = quadratic_rule((1e8, 1e8), 1e-9)
    report = check_strict_properness(rule, Forecast((0.3, 0.7)), 50)
    assert report.passed and report.nearest_competitor == Forecast((0.32, 0.68))
    players = [
        Player(Forecast((0.3, 0.7)), 1.0),
        Player(Forecast((0.30001, 0.69999)), 1.0),
        Player(Forecast((0.5, 0.5)), 1.0),
    ]
    best = grid_search_equalizer(rule, players, Coalition((0, 1)), 200_000)
    assert best == Forecast((0.300005, 0.699995))


POSITIVE = st.floats(1e-3, 1e3)


@st.composite
def probability_lists(draw, m):
    """m non-negative entries summing to 1, with exact zeros and
    near-vertex rows among them."""
    weights = draw(
        st.lists(st.one_of(st.just(0.0), st.floats(1e-12, 1.0)), min_size=m, max_size=m)
    )
    weights[draw(st.integers(0, m - 1))] += 1.0
    total = math.fsum(weights)
    return [w / total for w in weights]


@st.composite
def scenario_documents(draw):
    """A valid scenario in its JSON form: every rule kind and mechanism
    name, players with and without reports, a coalition, labels and each
    simulation mode, every optional field sometimes left out."""
    m = draw(st.integers(2, 4))
    mechanism = draw(
        st.sampled_from(["traditional", "competitive", "market", "kilgour_gerchak", "lambert"])
    )
    kinds = ["quadratic", "spherical", "generalized_logarithmic"]
    if mechanism != "lambert":
        kinds += ["logarithmic", "linear"]
    rule = {"kind": draw(st.sampled_from(kinds))}
    if draw(st.booleans()):
        rule["a"] = draw(st.lists(st.floats(-10.0, 10.0), min_size=m, max_size=m))
    if draw(st.booleans()):
        rule["b"] = draw(POSITIVE)
    if rule["kind"] == "generalized_logarithmic":
        floors = st.floats(1e-6, 1.0)
        rule["l"] = draw(floors if mechanism == "lambert" else st.one_of(st.just(0.0), floors))
    doc = {"schema_version": 1, "event": {"m": m}, "rule": rule, "mechanism": mechanism}
    if mechanism == "market" and draw(st.booleans()):
        doc["mechanism"] = {"kind": "market", "prior": draw(probability_lists(m))}
    if draw(st.booleans()):
        doc["event"]["labels"] = draw(st.lists(st.text(max_size=4), min_size=m, max_size=m))
    n = draw(st.integers(0, 5))
    equal_wager = draw(POSITIVE)
    players = []
    for _ in range(n):
        player = {"belief": draw(probability_lists(m))}
        if mechanism == "kilgour_gerchak":
            player["wager"] = equal_wager
        elif draw(st.booleans()):
            player["wager"] = draw(POSITIVE)
        if draw(st.booleans()):
            player["report"] = draw(probability_lists(m))
        players.append(player)
    if players:
        doc["players"] = players
        if draw(st.booleans()):
            doc["coalition"] = draw(
                st.lists(st.integers(1, n), min_size=1, max_size=n, unique=True)
            )
    if draw(st.booleans()):
        doc["simulation"] = draw(simulation_blocks(m))
    return doc


@st.composite
def simulation_blocks(draw, m):
    mode = draw(st.sampled_from(["sweep", "intermediary", "market_session"]))
    samplers = ["dirichlet", "finite_mixture"] + (["beta_binary"] if m == 2 else [])
    kind = draw(st.sampled_from(samplers))
    if kind == "beta_binary":
        sampler = {"kind": kind, "alpha": draw(POSITIVE), "beta": draw(POSITIVE)}
    elif kind == "dirichlet":
        sampler = {"kind": kind, "alpha": draw(st.lists(POSITIVE, min_size=m, max_size=m))}
    else:
        points = draw(st.lists(probability_lists(m), min_size=1, max_size=3))
        weights = draw(st.lists(POSITIVE, min_size=len(points), max_size=len(points)))
        sampler = {"kind": kind, "points": points, "weights": weights}
    sim = {"mode": mode}
    if mode != "intermediary" or draw(st.booleans()):
        sim["sampler"] = sampler
    if mode == "sweep" or draw(st.booleans()):
        n = sim["n"] = draw(st.integers(2, 50))
        # Each fraction of n players gives a coalition of at least two.
        sim["fractions"] = draw(st.lists(st.floats(2 / n, 1.0), min_size=1, max_size=4))
        sim["trials"] = draw(st.integers(1, 100))
    if draw(st.booleans()):
        sim["seed"] = draw(st.integers(0, 2**63 - 1))
    if mode == "market_session" or draw(st.booleans()):
        size = draw(st.integers(1, 6))
        sim["ordering"] = [i + 1 for i in draw(st.permutations(range(size)))]
    return sim


@settings(PROPERTY_SETTINGS, max_examples=300)
@given(scenario_documents())
def test_scenario_round_trips_through_its_json_form(doc):
    # The serialized text a scenario file holds parses to the same
    # Scenario as the document itself.
    assert parse_scenario(json.loads(canonical_json(doc))) == parse_scenario(doc)
