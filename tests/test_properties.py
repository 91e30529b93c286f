"""Property tests of the payment-table algebra on extreme beliefs:
self-financing competitive columns, the (1 - w_C/W) scaling of the
competitive coalition gain, and market-scoring telescoping.

Beliefs come from Dirichlet draws with alpha = 0.01, which pile almost all
mass on one state, and, under the quadratic and spherical rules, from rows
with exact zeros. The unfloored logarithmic rule cannot score a zero, so
its draws keep every entry at 1e-12 or more.
"""

from __future__ import annotations

import math

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from coalition_forge import (
    Coalition,
    Forecast,
    MechanismKind,
    MechanismSpec,
    Player,
    coalition_surplus_competitive,
    generalized_log_rule,
    logarithmic_rule,
    market_scoring_payments,
    payment_table,
    quadratic_rule,
    score,
    spherical_rule,
    surplus_by_outcome,
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
    for j in range(table.m):
        assert abs(table.column_sum(j)) <= 1e-9


@PROPERTY_SETTINGS
@given(pools())
def test_competitive_gain_is_scaled_traditional_gain(pool):
    name, players, coalition, q = pool
    rule = RULES[name]
    w_c = coalition.wager_total(players)
    w_n = math.fsum(p.wager for p in players)
    traditional = surplus_by_outcome(rule, players, coalition, q)
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
        column = market_scoring_payments(rule, reports, q, j)
        assert column == table.column(j)
        assert abs(math.fsum(column) - expected) <= 1e-9 * max(1.0, abs(expected))
