"""Tests for traditional, self-financed competitive, and sequential
market payment schemes, plus coalition surpluses under each."""

from __future__ import annotations

import dataclasses
import math
import warnings

import numpy as np
import pytest

from coalition_forge import (
    BetaBinary,
    Coalition,
    CoalitionIsEveryoneWarning,
    DimensionMismatch,
    Forecast,
    InvalidCoalition,
    MechanismKind,
    MechanismSpec,
    LogOfZero,
    MissingReport,
    OrderingViolationWarning,
    PaymentOverflow,
    Player,
    SinglePlayer,
    UnsupportedMechanism,
    ValidationError,
    arbitrage_report,
    check_strict_properness,
    coalition_surplus_competitive,
    coalition_surplus_market,
    expected_surplus_sweep,
    grid_search_equalizer,
    intermediary_profit_by_outcome,
    lambert,
    logarithmic_rule,
    market_session,
    ordering_satisfies_alternation,
    parse_scenario,
    payment_table,
    quadratic_rule,
    score,
    score_table,
    spherical_rule,
    uniform_prior,
    verify_dominance_oracle,
)
from coalition_forge.arbitrage import _coalition_surplus, _payments

from conftest import disagreeing_players, random_forecast


def _reporting(*pairs, wagers=None):
    """Players from (belief, report) pairs."""
    wagers = wagers or [1.0] * len(pairs)
    return [
        Player(Forecast(b), w, Forecast(r)) for (b, r), w in zip(pairs, wagers)
    ]


def _market(reports):
    """Players reporting the reports in order, as a market's sequence."""
    return [Player(r, 1.0, r) for r in reports]


def _paid(kind, rule, players, outcome, prior=None):
    """The payments at one outcome: a column of payment_table."""
    table = payment_table(MechanismSpec(kind, rule, prior), players)
    return tuple(row[outcome] for row in table.payments)


def test_traditional_single_player_value():
    players = _reporting(((0.5, 0.5), (0.5, 0.5)), wagers=[2.0])
    assert _paid(MechanismKind.TRADITIONAL, quadratic_rule(), players, 0) == (
        pytest.approx(1.0),
    )


def test_traditional_ignores_other_reports():
    base = _reporting(((0.5, 0.5), (0.7, 0.3)), ((0.5, 0.5), (0.2, 0.8)))
    changed = _reporting(((0.5, 0.5), (0.7, 0.3)), ((0.5, 0.5), (0.9, 0.1)))
    rule = quadratic_rule()
    assert _paid(MechanismKind.TRADITIONAL, rule, base, 0)[0] == (
        _paid(MechanismKind.TRADITIONAL, rule, changed, 0)[0]
    )


def test_missing_report_names_the_player():
    players = [
        Player(Forecast((0.5, 0.5)), 1.0, Forecast((0.5, 0.5))),
        Player(Forecast((0.4, 0.6)), 1.0),
    ]
    with pytest.raises(MissingReport) as err:
        payment_table(MechanismSpec(MechanismKind.TRADITIONAL, quadratic_rule()), players)
    assert str(err.value) == "player 2 has no report"


def test_competitive_hand_example():
    players = _reporting(((0.5, 0.5), (0.5, 0.5)), ((1.0, 0.0), (1.0, 0.0)))
    payments = _paid(MechanismKind.COMPETITIVE, quadratic_rule(), players, 0)
    np.testing.assert_allclose(payments, [-0.25, 0.25], atol=1e-15)


def test_competitive_identical_reports_pay_nothing():
    players = _reporting(
        ((0.2, 0.8), (0.6, 0.4)),
        ((0.9, 0.1), (0.6, 0.4)),
        ((0.5, 0.5), (0.6, 0.4)),
        wagers=[1.0, 2.5, 0.5],
    )
    for j in (0, 1):
        np.testing.assert_allclose(
            _paid(MechanismKind.COMPETITIVE, quadratic_rule(), players, j), 0.0, atol=1e-12
        )


def test_competitive_requires_two_players():
    players = _reporting(((0.5, 0.5), (0.5, 0.5)))
    with pytest.raises(SinglePlayer):
        payment_table(MechanismSpec(MechanismKind.COMPETITIVE, quadratic_rule()), players)


def test_competitive_columns_sum_to_zero():
    rng = np.random.default_rng(2101)
    rule = quadratic_rule()
    for _ in range(100):
        n = int(rng.integers(2, 7))
        m = int(rng.integers(2, 5))
        players = [
            Player(
                random_forecast(rng, m),
                float(rng.uniform(0.5, 3.0)),
                random_forecast(rng, m),
            )
            for _ in range(n)
        ]
        table = payment_table(MechanismSpec(MechanismKind.COMPETITIVE, rule), players)
        for j in range(m):
            assert abs(table.column_sum(j)) <= 1e-9


def test_lambert_preset_bounds_losses_by_wagers():
    rng = np.random.default_rng(2202)
    for _ in range(100):
        n = int(rng.integers(2, 6))
        m = int(rng.integers(2, 4))
        spec = lambert(quadratic_rule(), m)
        players = [
            Player(
                random_forecast(rng, m),
                float(rng.uniform(0.5, 3.0)),
                random_forecast(rng, m),
            )
            for _ in range(n)
        ]
        table = payment_table(spec, players)
        for i, p in enumerate(players):
            for j in range(m):
                assert table.payments[i][j] > -p.wager


def test_kilgour_gerchak_preset_keeps_rule():
    sc = parse_scenario(
        {
            "schema_version": 1,
            "event": {"m": 2},
            "rule": {"kind": "quadratic"},
            "mechanism": "kilgour_gerchak",
            "players": [{"belief": [0.2, 0.8]}, {"belief": [0.8, 0.2]}],
        }
    )
    assert sc.mechanism.kind is MechanismKind.COMPETITIVE
    assert sc.mechanism.rule is sc.rule


def test_competitive_expected_payment_maximized_at_truth():
    # Holding the other reports fixed, a player's expected competitive
    # payment under their belief peaks at truthful reporting.
    rule = quadratic_rule()
    belief = Forecast((0.35, 0.65))
    others = _reporting(((0.5, 0.5), (0.7, 0.3)), ((0.5, 0.5), (0.4, 0.6)))

    def expected_payment(report):
        players = [Player(belief, 1.0, report), *others]
        return math.fsum(
            belief[j] * _paid(MechanismKind.COMPETITIVE, rule, players, j)[0]
            for j in range(2)
        )

    truth_value = expected_payment(belief)
    for k in range(26):
        r = Forecast((k / 25.0, 1.0 - k / 25.0))
        if max(abs(r[0] - belief[0]), abs(r[1] - belief[1])) <= 1e-12:
            continue
        assert expected_payment(r) < truth_value


def test_market_all_following_prior_pays_nothing():
    prior = Forecast((0.5, 0.5))
    reports = [prior, prior, prior]
    for j in (0, 1):
        payments = _paid(MechanismKind.MARKET, quadratic_rule(), _market(reports), j, prior)
        np.testing.assert_allclose(payments, 0.0, atol=1e-15)


def test_market_frozen_example():
    prior = Forecast((0.5, 0.5))
    reports = [Forecast((0.8, 0.2)), Forecast((0.8, 0.2))]
    payments = _paid(MechanismKind.MARKET, quadratic_rule(), _market(reports), 0, prior)
    np.testing.assert_allclose(payments, [0.42, 0.0], atol=1e-12)


def test_market_payments_telescope():
    rng = np.random.default_rng(2303)
    rule = logarithmic_rule()
    for _ in range(50):
        m = int(rng.integers(2, 4))
        prior = uniform_prior(m)
        reports = [random_forecast(rng, m) for _ in range(int(rng.integers(1, 6)))]
        table = payment_table(MechanismSpec(MechanismKind.MARKET, rule, prior), _market(reports))
        for j in range(m):
            payments = [row[j] for row in table.payments]
            total = math.fsum(payments)
            expected = score(rule, reports[-1], j) - score(rule, prior, j)
            assert total == pytest.approx(expected, abs=1e-12)


def test_market_rejects_mixed_lengths():
    spec = MechanismSpec(MechanismKind.MARKET, quadratic_rule(), Forecast((0.5, 0.5)))
    with pytest.raises(DimensionMismatch):
        payment_table(spec, _market([Forecast((0.2, 0.3, 0.5))]))


def test_payment_table_market_defaults_to_uniform_prior():
    spec = MechanismSpec(MechanismKind.MARKET, quadratic_rule())
    players = _reporting(((0.5, 0.5), (0.8, 0.2)), ((0.5, 0.5), (0.8, 0.2)))
    table = payment_table(spec, players)
    assert table == payment_table(dataclasses.replace(spec, market_prior=uniform_prior(2)), players)
    np.testing.assert_allclose(table.payments, [[0.42, -0.78], [0.0, 0.0]], atol=1e-12)
    assert np.shape(table.payments) == (2, 2)


def test_payment_table_matches_per_outcome_functions():
    # Each payment from the per-outcome score: wager times score, less the
    # wager share of the pool's total under the competitive scheme.
    players = _reporting(
        ((0.2, 0.8), (0.3, 0.7)), ((0.9, 0.1), (0.8, 0.2)), wagers=[1.0, 2.0]
    )
    rule = spherical_rule(a=(0.1, -0.2), b=1.5)
    trad = payment_table(MechanismSpec(MechanismKind.TRADITIONAL, rule), players)
    comp = payment_table(MechanismSpec(MechanismKind.COMPETITIVE, rule), players)
    for j in (0, 1):
        wagered = [p.wager * score(rule, p.report, j) for p in players]
        share = [p.wager / 3.0 * math.fsum(wagered) for p in players]
        for i in (0, 1):
            assert trad.payments[i][j] == pytest.approx(wagered[i], rel=1e-15)
            assert comp.payments[i][j] == pytest.approx(wagered[i] - share[i], rel=1e-14)


@pytest.mark.parametrize(
    "rule", [quadratic_rule(b=1.5), spherical_rule(), logarithmic_rule()],
    ids=["quadratic", "spherical", "logarithmic"],
)
def test_coalition_gains_are_payment_table_differences(rule):
    # Each gain is the members' payments of their coordinated-minus-truthful
    # score differences under the unit rule (offsets 0, scale 1), bit for
    # bit, from the same formula that payment_table applies, under all
    # three mechanisms: payments are linear in the scores, so a gain pays
    # one difference table rather than differencing two payment tables.
    # The public gains are b times it.
    unit = dataclasses.replace(rule, affine_offsets=None, b=1.0)
    rng = np.random.default_rng(1313)
    for _ in range(30):
        n, m = int(rng.integers(3, 7)), int(rng.integers(2, 5))
        players = [
            Player(p.belief, p.wager, random_forecast(rng, m) if rng.random() < 0.5 else None)
            for p in disagreeing_players(rng, n, m)
        ]
        members = sorted(rng.choice(n, size=int(rng.integers(2, n)), replace=False).tolist())
        coalition = Coalition(tuple(members))
        coordinated = [random_forecast(rng, m) for _ in members]
        instructed = dict(zip(members, coordinated))
        coord = [instructed.get(i, p.report or p.belief).probs for i, p in enumerate(players)]
        truth = [(p.belief if i in instructed else p.report or p.belief).probs
                 for i, p in enumerate(players)]
        w = np.asarray([p.wager for p in players])
        for kind in MechanismKind:
            head = [uniform_prior(m).probs] if kind is MechanismKind.MARKET else []
            diff = score_table(unit, [*head, *coord]) - score_table(unit, [*head, *truth])
            paid = _payments(kind, diff, w)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", OrderingViolationWarning)
                gains = _coalition_surplus(
                    kind, rule, players, coalition, coordinated, range(m), list(range(n))
                )
                for j in range(m):
                    want = math.fsum(paid[i][j] for i in members)
                    assert gains[j] == want, (kind, j)
                    if kind is MechanismKind.COMPETITIVE:
                        got = coalition_surplus_competitive(rule, players, coalition, coordinated, j)
                    elif kind is MechanismKind.MARKET:
                        got = coalition_surplus_market(
                            rule, players, list(range(n)), coalition, coordinated, j
                        )
                    else:
                        continue
                    assert got == rule.b * want, (kind, j)


def test_log_of_zero_raises_from_tables_and_surpluses():
    rule = logarithmic_rule()
    players = _reporting(((0.5, 0.5), (0.0, 1.0)), ((0.3, 0.7), (0.4, 0.6)))
    for kind in MechanismKind:
        with pytest.raises(LogOfZero):
            payment_table(MechanismSpec(kind, rule), players)
    with pytest.raises(LogOfZero):
        intermediary_profit_by_outcome(
            MechanismSpec(MechanismKind.TRADITIONAL, rule), players, Coalition((0, 1)),
            Forecast((0.0, 1.0)),
        )
    # An outsider's zero entry leaves both surpluses undefined at that
    # outcome only.
    players = _reporting(
        ((0.5, 0.5), (0.0, 1.0)), ((0.3, 0.7), (0.4, 0.6)), ((0.6, 0.4), (0.6, 0.4))
    )
    coalition = Coalition((1, 2))
    q = Forecast((0.5, 0.5))
    with pytest.raises(LogOfZero):
        coalition_surplus_competitive(rule, players, coalition, q, 0)
    with pytest.raises(LogOfZero):
        coalition_surplus_market(rule, players, (1, 0, 2), coalition, q, 0)
    assert math.isfinite(coalition_surplus_competitive(rule, players, coalition, q, 1))
    assert math.isfinite(
        coalition_surplus_market(rule, players, (1, 0, 2), coalition, q, 1)
    )


def test_per_outcome_functions_reject_outcomes_out_of_range():
    rule = quadratic_rule()
    players = _reporting(
        ((0.2, 0.8), (0.5, 0.5)), ((0.8, 0.2), (0.5, 0.5)), ((0.6, 0.4), (0.6, 0.4))
    )
    coalition = Coalition((0, 1))
    q = Forecast((0.5, 0.5))
    for outcome in (-1, 2):
        with pytest.raises(DimensionMismatch):
            coalition_surplus_competitive(rule, players, coalition, q, outcome)
        with pytest.raises(DimensionMismatch):
            coalition_surplus_market(rule, players, (0, 2, 1), coalition, q, outcome)


@pytest.mark.parametrize(
    "rule", [quadratic_rule((0.1, 0.2, 0.3)), quadratic_rule((0.0, 0.0, 0.0), b=2.5)],
    ids=["offsets", "zero-offsets-scaled"],
)
def test_gains_reject_offsets_of_the_wrong_length(rule):
    # Gains, the scans and the sweep score the unit rule S, which has no
    # offsets; three offsets for two states are still refused, as
    # payment_table and score_table refuse them.
    players = _reporting(
        ((0.2, 0.8), (0.2, 0.8)), ((0.7, 0.3), (0.7, 0.3)), ((0.5, 0.5), (0.5, 0.5))
    )
    coalition = Coalition((0, 1))
    q = Forecast((0.45, 0.55))
    calls = [
        lambda: payment_table(MechanismSpec(MechanismKind.TRADITIONAL, rule), players),
        lambda: arbitrage_report(rule, players, coalition),
        lambda: verify_dominance_oracle(rule, players, coalition, q),
        lambda: coalition_surplus_competitive(rule, players, coalition, q, 0),
        lambda: coalition_surplus_market(rule, players, (0, 2, 1), coalition, q, 0),
        *(
            lambda kind=kind: intermediary_profit_by_outcome(
                MechanismSpec(kind, rule), players, coalition, q
            )
            for kind in (MechanismKind.TRADITIONAL, MechanismKind.COMPETITIVE)
        ),
        lambda: check_strict_properness(rule, q, 10),
        lambda: grid_search_equalizer(rule, players, coalition, 10),
        lambda: expected_surplus_sweep(
            MechanismSpec(MechanismKind.TRADITIONAL, rule), BetaBinary(2.0, 2.0), 4, [0.5], 3
        ),
        lambda: market_session(
            MechanismSpec(MechanismKind.MARKET, rule), (0, 2, 1), coalition, BetaBinary(2.0, 2.0)
        ),
        lambda: score_table(rule, np.asarray([q.probs])),
    ]
    for call in calls:
        with pytest.raises(DimensionMismatch, match="3 affine offsets for 2 states"):
            call()


def test_mechanism_spec_prior_validation():
    with pytest.raises(ValidationError):
        MechanismSpec(
            MechanismKind.TRADITIONAL, quadratic_rule(), uniform_prior(2)
        )


def test_payments_past_the_float_range_are_a_payment_overflow():
    # Wagered log scores at 2**1023 pass the float range: an error naming
    # the largest wager, not -inf payments after a numpy overflow warning.
    beliefs = [(0.98, 0.01, 0.01), (0.01, 0.01, 0.98), (0.3, 0.3, 0.4)]
    players = _reporting(*((b, b) for b in beliefs), wagers=[2.0**1023, 2.0**1023, 1.0])
    rule = logarithmic_rule()
    for kind in (MechanismKind.TRADITIONAL, MechanismKind.COMPETITIVE):
        with pytest.raises(PaymentOverflow) as err:
            payment_table(MechanismSpec(kind, rule), players)
        assert str(err.value) == (
            "payments at wagers up to 8.98846567431158e+307 pass the float range; "
            "scale the wagers down"
        )
    # Market scoring ignores the wagers.
    table = payment_table(MechanismSpec(MechanismKind.MARKET, rule), players)
    assert np.isfinite(table.payments).all()


def test_competitive_pool_total_past_the_float_range_is_a_payment_overflow():
    # Each wagered log score, about -9.6e307, is finite; the pool's total
    # of two is not, so the competitive shares cannot be taken.
    players = _reporting(((0.5, 0.5), (0.1, 0.9)), ((0.5, 0.5), (0.1, 0.9)), wagers=[6e307, 6e307])
    spec = MechanismSpec(MechanismKind.COMPETITIVE, logarithmic_rule())
    with pytest.raises(PaymentOverflow) as err:
        payment_table(spec, players)
    assert str(err.value) == (
        "payments at wagers up to 6e+307 sum past the float range; scale the wagers down"
    )


def test_column_sum_past_the_float_range_is_a_payment_overflow():
    # Payments of +-1e308 are finite; two at one outcome sum past the range.
    players = _reporting(((1.0, 0.0), (1.0, 0.0)), ((1.0, 0.0), (1.0, 0.0)), wagers=[1e308, 1e308])
    table = payment_table(MechanismSpec(MechanismKind.TRADITIONAL, quadratic_rule()), players)
    assert table.payments == ((1e308, -1e308), (1e308, -1e308))
    for outcome in (0, 1):
        with pytest.raises(PaymentOverflow) as err:
            table.column_sum(outcome)
        assert str(err.value) == (
            f"payments at outcome {outcome + 1} sum past the float range; scale the wagers down"
        )


def test_payment_table_rejects_empty_pool():
    for kind in MechanismKind:
        with pytest.raises(ValidationError, match="^no players$"):
            payment_table(MechanismSpec(kind, quadratic_rule()), [])


def test_competitive_surplus_frozen_example():
    # Two disagreeing members and one outsider, equal wagers: the
    # coalition captures 1 - 2/3 of the plain wagered-score surplus.
    players = [
        Player(Forecast((0.2, 0.8)), 1.0),
        Player(Forecast((0.8, 0.2)), 1.0),
        Player(Forecast((0.5, 0.5)), 1.0),
    ]
    coalition = Coalition((0, 1))
    q = Forecast((0.5, 0.5))
    for j in (0, 1):
        surplus = coalition_surplus_competitive(
            quadratic_rule(), players, coalition, q, j
        )
        assert surplus == pytest.approx(0.12, rel=1e-9)


@pytest.mark.parametrize(
    "rule", [quadratic_rule(), spherical_rule()], ids=["quadratic", "spherical"]
)
def test_competitive_surplus_scaling_identity(rule):
    # Competitive coalition surplus equals (1 - coalition wager share)
    # times the plain wagered-score surplus, for any coordinated report.
    rng = np.random.default_rng(2404)
    for _ in range(100):
        n = int(rng.integers(3, 7))
        m = int(rng.integers(2, 4))
        players = [
            Player(random_forecast(rng, m), float(rng.uniform(0.5, 2.0)))
            for _ in range(n)
        ]
        c = int(rng.integers(2, n))
        members = tuple(
            int(i) for i in rng.choice(n, size=c, replace=False)
        )
        coalition = Coalition(members)
        q = random_forecast(rng, m)
        w_c = coalition.wager_total(players)
        w_n = math.fsum(p.wager for p in players)
        for j in range(m):
            direct = coalition_surplus_competitive(rule, players, coalition, q, j)
            plain = math.fsum(
                players[i].wager
                * (score(rule, q, j) - score(rule, players[i].belief, j))
                for i in members
            )
            expected = (1.0 - w_c / w_n) * plain
            assert abs(direct - expected) <= 1e-9 * max(1.0, abs(expected))


def test_competitive_surplus_ignores_outsider_reports():
    rng = np.random.default_rng(2505)
    rule = quadratic_rule()
    players = [
        Player(random_forecast(rng, 2), float(rng.uniform(0.5, 2.0)))
        for _ in range(4)
    ]
    coalition = Coalition((0, 2))
    q = Forecast((0.5, 0.5))
    with_truthful_outsiders = players
    with_odd_outsiders = [
        p
        if i in coalition.members
        else Player(p.belief, p.wager, random_forecast(rng, 2))
        for i, p in enumerate(players)
    ]
    for j in (0, 1):
        a = coalition_surplus_competitive(
            rule, with_truthful_outsiders, coalition, q, j
        )
        b = coalition_surplus_competitive(rule, with_odd_outsiders, coalition, q, j)
        assert a == pytest.approx(b, abs=1e-12)


def test_coalition_of_everyone_warns_and_gains_nothing():
    players = [
        Player(Forecast((0.2, 0.8)), 1.0),
        Player(Forecast((0.8, 0.2)), 1.0),
    ]
    with pytest.warns(CoalitionIsEveryoneWarning) as record:
        surplus = coalition_surplus_competitive(
            quadratic_rule(), players, Coalition((0, 1)), Forecast((0.5, 0.5)), 0
        )
    assert surplus == pytest.approx(0.0, abs=1e-12)
    # The warning points at the caller, not into the library.
    assert [w.filename for w in record] == [__file__]


def test_alternation_predicate():
    coalition = Coalition((1, 3))
    assert ordering_satisfies_alternation((0, 1, 2, 3), coalition)
    assert not ordering_satisfies_alternation((0, 1, 3, 2), coalition)
    # The opening prior counts as an outsider, so leading with a member
    # is fine.
    assert ordering_satisfies_alternation((1, 0, 3, 2), coalition)
    assert not ordering_satisfies_alternation((1, 3, 0, 2), coalition)


def test_market_surplus_alternating_sum_identity():
    # With members separated by outsiders, predecessor terms cancel and
    # the surplus is each member's score improvement over their belief.
    rule = quadratic_rule()
    players = [
        Player(Forecast((0.5, 0.5)), 1.0, Forecast((0.45, 0.55))),
        Player(Forecast((0.2, 0.8)), 1.0),
        Player(Forecast((0.6, 0.4)), 1.0, Forecast((0.6, 0.4))),
        Player(Forecast((0.8, 0.2)), 1.0),
    ]
    coalition = Coalition((1, 3))
    ordering = (0, 1, 2, 3)
    q = Forecast((0.5, 0.5))
    for j in (0, 1):
        surplus = coalition_surplus_market(
            rule, players, ordering, coalition, q, j
        )
        expected = math.fsum(
            score(rule, q, j) - score(rule, players[i].belief, j)
            for i in coalition.members
        )
        assert surplus == pytest.approx(expected, abs=1e-12)
        assert surplus == pytest.approx(0.36, rel=1e-9)


def test_market_surplus_truthful_members_gain_nothing():
    rule = quadratic_rule()
    players = [
        Player(Forecast((0.5, 0.5)), 1.0),
        Player(Forecast((0.2, 0.8)), 1.0),
        Player(Forecast((0.6, 0.4)), 1.0),
        Player(Forecast((0.8, 0.2)), 1.0),
    ]
    coalition = Coalition((1, 3))
    truthful = [players[i].belief for i in coalition.members]
    surplus = coalition_surplus_market(
        rule, players, (0, 1, 2, 3), coalition, truthful, 0
    )
    assert surplus == pytest.approx(0.0, abs=1e-15)


def test_market_surplus_warns_on_adjacent_members():
    rule = quadratic_rule()
    players = [
        Player(Forecast((0.5, 0.5)), 1.0),
        Player(Forecast((0.2, 0.8)), 1.0),
        Player(Forecast((0.6, 0.4)), 1.0),
        Player(Forecast((0.8, 0.2)), 1.0),
    ]
    with pytest.warns(OrderingViolationWarning) as record:
        coalition_surplus_market(
            rule, players, (0, 1, 3, 2), Coalition((1, 3)), Forecast((0.5, 0.5)), 0
        )
    assert [w.filename for w in record] == [__file__]


def test_market_surplus_validates_ordering():
    players = [
        Player(Forecast((0.5, 0.5)), 1.0),
        Player(Forecast((0.2, 0.8)), 1.0),
    ]
    with pytest.raises(ValidationError):
        coalition_surplus_market(
            quadratic_rule(), players, (0, 0), Coalition((0, 1)), Forecast((0.5, 0.5)), 0
        )
    # A missing ordering is invalid input too, not a TypeError.
    with pytest.raises(ValidationError, match="ordering must be a permutation"):
        coalition_surplus_market(
            quadratic_rule(), players, None, Coalition((0, 1)), Forecast((0.5, 0.5)), 0
        )


def test_coordinated_reports_as_list():
    players = [
        Player(Forecast((0.2, 0.8)), 1.0),
        Player(Forecast((0.8, 0.2)), 1.0),
        Player(Forecast((0.5, 0.5)), 1.0),
    ]
    coalition = Coalition((0, 1))
    per_member = [Forecast((0.5, 0.5)), Forecast((0.5, 0.5))]
    surplus = coalition_surplus_competitive(
        quadratic_rule(), players, coalition, per_member, 0
    )
    assert surplus == pytest.approx(0.12, rel=1e-9)
    with pytest.raises(DimensionMismatch):
        coalition_surplus_competitive(
            quadratic_rule(), players, coalition, [Forecast((0.5, 0.5))], 0
        )


def test_intermediary_profit_traditional_and_competitive():
    players = [
        Player(Forecast((0.2, 0.8)), 1.0),
        Player(Forecast((0.8, 0.2)), 1.0),
        Player(Forecast((0.5, 0.5)), 1.0),
        Player(Forecast((0.6, 0.4)), 1.0),
    ]
    coalition = Coalition((0, 1))
    q = Forecast((0.5, 0.5))
    trad = intermediary_profit_by_outcome(
        MechanismSpec(MechanismKind.TRADITIONAL, quadratic_rule()),
        players,
        coalition,
        q,
    )
    np.testing.assert_allclose(trad, [0.36, 0.36], rtol=1e-9)
    comp = intermediary_profit_by_outcome(
        MechanismSpec(MechanismKind.COMPETITIVE, quadratic_rule()),
        players,
        coalition,
        q,
    )
    np.testing.assert_allclose(comp, [0.18, 0.18], rtol=1e-9)


def test_intermediary_profit_rejects_market():
    spec = MechanismSpec(MechanismKind.MARKET, quadratic_rule())
    players = [
        Player(Forecast((0.2, 0.8)), 1.0),
        Player(Forecast((0.8, 0.2)), 1.0),
    ]
    with pytest.raises(UnsupportedMechanism):
        intermediary_profit_by_outcome(
            spec, players, Coalition((0, 1)), Forecast((0.5, 0.5))
        )


@pytest.mark.parametrize("kind", [MechanismKind.TRADITIONAL, MechanismKind.COMPETITIVE])
def test_intermediary_profit_validates_the_coalition(kind):
    # Both kinds check the coalition first: an index out of range or a
    # single member is InvalidCoalition, not an IndexError or a number.
    spec = MechanismSpec(kind, quadratic_rule())
    players = [
        Player(Forecast((0.2, 0.8)), 1.0),
        Player(Forecast((0.8, 0.2)), 1.0),
        Player(Forecast((0.5, 0.5)), 1.0),
    ]
    q = Forecast((0.5, 0.5))
    with pytest.raises(InvalidCoalition, match="member index 6 out of range for 3 players"):
        intermediary_profit_by_outcome(spec, players, Coalition((0, 5)), q)
    with pytest.raises(InvalidCoalition, match="needs at least 2 members, got 1"):
        intermediary_profit_by_outcome(spec, players, Coalition((0,)), q)


def test_mechanism_kind_given_as_its_name():
    # The README's example names the kind by its string.
    rule = quadratic_rule()
    players = [
        Player(Forecast(b), w, Forecast((0.5, 0.5)))
        for b, w in (((0.2, 0.8), 1.0), ((0.8, 0.2), 2.0), ((0.6, 0.4), 0.5))
    ]
    spec = MechanismSpec("competitive", rule)
    assert spec.kind is MechanismKind.COMPETITIVE
    assert spec == MechanismSpec(MechanismKind.COMPETITIVE, rule)
    table = payment_table(spec, players)
    assert len(table.payments) == 3
    for j in range(len(table.payments[0])):
        assert table.column_sum(j) == pytest.approx(0.0, abs=1e-12)
    assert MechanismSpec("market", rule, uniform_prior(2)).kind is MechanismKind.MARKET
    for bogus in ("bogus", "kilgour_gerchak", None, []):
        with pytest.raises(ValidationError, match="unknown mechanism kind"):
            MechanismSpec(bogus, rule)


def test_competitive_surplus_positive_at_equalizer_random():
    rng = np.random.default_rng(2606)
    rule = quadratic_rule()
    from coalition_forge import arbitrage_report

    for _ in range(25):
        n = int(rng.integers(3, 7))
        players = disagreeing_players(rng, n, 2)
        c = int(rng.integers(2, n))
        coalition = Coalition(tuple(range(c)))
        member_beliefs = np.asarray(
            [players[i].belief.probs for i in coalition.members]
        )
        if float(
            (member_beliefs.max(axis=0) - member_beliefs.min(axis=0)).max()
        ) <= 1e-3:
            continue
        q = arbitrage_report(rule, players, coalition).q
        for j in (0, 1):
            assert (
                coalition_surplus_competitive(rule, players, coalition, q, j)
                > 0.0
            )
