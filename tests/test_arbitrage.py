"""Tests for equalizing reports, closed-form surpluses, the dominance
oracle, and the brute-force grid search."""

from __future__ import annotations

import math
import zlib

import numpy as np
import pytest

from coalition_forge import (
    Coalition,
    ConvexGenerator,
    DegenerateBelief,
    DimensionMismatch,
    Forecast,
    InvalidCoalition,
    NonMonotoneGenerator,
    NonPositiveWager,
    OutOfDomain,
    Player,
    UnsupportedRule,
    ValidationError,
    Verdict,
    arbitrage_report,
    binary_equalizer,
    binary_quadratic_generator,
    closed_form_surplus,
    custom_binary_rule,
    generalized_log_rule,
    grid_array,
    grid_search_equalizer,
    linear_rule,
    logarithmic_rule,
    logit_generator,
    quadratic_rule,
    score_table,
    spherical_rule,
    surplus_by_outcome,
    spherical_aux,
    verify_dominance_oracle,
    weighted_mean,
)
from coalition_forge import simplex
from coalition_forge.arbitrage import _spherical_equalizer

from conftest import disagreeing_players, full_coalition, random_forecast

PAIR = Coalition((0, 1))


def _players(*beliefs, wagers=None):
    wagers = wagers or [1.0] * len(beliefs)
    return [Player(Forecast(b), w) for b, w in zip(beliefs, wagers)]


def test_quadratic_symmetric_pair():
    players = _players((0.2, 0.8), (0.8, 0.2))
    result = arbitrage_report(quadratic_rule(), players, PAIR)
    np.testing.assert_allclose(result.q.as_array(), [0.5, 0.5], atol=1e-15)
    np.testing.assert_allclose(result.surplus_by_outcome, [0.36, 0.36], rtol=1e-9)
    assert result.equalized
    assert not result.agreement
    assert closed_form_surplus(quadratic_rule(), players, PAIR) == pytest.approx(
        0.36, rel=1e-9
    )


def test_quadratic_surplus_scales_with_disagreement_squared():
    wide = _players((0.2, 0.8), (0.8, 0.2))
    mild = _players((0.4, 0.6), (0.6, 0.4))
    s_wide = closed_form_surplus(quadratic_rule(), wide, PAIR)
    s_mild = closed_form_surplus(quadratic_rule(), mild, PAIR)
    assert s_mild == pytest.approx(0.04, rel=1e-9)
    # Deviations three times as large, surplus nine times as large.
    assert s_wide / s_mild == pytest.approx(9.0, rel=1e-9)


def test_quadratic_scaling_property_random_center():
    rng = np.random.default_rng(515)
    rule = quadratic_rule()
    for _ in range(20):
        center = rng.uniform(0.3, 0.7)
        t = rng.uniform(1.5, 3.0)
        # Keep center +/- t*d strictly inside (0, 1).
        d = rng.uniform(0.01, 1.0) * min(center, 1.0 - center) / t * 0.9
        base = _players((center - d, 1 - center + d), (center + d, 1 - center - d))
        wide = _players(
            (center - t * d, 1 - center + t * d),
            (center + t * d, 1 - center - t * d),
        )
        ratio = closed_form_surplus(rule, wide, PAIR) / closed_form_surplus(
            rule, base, PAIR
        )
        assert ratio == pytest.approx(t * t, rel=1e-9)


def test_logarithmic_geometric_mean_pair():
    players = _players((0.5, 0.5), (0.8, 0.2))
    result = arbitrage_report(logarithmic_rule(), players, PAIR)
    assert result.q[0] == pytest.approx(2.0 / 3.0, abs=1e-12)
    np.testing.assert_allclose(
        result.surplus_by_outcome,
        [0.10536051565782623] * 2,
        rtol=1e-9,
    )
    assert result.equalized
    assert closed_form_surplus(logarithmic_rule(), players, PAIR) == pytest.approx(
        0.10536051565782623, rel=1e-12
    )


def test_log_mean_report_gives_positive_but_unequal_surplus():
    # The arithmetic mean still pays under the log rule, but the payout
    # differs by outcome; only the geometric construction equalizes it.
    players = _players((0.5, 0.5), (0.8, 0.2))
    mean = weighted_mean([p.belief for p in players], [1.0, 1.0])
    surpluses = surplus_by_outcome(logarithmic_rule(), players, PAIR, mean)
    assert all(s > 0.0 for s in surpluses)
    assert max(surpluses) - min(surpluses) > 0.1


def test_spherical_example_values():
    players = _players((0.1, 0.9), (0.4, 0.6))
    rule = spherical_rule()
    result = arbitrage_report(rule, players, PAIR)
    assert result.q[0] == pytest.approx(0.2749730236671494, abs=1e-12)
    np.testing.assert_allclose(
        result.surplus_by_outcome,
        [0.044092845700385075] * 2,
        rtol=1e-9,
    )
    assert result.equalized
    assert closed_form_surplus(rule, players, PAIR) == pytest.approx(
        0.044092845700385075, rel=1e-12
    )


def test_spherical_aux_example_values():
    players = _players((0.1, 0.9), (0.4, 0.6))
    aux = spherical_aux(players, PAIR)
    np.testing.assert_allclose(
        aux.Y, [0.33256586115003783, 0.9129670145057313], rtol=1e-12
    )
    assert aux.Y_bar == pytest.approx(0.6227664378278845, rel=1e-12)
    assert aux.sum_sq_dev == pytest.approx(0.16843274940830957, rel=1e-12)
    assert aux.sum_sq == pytest.approx(0.9441088215779744, rel=1e-12)


def test_spherical_mean_report_fails_dominance():
    # The arithmetic mean is the wrong aggregate for the spherical rule:
    # one outcome leaves the coalition strictly worse off.
    players = _players((0.1, 0.9), (0.4, 0.6))
    verdict = verify_dominance_oracle(
        spherical_rule(), players, PAIR, Forecast((0.25, 0.75))
    )
    assert verdict.verdict is Verdict.FAILS
    assert verdict.witness == 0
    np.testing.assert_allclose(
        verdict.margins,
        [-0.03267619026639981, 0.07143256708956502],
        rtol=1e-9,
    )


def test_spherical_equalizer_dominates_where_mean_fails():
    players = _players((0.1, 0.9), (0.4, 0.6))
    result = arbitrage_report(spherical_rule(), players, PAIR)
    verdict = verify_dominance_oracle(spherical_rule(), players, PAIR, result.q)
    assert verdict.verdict is Verdict.DOMINATES


def test_generalized_log_weighted_example():
    rule = generalized_log_rule(0.05)
    players = _players((0.3, 0.7), (0.9, 0.1), wagers=[1.0, 2.0])
    result = arbitrage_report(rule, players, PAIR)
    assert result.q[0] == pytest.approx(0.74905548, abs=1e-7)
    closed = closed_form_surplus(rule, players, PAIR)
    assert closed == pytest.approx(0.527377410926198, rel=1e-12)
    np.testing.assert_allclose(result.surplus_by_outcome, [closed] * 2, rtol=1e-9)


def test_agreement_detected_and_surplus_zero():
    shared = (0.3, 0.7)
    players = _players(shared, shared)
    for rule in (quadratic_rule(), logarithmic_rule(), spherical_rule()):
        result = arbitrage_report(rule, players, PAIR)
        assert result.agreement
        assert result.equalized
        assert result.q.probs == shared
        assert result.surplus_by_outcome == (0.0, 0.0)
        verdict = verify_dominance_oracle(rule, players, PAIR, result.q)
        assert verdict.verdict is Verdict.TIES


def test_binary_equalizer_logit_matches_geometric_mean():
    players = _players((0.5, 0.5), (0.8, 0.2))
    q1 = binary_equalizer(logit_generator(), players, PAIR)
    assert q1 == pytest.approx(2.0 / 3.0, abs=1e-9)


def test_binary_equalizer_quadratic_generator_matches_mean():
    gen = ConvexGenerator(
        g=lambda r: 2.0 * r * r - 2.0 * r + 1.0,
        g_prime=lambda r: 4.0 * r - 2.0,
    )
    players = _players((0.2, 0.8), (0.7, 0.3), wagers=[1.0, 3.0])
    q1 = binary_equalizer(gen, players, PAIR)
    assert q1 == pytest.approx((0.2 + 3 * 0.7) / 4.0, abs=1e-9)


def test_binary_equalizer_agreement_short_circuits():
    players = _players((0.3, 0.7), (0.3, 0.7))
    assert binary_equalizer(logit_generator(), players, PAIR) == 0.3


def test_binary_equalizer_stays_inside_belief_bracket():
    rng = np.random.default_rng(616)
    gen = logit_generator()
    for _ in range(100):
        c = int(rng.integers(2, 6))
        players = disagreeing_players(rng, c, 2)
        coalition = full_coalition(players)
        q1 = binary_equalizer(gen, players, coalition)
        firsts = [p.belief[0] for p in players]
        assert min(firsts) < q1 < max(firsts)


def test_binary_equalizer_rejects_non_monotone_generator():
    bad = ConvexGenerator(g=lambda r: math.sin(6 * r), g_prime=lambda r: 6 * math.cos(6 * r))
    players = _players((0.2, 0.8), (0.8, 0.2))
    with pytest.raises(NonMonotoneGenerator):
        binary_equalizer(bad, players, PAIR)


def test_binary_equalizer_respects_generator_domain():
    narrow = ConvexGenerator(
        g=lambda r: r * r, g_prime=lambda r: 2.0 * r, domain=(0.3, 0.7)
    )
    players = _players((0.1, 0.9), (0.6, 0.4))
    with pytest.raises(OutOfDomain):
        binary_equalizer(narrow, players, PAIR)


def test_binary_equalizer_needs_two_states():
    players = [
        Player(Forecast((0.2, 0.3, 0.5)), 1.0),
        Player(Forecast((0.5, 0.3, 0.2)), 1.0),
    ]
    with pytest.raises(DimensionMismatch):
        binary_equalizer(logit_generator(), players, PAIR)


RULES_WITH_CLOSED_FORM = [
    ("quadratic", quadratic_rule(), (2, 3)),
    ("logarithmic", logarithmic_rule(), (2, 3)),
    ("generalized_log", generalized_log_rule(0.05), (2, 3)),
    ("spherical", spherical_rule(), (2, 3)),
]


@pytest.mark.parametrize("name,rule,ms", RULES_WITH_CLOSED_FORM, ids=lambda v: str(v))
def test_equalizer_dominates_and_matches_closed_form(name, rule, ms):
    rng = np.random.default_rng(zlib.crc32(name.encode()))
    sizes = (2, 3, 5)
    for i in range(50):
        m = ms[i % len(ms)]
        c = sizes[i % len(sizes)]
        players = disagreeing_players(rng, c, m)
        coalition = full_coalition(players)
        result = arbitrage_report(rule, players, coalition)
        assert not result.agreement
        assert result.equalized
        closed = closed_form_surplus(rule, players, coalition)
        tol = 1e-9 * max(1.0, abs(closed))
        for s in result.surplus_by_outcome:
            assert abs(s - closed) <= tol
        verdict = verify_dominance_oracle(rule, players, coalition, result.q)
        assert verdict.verdict is Verdict.DOMINATES


def test_custom_binary_equalizer_dominates():
    rng = np.random.default_rng(717)
    rule = custom_binary_rule(logit_generator())
    for _ in range(25):
        c = int(rng.integers(2, 6))
        players = disagreeing_players(rng, c, 2)
        coalition = full_coalition(players)
        result = arbitrage_report(rule, players, coalition)
        assert result.equalized
        verdict = verify_dominance_oracle(rule, players, coalition, result.q)
        assert verdict.verdict is Verdict.DOMINATES


def test_spherical_norm_identity():
    # |q|^2 = 1 / (m (1 - sum of squared deviations of Y)).
    rng = np.random.default_rng(818)
    rule = spherical_rule()
    for _ in range(50):
        m = int(rng.integers(2, 5))
        c = int(rng.integers(2, 6))
        players = disagreeing_players(rng, c, m)
        coalition = full_coalition(players)
        q = arbitrage_report(rule, players, coalition).q
        aux = spherical_aux(players, coalition)
        norm_sq = float((q.as_array() ** 2).sum())
        assert norm_sq == pytest.approx(
            1.0 / (m * (1.0 - aux.sum_sq_dev)), abs=1e-12, rel=1e-12
        )


def test_spherical_sum_sq_strictly_below_one_iff_disagreement():
    rng = np.random.default_rng(919)
    for _ in range(50):
        m = int(rng.integers(2, 5))
        c = int(rng.integers(2, 6))
        players = disagreeing_players(rng, c, m)
        assert spherical_aux(players, full_coalition(players)).sum_sq < 1.0
    shared = random_forecast(rng, 3)
    same = [Player(shared, float(rng.uniform(0.5, 2.0))) for _ in range(3)]
    assert spherical_aux(same, Coalition((0, 1, 2))).sum_sq == pytest.approx(
        1.0, abs=1e-12
    )


def test_spherical_aux_single_member():
    p = Forecast((0.3, 0.7))
    aux = spherical_aux([Player(p, 2.0)], Coalition((0,)))
    norm = math.sqrt(0.3 ** 2 + 0.7 ** 2)
    np.testing.assert_allclose(aux.Y, [0.3 / norm, 0.7 / norm], rtol=1e-12)
    assert aux.sum_sq == pytest.approx(1.0, abs=1e-12)


def test_spherical_equalizer_guard_returns_none():
    assert _spherical_equalizer(np.array([0.0, 2.0])) is None


def test_spherical_near_vertex_members_get_a_valid_report():
    # The unsnapped equalizer puts about -5.6e-17 on the third state.
    players = _players((1 - 7.19e-11, 7.19e-11, 0.0), (1.0, 0.0, 0.0), (0.2, 0.3, 0.5))
    result = arbitrage_report(spherical_rule(), players, PAIR)
    assert min(result.q.probs) >= 0.0
    assert result.q.probs[2] == 0.0
    assert max(abs(x) for x in result.surplus_by_outcome) < 1e-12


def test_generalized_log_near_vertex_members_get_a_valid_report():
    # The unsnapped equalizer puts about -6.9e-18 on the third state.
    eps = 1.9840934620783596e-09
    players = _players((1.0, 0.0, 0.0), (1 - eps, eps, 0.0))
    result = arbitrage_report(generalized_log_rule(0.05), players, PAIR)
    assert min(result.q.probs) >= 0.0
    assert result.q.probs[2] == 0.0
    assert max(abs(x) for x in result.surplus_by_outcome) < 1e-12


def _unblocked_grid_search(rule, players, coalition, resolution):
    """grid_search_equalizer over the whole lattice at once: one score
    table and the first maximum of the worst-outcome margin."""
    P = np.asarray([players[i].belief.probs for i in coalition.members])
    w = np.asarray([players[i].wager for i in coalition.members])
    t = (w[:, None] * score_table(rule, P)).sum(axis=0)
    grid = grid_array(P.shape[1], resolution)
    margins = float(w.sum()) * score_table(rule, grid) - t[None, :]
    with np.errstate(invalid="ignore"):
        worst = margins.min(axis=1)
    worst = np.where(np.isnan(worst), -np.inf, worst)
    return Forecast(tuple(grid[int(np.argmax(worst))].tolist()))


@pytest.mark.parametrize("block_rows", [7, 50, None])
def test_grid_search_equals_unblocked_oracle(monkeypatch, block_rows):
    if block_rows is not None:
        monkeypatch.setattr(simplex, "BLOCK_ROWS", block_rows)
    rng = np.random.default_rng(707)
    for _ in range(24):
        m = int(rng.integers(2, 5))
        resolution = int(rng.integers(10, {2: 400, 3: 40, 4: 18}[m]))
        a = tuple(rng.uniform(-1.0, 1.0, size=m)) if rng.random() < 0.5 else None
        b = float(rng.uniform(0.3, 2.0))
        rule = [
            quadratic_rule(a, b),
            logarithmic_rule(a, b),
            generalized_log_rule(float(rng.uniform(0.01, 0.3)), a, b),
            spherical_rule(a, b),
        ][int(rng.integers(4))]
        players = disagreeing_players(rng, int(rng.integers(2, 5)), m)
        coalition = full_coalition(players)
        expected = _unblocked_grid_search(rule, players, coalition, resolution)
        assert grid_search_equalizer(rule, players, coalition, resolution) == expected


def test_grid_search_on_an_unscorable_lattice_returns_its_first_row(monkeypatch):
    # No lattice report at resolution 10 lies inside the generator's open
    # domain, so every row scores -inf; the members' beliefs do lie inside.
    monkeypatch.setattr(simplex, "BLOCK_ROWS", 3)
    quad = binary_quadratic_generator()
    narrow = ConvexGenerator(quad.g, quad.g_prime, domain=(0.41, 0.49))
    rule = custom_binary_rule(narrow)
    players = _players((0.42, 0.58), (0.48, 0.52))
    best = grid_search_equalizer(rule, players, PAIR, 10)
    assert best == _unblocked_grid_search(rule, players, PAIR, 10)
    assert best.probs == (0.0, 1.0)


def test_grid_search_matches_closed_forms():
    wide = _players((0.2, 0.8), (0.8, 0.2))
    best = grid_search_equalizer(quadratic_rule(), wide, PAIR, 1000)
    assert best[0] == pytest.approx(0.5, abs=1e-3)
    sph = _players((0.1, 0.9), (0.4, 0.6))
    best = grid_search_equalizer(spherical_rule(), sph, PAIR, 1000)
    assert best[0] == pytest.approx(0.275, abs=2e-3)


def test_grid_search_quadratic_three_states_near_weighted_mean():
    rng = np.random.default_rng(1020)
    for _ in range(5):
        players = disagreeing_players(rng, 3, 3)
        coalition = Coalition((0, 1, 2))
        best = grid_search_equalizer(quadratic_rule(), players, coalition, 60)
        mean = weighted_mean(
            [p.belief for p in players], [p.wager for p in players]
        )
        gap = np.abs(best.as_array() - mean.as_array()).max()
        assert gap <= 2.0 / 60.0


def test_grid_search_resolution_validation():
    players = _players((0.2, 0.8), (0.8, 0.2))
    with pytest.raises(ValidationError):
        grid_search_equalizer(quadratic_rule(), players, PAIR, 9)


def test_degenerate_belief_under_unfloored_log():
    players = _players((0.0, 1.0), (0.5, 0.5))
    with pytest.raises(DegenerateBelief):
        arbitrage_report(logarithmic_rule(), players, PAIR)
    with pytest.raises(DegenerateBelief):
        closed_form_surplus(logarithmic_rule(), players, PAIR)
    with pytest.raises(DegenerateBelief):
        grid_search_equalizer(logarithmic_rule(), players, PAIR, 50)


def test_floored_log_accepts_boundary_beliefs():
    rule = generalized_log_rule(0.05)
    players = _players((0.0, 1.0), (0.5, 0.5))
    result = arbitrage_report(rule, players, PAIR)
    assert result.equalized
    assert verify_dominance_oracle(rule, players, PAIR, result.q).verdict is (
        Verdict.DOMINATES
    )


def test_linear_rule_has_no_equalizer():
    players = _players((0.2, 0.8), (0.8, 0.2))
    with pytest.raises(UnsupportedRule):
        arbitrage_report(linear_rule(), players, PAIR)
    with pytest.raises(UnsupportedRule):
        closed_form_surplus(linear_rule(), players, PAIR)


def test_custom_binary_rejects_three_states():
    players = [
        Player(Forecast((0.2, 0.3, 0.5)), 1.0),
        Player(Forecast((0.5, 0.3, 0.2)), 1.0),
    ]
    with pytest.raises(DimensionMismatch):
        arbitrage_report(custom_binary_rule(logit_generator()), players, PAIR)


def test_player_and_coalition_validation():
    with pytest.raises(NonPositiveWager):
        Player(Forecast((0.5, 0.5)), 0.0)
    with pytest.raises(DimensionMismatch):
        Player(Forecast((0.5, 0.5)), 1.0, report=Forecast((0.2, 0.3, 0.5)))
    with pytest.raises(InvalidCoalition):
        Coalition(())
    with pytest.raises(InvalidCoalition):
        Coalition((0, 0))
    with pytest.raises(InvalidCoalition):
        Coalition((-1,))
    players = _players((0.2, 0.8), (0.8, 0.2))
    with pytest.raises(InvalidCoalition):
        arbitrage_report(quadratic_rule(), players, Coalition((0, 5)))
    with pytest.raises(InvalidCoalition):
        arbitrage_report(quadratic_rule(), players, Coalition((0,)))


def test_coalition_wager_total():
    players = _players((0.2, 0.8), (0.8, 0.2), (0.5, 0.5), wagers=[1.0, 2.0, 4.0])
    assert Coalition((0, 2)).wager_total(players) == pytest.approx(5.0)
