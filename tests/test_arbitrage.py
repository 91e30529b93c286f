"""Tests for equalizing reports, closed-form surpluses, the dominance
oracle, and the brute-force grid search."""

from __future__ import annotations

import math
import zlib

import numpy as np
import pytest

from coalition_forge import (
    AGREEMENT_TOL,
    Coalition,
    ConvexGenerator,
    DegenerateBelief,
    DimensionMismatch,
    Forecast,
    InvalidCoalition,
    MechanismKind,
    MechanismSpec,
    NonMonotoneGenerator,
    NonPositiveWager,
    OutOfDomain,
    Player,
    RuleKind,
    UnsupportedRule,
    ValidationError,
    Verdict,
    arbitrage_report,
    binary_equalizer,
    closed_form_surplus,
    custom_binary_rule,
    generalized_log_rule,
    grid_array,
    grid_search_equalizer,
    intermediary_profit_by_outcome,
    linear_rule,
    logarithmic_rule,
    logit_generator,
    payment_table,
    quadratic_rule,
    score_table,
    spherical_rule,
    spherical_aux,
    verify_dominance_oracle,
)
from coalition_forge import simplex
from coalition_forge.arbitrage import _member_arrays, _spherical_spread, _spherical_y

import exact
from conftest import (
    binary_quadratic_generator, disagreeing_players, full_coalition, random_forecast, weighted_mean,
)

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
    spec = MechanismSpec(MechanismKind.TRADITIONAL, logarithmic_rule())
    surpluses = intermediary_profit_by_outcome(spec, players, PAIR, mean)
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


def test_agreement_decided_on_the_surplus_scale():
    # Spherical members about 6e-8 apart disagree by belief distance, but
    # their equalizer gains about 1e-15 in each outcome, which the oracle
    # cannot tell from zero: that is agreement too, and q and the surplus
    # stay the equalizer's.
    players = _players((3.5e-8, 1 - 3.5e-8), (9.4e-8, 1 - 9.4e-8), (0.5, 0.5))
    result = arbitrage_report(spherical_rule(), players, PAIR)
    assert result.agreement
    assert result.equalized
    assert 0.0 < min(result.surplus_by_outcome) <= AGREEMENT_TOL
    assert 3.5e-8 < result.q.probs[0] < 9.4e-8
    verdict = verify_dominance_oracle(spherical_rule(), players, PAIR, result.q)
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
    with pytest.raises(DimensionMismatch, match="^custom binary rules support exactly 2 states$"):
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


@pytest.mark.parametrize("m", [2, 3, 8, 600])
def test_spherical_equalizer_root_is_of_at_least_one(m):
    # Y is a convex combination of nonnegative unit vectors, so the sum of
    # its squared deviations from its mean is at most 1 - 1/m, and the
    # spherical equalizer takes the square root of m * (1 - that) >= 1.
    # Vertex, near-vertex and Dirichlet(0.01) members at wagers from
    # e^-700 to e^700, taken as the equalizer takes them.
    rng = np.random.default_rng(3030 + m)
    for _ in range(100):
        beliefs = []
        for kind in rng.integers(3, size=int(rng.integers(2, 6))):
            vertex = np.eye(m)[rng.integers(m)]
            if kind == 0:
                p = vertex
            elif kind == 1:
                eps = 10.0 ** -rng.uniform(1.0, 16.0)
                p = (1.0 - eps) * vertex + eps * rng.dirichlet(np.ones(m))
            else:
                p = rng.dirichlet(np.full(m, 0.01))
            beliefs.append(Forecast(tuple(p.tolist())))
        players = [Player(b, math.exp(rng.uniform(-700.0, 700.0))) for b in beliefs]
        P, w, _ = _member_arrays(players, full_coalition(players))
        _, ssd = _spherical_spread(_spherical_y(P, w))
        assert m * (1.0 - ssd) >= 1.0 - 1e-12


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
    # The search scores column-major blocks at every m, whose rows are
    # summed left to right from 64 * m rows up, as over (3, 60) and the
    # two default blocks of (3, 200), and at every size from 8 states up.
    # Every block gives the report of the whole lattice. Blocks of 7 rows
    # take seconds a search above 8 states.
    cases = [
        (quadratic_rule((0.1, -0.2, 0.3), 1.5), disagreeing_players(rng, 3, 3), 60),
        (spherical_rule(), disagreeing_players(rng, 3, 3), 60),
        (linear_rule(b=0.7), disagreeing_players(rng, 3, 3), 60),
        (quadratic_rule(), disagreeing_players(rng, 3, 3), 200),
    ]
    for m, resolution in ((5, 14), (6, 11), (7, 10), (8, 10), (9, 10), (10, 10)):
        if block_rows == 7 and m > 8:
            break
        a = tuple(rng.uniform(-1.0, 1.0, size=m))
        for rule in (quadratic_rule(a, 1.5), spherical_rule(), generalized_log_rule(0.1, a, 0.8)):
            cases.append((rule, disagreeing_players(rng, 3, m), resolution))
    # Members whose beliefs are shifts of one another: at (8, 10) the
    # reports (.1, .2, .1, .1, .2, .1, .1, .1) and (.1, .1, .1, .1, .2,
    # .1, .1, .2) tie in exact arithmetic. Row norms summed left to right
    # put the first ahead by one bit, in every block as over the whole
    # lattice.
    base = np.array([1, 3, 3, 2, 4, 1, 3, 3]) / 20
    shifted = [Player(Forecast(tuple(np.roll(base, s).tolist())), 1.0) for s in (6, 0, 5)]
    first = Forecast((0.1, 0.2, 0.1, 0.1, 0.2, 0.1, 0.1, 0.1))
    assert grid_search_equalizer(quadratic_rule(), shifted, full_coalition(shifted), 10) == first
    cases.append((quadratic_rule(), shifted, 10))
    for rule, players, resolution in cases:
        coalition = full_coalition(players)
        expected = _unblocked_grid_search(rule, players, coalition, resolution)
        assert grid_search_equalizer(rule, players, coalition, resolution) == expected, rule.kind


@pytest.mark.parametrize("limit", [1, 2, 3, 7, 50])
def test_grid_search_reports_do_not_depend_on_the_block_limit(monkeypatch, limit):
    # Blocks are plain row ranges with no alignment, lone last rows
    # included, and every step of the search is row by row: every limit
    # gives the default limit's report.
    rng = np.random.default_rng(1414)
    cases = []
    for m, resolution in ((2, 41), (3, 10), (3, 17), (4, 10), (5, 11)):
        for rule in (quadratic_rule(), logarithmic_rule(), spherical_rule(), generalized_log_rule(0.1)):
            cases.append((rule, disagreeing_players(rng, int(rng.integers(2, 5)), m), resolution))
    # Eight states: the log rules score only the 330-row interior here.
    cases.append((logarithmic_rule(), disagreeing_players(rng, 3, 8), 12))
    expected = [grid_search_equalizer(rule, p, full_coalition(p), res) for rule, p, res in cases]
    monkeypatch.setattr(simplex, "BLOCK_ROWS", limit)
    assert [grid_search_equalizer(rule, p, full_coalition(p), res) for rule, p, res in cases] == expected


@pytest.mark.parametrize("block_rows", [7, None])
def test_log_grid_search_equals_unblocked_oracle(monkeypatch, block_rows):
    # The log family scores only the lattice interior. At m = 11 and
    # resolution 10 it is empty and at m = 10 one row: with no interior
    # row above -inf, the first lattice row wins, as over the whole lattice.
    if block_rows is not None:
        monkeypatch.setattr(simplex, "BLOCK_ROWS", block_rows)
    rng = np.random.default_rng(808)
    cases = [(int(rng.integers(2, 6)), None) for _ in range(16)]
    cases += [(10, 10), (10, 12), (11, 10)]
    for m, resolution in cases:
        if resolution is None:
            resolution = int(rng.integers(10, {2: 300, 3: 50, 4: 20, 5: 14}[m]))
        a = tuple(rng.uniform(-1.0, 1.0, size=m)) if rng.random() < 0.5 else None
        b = float(rng.uniform(0.3, 2.0))
        rule = [logarithmic_rule(a, b), generalized_log_rule(0.0, a, b)][int(rng.integers(2))]
        players = disagreeing_players(rng, int(rng.integers(2, 5)), m)
        coalition = full_coalition(players)
        expected = _unblocked_grid_search(rule, players, coalition, resolution)
        assert grid_search_equalizer(rule, players, coalition, resolution) == expected
    assert expected.probs == (0.0,) * 10 + (1.0,)


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


def test_grid_search_reaches_the_exact_lattice_maximum():
    # The quadratic search judged in exact arithmetic (tests/exact.py), at
    # the program's own float beliefs and wagers: the row it returns has
    # the largest exact worst-outcome surplus on the lattice, up to twice
    # the rounding bound of one row's float value (the returned row's float
    # value is at least the best row's), and it is the first row in
    # lattice order of that surplus wherever every other row is further
    # below it than that.
    rng = np.random.default_rng(2718)
    judged = 0
    for m, resolution in ((3, 10), (3, 30), (4, 12), (5, 10)):
        for count in (2, 3, 4, 5):
            players = [
                Player(random_forecast(rng, m), float(rng.uniform(0.25, 4.0))) for _ in range(count)
            ]
            beliefs = [p.belief.probs for p in players]
            wagers = [p.wager for p in players]
            rows = list(exact.compositions(resolution, m))
            surplus = exact.worst_surpluses(resolution, beliefs, wagers)
            best = max(surplus)
            first = surplus.index(best)
            runner_up = max(surplus[:first] + surplus[first + 1 :])
            slack = 2 * exact.search_rounding_bound(m, wagers)
            found = grid_search_equalizer(quadratic_rule(), players, full_coalition(players), resolution)
            row = tuple(round(x * resolution) for x in found.probs)
            assert best - surplus[rows.index(row)] <= slack, (m, resolution, count)
            if best - runner_up > slack:
                judged += 1
                assert row == rows[first], (m, resolution, count)
    # Most cases have a clear winner, so the first-maximum check runs.
    assert judged >= 12


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


def test_report_refuses_members_of_mixed_lengths():
    players = [Player(Forecast((0.2, 0.8)), 1.0), Player(Forecast((0.2, 0.3, 0.5)), 1.0)]
    with pytest.raises(DimensionMismatch) as err:
        arbitrage_report(quadratic_rule(), players, PAIR)
    assert str(err.value) == "member beliefs have mixed lengths"


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
    with pytest.raises(NonPositiveWager):
        Player(Forecast((0.5, 0.5)), -math.inf)
    for wager in (math.nan, math.inf):
        with pytest.raises(ValidationError, match="must be finite"):
            Player(Forecast((0.5, 0.5)), wager)
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


def test_gains_summing_past_the_float_range_have_a_mean():
    # Each member's gain at 2**1021 is finite, and so is their mean over
    # the outcomes, though their sum is not: an answer, not an OverflowError.
    beliefs = [(0.98, 0.01, 0.01), (0.01, 0.01, 0.98), (0.3, 0.3, 0.4)]
    players = [Player(Forecast(b), w) for b, w in zip(beliefs, [2.0**1021, 2.0**1021, 1.0])]
    unit = arbitrage_report(logarithmic_rule(), [Player(p.belief, 1.0) for p in players], PAIR)
    result = arbitrage_report(logarithmic_rule(), players, PAIR)
    assert result.q == unit.q and result.equalized and not result.agreement
    assert min(result.surplus_by_outcome) > 1e307


def test_coalition_wager_total():
    players = _players((0.2, 0.8), (0.8, 0.2), (0.5, 0.5), wagers=[1.0, 2.0, 4.0])
    assert Coalition((0, 2)).wager_total(players) == pytest.approx(5.0)


def test_member_wagers_summing_past_the_float_range():
    # Two members at 2**1023 sum to inf. Weights and totals are formed on
    # the wagers scaled by a power of two, which is exact: q and the grid
    # row keep the bits they have at wagers 1, and every gain is 2**1023
    # times its value there.
    big = 2.0**1023
    beliefs = [(0.6, 0.3, 0.1), (0.2, 0.5, 0.3), (0.3, 0.3, 0.4)]

    def players(w):
        return [Player(Forecast(b), wager, Forecast(b)) for b, wager in zip(beliefs, [w, w, 1.0])]

    assert PAIR.wager_total(players(big)) == math.inf
    for rule in (quadratic_rule(), logarithmic_rule(), spherical_rule()):
        unit, scaled = (arbitrage_report(rule, players(w), PAIR) for w in (1.0, big))
        assert scaled.q == unit.q and not scaled.agreement and scaled.equalized
        assert scaled.surplus_by_outcome == tuple(big * g for g in unit.surplus_by_outcome)
        assert closed_form_surplus(rule, players(big), PAIR) == big * closed_form_surplus(
            rule, players(1.0), PAIR
        )
        assert grid_search_equalizer(rule, players(big), PAIR, 10) == grid_search_equalizer(
            rule, players(1.0), PAIR, 10
        )
        assert spherical_aux(players(big), PAIR) == spherical_aux(players(1.0), PAIR)
        spec = MechanismSpec(MechanismKind.COMPETITIVE, rule)
        assert np.isfinite(intermediary_profit_by_outcome(spec, players(big), PAIR, scaled.q)).all()
        if rule.kind is not RuleKind.LOGARITHMIC:  # log(0.1) * 2**1023 is past the range
            assert np.isfinite(payment_table(spec, players(big)).payments).all()
    binary = [Player(Forecast((p, 1.0 - p)), w) for p, w in ((0.3, big), (0.7, big), (0.5, 1.0))]
    gen = binary_quadratic_generator()
    assert binary_equalizer(gen, binary, PAIR) == binary_equalizer(
        gen, [Player(p.belief, 1.0) for p in binary], PAIR
    )
