"""Tests for belief samplers, seeded substreams, coalition-size sweeps,
intermediary runs, and market sessions."""

from __future__ import annotations

import math
from statistics import NormalDist

import numpy as np
import pytest

from coalition_forge import (
    BetaBinary,
    Coalition,
    DimensionMismatch,
    DirichletM,
    FiniteMixture,
    Forecast,
    FractionOutOfRange,
    MechanismKind,
    MechanismSpec,
    OrderingViolationWarning,
    Player,
    UnsupportedMechanism,
    ValidationError,
    custom_binary_rule,
    expected_surplus_sweep,
    intermediary_run,
    logit_generator,
    market_session,
    quadratic_rule,
    sample_population,
    score,
    substream,
)
from coalition_forge import simulate


def test_substream_reproducibility_and_independence():
    a = substream(42, 7).uniform(size=8)
    b = substream(42, 7).uniform(size=8)
    np.testing.assert_array_equal(a, b)
    c = substream(42, 8).uniform(size=8)
    d = substream(43, 7).uniform(size=8)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)


def test_beta_binary_draw_shape_and_validity():
    sampler = BetaBinary(2.0, 2.0)
    rows = sampler.draw(substream(0, 0), 50)
    assert rows.shape == (50, 2)
    np.testing.assert_allclose(rows.sum(axis=1), 1.0, atol=1e-12)
    assert (rows >= 0.0).all()
    assert sampler.m == 2


def test_beta_binary_validation():
    with pytest.raises(ValidationError):
        BetaBinary(0.0, 2.0)
    with pytest.raises(ValidationError):
        BetaBinary(2.0, -1.0)


def test_dirichlet_sampler():
    sampler = DirichletM((1.0, 2.0, 3.0))
    assert sampler.m == 3
    rows = sampler.draw(substream(1, 0), 40)
    assert rows.shape == (40, 3)
    np.testing.assert_allclose(rows.sum(axis=1), 1.0, atol=1e-12)
    with pytest.raises(ValidationError):
        DirichletM((1.0,))
    with pytest.raises(ValidationError):
        DirichletM((1.0, 0.0))


def test_finite_mixture_draws_only_its_points():
    points = ((0.2, 0.8), (0.8, 0.2), (0.5, 0.5))
    sampler = FiniteMixture(points, (1.0, 1.0, 2.0))
    rows = sampler.draw(substream(2, 0), 200)
    seen = {tuple(row) for row in rows}
    assert seen <= set(points)
    assert len(seen) > 1


def test_finite_mixture_validation():
    with pytest.raises(ValidationError):
        FiniteMixture((), ())
    with pytest.raises(ValidationError):
        FiniteMixture(((0.5, 0.5),), (1.0, 2.0))
    with pytest.raises(ValidationError):
        FiniteMixture(((0.5, 0.5),), (0.0,))
    with pytest.raises(ValidationError):
        FiniteMixture(((0.5, 0.5), (0.2, 0.3, 0.5)), (1.0, 1.0))
    with pytest.raises(ValidationError):
        FiniteMixture(((0.5, 0.6),), (1.0,))


@pytest.mark.parametrize("bad", [math.nan, math.inf], ids=["nan", "inf"])
@pytest.mark.parametrize(
    "make",
    [
        lambda x: BetaBinary(x, 1.0),
        lambda x: BetaBinary(1.0, x),
        lambda x: DirichletM((x, 1.0)),
        lambda x: FiniteMixture(((0.5, 0.5),), (x,)),
    ],
    ids=["beta_alpha", "beta_beta", "dirichlet", "mixture_weight"],
)
def test_samplers_reject_non_finite_parameters(make, bad):
    # NaN passes a `<= 0` test, and infinity makes the sweep's mean NaN.
    with pytest.raises(ValidationError, match="finite"):
        make(bad)


@pytest.mark.parametrize("seed", [-1, -5, 2**64])
def test_seed_outside_the_philox_key_range_is_invalid(seed):
    # Philox keys are unsigned 64-bit integers.
    sampler = BetaBinary(2.0, 2.0)
    with pytest.raises(ValidationError, match=r"outside \[0, 2\*\*64\)"):
        sample_population(sampler, 4, seed=seed)
    with pytest.raises(ValidationError, match=r"outside \[0, 2\*\*64\)"):
        expected_surplus_sweep(_competitive_spec(), sampler, 10, (0.5,), 2, seed=seed)
    ordering = (0, 1, 2, 3)
    market = MechanismSpec(MechanismKind.MARKET, quadratic_rule())
    with pytest.raises(ValidationError, match=r"outside \[0, 2\*\*64\)"):
        market_session(market, ordering, Coalition((1, 3)), sampler, seed=seed)
    assert len(sample_population(sampler, 4, seed=2**64 - 1)) == 4


def test_sample_population_deterministic_in_seed():
    sampler = BetaBinary(2.0, 2.0)
    a = sample_population(sampler, 6, seed=9)
    b = sample_population(sampler, 6, seed=9)
    assert [p.belief.probs for p in a] == [p.belief.probs for p in b]
    assert all(p.wager == 1.0 for p in a)
    c = sample_population(sampler, 6, seed=10)
    assert [p.belief.probs for p in a] != [p.belief.probs for p in c]


def test_sample_population_needs_two_players():
    with pytest.raises(ValidationError):
        sample_population(BetaBinary(2.0, 2.0), 1, seed=0)


def test_dirichlet_population_obeys_law_of_large_numbers():
    players = sample_population(DirichletM((1.0, 1.0, 1.0)), 1000, seed=77)
    beliefs = np.asarray([p.belief.probs for p in players])
    # Coordinate variance is 1/18, so three standard errors at n=1000
    # is about 0.0224.
    np.testing.assert_allclose(beliefs.mean(axis=0), 1.0 / 3.0, atol=0.0224)


def _competitive_spec():
    return MechanismSpec(MechanismKind.COMPETITIVE, quadratic_rule())


def _traditional_spec():
    return MechanismSpec(MechanismKind.TRADITIONAL, quadratic_rule())


def test_sweep_validation():
    sampler = BetaBinary(2.0, 2.0)
    market = MechanismSpec(MechanismKind.MARKET, quadratic_rule())
    with pytest.raises(UnsupportedMechanism):
        expected_surplus_sweep(market, sampler, 10, (0.5,), 5, seed=0)
    with pytest.raises(FractionOutOfRange):
        expected_surplus_sweep(_competitive_spec(), sampler, 10, (0.0,), 5, seed=0)
    with pytest.raises(FractionOutOfRange):
        expected_surplus_sweep(_competitive_spec(), sampler, 10, (1.2,), 5, seed=0)
    with pytest.raises(FractionOutOfRange):
        # Rounds to a coalition of one.
        expected_surplus_sweep(_competitive_spec(), sampler, 10, (0.1,), 5, seed=0)
    with pytest.raises(ValidationError):
        expected_surplus_sweep(_competitive_spec(), sampler, 10, (0.5,), 0, seed=0)
    with pytest.raises(ValidationError):
        expected_surplus_sweep(_competitive_spec(), sampler, 1, (0.5,), 5, seed=0)
    with pytest.raises(ValidationError):
        expected_surplus_sweep(_competitive_spec(), sampler, 10, (), 5, seed=0)


def test_sweep_refuses_a_binary_rule_over_three_states():
    # The first trial's equalizer refuses it.
    spec = MechanismSpec(MechanismKind.TRADITIONAL, custom_binary_rule(logit_generator()))
    with pytest.raises(DimensionMismatch) as err:
        expected_surplus_sweep(spec, DirichletM((1.0, 1.0, 1.0)), 4, (0.5,), 2, seed=1)
    assert str(err.value) == "custom binary rules support exactly 2 states"


def test_runs_over_the_belief_bound_are_refused_before_drawing(monkeypatch):
    # 2 fractions x 3 trials x 10 players x 2 states is 120 entries; a
    # session of 4 binary players draws 8.
    sampler = BetaBinary(2.0, 2.0)
    market = MechanismSpec(MechanismKind.MARKET, quadratic_rule())
    monkeypatch.setattr(simulate, "_MAX_BELIEF_ENTRIES", 119)
    monkeypatch.setattr(BetaBinary, "draw", None)  # any draw fails
    with pytest.raises(ValidationError, match=r"= 120 belief entries; at most 119"):
        expected_surplus_sweep(_competitive_spec(), sampler, 10, (0.2, 0.5), 3, seed=0)
    monkeypatch.setattr(simulate, "_MAX_BELIEF_ENTRIES", 7)
    with pytest.raises(ValidationError, match=r"len\(ordering\) \* m = 8 belief entries"):
        market_session(market, (0, 1, 2, 3), Coalition((1, 3)), sampler, seed=0)


def test_sweeps_over_the_trial_bound_are_refused_before_drawing(monkeypatch):
    # trials * len(fractions) is bounded on its own: 250,001 trials at two
    # fractions over 4 binary players are 4 M belief entries, well inside
    # that bound, but 500,002 trials.
    sampler = BetaBinary(2.0, 2.0)
    draw = BetaBinary.draw
    monkeypatch.setattr(BetaBinary, "draw", None)  # any draw fails
    with pytest.raises(ValidationError, match=r"trials \* len\(fractions\) = 500,002 sweep trials; at most 500,000"):
        expected_surplus_sweep(_competitive_spec(), sampler, 4, (0.5, 1.0), 250_001, seed=0)
    # Just below a bound the sweep runs; just above it is refused.
    monkeypatch.setattr(simulate, "_MAX_SWEEP_TRIALS", 6)
    with pytest.raises(ValidationError, match=r"= 8 sweep trials; at most 6"):
        expected_surplus_sweep(_competitive_spec(), sampler, 4, (0.5, 1.0), 4, seed=0)
    monkeypatch.setattr(BetaBinary, "draw", draw)
    result = expected_surplus_sweep(_competitive_spec(), sampler, 4, (0.5, 1.0), 3, seed=0)
    assert [row.trials for row in result.rows] == [3, 3]

def test_sweep_deterministic_across_runs():
    sampler = BetaBinary(2.0, 2.0)
    kwargs = dict(sampler=sampler, n=20, fractions=(0.2, 0.5), trials=40, seed=11)
    first = expected_surplus_sweep(_competitive_spec(), **kwargs)
    second = expected_surplus_sweep(_competitive_spec(), **kwargs)
    assert first == second


def test_sweep_competitive_is_scaled_traditional_with_shared_seed():
    # With the same seed both sweeps see identical populations, coalitions,
    # and outcomes, and the self-financed payment identity makes each
    # competitive trial exactly (1 - c/n) times the traditional one.
    sampler = BetaBinary(2.0, 2.0)
    kwargs = dict(sampler=sampler, n=20, fractions=(0.25, 0.5), trials=200, seed=21)
    comp = expected_surplus_sweep(_competitive_spec(), **kwargs)
    trad = expected_surplus_sweep(_traditional_spec(), **kwargs)
    for rc, rt in zip(comp.rows, trad.rows):
        share = rc.coalition_size / 20.0
        assert rc.mean == pytest.approx((1.0 - share) * rt.mean, rel=1e-9)


def _trace_cov(sampler: BetaBinary | DirichletM) -> float:
    """tr Cov of one belief the sampler draws. A Beta(a, b) binary belief
    (x, 1 - x) is Dirichlet(a, b), whose tr Cov is
    sum_j a_j (a_0 - a_j) / (a_0^2 (a_0 + 1))."""
    alphas = (sampler.alpha, sampler.beta) if isinstance(sampler, BetaBinary) else sampler.alphas
    a0 = math.fsum(alphas)
    return math.fsum(a * (a0 - a) for a in alphas) / (a0 * a0 * (a0 + 1.0))


# (pool, sampler, n, seed); fractions 1/4, 1/2 and 3/4 give coalitions of
# 2 to 12.
ORACLE_SWEEPS = [
    (MechanismKind.TRADITIONAL, BetaBinary(2.0, 2.0), 12, 101),
    (MechanismKind.TRADITIONAL, DirichletM((1.0, 1.0, 1.0)), 8, 102),
    (MechanismKind.TRADITIONAL, DirichletM((0.5, 1.0, 2.0, 1.0, 0.5)), 16, 103),
    (MechanismKind.COMPETITIVE, BetaBinary(0.5, 3.0), 16, 104),
    (MechanismKind.COMPETITIVE, DirichletM((2.0, 1.0, 0.5)), 12, 105),
    (MechanismKind.COMPETITIVE, DirichletM((1.0,) * 5), 8, 106),
]
ORACLE_FRACTIONS = (0.25, 0.5, 0.75)
ORACLE_TRIALS = 1_500
# Two-sided Bonferroni bound: every row of every sweep inside k standard
# errors with probability at least 1 - 1e-3 when the sweep is right.
ORACLE_K = NormalDist().inv_cdf(1.0 - 1e-3 / (2 * len(ORACLE_SWEEPS) * len(ORACLE_FRACTIONS)))


def test_quadratic_sweeps_match_the_expected_surplus():
    # Under the quadratic rule the equalizer of equal wagers is the members'
    # mean q, and the traditional gain is sum_i ||p_i - q||^2 in every
    # outcome: with i.i.d. beliefs its expectation is (c - 1) tr Cov(p),
    # and the competitive pool pays (1 - c/n) of it. Each row's mean must
    # lie within ORACLE_K of its own standard errors of that value.
    assert 4.0 < ORACLE_K < 4.1
    found = []
    for kind, sampler, n, seed in ORACLE_SWEEPS:
        result = expected_surplus_sweep(
            MechanismSpec(kind, quadratic_rule()), sampler, n, ORACLE_FRACTIONS,
            ORACLE_TRIALS, seed=seed,
        )
        for row in result.rows:
            c = row.coalition_size
            share = 1.0 - c / n if kind is MechanismKind.COMPETITIVE else 1.0
            z = (row.mean - share * (c - 1) * _trace_cov(sampler)) / row.se
            found.append((kind.value, sampler, n, c, round(z, 2)))
    assert [f for f in found if abs(f[-1]) > ORACLE_K] == []


def test_sweep_full_pool_competitive_surplus_is_zero():
    result = expected_surplus_sweep(
        _competitive_spec(), BetaBinary(2.0, 2.0), 10, (1.0,), 20, seed=3
    )
    # The scaling identity makes the full-pool surplus exactly zero in
    # the algebra; the float evaluation leaves only rounding dust.
    assert abs(result.rows[0].mean) <= 1e-12
    assert abs(result.rows[0].se) <= 1e-12
    # A single-point sweep cannot support a quadratic fit.
    assert result.fit == ()
    assert result.vertex is None


def test_sweep_traditional_grows_with_coalition_size():
    result = expected_surplus_sweep(
        _traditional_spec(),
        BetaBinary(2.0, 2.0),
        50,
        (0.2, 0.4, 0.6, 0.8),
        400,
        seed=13,
    )
    assert result.argmax_fraction == 0.8
    assert result.vertex is None
    assert len(result.fit) == 2
    slope = result.fit[0]
    assert slope > 0.0
    means = [row.mean for row in result.rows]
    assert means == sorted(means)


def test_sweep_competitive_peaks_in_the_interior():
    result = expected_surplus_sweep(
        _competitive_spec(),
        BetaBinary(2.0, 2.0),
        40,
        (0.1, 0.5, 0.9),
        400,
        seed=17,
    )
    means = {row.fraction: row.mean for row in result.rows}
    assert means[0.5] > means[0.1]
    assert means[0.5] > means[0.9]
    assert len(result.fit) == 3
    assert result.vertex is not None


def test_sweep_row_per_member_accounting():
    result = expected_surplus_sweep(
        _competitive_spec(), BetaBinary(2.0, 2.0), 20, (0.5,), 30, seed=29
    )
    row = result.rows[0]
    assert row.coalition_size == 10
    assert row.mean_per_member == pytest.approx(row.mean / 10.0)
    assert row.trials == 30


def test_sweep_records_resolved_seed():
    sampler = BetaBinary(2.0, 2.0)
    result = expected_surplus_sweep(
        _competitive_spec(), sampler, 10, (0.5,), 5, seed=31
    )
    assert result.seed == 31
    assert result.mechanism is MechanismKind.COMPETITIVE
    assert result.n == 10
    unseeded = expected_surplus_sweep(_competitive_spec(), sampler, 10, (0.5,), 5)
    assert unseeded.seed == 0
    assert unseeded == expected_surplus_sweep(
        _competitive_spec(), sampler, 10, (0.5,), 5, seed=0
    )


def test_intermediary_run_frozen_examples():
    players = [
        Player(Forecast((0.2, 0.8)), 1.0),
        Player(Forecast((0.8, 0.2)), 1.0),
        Player(Forecast((0.5, 0.5)), 1.0),
        Player(Forecast((0.6, 0.4)), 1.0),
    ]
    coalition = Coalition((0, 1))
    comp = intermediary_run(_competitive_spec(), players, coalition, scenario_id="x")
    np.testing.assert_allclose(comp.profit_by_outcome, [0.18, 0.18], rtol=1e-9)
    assert comp.min_profit == pytest.approx(0.18, rel=1e-9)
    assert not comp.no_arbitrage
    assert comp.scenario_id == "x"
    trad = intermediary_run(_traditional_spec(), players, coalition)
    np.testing.assert_allclose(trad.profit_by_outcome, [0.36, 0.36], rtol=1e-9)


def test_intermediary_run_flags_agreement():
    players = [
        Player(Forecast((0.4, 0.6)), 1.0),
        Player(Forecast((0.4, 0.6)), 1.0),
        Player(Forecast((0.7, 0.3)), 1.0),
    ]
    run = intermediary_run(_competitive_spec(), players, Coalition((0, 1)))
    assert run.no_arbitrage
    assert run.profit_by_outcome == (0.0, 0.0)
    assert run.min_profit == 0.0


@pytest.mark.parametrize("second", [(0.4, 0.6), (0.8, 0.2)], ids=["agreeing", "disagreeing"])
def test_intermediary_run_refuses_market_scoring(second):
    # A market pays turns, not a pool, so agreeing clients are refused
    # too, with the text disagreeing ones get, not given zero profits.
    players = [
        Player(Forecast((0.4, 0.6)), 1.0),
        Player(Forecast(second), 1.0),
        Player(Forecast((0.7, 0.3)), 1.0),
    ]
    with pytest.raises(UnsupportedMechanism, match="^intermediary runs support traditional and competitive"):
        intermediary_run(_market_spec(), players, Coalition((0, 1)))


def _market_spec():
    return MechanismSpec(
        MechanismKind.MARKET, quadratic_rule(), Forecast((0.5, 0.5))
    )


def _seed_with_member_disagreement(sampler, coalition, n, start=0):
    for seed in range(start, start + 50):
        rng = substream(seed, 0)
        beliefs = sampler.draw(rng, n)
        member_rows = beliefs[list(coalition.members)]
        if float((member_rows.max(axis=0) - member_rows.min(axis=0)).max()) > 1e-3:
            return seed
    raise AssertionError("no disagreeing draw found")


def test_market_session_alternating_order_gains_everywhere():
    sampler = FiniteMixture(((0.2, 0.8), (0.8, 0.2)), (1.0, 1.0))
    coalition = Coalition((1, 3))
    seed = _seed_with_member_disagreement(sampler, coalition, 4)
    result = market_session(
        _market_spec(), (0, 1, 2, 3), coalition, sampler, seed=seed
    )
    assert result.ordering_ok
    assert not result.arbitrage.agreement
    assert all(s > 0.0 for s in result.surplus_by_outcome)
    # Under alternation the gain is each member's score improvement.
    beliefs = sampler.draw(substream(seed, 0), 4)
    rule = quadratic_rule()
    for j in (0, 1):
        expected = math.fsum(
            score(rule, result.arbitrage.q, j)
            - score(rule, Forecast(tuple(beliefs[i])), j)
            for i in coalition.members
        )
        assert result.surplus_by_outcome[j] == pytest.approx(expected, abs=1e-12)


def test_market_session_flags_ordering_violation():
    sampler = FiniteMixture(((0.2, 0.8), (0.8, 0.2)), (1.0, 1.0))
    coalition = Coalition((1, 2))
    seed = _seed_with_member_disagreement(sampler, coalition, 4)
    with pytest.warns(OrderingViolationWarning) as record:
        result = market_session(
            _market_spec(), (0, 1, 2, 3), coalition, sampler, seed=seed
        )
    assert not result.ordering_ok
    # One warning per session, attributed to the session itself.
    assert [w.filename for w in record] == [simulate.__file__]


def test_market_session_agreement_gives_zero_surplus():
    sampler = FiniteMixture(((0.5, 0.5),), (1.0,))
    result = market_session(
        _market_spec(), (0, 1, 2, 3), Coalition((1, 3)), sampler, seed=0
    )
    assert result.arbitrage.agreement
    assert result.surplus_by_outcome == (0.0, 0.0)


def test_market_session_deterministic():
    sampler = BetaBinary(2.0, 2.0)
    a = market_session(_market_spec(), (0, 1, 2), Coalition((0, 2)), sampler, seed=4)
    b = market_session(_market_spec(), (0, 1, 2), Coalition((0, 2)), sampler, seed=4)
    assert a.surplus_by_outcome == b.surplus_by_outcome


def test_market_session_validation():
    sampler = BetaBinary(2.0, 2.0)
    with pytest.raises(UnsupportedMechanism):
        market_session(
            _competitive_spec(), (0, 1, 2), Coalition((0, 2)), sampler, seed=0
        )
    with pytest.raises(ValidationError):
        market_session(_market_spec(), (0, 0, 1), Coalition((0, 2)), sampler, seed=0)
