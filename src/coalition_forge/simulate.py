"""Monte Carlo experiments over exchangeable belief populations:
coalition-size sweeps, intermediary profit runs, and sequential market
sessions.

Reproducibility contract: all randomness flows through counter-based
Philox 4x64 streams keyed by (seed, stream index), one stream per trial.
Results therefore depend only on the scenario and the seed. Trials run
serially, fraction by fraction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from .arbitrage import (
    ArbitrageResult,
    Coalition,
    Player,
    _coalition_surplus,
    _equalizing_array,
    arbitrage_report,
    ordering_satisfies_alternation,
)
from .errors import (
    FractionOutOfRange,
    PaymentOverflow,
    UnsupportedMechanism,
    ValidationError,
)
from .mechanisms import (
    MechanismKind,
    MechanismSpec,
    intermediary_profit_by_outcome,
)
from .rules import _unit_table
from .simplex import Forecast, validate_forecast


# The most belief entries one run draws: trials * len(fractions) * n * m
# for a sweep, len(ordering) * m for a market session. n and m both come
# from a scenario file, so memory grows with their product while the file
# grows only with their sum. The bundled sweeps draw 3.6 M (9 * 2,000 *
# 100 * 2). It does not bound time: at n = m = 2 it admits 25,000,000
# sweep trials.
_MAX_BELIEF_ENTRIES = 10**8

# The most trials one sweep plays: trials * len(fractions). A trial took
# 50-66 µs under the quadratic rule with 2 to 100 binary beliefs, and up
# to 135 µs under the spherical rule over 3 states (2 vCPUs, 5,000-trial
# sweeps), so the bound is about 25 s to 70 s. The bundled sweeps play
# 18,000 (9 * 2,000).
_MAX_SWEEP_TRIALS = 500_000


def _check_draw_size(what: str, *factors: int) -> None:
    """Refuse a run whose belief entries, the product of factors, exceed
    the bound; what names the factors."""
    entries = math.prod(factors)
    if entries > _MAX_BELIEF_ENTRIES:
        raise ValidationError(
            f"{what} = {entries:,} belief entries; at most "
            f"{_MAX_BELIEF_ENTRIES:,} are supported"
        )


def _check_sweep_trials(trials: int, fractions: int) -> None:
    """Refuse a sweep of more than _MAX_SWEEP_TRIALS trials in all."""
    total = trials * fractions
    if total > _MAX_SWEEP_TRIALS:
        raise ValidationError(
            f"trials * len(fractions) = {total:,} sweep trials; at most "
            f"{_MAX_SWEEP_TRIALS:,} are supported"
        )


def _coalition_size(f: float, n: int) -> int:
    """The coalition a wager fraction f of n equal-wager players gives."""
    if not (0.0 < f <= 1.0):
        raise FractionOutOfRange(f"fraction {f!r} outside (0, 1]")
    c = int(round(f * n))
    if c < 2:
        raise FractionOutOfRange(
            f"fraction {f!r} of {n} players yields a coalition of {c}"
        )
    return c


def substream(seed: int, index: int) -> np.random.Generator:
    """Independent generator for one unit of work.

    Philox 4x64 keyed by (seed, index): streams never collide and any
    worker can jump straight to its own stream.
    """
    key = np.array([np.uint64(seed), np.uint64(index)], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


@dataclass(frozen=True)
class BetaBinary:
    """Binary beliefs (p, 1-p) with p drawn from a Beta distribution."""

    alpha: float
    beta: float

    def __post_init__(self):
        if not all(math.isfinite(a) and a > 0.0 for a in (self.alpha, self.beta)):
            raise ValidationError("Beta parameters must be finite and > 0")

    @property
    def m(self) -> int:
        return 2

    def draw(self, rng: np.random.Generator, n: int) -> np.ndarray:
        p = rng.beta(self.alpha, self.beta, size=n)
        return np.column_stack([p, 1.0 - p])


@dataclass(frozen=True)
class DirichletM:
    """Beliefs over m states drawn from a Dirichlet distribution."""

    alphas: tuple[float, ...]

    def __post_init__(self):
        if len(self.alphas) < 2:
            raise ValidationError("need at least 2 Dirichlet parameters")
        if not all(math.isfinite(a) and a > 0.0 for a in self.alphas):
            raise ValidationError("Dirichlet parameters must be finite and > 0")

    @property
    def m(self) -> int:
        return len(self.alphas)

    def draw(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return rng.dirichlet(self.alphas, size=n)


@dataclass(frozen=True)
class FiniteMixture:
    """Beliefs drawn from a finite set of forecasts with given sampling
    weights (normalized internally)."""

    points: tuple[tuple[float, ...], ...]
    weights: tuple[float, ...]

    def __post_init__(self):
        if not self.points:
            raise ValidationError("need at least one mixture point")
        if len(self.points) != len(self.weights):
            raise ValidationError("points and weights differ in length")
        if not all(math.isfinite(w) and w > 0.0 for w in self.weights):
            raise ValidationError("mixture weights must be finite and > 0")
        m = len(self.points[0])
        for pt in self.points:
            if len(pt) != m:
                raise ValidationError("mixture points have mixed lengths")
            validate_forecast(pt)

    @property
    def m(self) -> int:
        return len(self.points[0])

    def draw(self, rng: np.random.Generator, n: int) -> np.ndarray:
        w = np.asarray(self.weights, dtype=np.float64)
        idx = rng.choice(len(self.points), size=n, p=w / w.sum())
        return np.asarray(self.points, dtype=np.float64)[idx]


BeliefSampler = Union[BetaBinary, DirichletM, FiniteMixture]


def _resolve_seed(seed: int | None) -> int:
    """The seed of a run: 0 when none is given, else an integer that
    Philox keys take, in [0, 2**64)."""
    seed = 0 if seed is None else int(seed)
    if not 0 <= seed < 2**64:
        raise ValidationError(f"seed {seed} outside [0, 2**64)")
    return seed


def sample_population(
    sampler: BeliefSampler, n: int, seed: int | None = None
) -> list[Player]:
    """n equal-wager players with i.i.d. beliefs; deterministic in seed."""
    if n < 2:
        raise ValidationError(f"population needs n >= 2, got {n}")
    rng = substream(_resolve_seed(seed), 0)
    beliefs = sampler.draw(rng, n)
    return [
        Player(Forecast(tuple(float(x) for x in row)), 1.0) for row in beliefs
    ]


@dataclass(frozen=True)
class SweepRow:
    """Aggregates for one coalition wager fraction.

    mean_per_member is the same surplus divided by coalition size; it
    shrinks as coalitions grow even while the total rises.
    """

    fraction: float
    mean: float
    se: float
    trials: int
    coalition_size: int
    mean_per_member: float


@dataclass(frozen=True)
class SweepResult:
    """Surplus sweep across coalition wager fractions.

    fit holds polynomial coefficients of mean surplus against fraction
    (degree 1 for the traditional contract, degree 2 for the competitive
    pool, highest power first); vertex is the fitted peak fraction for
    the competitive case.  Sweeps with no more distinct fractions than
    the fit's degree carry an empty fit and no vertex.
    """

    mechanism: MechanismKind
    n: int
    seed: int
    rows: tuple[SweepRow, ...]
    argmax_fraction: float
    fit: tuple[float, ...]
    vertex: float | None


def expected_surplus_sweep(
    mechanism: MechanismSpec,
    sampler: BeliefSampler,
    n: int,
    fractions: Sequence[float],
    trials: int,
    seed: int | None = None,
) -> SweepResult:
    """Mean coalition surplus as a function of coalition wager fraction.

    Every trial draws a fresh equal-wager population, picks a uniformly
    random coalition of the requested size, has it play its equalizing
    report while outsiders stay truthful, and records the realized
    coalition gain at an outcome drawn uniformly. The traditional total
    keeps growing with coalition size; the self-financed competitive
    total peaks near half the pool. Each gain is scored on the unit rule
    (offsets 0, scale 1, rules._unit_table) and multiplied by the rule's
    scale b once, as the public gains multiply arbitrage._coalition_surplus;
    the pool's formula is written out here for equal wagers, which keeps
    the sweep's pinned bits. A fraction whose mean surplus or standard
    error passes the float range is a PaymentOverflow.
    """
    if mechanism.kind is MechanismKind.MARKET:
        raise UnsupportedMechanism(
            "sweeps cover wagered pools; sequential markets go through "
            "market_session"
        )
    if n < 2:
        raise ValidationError(f"population needs n >= 2, got {n}")
    if trials < 1:
        raise ValidationError(f"trials must be >= 1, got {trials}")
    if not fractions:
        raise ValidationError("no fractions supplied")
    m = sampler.m
    _check_draw_size("trials * len(fractions) * n * m", trials, len(fractions), n, m)
    _check_sweep_trials(trials, len(fractions))
    sizes = [_coalition_size(f, n) for f in fractions]
    rule = mechanism.rule
    base_seed = _resolve_seed(seed)
    competitive = mechanism.kind is MechanismKind.COMPETITIVE
    surplus = np.empty((len(fractions), trials))

    for fi, c in enumerate(sizes):
        for t in range(trials):
            rng = substream(base_seed, fi * trials + t)
            beliefs = sampler.draw(rng, n)
            members = rng.choice(n, size=c, replace=False)
            outcome = int(rng.integers(m))
            q = _equalizing_array(rule, beliefs[members], np.ones(c))
            s_q = float(_unit_table(rule, q[None, :])[0, outcome])
            all_scores = _unit_table(rule, beliefs)[:, outcome]
            member_total = float(all_scores[members].sum())
            if not competitive:
                surplus[fi, t] = rule.b * (c * s_q - member_total)
                continue
            # Self-financed pool: coalition payment is its wagered-score sum
            # minus its wager share of the whole pool's total, evaluated for
            # both scenarios with outsiders fixed at truth.
            total_truth = float(all_scores.sum())
            total_coord = total_truth - member_total + c * s_q
            coal_truth = member_total - (c / n) * total_truth
            coal_coord = c * s_q - (c / n) * total_coord
            surplus[fi, t] = rule.b * (coal_coord - coal_truth)

    rows = []
    for fi, f in enumerate(fractions):
        mean, se = _mean_and_se(surplus[fi], f, rule.b)
        rows.append(
            SweepRow(float(f), mean, se, trials, sizes[fi], mean / sizes[fi])
        )
    means = np.asarray([r.mean for r in rows])
    fr = np.asarray([r.fraction for r in rows], dtype=np.float64)
    argmax_fraction = float(fr[int(np.argmax(means))])
    # A fit needs more distinct fractions than its degree; a sweep with
    # fewer gets no fit rather than an underdetermined one.
    degree = 2 if competitive else 1
    vertex = None
    coeffs = np.zeros(0)
    if len(set(fr.tolist())) > degree:
        coeffs = np.polyfit(fr, means, degree)
        if competitive and coeffs[0] != 0.0:
            vertex = float(-coeffs[1] / (2.0 * coeffs[0]))
    return SweepResult(
        mechanism.kind,
        n,
        base_seed,
        tuple(rows),
        argmax_fraction,
        tuple(float(x) for x in coeffs),
        vertex,
    )


def _mean_and_se(vals: np.ndarray, fraction: float, b: float) -> tuple[float, float]:
    """The mean of one fraction's surpluses and its standard error; where
    either passes the float range, as at a rule scale b near the float
    maximum, the sweep is a PaymentOverflow, with no numpy warning."""
    trials = len(vals)
    try:
        with np.errstate(over="raise", invalid="raise"):
            mean = float(vals.mean())
            se = float(vals.std(ddof=1) / math.sqrt(trials)) if trials > 1 else 0.0
        if math.isfinite(mean) and math.isfinite(se):
            return mean, se
    except FloatingPointError:
        pass
    raise PaymentOverflow(
        f"surpluses at fraction {fraction!r} under rule scale b = {b!r} pass "
        "the float range; scale the rule down"
    )


@dataclass(frozen=True)
class IntermediaryRun:
    """Guaranteed-profit run: an intermediary submits the equalizing
    report for every client and reimburses their truthful payments."""

    scenario_id: str
    profit_by_outcome: tuple[float, ...]
    min_profit: float
    no_arbitrage: bool


def intermediary_run(
    mechanism: MechanismSpec,
    players: Sequence[Player],
    coalition: Coalition,
    scenario_id: str = "",
) -> IntermediaryRun:
    """Profit the intermediary locks in for each outcome; no sampling is
    involved. A market mechanism is refused, by
    intermediary_profit_by_outcome, whether or not the clients agree."""
    arb = arbitrage_report(mechanism.rule, players, coalition)
    if arb.agreement and mechanism.kind is not MechanismKind.MARKET:
        return IntermediaryRun(scenario_id, (0.0,) * arb.q.m, 0.0, True)
    profits = intermediary_profit_by_outcome(mechanism, players, coalition, arb.q)
    return IntermediaryRun(scenario_id, profits, min(profits), False)


@dataclass(frozen=True)
class MarketSessionResult:
    """Outcome of one sequential market session with a coordinating
    coalition; ordering_ok records whether every member reported right
    after a non-member, and arbitrage is the coalition's equalizing report
    with its flags: the surplus is zero where arbitrage.agreement holds."""

    surplus_by_outcome: tuple[float, ...]
    ordering_ok: bool
    arbitrage: ArbitrageResult


def market_session(
    mechanism: MechanismSpec,
    ordering: Sequence[int],
    coalition: Coalition,
    sampler: BeliefSampler,
    seed: int | None = None,
) -> MarketSessionResult:
    """Simulate one sequential market: outsiders report truthfully in the
    given order, members all submit the coalition's equalizing report.

    Returns the per-outcome coalition gain over truthful play. The gain
    is guaranteed positive only under the alternation precondition; when
    the ordering violates it the session still runs and the flag flips.
    """
    if mechanism.kind is not MechanismKind.MARKET:
        raise UnsupportedMechanism("market sessions need a market mechanism")
    n = len(ordering)
    _check_draw_size("len(ordering) * m", n, sampler.m)
    if sorted(ordering) != list(range(n)):
        raise ValidationError(
            "ordering must be a permutation of all player indices"
        )
    players = sample_population(sampler, n, seed)
    arb = arbitrage_report(mechanism.rule, players, coalition)
    ordering_ok = ordering_satisfies_alternation(ordering, coalition)
    m = sampler.m
    if arb.agreement:
        return MarketSessionResult((0.0,) * m, ordering_ok, arb)
    surpluses = mechanism.rule.b * _coalition_surplus(
        mechanism.kind, mechanism.rule, players, coalition, arb.q, range(m),
        ordering, mechanism.market_prior, stacklevel=2,
    )
    return MarketSessionResult(tuple(surpluses.tolist()), ordering_ok, arb)
