"""Coalition arbitrage: the identical report that equalizes coordinated
surplus across outcomes, closed-form outcome-independent surplus, and an
independent brute-force dominance oracle.

A coalition of players who disagree can all submit one carefully chosen
report and split a guaranteed gain over truthful play. Each rule family
has its own aggregation: arithmetic mean for the quadratic rule, floored
geometric mean for the logarithmic family, a normalized direction built
from belief unit vectors for the spherical rule, and a derivative-matching
root for any binary rule given by a convex generator.

Each mechanism's payment formula and the one coalition-gain formula built
on it live here too, since every surplus needs them. Payments are linear
in the scores, so the gain of the traditional, competitive and market
mechanisms alike is the mechanism's payment, summed over the members, of
their coordinated-minus-truthful scores under the unit rule, times the
rule's scale.
"""

from __future__ import annotations

import math
import sys
import warnings
from dataclasses import dataclass
from enum import Enum
from typing import Sequence

import numpy as np

from .errors import (
    CoalitionIsEveryoneWarning,
    DegenerateBelief,
    DimensionMismatch,
    InvalidCoalition,
    NoConvergence,
    NonMonotoneGenerator,
    NonPositiveWager,
    OrderingViolationWarning,
    OutOfDomain,
    PaymentOverflow,
    UnsupportedRule,
    ValidationError,
)
from .rules import (
    ConvexGenerator,
    RuleKind,
    ScoringRule,
    _lattice_scan,
    _score_columns,
    _unfloored_log,
    _unit_table,
    custom_binary_rule,
)
from .simplex import (
    Forecast,
    _clear_dust,
    _stack,
    uniform_prior,
)

# Members whose beliefs differ by at most this much (max-norm, pairwise)
# are treated as agreeing; the strict-dominance guarantees need genuine
# disagreement. The surplus grows with the square of the disagreement, so
# members 1e-7 apart leave one near 1e-14, below rounding error: a
# coalition whose smallest per-outcome surplus at the equalizing report is
# not above this same bound agrees as well. The dominance oracle reads it
# too, so no surplus that counts as agreement can count as DOMINATES
# there.
AGREEMENT_TOL = 1e-12

# Bisection for a custom binary rule's equalizer stops once g_prime at
# the midpoint is within this much of the target derivative.
_BISECTION_TOL = 1e-12

# Surplus entries are "equalized" when their spread is within this
# relative tolerance of the mean level.
EQUALIZED_RTOL = 1e-9


class MechanismKind(str, Enum):
    TRADITIONAL = "traditional"
    COMPETITIVE = "competitive"
    MARKET = "market"


@dataclass(frozen=True)
class Player:
    """A market participant: a belief, a positive wager, and optionally a
    submitted report."""

    belief: Forecast
    wager: float
    report: Forecast | None = None

    def __post_init__(self):
        if self.wager <= 0.0:
            raise NonPositiveWager(f"wager {self.wager!r} must be > 0")
        if not math.isfinite(self.wager):
            raise ValidationError(f"wager {self.wager!r} must be finite")
        if self.report is not None and self.report.m != self.belief.m:
            raise DimensionMismatch(
                f"report m={self.report.m} vs belief m={self.belief.m}"
            )


@dataclass(frozen=True)
class Coalition:
    """An ordered set of distinct player indices (0-based).

    Single-member coalitions are representable (some diagnostics accept
    them); operations that exploit disagreement require at least two
    members and check that themselves.
    """

    members: tuple[int, ...]

    def __post_init__(self):
        if len(self.members) == 0:
            raise InvalidCoalition("coalition has no members")
        if len(set(self.members)) != len(self.members):
            raise InvalidCoalition("coalition members must be distinct")
        if any(i < 0 for i in self.members):
            raise InvalidCoalition("member indices must be non-negative")

    def validate(self, n_players: int, minimum: int = 2) -> None:
        if len(self.members) < minimum:
            raise InvalidCoalition(
                f"needs at least {minimum} members, got {len(self.members)}"
            )
        for i in self.members:
            if i >= n_players:
                raise InvalidCoalition(
                    f"member index {i + 1} out of range for {n_players} players"
                )

    def wager_total(self, players: list[Player] | tuple[Player, ...]) -> float:
        """The members' wagers summed exactly; inf past the float range."""
        try:
            return math.fsum(players[i].wager for i in self.members)
        except OverflowError:
            return math.inf


@dataclass(frozen=True)
class ArbitrageResult:
    """The equalizing report q with its per-outcome surplus and flags.

    surplus_by_outcome is on the rule's own scale: b times the gain under
    the unit rule (offsets 0, scale 1), on which both flags are decided, so
    they do not depend on the rule's offsets or scale. agreement means the
    members shared one belief, so the surplus is zero, or were so close
    that the smallest per-outcome unit gain at the equalizing report is not
    above AGREEMENT_TOL; q and surplus_by_outcome are then the equalizer's,
    as computed. equalized means the unit gains' spread across outcomes is
    negligible relative to their level.
    """

    q: Forecast
    surplus_by_outcome: tuple[float, ...]
    equalized: bool
    agreement: bool


@dataclass(frozen=True)
class SphericalAux:
    """Intermediate quantities for the spherical construction.

    Y holds the wager-weighted sums of belief unit vectors; sum_sq < 1
    exactly characterizes disagreement, and the equalizing report and its
    surplus are simple functions of Y.
    """

    Y: tuple[float, ...]
    Y_bar: float
    sum_sq_dev: float
    sum_sq: float


class Verdict(str, Enum):
    DOMINATES = "dominates"
    TIES = "ties"
    FAILS = "fails"


@dataclass(frozen=True)
class DominanceVerdict:
    """Result of the independent dominance oracle.

    margins holds the coordinated-minus-truthful coalition totals per
    outcome, b times those of the unit rule, on which the verdict is
    decided; witness is the 0-based outcome attaining the worst margin
    when the verdict is FAILS.
    """

    verdict: Verdict
    margins: tuple[float, ...]
    witness: int | None


def _scaled_wagers(w: Sequence[float] | np.ndarray) -> tuple[np.ndarray, int]:
    """The wagers as an array w / 2**k, and k: 0 while their plain sum is
    finite, and past the float range the k that brings the largest into
    [1, 2). A power of two scales exactly, so the weights w / W keep their
    bits and a total formed on the scaled wagers is 2**-k times the plain
    one."""
    w = np.asarray(w, dtype=np.float64)
    top = float(w.max())
    if top * len(w) <= sys.float_info.max:
        return w, 0
    with np.errstate(over="ignore"):
        if np.isfinite(w.sum()):
            return w, 0
    k = math.frexp(top)[1] - 1
    return w / 2.0**k, k


def _member_arrays(
    players: list[Player] | tuple[Player, ...], coalition: Coalition, minimum: int = 2
) -> tuple[np.ndarray, np.ndarray, int]:
    """The members' beliefs, one per row, and their wagers as w / 2**k with
    k from _scaled_wagers, once the coalition is validated against the
    players with at least minimum members."""
    coalition.validate(len(players), minimum)
    chosen = [players[i] for i in coalition.members]
    P = _stack([p.belief for p in chosen])
    if P is None:
        raise DimensionMismatch("member beliefs have mixed lengths")
    return P, *_scaled_wagers(np.asarray([p.wager for p in chosen], dtype=np.float64))


def members_agree(P: np.ndarray) -> bool:
    """Pairwise max-norm agreement within AGREEMENT_TOL across a belief matrix."""
    return float((P.max(axis=0) - P.min(axis=0)).max()) <= AGREEMENT_TOL


def _geometric_equalizer(P: np.ndarray, w: np.ndarray, floor: float) -> tuple[np.ndarray, float]:
    """Floored weighted geometric mean, renormalized to the simplex, and
    the log of its normalizing constant sum_k G_k.

    Works in log space so long products of small probabilities cannot
    underflow. With floor 0 any zero member entry is fatal: the aggregate
    would pin that state to zero and the logarithmic score there is
    undefined.
    """
    if floor == 0.0 and (P <= 0.0).any():
        raise DegenerateBelief(
            "a member belief has a zero entry; the unfloored logarithmic "
            "rule cannot aggregate it"
        )
    m = P.shape[1]
    # log G_j, the wager-weighted mean of log(P + floor) per state, then a
    # softmax-style normalization: G_j / sum_k G_k without leaving log space
    log_g = (w[:, None] / w.sum() * np.log(P + floor)).sum(axis=0)
    shift = log_g.max()
    log_g -= shift
    g = np.exp(log_g)
    total = g.sum()
    return (1.0 + m * floor) * g / total - floor, shift + math.log(float(total))


def _spherical_y(P: np.ndarray, w: np.ndarray) -> np.ndarray:
    norms = np.sqrt((P * P).sum(axis=1))
    return (w[:, None] * P / norms[:, None]).sum(axis=0) / w.sum()


def _spherical_spread(Y: np.ndarray) -> tuple[float, float]:
    """Mean of Y and the sum of squared deviations from it."""
    y_bar = float(Y.mean())
    return y_bar, float(((Y - y_bar) ** 2).sum())


def _spherical_equalizer(Y: np.ndarray) -> np.ndarray:
    """Equalizing report from the aggregated unit-vector sums.

    Y is a convex combination of nonnegative unit vectors, so its sum of
    squared deviations from its mean is at most 1 - 1/m and the square
    root is of at least 1.
    """
    m = Y.shape[0]
    y_bar, ssd = _spherical_spread(Y)
    return 1.0 / m + (Y - y_bar) / math.sqrt(m * (1.0 - ssd))


def _bisect_equalizer(gen: ConvexGenerator, p: np.ndarray, v: np.ndarray) -> float:
    if float(p.max() - p.min()) <= AGREEMENT_TOL:
        return float(p[0])
    lo_d, hi_d = gen.domain
    for x in p:
        if not (lo_d < x < hi_d):
            raise OutOfDomain(
                f"member belief {x!r} outside the generator's open domain"
            )
    target = float((v * np.asarray([gen.g_prime(x) for x in p])).sum())
    lo = float(p.min()) + 1e-15
    hi = float(p.max()) - 1e-15
    # The construction needs a strictly increasing derivative; sample the
    # bracket before trusting bisection.
    probes = [lo + (hi - lo) * k / 8 for k in range(9)]
    derivs = [gen.g_prime(x) for x in probes]
    for a, b in zip(derivs, derivs[1:]):
        if not b > a:
            raise NonMonotoneGenerator(
                f"derivative not strictly increasing near [{lo!r}, {hi!r}]"
            )
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        residual = gen.g_prime(mid) - target
        if abs(residual) <= _BISECTION_TOL:
            return mid
        if residual < 0.0:
            lo = mid
        else:
            hi = mid
    raise NoConvergence(
        f"bisection residual above {_BISECTION_TOL!r} after 200 iterations"
    )


def binary_equalizer(
    gen: ConvexGenerator,
    players: list[Player] | tuple[Player, ...],
    coalition: Coalition,
) -> float:
    """First-state probability of the equalizing report for a binary rule
    built from a convex generator.

    Solves g_prime(q) = sum of wager-weighted member derivatives by
    bisection; the root is strictly between the extreme member beliefs
    whenever they disagree, and equals the shared belief otherwise.
    """
    P, w, _ = _member_arrays(players, coalition)
    return float(_equalizing_array(custom_binary_rule(gen), P, w)[0])


def _equalizing_array(rule: ScoringRule, P: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Equalizing report as a bare array.

    Members near a vertex leave entries such as -1.7e-16 where the exact
    report is 0; that float dust is snapped to 0 so q is a valid Forecast.
    """
    kind = rule.kind
    if kind is RuleKind.QUADRATIC:
        q = (w[:, None] * P).sum(axis=0) / w.sum()
    elif kind in (RuleKind.LOGARITHMIC, RuleKind.GENERALIZED_LOG):
        q = _geometric_equalizer(P, w, rule.floor)[0]
    elif kind is RuleKind.SPHERICAL:
        q = _spherical_equalizer(_spherical_y(P, w))
    elif kind is RuleKind.CUSTOM_BINARY:
        if P.shape[1] != 2:
            raise DimensionMismatch("custom binary rules support exactly 2 states")
        q1 = _bisect_equalizer(rule.generator, P[:, 0], w / w.sum())
        q = np.asarray([q1, 1.0 - q1])
    else:
        raise UnsupportedRule(
            f"no equalizing construction for rule kind {kind.value!r}"
        )
    return _clear_dust(q)


def _column_fsum(table: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Exactly rounded column sums (math.fsum), so totals do not depend on
    the order of players. The table holds payments at the wagers w; a
    total past the float range is a PaymentOverflow naming the largest."""
    try:
        return np.asarray([math.fsum(col) for col in table.T.tolist()])
    except OverflowError:
        raise PaymentOverflow(
            f"payments at wagers up to {float(w.max())!r} sum past the float range; "
            "scale the wagers down"
        ) from None


def _payments(kind: MechanismKind, table: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Each mechanism's payment formula, applied to a score table whose
    rows are the reports in reporting order, led under market scoring by
    the opening report's row; w holds the reports' wagers. The payments
    are on the scale of the rule that scored the table.

    Market scoring pays each row's score minus the row before it and
    ignores wagers; the traditional scheme pays wagered scores; the
    competitive scheme pays wagered scores minus each player's wager share
    of the column total, so its columns sum to zero. Each formula is linear
    in the table, so the payment of a difference of two tables is the
    difference of their payments: a coalition gain is the payment of the
    members' score differences. A wagered payment past the float range is
    a PaymentOverflow, not an infinite payment.
    """
    if kind is MechanismKind.MARKET:
        return np.diff(table, axis=0)
    try:
        with np.errstate(over="raise"):
            wagered = w[:, None] * table
            if kind is MechanismKind.TRADITIONAL:
                return wagered
            # The share w / W and the pool's total are formed on the wagers
            # w / 2**k, the total then scaled back: either may pass the
            # float range where the payments do not.
            scaled, k = _scaled_wagers(w)
            total = _column_fsum(wagered if k == 0 else scaled[:, None] * table, w)
            return wagered - (scaled / math.fsum(scaled.tolist()))[:, None] * total * 2.0**k
    except FloatingPointError:
        raise PaymentOverflow(
            f"payments at wagers up to {float(w.max())!r} pass the float range; "
            "scale the wagers down"
        ) from None


def ordering_satisfies_alternation(
    ordering: Sequence[int], coalition: Coalition
) -> bool:
    """True when no coalition member reports immediately after another
    member; the opening prior counts as an outsider."""
    members = set(coalition.members)
    prev_is_member = False
    for idx in ordering:
        if idx in members and prev_is_member:
            return False
        prev_is_member = idx in members
    return True


def _coalition_surplus(
    kind: MechanismKind,
    rule: ScoringRule,
    players: Sequence[Player],
    coalition: Coalition,
    coordinated: Forecast | Sequence[Forecast],
    outcomes: Sequence[int],
    ordering: Sequence[int] | None = None,
    prior: Forecast | None = None,
    stacklevel: int = 3,
) -> np.ndarray:
    """Coalition gain over truthful play at every requested outcome under
    any mechanism, outsider reports held fixed (an outsider who never
    submitted one reports their belief). Every mechanism's payments are
    linear in the scores, so the gain is the payment, through _payments,
    of one difference table: each member's row holds their coordinated
    scores minus their truthful ones, and every other row is 0. Paying
    both plays in full and subtracting agrees in exact arithmetic, but in
    floats each competitive payment carries the pool's total, and with
    large member wagers the subtraction cancels it down to rounding error.

    The payments are the unit rule's (offsets 0, scale 1), in which the
    offsets cancel and no bits go to them, and so is the gain returned:
    the public gains multiply it by the rule's scale b once, and the flags
    and checks decide on it as it is.

    One score table holds both plays: [prior;] the coordinated reports in
    reporting order (player order for the pool), then the members' beliefs
    in the same order. Every row is scored, so an outsider's undefined
    score raises, though the difference table holds 0 there. The
    traditional scheme pays each member on their own report, so
    there only the members are scored, in coalition order, and outsiders
    are neither walked nor scored. Warnings are attributed stacklevel
    frames up; a traditional gain never warns.
    """
    n = len(players)
    coalition.validate(n)
    market = kind is MechanismKind.MARKET
    if kind is MechanismKind.TRADITIONAL:
        ordering = coalition.members
    elif ordering is None and not market:
        ordering = range(n)
    elif ordering is None or sorted(ordering) != list(range(n)):
        raise ValidationError("ordering must be a permutation of all player indices")
    k = len(coalition.members)
    if isinstance(coordinated, Forecast):
        coordinated = [coordinated] * k
    elif len(coordinated) != k:
        raise DimensionMismatch(f"{len(coordinated)} coordinated reports for {k} members")
    if market and not ordering_satisfies_alternation(ordering, coalition):
        warnings.warn(
            "a coalition member reports directly after another member; "
            "the guaranteed-gain argument does not apply",
            OrderingViolationWarning,
            stacklevel=stacklevel,
        )
    if kind is MechanismKind.COMPETITIVE and k == n:
        warnings.warn(
            "coalition holds the entire pool; competitive surplus is "
            "identically zero",
            CoalitionIsEveryoneWarning,
            stacklevel=stacklevel,
        )
    head = [prior or uniform_prior(players[0].belief.m)] if market else []
    rows = len(head) + len(ordering)
    # In reporting order, what each player plays and the table rows of the
    # members, whose beliefs follow the played rows in the same order.
    instructed = dict(zip(coalition.members, coordinated))
    played = [instructed.get(i, players[i].report or players[i].belief) for i in ordering]
    at = np.array([r for r, i in enumerate(ordering, len(head)) if i in instructed])
    beliefs = [players[i].belief for i in ordering if i in instructed]
    table = _score_columns(rule, [*head, *played, *beliefs], outcomes)
    w = np.asarray([players[i].wager for i in ordering], dtype=np.float64)
    diff = np.zeros_like(table[:rows])
    diff[at] = table[at] - table[rows:]
    return _column_fsum(_payments(kind, diff, w)[at - len(head)], w)


def closed_form_surplus(
    rule: ScoringRule,
    players: list[Player] | tuple[Player, ...],
    coalition: Coalition,
) -> float:
    """Outcome-independent surplus at the rule's own equalizing report.

    Each supported family has a closed form under the unit rule (offsets
    0, scale 1): wager-weighted squared distances to the mean (quadratic),
    a log of the normalizing constant of the floored geometric mean
    (logarithmic family), and a function of the aggregated unit vectors
    (spherical). It is multiplied by the rule's scale b once.
    """
    # Formed on the wagers w / 2**k, then scaled back.
    P, w, k = _member_arrays(players, coalition)
    w_c = float(w.sum())
    kind = rule.kind
    if kind is RuleKind.QUADRATIC:
        q = _equalizing_array(rule, P, w)
        unit = (w * ((P - q[None, :]) ** 2).sum(axis=1)).sum()
    elif kind in (RuleKind.LOGARITHMIC, RuleKind.GENERALIZED_LOG):
        scale = 1.0 + P.shape[1] * rule.floor
        log_total = _geometric_equalizer(P, w, rule.floor)[1]
        unit = w_c * scale * (math.log(scale) - log_total)
    elif kind is RuleKind.SPHERICAL:
        Y = _spherical_y(P, w)
        y_bar, ssd = _spherical_spread(Y)
        unit = w_c * (math.sqrt((1.0 - ssd) / Y.shape[0]) - y_bar)
    else:
        raise UnsupportedRule(f"no closed-form surplus for rule kind {kind.value!r}")
    return float(rule.b * unit) * 2.0**k


def spherical_aux(
    players: list[Player] | tuple[Player, ...], coalition: Coalition
) -> SphericalAux:
    """Aggregated unit-vector sums for the spherical construction.

    sum_sq hits 1 exactly when all members share one belief (or the
    coalition has a single member) and drops strictly below 1 under any
    disagreement.
    """
    P, w, _ = _member_arrays(players, coalition, minimum=1)
    Y = _spherical_y(P, w)
    y_bar, ssd = _spherical_spread(Y)
    sum_sq = float((Y * Y).sum())
    return SphericalAux(tuple(float(y) for y in Y), y_bar, ssd, sum_sq)


def arbitrage_report(
    rule: ScoringRule,
    players: list[Player] | tuple[Player, ...],
    coalition: Coalition,
) -> ArbitrageResult:
    """Equalizing report and surplus for a coalition under a rule.

    Dispatches per family; agreeing members get their shared belief back
    with zero surplus and the agreement flag set. Members that disagree
    but whose equalizer gains no more than AGREEMENT_TOL in some outcome
    under the unit rule get the equalizer and its surplus, with the
    agreement flag set. The flags are decided on the unit rule's gains and
    the surplus is b times them, so neither q nor the flags depend on the
    rule's offsets or scale.
    """
    P, w, _ = _member_arrays(players, coalition)
    if rule.kind is RuleKind.CUSTOM_BINARY and P.shape[1] != 2:
        raise DimensionMismatch("custom binary rules support exactly 2 states")
    if members_agree(P):
        # A shared belief is its own report.
        q = players[coalition.members[0]].belief
        return ArbitrageResult(q, (0.0,) * P.shape[1], equalized=True, agreement=True)
    q = Forecast(tuple(_equalizing_array(rule, P, w).tolist()))
    gains = _coalition_surplus(
        MechanismKind.TRADITIONAL, rule, players, coalition, q, range(q.m)
    ).tolist()
    try:
        mean_g = math.fsum(gains) / len(gains)
    except OverflowError:  # finite gains whose sum is not; their mean is
        mean_g = math.fsum(g / len(gains) for g in gains)
    spread = max(gains) - min(gains)
    equalized = spread <= EQUALIZED_RTOL * max(1.0, abs(mean_g))
    # A gain this small is rounding error: the members agree on the
    # surplus's own scale, whatever their beliefs' distance.
    agreement = min(gains) <= AGREEMENT_TOL
    return ArbitrageResult(q, tuple(rule.b * g for g in gains), equalized, agreement)


def verify_dominance_oracle(
    rule: ScoringRule,
    players: list[Player] | tuple[Player, ...],
    coalition: Coalition,
    q: Forecast,
) -> DominanceVerdict:
    """Recompute per-outcome coalition margins from score rows only.

    No closed forms and no table algebra: a plain loop over the unit
    rule's rows (offsets 0, scale 1) of q and of each member belief is the
    independent check that the coordinated report beats truthful reporting
    in every state. The verdict is decided on those unit margins, and the
    margins returned are b times them. Raw rows would not do: subtracting
    the offsets from them cannot restore bits a large offset took.
    """
    coalition.validate(len(players))
    m = q.m
    chosen = [players[i] for i in coalition.members]
    table = _score_columns(rule, [q, *(p.belief for p in chosen)], range(m))
    q_row, *belief_rows = table.tolist()
    wagers = [p.wager for p in chosen]
    margins = []
    for j in range(m):
        total = 0.0
        for w, row in zip(wagers, belief_rows):
            total += w * (q_row[j] - row[j])
        margins.append(total)
    scaled = tuple(rule.b * g for g in margins)
    if all(g > AGREEMENT_TOL for g in margins):
        return DominanceVerdict(Verdict.DOMINATES, scaled, None)
    if all(abs(g) <= AGREEMENT_TOL for g in margins):
        return DominanceVerdict(Verdict.TIES, scaled, None)
    return DominanceVerdict(Verdict.FAILS, scaled, int(np.argmin(margins)))


def grid_search_equalizer(
    rule: ScoringRule,
    players: list[Player] | tuple[Player, ...],
    coalition: Coalition,
    resolution: int,
) -> Forecast:
    """Brute-force search for the report maximizing the worst-outcome
    surplus over the whole lattice.

    Used as an oracle against the closed-form constructions: their
    worst-outcome surplus must reach the lattice optimum up to a
    resolution-dependent slack. The first lattice report of the largest
    worst-outcome surplus under the unit rule (offsets 0, scale 1) wins, so
    the report does not depend on the rule's offsets or scale. Under the
    unfloored logarithmic rules a report with a zero entry has a
    worst-outcome surplus of -inf, so only the lattice interior is scored;
    the boundary is left out, not scored.
    """
    if resolution < 10:
        raise ValidationError(f"resolution must be >= 10, got {resolution}")
    # w / 2**k scales every surplus by one power of two, exactly, so the
    # maximizer stays where it is.
    P, w, _ = _member_arrays(players, coalition)
    m = P.shape[1]
    truthful = _unit_table(rule, P)
    if not np.isfinite(truthful).all():
        raise DegenerateBelief(
            "a member belief cannot be scored under this rule"
        )
    t = (w[:, None] * truthful).sum(axis=0)
    w_c = float(w.sum())

    def worst(S):
        # The row minima of w_c * S - t, worked out in the block itself,
        # the minima in its first column: a minimum is exact in any order,
        # and numpy reduces short rows one at a time, slowly.
        S *= w_c
        S -= t
        low = S[:, 0]
        for j in range(1, m):
            np.minimum(low, S[:, j], out=low)
        return low

    ((_, best, _, _),) = _lattice_scan(rule, m, resolution, _unfloored_log(rule), [worst], [None])
    # The first lattice row, (0, ..., 0, 1), stands when no row scanned
    # is finite, as it does in a scan of the whole lattice, whose rows
    # then all tie at -inf.
    if best is None:
        return Forecast((0.0,) * (m - 1) + (1.0,))
    return Forecast(tuple((best / resolution).tolist()))
