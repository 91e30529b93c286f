"""Coalition arbitrage: the identical report that equalizes coordinated
surplus across outcomes, closed-form outcome-independent surplus, and an
independent brute-force dominance oracle.

A coalition of players who disagree can all submit one carefully chosen
report and split a guaranteed gain over truthful play. Each rule family
has its own aggregation: arithmetic mean for the quadratic rule, floored
geometric mean for the logarithmic family, a normalized direction built
from belief unit vectors for the spherical rule, and a derivative-matching
root for any binary rule given by a convex generator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import (
    DegenerateBelief,
    DimensionMismatch,
    InvalidCoalition,
    NoConvergence,
    NonMonotoneGenerator,
    NonPositiveWager,
    OutOfDomain,
    UnsupportedRule,
    ValidationError,
)
from .rules import (
    ConvexGenerator,
    RuleKind,
    ScoringRule,
    _apply_rows,
    _row_tile,
    _score_columns,
    _score_into,
    score_table,
)
from .simplex import (
    Forecast,
    _block_rows,
    _clear_dust,
    _lattice_blocks,
    _stack,
    weighted_mean,
)

# Members whose beliefs differ by at most this much (max-norm, pairwise)
# are treated as agreeing; the strict-dominance guarantees need genuine
# disagreement. The surplus grows with the square of the disagreement, so
# members 1e-7 apart leave one near 1e-14, below rounding error: a
# coalition whose smallest per-outcome surplus at the equalizing report is
# not above this same bound agrees as well. It is also the dominance
# oracle's default tol_pos, so no surplus that counts as agreement can
# count as DOMINATES there.
AGREEMENT_TOL = 1e-12

# Surplus entries are "equalized" when their spread is within this
# relative tolerance of the mean level.
EQUALIZED_RTOL = 1e-9


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
        return math.fsum(players[i].wager for i in self.members)


@dataclass(frozen=True)
class ArbitrageResult:
    """The equalizing report q with its per-outcome surplus and flags.

    agreement means the members shared one belief, so the surplus is zero,
    or were so close that the smallest per-outcome surplus at the
    equalizing report is not above AGREEMENT_TOL; q and surplus_by_outcome
    are then the equalizer's, as computed. equalized means the surplus
    spread across outcomes is negligible relative to its level.
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
    outcome; witness is the 0-based outcome attaining the worst margin
    when the verdict is FAILS.
    """

    verdict: Verdict
    margins: tuple[float, ...]
    witness: int | None


def _member_arrays(
    players: list[Player] | tuple[Player, ...], coalition: Coalition
) -> tuple[np.ndarray, np.ndarray]:
    chosen = [players[i] for i in coalition.members]
    P = _stack([p.belief for p in chosen])
    if P is None:
        raise DimensionMismatch("member beliefs have mixed lengths")
    w = np.asarray([p.wager for p in chosen], dtype=np.float64)
    return P, w


def members_agree(P: np.ndarray, tol: float = AGREEMENT_TOL) -> bool:
    """Pairwise max-norm agreement across the rows of a belief matrix."""
    return float((P.max(axis=0) - P.min(axis=0)).max()) <= tol


def _log_mean(P: np.ndarray, w: np.ndarray, floor: float) -> np.ndarray:
    """Wager-weighted mean of log(P + floor) per state: the log of the
    floored weighted geometric mean, before normalization.

    With floor 0 any zero member entry is fatal: the aggregate would pin
    that state to zero and the logarithmic score there is undefined.
    """
    if floor == 0.0 and (P <= 0.0).any():
        raise DegenerateBelief(
            "a member belief has a zero entry; the unfloored logarithmic "
            "rule cannot aggregate it"
        )
    return (w[:, None] / w.sum() * np.log(P + floor)).sum(axis=0)


def _geometric_equalizer(P: np.ndarray, w: np.ndarray, floor: float) -> np.ndarray:
    """Floored weighted geometric mean, renormalized to the simplex.

    Works in log space so long products of small probabilities cannot
    underflow.
    """
    m = P.shape[1]
    log_g = _log_mean(P, w, floor)
    # softmax-style normalization: G_j / sum_k G_k without leaving log space
    log_g -= log_g.max()
    g = np.exp(log_g)
    return (1.0 + m * floor) * g / g.sum() - floor


def _spherical_y(P: np.ndarray, w: np.ndarray) -> np.ndarray:
    norms = np.sqrt((P * P).sum(axis=1))
    return (w[:, None] * P / norms[:, None]).sum(axis=0) / w.sum()


def _spherical_spread(Y: np.ndarray) -> tuple[float, float]:
    """Mean of Y and the sum of squared deviations from it."""
    y_bar = float(Y.mean())
    return y_bar, float(((Y - y_bar) ** 2).sum())


def _spherical_equalizer(Y: np.ndarray) -> np.ndarray | None:
    """Equalizing report from the aggregated unit-vector sums.

    Returns None when 1 - sum((Y - mean)^2) <= 0. That region is
    unreachable for genuine disagreeing beliefs (the sum of squared
    deviations stays below 1 - 1/m) but float noise at near-agreement
    must not turn into sqrt of a negative number.
    """
    m = Y.shape[0]
    y_bar, ssd = _spherical_spread(Y)
    s = 1.0 - ssd
    if s <= 0.0:
        return None
    return 1.0 / m + (Y - y_bar) / math.sqrt(m * s)


def _bisect_equalizer(
    gen: ConvexGenerator, p: np.ndarray, v: np.ndarray, tol: float
) -> float:
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
        if abs(residual) <= tol:
            return mid
        if residual < 0.0:
            lo = mid
        else:
            hi = mid
    raise NoConvergence(
        f"bisection residual above {tol!r} after 200 iterations"
    )


def binary_equalizer(
    gen: ConvexGenerator,
    players: list[Player] | tuple[Player, ...],
    coalition: Coalition,
    tol: float = 1e-12,
) -> float:
    """First-state probability of the equalizing report for a binary rule
    built from a convex generator.

    Solves g_prime(q) = sum of wager-weighted member derivatives by
    bisection; the root is strictly between the extreme member beliefs
    whenever they disagree, and equals the shared belief otherwise.
    """
    coalition.validate(len(players))
    P, w = _member_arrays(players, coalition)
    if P.shape[1] != 2:
        raise DimensionMismatch("binary equalizer needs exactly 2 states")
    return _bisect_equalizer(gen, P[:, 0], w / w.sum(), tol)


def _equalizing_array(
    rule: ScoringRule, P: np.ndarray, w: np.ndarray
) -> np.ndarray | None:
    """Equalizing report as a bare array; None signals the spherical
    near-agreement guard. Assumes genuine disagreement was ruled out
    by the caller for the None interpretation to matter.

    Members near a vertex leave entries such as -1.7e-16 where the exact
    report is 0; that float dust is snapped to 0 so q is a valid Forecast.
    """
    kind = rule.kind
    if kind is RuleKind.QUADRATIC:
        q = (w[:, None] * P).sum(axis=0) / w.sum()
    elif kind in (RuleKind.LOGARITHMIC, RuleKind.GENERALIZED_LOG):
        floor = rule.floor if kind is RuleKind.GENERALIZED_LOG else 0.0
        q = _geometric_equalizer(P, w, floor)
    elif kind is RuleKind.SPHERICAL:
        q = _spherical_equalizer(_spherical_y(P, w))
    elif kind is RuleKind.CUSTOM_BINARY:
        if P.shape[1] != 2:
            raise DimensionMismatch("custom binary rules support exactly 2 states")
        q1 = _bisect_equalizer(rule.generator, P[:, 0], w / w.sum(), 1e-12)
        q = np.asarray([q1, 1.0 - q1])
    else:
        raise UnsupportedRule(
            f"no equalizing construction for rule kind {kind.value!r}"
        )
    return None if q is None else _clear_dust(q)


def _column_fsum(table: np.ndarray) -> np.ndarray:
    """Exactly rounded column sums (math.fsum), so totals do not depend on
    the order of players."""
    return np.asarray([math.fsum(col) for col in table.T.tolist()])


def _coalition_gain(
    rule: ScoringRule,
    players: list[Player] | tuple[Player, ...],
    coalition: Coalition,
    reports: list[Forecast],
) -> np.ndarray:
    """Per-outcome coalition gain sum_i w_i (S(r_i, j) - S(p_i, j)) when
    member i reports reports[i] instead of their belief p_i, under a plain
    wagered-score contract. One score_table call covers both plays."""
    k = len(coalition.members)
    beliefs = [players[i].belief for i in coalition.members]
    w = np.asarray([players[i].wager for i in coalition.members], dtype=np.float64)
    table = _score_columns(rule, [*reports, *beliefs], range(reports[0].m))
    return _column_fsum(w[:, None] * (table[:k] - table[k:]))


def surplus_by_outcome(
    rule: ScoringRule,
    players: list[Player] | tuple[Player, ...],
    coalition: Coalition,
    q: Forecast,
) -> tuple[float, ...]:
    """Coalition gain per outcome when every member reports q instead of
    their own belief, under a plain wagered-score contract."""
    coalition.validate(len(players))
    gain = _coalition_gain(rule, players, coalition, [q] * len(coalition.members))
    return tuple(gain.tolist())


def closed_form_surplus(
    rule: ScoringRule,
    players: list[Player] | tuple[Player, ...],
    coalition: Coalition,
) -> float:
    """Outcome-independent surplus at the rule's own equalizing report.

    Each supported family has a closed form: wager-weighted squared
    distances to the mean (quadratic), a log of the normalizing constant
    of the floored geometric mean (logarithmic family), and a function of
    the aggregated unit vectors (spherical).
    """
    coalition.validate(len(players))
    P, w = _member_arrays(players, coalition)
    w_c = float(w.sum())
    kind = rule.kind
    if kind is RuleKind.QUADRATIC:
        q = (w[:, None] * P).sum(axis=0) / w_c
        return float(rule.b * (w * ((P - q[None, :]) ** 2).sum(axis=1)).sum())
    if kind in (RuleKind.LOGARITHMIC, RuleKind.GENERALIZED_LOG):
        floor = rule.floor if kind is RuleKind.GENERALIZED_LOG else 0.0
        m = P.shape[1]
        log_g = _log_mean(P, w, floor)
        shift = log_g.max()
        log_total = shift + math.log(float(np.exp(log_g - shift).sum()))
        return float(
            rule.b * w_c * (1.0 + m * floor)
            * (math.log(1.0 + m * floor) - log_total)
        )
    if kind is RuleKind.SPHERICAL:
        Y = _spherical_y(P, w)
        y_bar, ssd = _spherical_spread(Y)
        return float(rule.b * w_c * (math.sqrt((1.0 - ssd) / Y.shape[0]) - y_bar))
    raise UnsupportedRule(
        f"no closed-form surplus for rule kind {kind.value!r}"
    )


def spherical_aux(
    players: list[Player] | tuple[Player, ...], coalition: Coalition
) -> SphericalAux:
    """Aggregated unit-vector sums for the spherical construction.

    sum_sq hits 1 exactly when all members share one belief (or the
    coalition has a single member) and drops strictly below 1 under any
    disagreement.
    """
    coalition.validate(len(players), minimum=1)
    P, w = _member_arrays(players, coalition)
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
    get the equalizer and its surplus, with the agreement flag set.
    """
    coalition.validate(len(players))
    P, w = _member_arrays(players, coalition)
    if rule.kind is RuleKind.CUSTOM_BINARY and P.shape[1] != 2:
        raise DimensionMismatch("custom binary rules support exactly 2 states")
    if members_agree(P):
        q = Forecast(tuple(float(x) for x in P[0]))
        zeros = tuple(0.0 for _ in range(P.shape[1]))
        return ArbitrageResult(q, zeros, equalized=True, agreement=True)
    q_arr = _equalizing_array(rule, P, w)
    if q_arr is None:
        # Spherical guard fired: treat as agreement rather than propagate
        # a sqrt of float dust.
        q = weighted_mean([players[i].belief for i in coalition.members],
                          [players[i].wager for i in coalition.members])
        zeros = tuple(0.0 for _ in range(P.shape[1]))
        return ArbitrageResult(q, zeros, equalized=True, agreement=True)
    q = Forecast(tuple(q_arr.tolist()))
    surpluses = surplus_by_outcome(rule, players, coalition, q)
    mean_s = math.fsum(surpluses) / len(surpluses)
    spread = max(surpluses) - min(surpluses)
    equalized = spread <= EQUALIZED_RTOL * max(1.0, abs(mean_s))
    # A surplus this small is rounding error: the members agree on the
    # surplus's own scale, whatever their beliefs' distance.
    agreement = min(surpluses) <= AGREEMENT_TOL
    return ArbitrageResult(q, surpluses, equalized, agreement)


def verify_dominance_oracle(
    rule: ScoringRule,
    players: list[Player] | tuple[Player, ...],
    coalition: Coalition,
    q: Forecast,
    tol_pos: float = AGREEMENT_TOL,
) -> DominanceVerdict:
    """Recompute per-outcome coalition margins from raw score rows only.

    No closed forms and no table algebra: a plain loop over the rows of q
    and of each member belief is the independent check that the
    coordinated report beats truthful reporting in every state.
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
    if all(g > tol_pos for g in margins):
        return DominanceVerdict(Verdict.DOMINATES, tuple(margins), None)
    if all(abs(g) <= tol_pos for g in margins):
        return DominanceVerdict(Verdict.TIES, tuple(margins), None)
    witness = int(np.argmin(margins))
    return DominanceVerdict(Verdict.FAILS, tuple(margins), witness)


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
    resolution-dependent slack.
    """
    if resolution < 10:
        raise ValidationError(f"resolution must be >= 10, got {resolution}")
    coalition.validate(len(players))
    P, w = _member_arrays(players, coalition)
    m = P.shape[1]
    truthful = score_table(rule, P)
    if not np.isfinite(truthful).all():
        raise DegenerateBelief(
            "a member belief cannot be scored under this rule"
        )
    t = (w[:, None] * truthful).sum(axis=0)
    w_c = float(w.sum())
    blocks = _lattice_blocks(m, resolution)
    # One workspace per call, sized like the lattice's blocks.
    capacity = _block_rows(m, resolution)
    margins_buf = np.empty((capacity, m))
    worst_buf = np.empty(capacity)
    undefined_buf = np.empty(capacity, dtype=bool)
    # Tiles after the buffers, as in rules._properness_scan.
    offsets = _row_tile(rule.offsets_for(m), capacity)
    t_tile = _row_tile(t, capacity)
    # One block at a time, keeping the first maximum in lattice order: a
    # later block replaces it only when strictly larger.
    best_worst, best = -math.inf, None
    for grid in blocks:
        n = len(grid)
        margins, worst, undefined = margins_buf[:n], worst_buf[:n], undefined_buf[:n]
        _score_into(rule, grid, margins, offsets)
        margins *= w_c
        _apply_rows(np.subtract, margins, t_tile)
        # The row minima, one column at a time: a minimum is exact in any
        # order, and numpy reduces short rows one at a time, slowly.
        with np.errstate(invalid="ignore"):
            np.minimum(margins[:, 0], margins[:, 1], out=worst)
            for j in range(2, m):
                np.minimum(worst, margins[:, j], out=worst)
        np.isnan(worst, out=undefined)
        worst[undefined] = -np.inf
        k = int(np.argmax(worst))
        if best is None or worst[k] > best_worst:
            best_worst, best = worst[k], grid[k].tolist()
    return Forecast(tuple(best))
