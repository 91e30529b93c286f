"""Scoring rules: the four named strictly proper families, binary rules
built from a convex generator, an improper linear control rule, and
empirical strict-properness checking.

Outcome indices are 0-based throughout the Python API; serialization
layers convert to 1-based for files and messages.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Sequence

import numpy as np

from .errors import (
    DimensionMismatch,
    LogOfZero,
    OutOfDomain,
    TooFewStates,
    UnboundedRule,
    UnsupportedRule,
    ValidationError,
)
from .simplex import (
    Forecast,
    _block_rows,
    _interior_rows,
    _lattice_blocks,
    _lattice_index,
    _stack,
)


class RuleKind(str, Enum):
    QUADRATIC = "quadratic"
    LOGARITHMIC = "logarithmic"
    GENERALIZED_LOG = "generalized_logarithmic"
    SPHERICAL = "spherical"
    CUSTOM_BINARY = "custom_binary"
    # Improper control rule: expected score is linear in the report, so it
    # is maximized at a vertex rather than at the truth. Used to prove the
    # properness checker can fail.
    LINEAR = "linear"


@dataclass(frozen=True)
class ConvexGenerator:
    """A strictly convex, continuously differentiable scalar function G
    with derivative g_prime, defined on an open interval inside (0, 1).

    Binary rules are built from it: the score pair
    (G(r) + (1-r)G'(r), G(r) - rG'(r)) is strictly proper exactly when
    G is strictly convex.
    """

    g: Callable[[float], float]
    g_prime: Callable[[float], float]
    domain: tuple[float, float] = (0.0, 1.0)

    def __post_init__(self):
        lo, hi = self.domain
        if not (0.0 <= lo < hi <= 1.0):
            raise ValidationError(f"domain {self.domain!r} must be an interval within [0, 1]")


def logit_generator() -> ConvexGenerator:
    """Negative-entropy generator; its derivative is the log-odds function.

    The binary rule it induces is the logarithmic score.
    """
    return ConvexGenerator(
        g=lambda r: r * math.log(r) + (1.0 - r) * math.log(1.0 - r),
        g_prime=lambda r: math.log(r / (1.0 - r)),
        domain=(0.0, 1.0),
    )


@dataclass(frozen=True)
class ScoringRule:
    """A scoring rule family member.

    kind may be given by its name. affine_offsets holds one additive
    constant per state (None means all zero); b is a positive scale.
    floor applies to the generalized logarithmic family only; generator
    to custom binary rules only. Positive affine transforms preserve
    strict properness.
    """

    kind: RuleKind
    affine_offsets: tuple[float, ...] | None = None
    b: float = 1.0
    floor: float = 0.0
    generator: ConvexGenerator | None = None

    def __post_init__(self):
        if not isinstance(self.kind, RuleKind):
            try:
                object.__setattr__(self, "kind", RuleKind(self.kind))
            except ValueError:
                raise ValidationError(f"unknown rule kind {self.kind!r}") from None
        # Chained comparisons, so that NaN fails them too.
        if not 0.0 < self.b < math.inf:
            raise ValidationError(f"scale b must be finite and > 0, got {self.b!r}")
        if not 0.0 <= self.floor < math.inf:
            raise ValidationError(f"floor must be finite and >= 0, got {self.floor!r}")
        if self.affine_offsets is not None and not all(map(math.isfinite, self.affine_offsets)):
            raise ValidationError(f"affine offsets must be finite, got {self.affine_offsets!r}")
        if self.floor != 0.0 and self.kind is not RuleKind.GENERALIZED_LOG:
            raise ValidationError("floor applies only to the generalized logarithmic rule")
        if (self.generator is not None) != (self.kind is RuleKind.CUSTOM_BINARY):
            raise ValidationError("generator is required for custom binary rules and invalid elsewhere")

    def offsets_for(self, m: int) -> np.ndarray:
        if self.affine_offsets is None:
            return np.zeros(m)
        if len(self.affine_offsets) != m:
            raise DimensionMismatch(
                f"{len(self.affine_offsets)} affine offsets for {m} states"
            )
        return np.asarray(self.affine_offsets, dtype=np.float64)


def quadratic_rule(a: Sequence[float] | None = None, b: float = 1.0) -> ScoringRule:
    return ScoringRule(RuleKind.QUADRATIC, _tuple_or_none(a), b)


def logarithmic_rule(a: Sequence[float] | None = None, b: float = 1.0) -> ScoringRule:
    return ScoringRule(RuleKind.LOGARITHMIC, _tuple_or_none(a), b)


def generalized_log_rule(
    floor: float, a: Sequence[float] | None = None, b: float = 1.0
) -> ScoringRule:
    return ScoringRule(RuleKind.GENERALIZED_LOG, _tuple_or_none(a), b, floor)


def spherical_rule(a: Sequence[float] | None = None, b: float = 1.0) -> ScoringRule:
    return ScoringRule(RuleKind.SPHERICAL, _tuple_or_none(a), b)


def linear_rule(a: Sequence[float] | None = None, b: float = 1.0) -> ScoringRule:
    return ScoringRule(RuleKind.LINEAR, _tuple_or_none(a), b)


def custom_binary_rule(
    generator: ConvexGenerator, a: Sequence[float] | None = None, b: float = 1.0
) -> ScoringRule:
    return ScoringRule(RuleKind.CUSTOM_BINARY, _tuple_or_none(a), b, generator=generator)


def _tuple_or_none(a: Sequence[float] | None) -> tuple[float, ...] | None:
    return None if a is None else tuple(float(x) for x in a)


def savage_binary_score(gen: ConvexGenerator, r: float, outcome: int) -> float:
    """Score of a binary report (r, 1-r) built from a convex generator.

    outcome 0 pays G(r) + (1-r)G'(r); outcome 1 pays G(r) - rG'(r).
    r must lie strictly inside the generator's domain.
    """
    lo, hi = gen.domain
    if not (lo < r < hi):
        raise OutOfDomain(f"report probability {r!r} outside open domain ({lo!r}, {hi!r})")
    if outcome not in (0, 1):
        raise DimensionMismatch(f"outcome index {outcome} for a binary rule")
    return _savage_pair(gen, r)[int(outcome)]


def _savage_pair(gen: ConvexGenerator, r: float) -> tuple[float, float]:
    """Both outcomes' scores of the binary report (r, 1-r), from one G(r)
    and one G'(r): (G + (1-r)G', G - rG')."""
    g, d = gen.g(r), gen.g_prime(r)
    return g + (1.0 - r) * d, g - r * d


def score(rule: ScoringRule, report: Forecast, outcome: int) -> float:
    """Score of a single report at a single realized outcome (0-based):
    one entry of score_table, raising where that entry is undefined."""
    return float(_affine(rule, _score_columns(rule, [report], [outcome]), [outcome])[0, 0])


def score_table(rule: ScoringRule, reports: np.ndarray) -> np.ndarray:
    """Scores for a batch of reports at every outcome.

    reports is (n, m); the result is (n, m) with entry (i, j) the score of
    row i when state j occurs. Where a logarithmic score is undefined
    (zero probability on the observed state) the entry is -inf rather than
    an error; callers that need strictness mask or use score() instead.
    """
    R = np.asarray(reports, dtype=np.float64)
    if R.ndim != 2:
        raise DimensionMismatch(f"expected a 2-d report batch, got shape {R.shape}")
    return _affine(rule, _unit_table(rule, R), range(R.shape[1]))


def _affine(rule: ScoringRule, S: np.ndarray, outcomes: Sequence[int]) -> np.ndarray:
    """a + b * S for a table S of the unit rule's scores (_score_into's) at
    the given outcome columns, computed as (S * b) + a in place, a being 0
    where the rule has no offsets; S is returned.

    This is the only place where a rule's offsets are applied. Everything
    that decides or compares (gains, the oracle, the scans) scores S: the
    offsets cancel from every such difference and b only scales it, and a
    large offset would take the low bits of S first.
    """
    a = rule.affine_offsets
    S *= rule.b
    S += 0.0 if a is None else np.asarray(a)[list(outcomes)]
    return S


def _unit_table(rule: ScoringRule, R: np.ndarray) -> np.ndarray:
    """The unit rule's scores S of the (n, m) float array R, in a new
    table: R is copied, and the copy scored in place."""
    S = R.copy()
    _score_into(rule, S)
    return S


def _score_into(rule: ScoringRule, R: np.ndarray) -> None:
    """Overwrite R, an (n, m) float array, with the unit rule's scores S
    of its rows (rule = a + b * S). Offsets for other than m states raise
    DimensionMismatch, as scoring the rule itself does.

    The lattice scans hand it each block in the buffer the stream built it
    in, column-major, and every other caller a table of its own. Each
    branch gives the bits of scoring R into a fresh table, in either
    layout: row norms are summed left to right (_row_sums) before R is
    overwritten, every other step is elementwise or applies one value per
    row, and the custom binary branch reads R[:, 0] before it writes
    anything.
    """
    m = R.shape[1]
    a = rule.affine_offsets
    if a is not None and len(a) != m:
        rule.offsets_for(m)  # raises DimensionMismatch
    kind = rule.kind
    if kind is RuleKind.QUADRATIC:
        norms = _row_sums(R, square=True)
        R *= 2.0
        R -= norms
    elif _unfloored_log(rule):
        with np.errstate(divide="ignore"):
            np.log(R, out=R)
    elif kind is RuleKind.GENERALIZED_LOG:
        l = rule.floor
        R += l
        np.log(R, out=R)
        tail = _row_sums(R)
        tail *= l
        R += tail
    elif kind is RuleKind.SPHERICAL:
        norms = _row_sums(R, square=True)
        np.sqrt(norms, out=norms)
        R /= norms
    elif kind is RuleKind.LINEAR:
        pass
    elif kind is RuleKind.CUSTOM_BINARY:
        if m != 2:
            raise DimensionMismatch("custom binary rules support exactly 2 states")
        gen = rule.generator
        lo, hi = gen.domain
        reports = R[:, 0].tolist()
        inside = [i for i, r in enumerate(reports) if lo < r < hi]
        R.fill(-np.inf)
        if inside:
            R[inside] = [_savage_pair(gen, reports[i]) for i in inside]
    else:
        raise UnsupportedRule(f"unknown rule kind {kind!r}")


def _unfloored_log(rule: ScoringRule) -> bool:
    """Whether rule's unit scores are log(r): the logarithmic rule, or the
    generalized one with floor 0. It scores -inf at a zero entry."""
    return rule.kind is RuleKind.LOGARITHMIC or (
        rule.kind is RuleKind.GENERALIZED_LOG and rule.floor == 0.0
    )


def _row_sums(X: np.ndarray, square: bool = False) -> np.ndarray:
    """The sum of each row of X, or with square set of its squares, as an
    (n, 1) column: left to right onto 0.0, in either layout and at every
    m, with the bits of that sum worked out in Python floats.

    Whole columns are added in that order, and the squares taken one
    column at a time into a scratch column, with no table of them beside
    X. A call per column costs more than numpy's own sum for a short
    table, so below 8 columns and 64 * m rows numpy sums it: numpy too
    sums rows of fewer than 8 entries left to right onto 0.0, so that
    branch is speed only. Longer rows numpy may sum pairwise, a row-major
    row or a one-row block of a column-major buffer alike.
    """
    n, m = X.shape
    if m < 8 and n < 64 * m:
        return (X * X if square else X).sum(axis=1, keepdims=True)
    sums = X[:, :1] * X[:, :1] if square else X[:, :1] + X[:, 1:2]
    term = np.empty_like(sums) if square else None
    for j in range(1 if square else 2, m):
        col = X[:, j : j + 1]
        sums += np.multiply(col, col, out=term) if square else col
    sums += 0.0
    return sums


def _score_columns(
    rule: ScoringRule, reports: Sequence[Forecast], outcomes: Sequence[int]
) -> np.ndarray:
    """The unit rule's scores S of the reports (the table _affine takes to
    score_table's), restricted to the given outcome columns.

    Where a requested entry is undefined (-inf in score_table) this raises
    what a strict score does: LogOfZero for a zero-probability state under
    the logarithmic rules, OutOfDomain for a custom binary report outside
    the generator's domain. Entries are checked outcome by outcome, reports
    in order; mixed lengths and out-of-range outcomes are DimensionMismatch.
    The reports are stacked into a table of their own, which is scored
    in place; when every outcome is requested in order it is returned as
    _score_into left it, not copied.
    """
    R = _stack(reports)
    if R is None:
        raise DimensionMismatch("reports have mixed lengths")
    m = R.shape[1]
    cols = list(outcomes)
    for j in cols:
        if not (0 <= j < m):
            raise DimensionMismatch(f"outcome index {j} out of range for m={m}")
    _score_into(rule, R)
    table = R if cols == list(range(m)) else R[:, cols]
    # One test of every requested entry; only when it finds one undefined
    # are they walked in order, to raise for the first.
    if (table == -np.inf).any():
        for k, j in enumerate(cols):
            for i in np.flatnonzero(table[:, k] == -np.inf):
                r = reports[i]
                if rule.kind is RuleKind.CUSTOM_BINARY:
                    savage_binary_score(rule.generator, r[0], j)
                elif rule.kind in (RuleKind.LOGARITHMIC, RuleKind.GENERALIZED_LOG) and r[j] <= 0.0:
                    raise LogOfZero(
                        f"state {j + 1} has probability {r[j]!r}; "
                        "the logarithmic score is undefined there"
                    )
    return table


@dataclass(frozen=True)
class PropernessReport:
    """Outcome of a grid properness check.

    passed means every checked competitor had strictly lower expected score
    than truthful reporting; max_margin is the largest competitor-minus-truth
    gap observed (negative when passing); nearest_competitor attains it.
    The scan decides on the unit rule's scores (offsets 0, scale 1), so
    only max_margin depends on the rule's offsets and scale: it is b times
    the unit rule's margin.
    Grid points where the score is undefined are skipped and counted.
    """

    passed: bool
    max_margin: float
    nearest_competitor: Forecast | None
    checked: int
    skipped: int


def check_strict_properness(
    rule: ScoringRule, belief: Forecast, resolution: int
) -> PropernessReport:
    """Compare truthful reporting against every lattice report.

    A strictly proper rule must give the truth a strictly higher expected
    score than any other report on the grid. Boundary reports that a rule
    cannot score (zeros under a pure logarithmic rule, generator domain
    edges) are skipped and counted, not failed. Under the unfloored
    logarithmic rules a belief with no zero state rates every report with
    a zero entry -inf, so those reports are counted, not scored.
    """
    (report,) = _properness_scan(rule, [belief], resolution)
    return report


def _properness_scan(
    rule: ScoringRule, beliefs: Sequence[Forecast], resolution: int
) -> list[PropernessReport]:
    """check_strict_properness at each belief, in one _lattice_scan.

    Each belief's query is its expected scores, from _expected_scores,
    minus its truthful report's, taken from one table of every belief's
    truthful report; its excluded row is the truthful report. Every row
    sum is left to right, with no matrix product, so each row has the
    same bits in any block and either layout, and a belief's zero states,
    whose scores may be -inf, are never read. Beliefs must share one
    length.
    """
    if resolution < 2:
        raise ValidationError(f"resolution must be >= 2, got {resolution}")
    if not beliefs:
        return []
    ps = _stack(beliefs)
    if ps is None:
        raise DimensionMismatch("beliefs have mixed lengths")
    m = ps.shape[1]
    supports = [np.flatnonzero(p).tolist() for p in ps]
    # Under an unfloored log rule and beliefs with no zero state, a report
    # with a zero entry has expected score -inf: only the interior is
    # scanned, and the rest is skipped by count.
    interior = _unfloored_log(rule) and all(len(support) == m for support in supports)
    # The lattice is checked before any belief is scored.
    _block_rows(m, resolution, interior=interior)
    # Each belief's truthful report is its own row of one table, and its
    # expected score that row's left-to-right sum of score times belief.
    # A zero state's term is 0.0, not its score (maybe -inf) times 0, and
    # adds exactly nothing, so each sum has the bits of _expected_scores'.
    terms = np.multiply(_unit_table(rule, ps), ps, out=np.zeros_like(ps), where=ps != 0.0)
    truth_values = _row_sums(terms)[:, 0].tolist()
    if not all(map(math.isfinite, truth_values)):
        raise ValidationError(
            "expected score at the truthful report is not finite; "
            "the belief lies outside the rule's domain"
        )
    # Each query sums into two row vectors of its own, let go before the
    # next query, or the next block's row sums, take two.
    queries = [
        lambda S, p=p, support=support, truth=truth: _expected_scores(S, p, support, truth)
        for p, support, truth in zip(ps, supports, truth_values)
    ]
    # The truthful report is the lattice row within 1e-12 of the belief
    # in every entry, if there is one: found once, by its position.
    truthful = [_lattice_index(belief.probs, resolution, interior) for belief in beliefs]
    reports = []
    for best, row, checked, skipped in _lattice_scan(rule, m, resolution, interior, queries, truthful):
        nearest = None if row is None else Forecast(tuple((row / resolution).tolist()))
        reports.append(PropernessReport(best < 0.0, rule.b * best, nearest, checked, skipped))
    return reports


def _lattice_scan(
    rule: ScoringRule,
    m: int,
    resolution: int,
    interior: bool,
    queries: Sequence[Callable[[np.ndarray], np.ndarray]],
    excluded: Sequence[int | None],
) -> list[tuple[float, np.ndarray | None, int, int]]:
    """The first maximum of each query's row values over grid_array(m,
    resolution), or over its interior alone, in one pass: the one loop
    over _lattice_blocks behind the properness check and the grid search.

    Each block is scored once, in place under the unit rule S, in the
    column-major buffer the stream built it in, and every query then maps
    it to one value per row, in order. A query may overwrite the block
    when it is the last, since the stream rebuilds the next block from
    integer parts, and its values are let go before the next query
    runs. Rows whose value is not finite are skipped and counted, as are
    the rows the interior leaves out; excluded[i], a position among the
    rows streamed or None, is left out of query i without being counted.
    Each query's first maximum in lattice order is kept, a later block
    replacing it only when strictly larger, as a copy of its row's
    integer parts.

    Returns one (value, parts, checked, skipped) per query: the maximum,
    -inf with parts None when no row was checked. A row's value does not
    depend on the block it falls in, so nothing returned depends on the
    block limit.
    """
    keep_buf = np.empty(_block_rows(m, resolution, interior=interior), dtype=bool)
    k = len(queries)
    left_out = math.comb(resolution + m - 1, m - 1) - _interior_rows(m, resolution) if interior else 0
    checked, skipped = [0] * k, [left_out] * k
    best, best_parts = [-math.inf] * k, [None] * k
    start = 0  # rows streamed before the block
    for parts, table in _lattice_blocks(m, resolution, interior=interior):
        n = len(table)
        keep = keep_buf[:n]
        _score_into(rule, table)
        for i, query in enumerate(queries):
            values = query(table)
            rows = int(np.count_nonzero(np.isfinite(values, out=keep)))
            skipped[i] += n - rows
            x = excluded[i]
            if x is not None and start <= x < start + n and keep[x - start]:
                keep[x - start] = False
                rows -= 1
            checked[i] += rows
            # Rows left out drop to -inf, so the first maximum over the
            # block is the first maximum over its checked rows.
            if 0 < rows < n:
                np.logical_not(keep, out=keep)
                values[keep] = -np.inf
            j = int(np.argmax(values))
            if rows and values[j] > best[i]:
                best[i], best_parts[i] = float(values[j]), parts[j].copy()
            del values
        start += n
    return list(zip(best, best_parts, checked, skipped))


def _expected_scores(
    S: np.ndarray, p: np.ndarray, support: list[int], less: float = 0.0
) -> np.ndarray:
    """The expected score of each row of S under belief p, less the given
    value, in a row vector of its own: one fixed sum, left to right over
    p's nonzero states j1 < j2 < ... (support), S[:, j1] * p[j1] +
    S[:, j2] * p[j2] + ... + 0.0, then - less. Each entry is a product, a
    sum or a difference of two floats, so every row has the bits of that
    sum worked out in Python floats, in any layout of S.
    """
    j, *rest = support
    out = S[:, j] * p[j]
    term = np.empty_like(out)
    for j in rest:
        out += np.multiply(S[:, j], p[j], out=term)
    out += 0.0
    out -= less
    return out


def normalize_to_unit_interval(rule: ScoringRule, m: int) -> ScoringRule:
    """Rescale a bounded rule so its score range over all reports and
    outcomes is exactly [0, 1].

    The transform is positive affine, so strict properness is preserved.
    Defined for the quadratic, spherical, and floored generalized
    logarithmic families, whose exact extremes sit at simplex vertices.
    """
    if m < 2:
        raise TooFewStates(f"need at least 2 states, got {m}")
    kind = rule.kind
    if _unfloored_log(rule):
        raise UnboundedRule("the logarithmic score has no lower bound")
    if kind is RuleKind.QUADRATIC:
        # 2r_j - |r|^2 spans [-1, 1]: -1 reporting a different vertex,
        # +1 reporting the observed one.
        fmin, fmax = -1.0, 1.0
    elif kind is RuleKind.SPHERICAL:
        fmin, fmax = 0.0, 1.0
    elif kind is RuleKind.GENERALIZED_LOG:
        l = rule.floor
        # Concavity puts the minimum at a vertex off the observed state and
        # the maximum at the observed state's own vertex.
        tail = l * (math.log(1.0 + l) + (m - 1) * math.log(l))
        fmin = math.log(l) + tail
        fmax = math.log(1.0 + l) + tail
    else:
        raise UnsupportedRule(f"no bounded normalization for rule kind {kind.value!r}")
    a = rule.offsets_for(m)
    lo = float(a.min() + rule.b * fmin)
    hi = float(a.max() + rule.b * fmax)
    span = hi - lo
    new_a = tuple(float((x - lo) / span) for x in a)
    return ScoringRule(kind, new_a, rule.b / span, rule.floor)
