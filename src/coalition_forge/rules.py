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
    GeneratorMismatch,
    LogOfZero,
    NonMonotoneGenerator,
    OutOfDomain,
    TooFewStates,
    UnboundedRule,
    UnsupportedRule,
    ValidationError,
)
from .simplex import Forecast, _block_rows, _lattice_blocks, _lattice_index, _stack


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
    label: str = "custom"

    def __post_init__(self):
        lo, hi = self.domain
        if not (0.0 <= lo < hi <= 1.0):
            raise ValidationError(f"domain {self.domain!r} must be an interval within [0, 1]")

    def spot_check(self, points: int = 33, h: float = 1e-5) -> None:
        """Sample the interior: g_prime must be strictly increasing, and a
        central difference of g must match g_prime within 1e-6 relative.

        Raises NonMonotoneGenerator or GeneratorMismatch.
        """
        lo, hi = self.domain
        inner_lo, inner_hi = lo + 2 * h, hi - 2 * h
        xs = [inner_lo + (inner_hi - inner_lo) * i / (points - 1) for i in range(points)]
        derivs = [self.g_prime(x) for x in xs]
        for a, b in zip(derivs, derivs[1:]):
            if not b > a:
                raise NonMonotoneGenerator(
                    f"{self.label}: derivative not strictly increasing ({a!r} -> {b!r})"
                )
        for x, d in zip(xs, derivs):
            fd = (self.g(x + h) - self.g(x - h)) / (2 * h)
            if abs(fd - d) > 1e-6 * max(1.0, abs(d)):
                raise GeneratorMismatch(
                    f"{self.label}: finite difference {fd!r} vs derivative {d!r} at {x!r}"
                )


def logit_generator() -> ConvexGenerator:
    """Negative-entropy generator; its derivative is the log-odds function.

    The binary rule it induces is the logarithmic score.
    """
    return ConvexGenerator(
        g=lambda r: r * math.log(r) + (1.0 - r) * math.log(1.0 - r),
        g_prime=lambda r: math.log(r / (1.0 - r)),
        domain=(0.0, 1.0),
        label="negative-entropy",
    )


def binary_quadratic_generator() -> ConvexGenerator:
    """Generator 2r^2 - 2r + 1; induces exactly the binary quadratic score."""
    return ConvexGenerator(
        g=lambda r: 2.0 * r * r - 2.0 * r + 1.0,
        g_prime=lambda r: 4.0 * r - 2.0,
        domain=(0.0, 1.0),
        label="binary-quadratic",
    )


@dataclass(frozen=True)
class ScoringRule:
    """A scoring rule family member.

    affine_offsets holds one additive constant per state (None means all
    zero); b is a positive scale. floor applies to the generalized
    logarithmic family only; generator to custom binary rules only.
    Positive affine transforms preserve strict properness.
    """

    kind: RuleKind
    affine_offsets: tuple[float, ...] | None = None
    b: float = 1.0
    floor: float = 0.0
    generator: ConvexGenerator | None = None

    def __post_init__(self):
        if self.b <= 0.0:
            raise ValidationError(f"scale b must be > 0, got {self.b!r}")
        if self.floor < 0.0:
            raise ValidationError(f"floor must be >= 0, got {self.floor!r}")
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
    if outcome == 0:
        return gen.g(r) + (1.0 - r) * gen.g_prime(r)
    if outcome == 1:
        return gen.g(r) - r * gen.g_prime(r)
    raise DimensionMismatch(f"outcome index {outcome} for a binary rule")


def score(rule: ScoringRule, report: Forecast, outcome: int) -> float:
    """Score of a single report at a single realized outcome (0-based):
    one entry of score_table, raising where that entry is undefined."""
    return float(_score_columns(rule, [report], [outcome])[0, 0])


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
    out = np.empty(R.shape)
    _score_into(rule, R, out)
    return out


def _score_into(
    rule: ScoringRule, R: np.ndarray, out: np.ndarray, tile: np.ndarray | None = None
) -> None:
    """score_table(rule, R) written into out, an (n, m) float array apart
    from R; what out held before is never read.

    Each branch works in place, in the order of operations of
    a + b * f(R), so the scans that reuse one buffer get the bits a fresh
    table gets. Row norms are summed from R * R computed in out, before
    out takes the scores. tile is _row_tile(rule.offsets_for(m), rows),
    which a scan builds once for all its blocks; by default it is built
    here.
    """
    m = R.shape[1]
    if tile is None:
        tile = _row_tile(rule.offsets_for(m), len(R))
    b = rule.b
    kind = rule.kind
    if kind is RuleKind.QUADRATIC:
        np.multiply(R, R, out=out)
        norms = _row_sums(out)
        np.multiply(R, 2.0, out=out)
        out -= norms
        out *= b
    elif kind is RuleKind.LOGARITHMIC or (
        kind is RuleKind.GENERALIZED_LOG and rule.floor == 0.0
    ):
        with np.errstate(divide="ignore"):
            np.log(R, out=out)
        out *= b
    elif kind is RuleKind.GENERALIZED_LOG:
        l = rule.floor
        np.add(R, l, out=out)
        np.log(out, out=out)
        tail = _row_sums(out)
        tail *= b * l
        out *= b
        _apply_rows(np.add, out, tile)
        out += tail
        return
    elif kind is RuleKind.SPHERICAL:
        np.multiply(R, R, out=out)
        norms = _row_sums(out)
        np.sqrt(norms, out=norms)
        np.multiply(R, b, out=out)
        out /= norms
    elif kind is RuleKind.LINEAR:
        np.multiply(R, b, out=out)
    elif kind is RuleKind.CUSTOM_BINARY:
        if m != 2:
            raise DimensionMismatch("custom binary rules support exactly 2 states")
        lo, hi = rule.generator.domain
        out.fill(-np.inf)
        for i, r in enumerate(R[:, 0].tolist()):
            if lo < r < hi:
                out[i] = [savage_binary_score(rule.generator, r, j) for j in range(m)]
        out *= b
    else:
        raise UnsupportedRule(f"unknown rule kind {kind!r}")
    _apply_rows(np.add, out, tile)


# Entries in a tile of _row_tile: enough rows for numpy to add a row to
# whole chunks of a table in contiguous loops, few enough to stay small.
_TILE_ENTRIES = 2**13


def _row_tile(row: np.ndarray, rows: int) -> np.ndarray:
    """The operand with which _apply_rows applies row to tables of up to
    rows rows: row repeated down _TILE_ENTRIES // len(row) rows, C-ordered,
    or row itself as a single row when such a table is smaller than a
    tile, where building one costs more than it saves."""
    m = len(row)
    if rows * m < _TILE_ENTRIES:
        return row[None, :]
    return np.tile(row, (max(1, _TILE_ENTRIES // m), 1))


def _apply_rows(ufunc: np.ufunc, out: np.ndarray, tile: np.ndarray) -> None:
    """ufunc(out, row, out=out) bit for bit, for the row that tile (from
    _row_tile) repeats and a C-ordered (n, m) out.

    numpy broadcasts a row over a table one short row at a time, one inner
    loop per row; applying a tile of the same width makes each chunk of
    rows one contiguous loop, several times faster on narrow tables.
    """
    step = len(tile)
    if step == 1:
        ufunc(out, tile, out=out)
        return
    for start in range(0, len(out), step):
        chunk = out[start : start + step]
        ufunc(chunk, tile[: len(chunk)], out=chunk)


def _row_sums(X: np.ndarray) -> np.ndarray:
    """X.sum(axis=1, keepdims=True), bit for bit, for a C-ordered X.

    numpy sums a row of fewer than 8 entries from left to right onto 0.0,
    one row per inner loop, which makes short rows slow; adding whole
    columns in that order gives the same bits in a fraction of the time
    once there are more than about 40 rows per column (a call per column
    costs more below that). Longer rows are summed pairwise, so they go
    to numpy as they are.
    """
    n, m = X.shape
    if m >= 8 or n < 64 * m:
        return X.sum(axis=1, keepdims=True)
    sums = np.add(X[:, :1], X[:, 1:2])
    for j in range(2, m):
        sums += X[:, j : j + 1]
    sums += 0.0
    return sums


def _score_columns(
    rule: ScoringRule, reports: Sequence[Forecast], outcomes: Sequence[int]
) -> np.ndarray:
    """score_table of the reports, restricted to the given outcome columns.

    Where a requested entry is undefined (-inf in score_table) this raises
    what a strict score does: LogOfZero for a zero-probability state under
    the logarithmic rules, OutOfDomain for a custom binary report outside
    the generator's domain. Entries are checked outcome by outcome, reports
    in order; mixed lengths and out-of-range outcomes are DimensionMismatch.
    When every outcome is requested in order the table is returned as
    score_table built it, not copied.
    """
    R = _stack(reports)
    if R is None:
        raise DimensionMismatch("reports have mixed lengths")
    m = R.shape[1]
    cols = list(outcomes)
    for j in cols:
        if not (0 <= j < m):
            raise DimensionMismatch(f"outcome index {j} out of range for m={m}")
    table = score_table(rule, R)
    if cols != list(range(m)):
        table = table[:, cols]
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


def expected_score(rule: ScoringRule, report: Forecast, belief: Forecast) -> float:
    """Expectation of the report's score under the belief distribution."""
    if report.m != belief.m:
        raise DimensionMismatch(f"report m={report.m} vs belief m={belief.m}")
    row = _score_columns(rule, [report], range(report.m))[0].tolist()
    return math.fsum(p * s for p, s in zip(belief.probs, row))


@dataclass(frozen=True)
class PropernessReport:
    """Outcome of a grid properness check.

    passed means every checked competitor had strictly lower expected score
    than truthful reporting; max_margin is the largest competitor-minus-truth
    gap observed (negative when passing); nearest_competitor attains it.
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
    edges) are skipped and counted, not failed.
    """
    (report,) = _properness_scan(rule, [belief], resolution)
    return report


def _properness_scan(
    rule: ScoringRule, beliefs: Sequence[Forecast], resolution: int
) -> list[PropernessReport]:
    """check_strict_properness at each belief, in one pass over the lattice.

    Each block is scored once; every belief takes its expected scores from
    that table with a matrix-vector product of its own, so each report has
    the bits its own check gives. Beliefs must share one length.
    """
    if resolution < 2:
        raise ValidationError(f"resolution must be >= 2, got {resolution}")
    if not beliefs:
        return []
    m = beliefs[0].m
    if any(belief.m != m for belief in beliefs):
        raise DimensionMismatch("beliefs have mixed lengths")
    blocks = _lattice_blocks(m, resolution)
    ps = [belief.as_array() for belief in beliefs]
    # Zero-belief states contribute nothing to the expectation even where
    # the score there is -inf, so those columns are neutralized first.
    zero_cols = [np.flatnonzero(p == 0.0) for p in ps]
    truth_values = []
    for p, zeros in zip(ps, zero_cols):
        truth_table = score_table(rule, p[None, :])
        truth_table[:, zeros] = 0.0
        truth_value = float(truth_table[0] @ p)
        if not math.isfinite(truth_value):
            raise ValidationError(
                "expected score at the truthful report is not finite; "
                "the belief lies outside the rule's domain"
            )
        truth_values.append(truth_value)
    # The truthful report is the lattice row within 1e-12 of the belief
    # in every entry, if there is one: found once, by its position.
    truthful = [_lattice_index(belief.probs, resolution) for belief in beliefs]
    # One workspace per call, sized like the lattice's blocks: every block
    # is scored once, then masked and multiplied for each belief in turn.
    capacity = _block_rows(m, resolution)
    table_buf = np.empty((capacity, m))
    masked_buf = np.empty((capacity, m)) if any(len(z) for z in zero_cols[:-1]) else None
    margins_buf = np.empty(capacity)
    competitor_buf = np.empty(capacity, dtype=bool)
    # The small tile comes last: allocated before the buffers, it left the
    # heap fragmented and raised peak RSS by about 0.3 MB.
    tile = _row_tile(rule.offsets_for(m), capacity)
    k = len(beliefs)
    checked, skipped = [0] * k, [0] * k
    max_margin, nearest = [-math.inf] * k, [None] * k
    # One block at a time, keeping the first maximum in lattice order: a
    # later block replaces it only when strictly larger.
    start = 0  # lattice rows before the block
    for grid in blocks:
        n = len(grid)
        table, margins, competitor = table_buf[:n], margins_buf[:n], competitor_buf[:n]
        _score_into(rule, grid, table, tile)
        for i, p in enumerate(ps):
            scored = table
            if len(zero_cols[i]):
                # The last belief masks the table itself; the others, a copy.
                if i < k - 1:
                    scored = masked_buf[:n]
                    np.copyto(scored, table)
                scored[:, zero_cols[i]] = 0.0
            with np.errstate(invalid="ignore"):
                np.matmul(scored, p, out=margins)
            np.isfinite(margins, out=competitor)
            skipped[i] += n - int(np.count_nonzero(competitor))
            if truthful[i] is not None and start <= truthful[i] < start + n:
                competitor[truthful[i] - start] = False
            rows = int(np.count_nonzero(competitor))
            checked[i] += rows
            if rows == 0:
                continue
            # Non-competitors drop to -inf, so the first maximum over the
            # block is the first maximum over its competitors.
            margins -= truth_values[i]
            if rows < n:
                np.logical_not(competitor, out=competitor)
                margins[competitor] = -np.inf
            best = int(np.argmax(margins))
            if margins[best] > max_margin[i]:
                max_margin[i] = float(margins[best])
                nearest[i] = Forecast(tuple(grid[best].tolist()))
        start += n
    return [
        PropernessReport(max_margin[i] < 0.0, max_margin[i], nearest[i], checked[i], skipped[i])
        for i in range(k)
    ]


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
    if kind is RuleKind.LOGARITHMIC or (
        kind is RuleKind.GENERALIZED_LOG and rule.floor == 0.0
    ):
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
