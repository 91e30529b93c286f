"""Tests for scoring rule evaluation, generator-built binary rules,
properness checking, and unit-interval normalization."""

from __future__ import annotations

import dataclasses
import itertools
import math
import random
import threading
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from coalition_forge import (
    Coalition,
    ConvexGenerator,
    DimensionMismatch,
    Forecast,
    LogOfZero,
    OutOfDomain,
    Player,
    PropernessReport,
    RuleKind,
    ScoringRule,
    UnboundedRule,
    UnsupportedRule,
    ValidationError,
    arbitrage_report,
    check_strict_properness,
    custom_binary_rule,
    generalized_log_rule,
    grid_array,
    linear_rule,
    logarithmic_rule,
    logit_generator,
    normalize_to_unit_interval,
    quadratic_rule,
    savage_binary_score,
    score,
    score_table,
    spherical_rule,
)

from coalition_forge import rules, simplex

from conftest import binary_quadratic_generator, random_forecast


def test_quadratic_score_values():
    rule = quadratic_rule()
    assert score(rule, Forecast((0.5, 0.5)), 0) == pytest.approx(0.5)
    r = Forecast((0.7, 0.3))
    assert score(rule, r, 0) == pytest.approx(0.82)
    assert score(rule, r, 1) == pytest.approx(0.02)


def test_spherical_score_values():
    rule = spherical_rule()
    assert score(rule, Forecast((1.0, 0.0)), 0) == pytest.approx(1.0)
    norm = math.sqrt(0.6 ** 2 + 0.4 ** 2)
    assert score(rule, Forecast((0.6, 0.4)), 0) == pytest.approx(0.6 / norm)


def test_logarithmic_score_values():
    rule = logarithmic_rule()
    assert score(rule, Forecast((0.25, 0.75)), 1) == pytest.approx(math.log(0.75))
    with pytest.raises(LogOfZero):
        score(rule, Forecast((0.0, 1.0)), 0)


def test_generalized_log_matches_definition():
    l = 0.05
    rule = generalized_log_rule(l)
    r = (0.3, 0.7)
    tail = math.log(r[0] + l) + math.log(r[1] + l)
    expected = math.log(r[0] + l) + l * tail
    assert score(rule, Forecast(r), 0) == pytest.approx(expected, rel=1e-14)


def test_generalized_log_with_zero_floor_equals_logarithmic():
    gen = generalized_log_rule(0.0, a=(0.1, -0.2), b=1.5)
    log = logarithmic_rule(a=(0.1, -0.2), b=1.5)
    for r in [(0.5, 0.5), (0.2, 0.8), (0.999, 0.001)]:
        for j in (0, 1):
            assert score(gen, Forecast(r), j) == pytest.approx(
                score(log, Forecast(r), j), abs=1e-12
            )


def test_generalized_log_is_finite_on_the_boundary():
    rule = generalized_log_rule(0.05)
    vertex = Forecast((1.0, 0.0, 0.0))
    for j in range(3):
        assert math.isfinite(score(rule, vertex, j))


def test_affine_offsets_and_scale():
    rule = quadratic_rule(a=(1.0, -1.0), b=2.0)
    # Offset for the realized state plus twice the raw quadratic part.
    assert score(rule, Forecast((0.5, 0.5)), 0) == pytest.approx(1.0 + 2.0 * 0.5)
    assert score(rule, Forecast((0.5, 0.5)), 1) == pytest.approx(-1.0 + 2.0 * 0.5)


def test_score_validates_outcome_and_offsets():
    rule = quadratic_rule()
    with pytest.raises(DimensionMismatch):
        score(rule, Forecast((0.5, 0.5)), 2)
    bad = quadratic_rule(a=(0.0, 0.0, 0.0))
    with pytest.raises(DimensionMismatch):
        score(bad, Forecast((0.5, 0.5)), 0)


def test_rule_constructor_validation():
    with pytest.raises(ValidationError):
        quadratic_rule(b=0.0)
    with pytest.raises(ValidationError):
        ScoringRule(RuleKind.QUADRATIC, floor=0.1)
    with pytest.raises(ValidationError):
        ScoringRule(RuleKind.GENERALIZED_LOG, floor=-0.5)
    with pytest.raises(ValidationError):
        ScoringRule(RuleKind.CUSTOM_BINARY)
    with pytest.raises(ValidationError):
        ScoringRule(RuleKind.QUADRATIC, generator=logit_generator())


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_parameters_and_weights_are_rejected(bad):
    # NaN passes every plain comparison, and inf passes "> 0": a NaN scale
    # once gave a properness check passed=True with a NaN margin. A wager
    # weighs a member's belief in every equalizer.
    with pytest.raises(ValidationError, match="scale b"):
        quadratic_rule(b=bad)
    with pytest.raises(ValidationError, match="floor"):
        generalized_log_rule(bad)
    with pytest.raises(ValidationError, match="affine offsets"):
        quadratic_rule(a=(bad, 0.0))
    with pytest.raises(ValidationError, match="wager"):
        Player(Forecast((0.5, 0.5)), bad)


def test_savage_scores_for_square_generator():
    gen = ConvexGenerator(g=lambda r: r * r, g_prime=lambda r: 2.0 * r)
    assert savage_binary_score(gen, 0.5, 0) == pytest.approx(0.75)
    assert savage_binary_score(gen, 0.5, 1) == pytest.approx(-0.25)
    with pytest.raises(OutOfDomain):
        savage_binary_score(gen, 0.0, 0)
    with pytest.raises(OutOfDomain):
        savage_binary_score(gen, 1.0, 1)
    with pytest.raises(DimensionMismatch):
        savage_binary_score(gen, 0.5, 2)


def test_custom_binary_table_scores_each_row_once():
    # One g and one g' per in-domain row, each entry savage_binary_score's
    # bits, and -inf at and outside the domain's edges.
    calls = {"g": 0, "g_prime": 0}

    def g(r):
        calls["g"] += 1
        return r * math.log(r) + (1.0 - r) * math.log(1.0 - r)

    def g_prime(r):
        calls["g_prime"] += 1
        return math.log(r / (1.0 - r))

    gen = ConvexGenerator(g=g, g_prime=g_prime, domain=(0.1, 0.9))
    first = np.linspace(0.0, 1.0, 1000)
    first[:3] = (0.1, 0.9, math.nextafter(0.1, 1.0))  # both edges, then just inside
    R = np.column_stack([first, 1.0 - first])
    S = rules._unit_table(custom_binary_rule(gen), R)
    inside = (first > 0.1) & (first < 0.9)
    assert calls == {"g": int(inside.sum()), "g_prime": int(inside.sum())}
    assert 700 < inside.sum() < 1000 and inside[2]
    assert (S[~inside] == -np.inf).all()
    expected = [[savage_binary_score(gen, r, j) for j in (0, 1)] for r in first[inside].tolist()]
    assert S[inside].tobytes() == np.asarray(expected).tobytes()


def test_quadratic_generator_reproduces_quadratic_rule():
    rule = custom_binary_rule(binary_quadratic_generator())
    quad = quadratic_rule()
    for k in range(1, 20):
        r = Forecast((k / 20.0, 1.0 - k / 20.0))
        for j in (0, 1):
            assert score(rule, r, j) == pytest.approx(score(quad, r, j), abs=1e-12)


def test_logit_generator_reproduces_log_rule():
    rule = custom_binary_rule(logit_generator())
    log = logarithmic_rule()
    for k in range(1, 20):
        r = Forecast((k / 20.0, 1.0 - k / 20.0))
        for j in (0, 1):
            assert score(rule, r, j) == pytest.approx(score(log, r, j), abs=1e-12)


def _expected_score(rule, report, belief):
    """The report's score averaged over the belief's outcomes."""
    return math.fsum(p * score(rule, report, j) for j, p in enumerate(belief.probs))


def test_expected_score_at_truth_equals_generator_value():
    # Savage's identity: for a generator-built binary rule, truthful
    # expected score is G(p).
    for gen in (logit_generator(), binary_quadratic_generator()):
        rule = custom_binary_rule(gen)
        for k in range(1, 20):
            p = k / 20.0
            f = Forecast((p, 1.0 - p))
            assert _expected_score(rule, f, f) == pytest.approx(gen.g(p), abs=1e-12)


def test_expected_score_examples():
    rule = quadratic_rule()
    half = Forecast((0.5, 0.5))
    assert _expected_score(rule, half, half) == pytest.approx(0.5)
    belief = Forecast((0.7, 0.3))
    # Truth strictly beats an uninformative report under a proper rule.
    assert _expected_score(rule, belief, belief) > _expected_score(rule, half, belief)
    # A two-state report has no score at a third state.
    with pytest.raises(DimensionMismatch):
        _expected_score(rule, half, Forecast((0.2, 0.3, 0.5)))


def test_generator_domain_validation():
    with pytest.raises(ValidationError):
        ConvexGenerator(g=lambda r: r, g_prime=lambda r: 1.0, domain=(0.5, 0.2))


def _reference_score(kind: str, r, j: int, a, b: float, floor: float) -> float:
    """The six families written out entry by entry, independent of the
    package; -inf where the score is undefined, as in score_table."""
    sq = math.fsum(x * x for x in r)
    if kind == "quadratic":
        raw = 2.0 * r[j] - sq
    elif kind == "logarithmic":
        raw = math.log(r[j]) if r[j] > 0.0 else -math.inf
    elif kind == "generalized_logarithmic":
        raw = math.log(r[j] + floor) + floor * math.fsum(math.log(x + floor) for x in r)
    elif kind == "spherical":
        raw = r[j] / math.sqrt(sq)
    elif kind == "linear":
        raw = r[j]
    else:  # custom binary from the negative-entropy generator: the log score
        x = r[0] if j == 0 else 1.0 - r[0]
        raw = math.log(x) if 0.0 < r[0] < 1.0 else -math.inf
    return a[j] + b * raw


def test_score_table_matches_written_out_formulas():
    rng = np.random.default_rng(303)
    floor = 0.05
    for kind, ms in [
        ("quadratic", (2, 3, 5)),
        ("logarithmic", (2, 3, 5)),
        ("generalized_logarithmic", (2, 3, 5)),
        ("spherical", (2, 3, 5)),
        ("linear", (2, 3, 5)),
        ("custom_binary", (2,)),
    ]:
        for m in ms:
            a = tuple(float(x) for x in rng.uniform(-1.0, 1.0, m))
            b = 1.7
            rule = {
                "quadratic": lambda: quadratic_rule(a, b),
                "logarithmic": lambda: logarithmic_rule(a, b),
                "generalized_logarithmic": lambda: generalized_log_rule(floor, a, b),
                "spherical": lambda: spherical_rule(a, b),
                "linear": lambda: linear_rule(a, b),
                "custom_binary": lambda: custom_binary_rule(logit_generator(), a, b),
            }[kind]()
            # Interior points plus a vertex and a point with a zero entry.
            batch = [random_forecast(rng, m).probs for _ in range(20)]
            batch.append((1.0,) + (0.0,) * (m - 1))
            batch.append((0.0, 0.5) + (0.5 / (m - 1),) * (m - 2) if m > 2 else (0.0, 1.0))
            batch = [tuple(x / math.fsum(row) for x in row) for row in batch]
            table = score_table(rule, np.asarray(batch))
            assert table.shape == (len(batch), m)
            for i, r in enumerate(batch):
                for j in range(m):
                    expected = _reference_score(kind, r, j, a, b, floor)
                    if expected == -math.inf:
                        assert table[i, j] == -np.inf, (kind, m, r, j)
                    else:
                        assert table[i, j] == pytest.approx(
                            expected, rel=1e-12, abs=1e-12
                        ), (kind, m, r, j)


def test_score_raises_only_where_the_table_is_undefined():
    log = logarithmic_rule(a=(0.5, -0.5), b=2.0)
    edge = Forecast((0.0, 1.0))
    with pytest.raises(LogOfZero):
        score(log, edge, 0)
    assert score(log, edge, 1) == -0.5
    with pytest.raises(LogOfZero):
        _expected_score(log, edge, Forecast((0.5, 0.5)))
    custom = custom_binary_rule(logit_generator())
    for r in [(1.0, 0.0), (0.0, 1.0)]:
        for j in (0, 1):
            with pytest.raises(OutOfDomain):
                score(custom, Forecast(r), j)
    narrow = custom_binary_rule(
        ConvexGenerator(g=lambda r: r * r, g_prime=lambda r: 2.0 * r, domain=(0.1, 0.9))
    )
    with pytest.raises(OutOfDomain):
        score(narrow, Forecast((0.1, 0.9)), 1)
    assert score(narrow, Forecast((0.5, 0.5)), 1) == pytest.approx(-0.25)
    for outcome in (-1, 2):
        with pytest.raises(DimensionMismatch):
            score(quadratic_rule(), Forecast((0.5, 0.5)), outcome)


def _unit(rule):
    """The unit rule S of rule = a + b * S: offsets 0, scale 1. The
    private kernels and the scans score S."""
    return dataclasses.replace(rule, affine_offsets=None, b=1.0)


def _score_columns_by_entry(rule, reports, outcomes):
    """rules._score_columns as first written, testing the unit rule's
    table entry by entry: the reference for which error comes first and
    its text."""
    m = reports[0].m
    if any(r.m != m for r in reports):
        raise DimensionMismatch("reports have mixed lengths")
    for j in outcomes:
        if not (0 <= j < m):
            raise DimensionMismatch(f"outcome index {j} out of range for m={m}")
    table = score_table(_unit(rule), np.asarray([r.probs for r in reports], dtype=np.float64))
    for j in outcomes:
        for i in np.flatnonzero(table[:, j] == -np.inf):
            r = reports[i]
            if rule.kind is RuleKind.CUSTOM_BINARY:
                savage_binary_score(rule.generator, r[0], j)
            elif rule.kind in (RuleKind.LOGARITHMIC, RuleKind.GENERALIZED_LOG) and r[j] <= 0.0:
                raise LogOfZero(
                    f"state {j + 1} has probability {r[j]!r}; "
                    "the logarithmic score is undefined there"
                )
    return table[:, list(outcomes)]


def _returned_or_raised(fn, *args):
    try:
        return fn(*args)
    except Exception as exc:
        return type(exc), str(exc)


def test_score_columns_raises_what_the_entry_loop_raised():
    # Batches with several undefined entries, in different rows and
    # outcomes: the first error, its type and its text are the entry
    # loop's, and every table is the unit rule's score_table bit for bit.
    rng = np.random.default_rng(4242)
    narrow = ConvexGenerator(g=lambda r: r * r, g_prime=lambda r: 2.0 * r, domain=(0.1, 0.9))
    candidates = [  # a rule and its number of states, None for any
        (logarithmic_rule(), None),
        (generalized_log_rule(0.0, b=2.0), None),
        (generalized_log_rule(0.1, a=(0.0, 1.0, 2.0)), 3),
        (custom_binary_rule(logit_generator()), 2),
        (custom_binary_rule(narrow, a=(0.5, -0.5)), 2),
        (quadratic_rule(), None),
        (spherical_rule(), None),
    ]
    raised = defined = 0
    for trial in range(700):
        rule, m = candidates[trial % len(candidates)]
        m = m or int(rng.integers(2, 6))
        reports = []
        for _ in range(int(rng.integers(1, 8))):
            p = rng.dirichlet(np.ones(m))
            if rng.random() < 0.4:
                # Zeros under the log rules; reports at 0 and 1 under the
                # custom binary rules.
                p[rng.random(m) < 0.5] = 0.0
                if p.sum() == 0.0:
                    p[int(rng.integers(m))] = 1.0
                p /= p.sum()
            reports.append(Forecast(tuple(p.tolist())))
        outcomes = [
            range(m),
            list(range(m))[::-1],
            [int(rng.integers(m))],
            [int(j) for j in rng.integers(m, size=3)],
        ][trial // len(candidates) % 4]
        got = _returned_or_raised(rules._score_columns, rule, reports, outcomes)
        want = _returned_or_raised(_score_columns_by_entry, rule, reports, outcomes)
        if isinstance(want, tuple):
            assert got == want
            raised += 1
            continue
        full = score_table(_unit(rule), np.asarray([r.probs for r in reports]))
        for table in (want, full[:, list(outcomes)]):
            assert got.shape == table.shape
            assert got.tobytes() == table.tobytes()
        defined += 1
    assert raised > 100 and defined > 300
    # Mixed lengths and outcomes out of range raise as before.
    mixed = [Forecast((0.5, 0.5)), Forecast((0.2, 0.3, 0.5))]
    for reports, outcomes in ((mixed, [0]), (mixed[:1], [2]), (mixed[1:], [0, -1])):
        got = _returned_or_raised(rules._score_columns, quadratic_rule(), reports, outcomes)
        want = _returned_or_raised(_score_columns_by_entry, quadratic_rule(), reports, outcomes)
        assert got == want
        assert got[0] is DimensionMismatch


def test_scoring_leaves_the_callers_array_untouched():
    # score_table takes a C-ordered float64 array as it is, without a
    # copy, and _unit_table is handed arrays the caller keeps: both score
    # a copy, so the caller's bytes do not move under any family.
    rng = np.random.default_rng(929)
    for m in (2, 3, 5):
        R = rng.dirichlet(np.ones(m), size=300)
        R[::7, 0] = 0.0
        R /= R.sum(axis=1, keepdims=True)
        assert R.flags.c_contiguous and np.asarray(R, dtype=np.float64) is R
        kinds = [
            quadratic_rule(),
            logarithmic_rule(),
            generalized_log_rule(0.1),
            spherical_rule(),
            linear_rule(),
        ]
        if m == 2:
            kinds.append(custom_binary_rule(logit_generator()))
        before = R.tobytes()
        for rule in kinds:
            table = score_table(rule, R)
            unit = rules._unit_table(rule, R)
            assert R.tobytes() == before, rule.kind
            assert table is not R and unit is not R


def test_score_table_uses_neg_inf_for_log_of_zero():
    table = score_table(logarithmic_rule(), np.array([[0.0, 1.0]]))
    assert table[0, 0] == -np.inf
    assert table[0, 1] == pytest.approx(0.0)


def test_score_table_refuses_batches_it_cannot_score():
    # A 1-d batch, and a custom binary rule over three states.
    with pytest.raises(DimensionMismatch) as err:
        score_table(quadratic_rule(), np.array([0.5, 0.5]))
    assert str(err.value) == "expected a 2-d report batch, got shape (2,)"
    with pytest.raises(DimensionMismatch) as err:
        score_table(custom_binary_rule(logit_generator()), np.full((2, 3), 1.0 / 3.0))
    assert str(err.value) == "custom binary rules support exactly 2 states"


def test_score_into_overwrites_only_its_rows_of_a_larger_buffer():
    # The in-place kernel scores the rows it is given and nothing past
    # them: in the first rows of a NaN-filled larger buffer, as the lattice
    # scans hand it each block, every table is the unit rule's score_table
    # bit for bit and the rows past it stay NaN.
    rng = np.random.default_rng(909)
    narrow = ConvexGenerator(g=lambda r: r * r, g_prime=lambda r: 2.0 * r, domain=(0.1, 0.9))
    for m in (2, 3, 5, 9):
        a = tuple(float(x) for x in rng.uniform(-1.0, 1.0, m))
        R = rng.dirichlet(np.full(m, 0.5), size=40)
        R[::4, int(rng.integers(m))] = 0.0  # zero entries: -inf under log
        R[1] = np.eye(m)[m - 1]
        kinds = [
            quadratic_rule(a, 1.7),
            quadratic_rule(),
            logarithmic_rule(a, 0.6),
            generalized_log_rule(0.05, a, 1.7),
            generalized_log_rule(0.0, a, 1.3),
            spherical_rule(a, 2.5),
            linear_rule(a, 0.4),
        ]
        if m == 2:
            R[2] = (0.05, 0.95)  # outside the narrow generator's domain
            kinds += [
                custom_binary_rule(logit_generator(), a, 1.7),
                custom_binary_rule(narrow, b=0.8),
            ]
        # A column-major buffer, as the lattice scans hand it, gives the
        # same bits.
        for rule in kinds:
            expected = score_table(_unit(rule), R)
            for order in "CF":
                buf = np.full((len(R) + 7, m), np.nan, order=order)
                buf[: len(R)] = R
                rules._score_into(rule, buf[: len(R)])
                assert buf[: len(R)].tobytes() == expected.tobytes(), (rule.kind, order)
                assert np.isnan(buf[len(R):]).all()
        assert np.isneginf(score_table(logarithmic_rule(a), R)).any()


def _python_row_sums(X, square=False):
    # Each row summed left to right onto 0.0 in Python floats, squared
    # first with square set.
    sums = []
    for row in X.tolist():
        total = 0.0
        for x in row:
            total += x * x if square else x
        sums.append([total])
    return np.array(sums)


def _special_table(rng, n, m):
    specials = np.array([0.0, -0.0, 1.0, -1.0, np.inf, -np.inf, np.nan, 1e-300, 1e300])
    X = rng.standard_normal((n, m)) * 10.0 ** rng.integers(-20, 20, (n, m))
    special = rng.random(X.shape) < 0.2
    X[special] = rng.choice(specials, int(special.sum()))
    return X


def _same_bits(a, b):
    # NaN entries by position, every other entry by its bytes. Which NaN
    # an add of two NaNs keeps (-inf + inf, then + nan) is left open by
    # IEEE 754, and CPython's float add keeps a different one under a line
    # tracer, as coverage tools set, than without.
    nan = np.isnan(a)
    return np.array_equal(nan, np.isnan(b)) and a[~nan].tobytes() == b[~nan].tobytes()


def test_row_sums_match_a_python_left_to_right_sum_bit_for_bit():
    # Every row is summed left to right onto 0.0, squared or not, at every
    # m and in either layout: numpy's own sum for short tables below 8
    # columns, whole columns otherwise. The bytes are those of the sum in
    # Python floats, signed zeros and infinities included, with NaN where
    # that sum is NaN, or every table that sums rows would drift. One row
    # of a column-major buffer is a scan's last block at times.
    rng = np.random.default_rng(919)
    for m in range(2, 13):
        X = _special_table(rng, 2000, m)
        F = np.asfortranarray(X)
        with np.errstate(invalid="ignore", over="ignore"):
            for rows in (X, X[:37], F, F[:37], F[5:6]):
                for square in (False, True):
                    expected = _python_row_sums(rows, square)
                    assert _same_bits(rules._row_sums(rows, square), expected), (m, square)


def test_row_sums_square_one_column_at_a_time():
    # The squares are taken one column at a time into a scratch column,
    # not as a table the size of X, in either layout; one-row and short
    # tables of wide rows included. Squaring all of X at once peaked at
    # X's size and more.
    rng = np.random.default_rng(929)
    for m in (8, 9, 12, 64, 300):
        for n in (1, 2**14 // m - 1, 2**14 // m, 2**14 // m + 1, 5 * 2**14 // m + 7):
            X = _special_table(rng, n, m)
            with np.errstate(invalid="ignore", over="ignore"):
                expected = _python_row_sums(X, square=True)
                for rows in (X, np.asfortranarray(X)):
                    assert rules._row_sums(rows, square=True).tobytes() == expected.tobytes(), (m, n)
    for X in (rng.random((16_384, 9)), np.asfortranarray(rng.random((16_384, 9)))):
        tracemalloc.start()
        try:
            rules._row_sums(X, square=True)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < X.nbytes // 3, peak / X.nbytes


def test_properness_quadratic_passes():
    report = check_strict_properness(quadratic_rule(), Forecast((0.3, 0.7)), 100)
    assert report.passed
    assert report.max_margin < 0.0
    assert report.skipped == 0


def test_properness_linear_fails_at_vertex():
    report = check_strict_properness(linear_rule(), Forecast((0.3, 0.7)), 50)
    assert not report.passed
    assert report.max_margin == pytest.approx(0.12)
    assert report.nearest_competitor.probs == (0.0, 1.0)


def test_properness_log_skips_boundary_points():
    report = check_strict_properness(logarithmic_rule(), Forecast((0.5, 0.5)), 50)
    assert report.passed
    assert report.skipped == 2
    assert report.checked == 48


def test_properness_handles_zero_belief_state():
    report = check_strict_properness(logarithmic_rule(), Forecast((0.0, 1.0)), 50)
    assert report.passed


def test_properness_lattice_belief_excludes_exactly_the_truthful_row():
    for rule in (quadratic_rule(), logarithmic_rule(), spherical_rule(), linear_rule()):
        for probs, resolution in (
            ((0.25, 0.5, 0.25), 8),
            ((0.0, 0.5, 0.5), 6),
            ((0.2, 0.2, 0.4, 0.2), 10),
        ):
            belief = Forecast(probs)
            n = len(grid_array(belief.m, resolution))
            report = check_strict_properness(rule, belief, resolution)
            assert report.checked + report.skipped + 1 == n
            if report.nearest_competitor is not None:
                assert report.nearest_competitor != belief


def test_properness_spherical_three_states():
    belief = Forecast((1 / 3, 1 / 3, 1 / 3))
    report = check_strict_properness(spherical_rule(), belief, 30)
    assert report.passed


def test_properness_named_rules_random_beliefs():
    rng = np.random.default_rng(404)
    rules = [
        quadratic_rule(),
        logarithmic_rule(),
        generalized_log_rule(0.05),
        spherical_rule(),
    ]
    for rule in rules:
        for m in (2, 3):
            for _ in range(5):
                belief = random_forecast(rng, m)
                assert check_strict_properness(rule, belief, 40).passed


def test_properness_custom_binary_logit():
    report = check_strict_properness(
        custom_binary_rule(logit_generator()), Forecast((0.4, 0.6)), 60
    )
    assert report.passed


def test_properness_resolution_validation():
    with pytest.raises(ValidationError):
        check_strict_properness(quadratic_rule(), Forecast((0.5, 0.5)), 1)


def _unblocked_properness(rule, belief, resolution):
    """check_strict_properness over the whole lattice at once: one table of
    the unit rule's scores, each row's expected score summed onto 0.0 left
    to right over the belief's nonzero states, and the first maximum,
    whose margin is returned times b; None where the truthful expected
    score is not finite."""
    p = belief.as_array()
    support = np.flatnonzero(p)

    def expected(table):
        total = np.zeros(len(table))
        for j in support:
            total += table[:, j] * p[j]
        return total

    grid = grid_array(belief.m, resolution)
    expectations = expected(score_table(_unit(rule), grid))
    truth_value = float(expected(score_table(_unit(rule), p[None, :]))[0])
    if not math.isfinite(truth_value):
        return None
    finite = np.isfinite(expectations)
    rows = np.flatnonzero(finite & ~(np.abs(grid - p) <= 1e-12).all(axis=1))
    skipped = len(grid) - int(finite.sum())
    if len(rows) == 0:
        return PropernessReport(True, -math.inf, None, 0, skipped)
    margins = expectations[rows] - truth_value
    best = int(np.argmax(margins))
    nearest = Forecast(tuple(grid[rows[best]].tolist()))
    return PropernessReport(
        bool(margins[best] < 0.0), rule.b * float(margins[best]), nearest, len(rows), skipped
    )


def _random_rule(rng, m):
    a = tuple(rng.uniform(-1.0, 1.0, size=m)) if rng.random() < 0.5 else None
    b = float(rng.uniform(0.3, 2.0))
    choice = int(rng.integers(6 if m == 2 else 5))
    if choice == 0:
        return quadratic_rule(a, b)
    if choice == 1:
        return logarithmic_rule(a, b)
    if choice == 2:
        return generalized_log_rule(float(rng.uniform(0.01, 0.3)), a, b)
    if choice == 3:
        return spherical_rule(a, b)
    if choice == 4:
        return linear_rule(a, b)
    return custom_binary_rule(logit_generator(), a, b)


def _random_belief(rng, m, resolution):
    p = rng.dirichlet(np.ones(m))
    kind = int(rng.integers(4))
    if kind == 1:
        p[int(rng.integers(m))] = 0.0
        p /= p.sum()
    elif kind >= 2:
        # On the lattice, with a zero state in half of these.
        weights = p.copy()
        if kind == 3:
            weights[int(rng.integers(m))] = 0.0
        p = rng.multinomial(resolution, weights / weights.sum()) / resolution
    return Forecast(tuple(p.tolist()))


@pytest.mark.parametrize("block_rows", [7, 50, None])
def test_properness_equals_unblocked_oracle(monkeypatch, block_rows):
    if block_rows is not None:
        monkeypatch.setattr(simplex, "BLOCK_ROWS", block_rows)
    rng = np.random.default_rng(606)
    top = {2: 300, 3: 40, 4: 16, 5: 10}
    for _ in range(60):
        m = int(rng.integers(2, 6))
        resolution = int(rng.integers(2, top[m]))
        rule = _random_rule(rng, m)
        belief = _random_belief(rng, m, resolution)
        expected = _unblocked_properness(rule, belief, resolution)
        if expected is None:
            # The truthful score is undefined, as for a custom binary rule
            # at a vertex belief.
            with pytest.raises(ValidationError, match="not finite"):
                check_strict_properness(rule, belief, resolution)
        else:
            assert check_strict_properness(rule, belief, resolution) == expected


def test_properness_equals_a_pure_python_scan():
    # Each row's expected score recomputed with Python floats in the scan's
    # order, left to right over the belief's nonzero states onto 0.0, from
    # the rows of score_table under the unit rule: the scan's margin, its
    # nearest competitor and its counts are those of that loop, for every
    # rule kind, with zero-state and on-lattice beliefs, one to three a scan.
    rng = np.random.default_rng(1111)

    def expected(row, p):
        total = 0.0
        for x, q in zip(row, p):
            if q > 0.0:
                total += x * q
        return total

    for m in range(2, 6):
        kinds = [quadratic_rule, logarithmic_rule, spherical_rule, linear_rule, generalized_log_rule]
        if m == 2:
            kinds.append(custom_binary_rule)
        for resolution in range(2, 9):
            grid = grid_array(m, resolution)
            for make in kinds:
                a = tuple(rng.uniform(-1.0, 1.0, size=m))
                b = float(rng.uniform(0.3, 2.0))
                if make is generalized_log_rule:
                    rule = make(float(rng.choice([0.0, 0.1])), a, b)
                elif make is custom_binary_rule:
                    rule = make(logit_generator(), a, b)
                else:
                    rule = make(a, b)
                beliefs = []
                for _ in range(int(rng.integers(1, 4))):
                    belief = _random_belief(rng, m, resolution)
                    if _unblocked_properness(rule, belief, resolution) is not None:
                        beliefs.append(belief)
                if not beliefs:
                    continue
                reports = rules._properness_scan(rule, beliefs, resolution)
                table = score_table(_unit(rule), grid).tolist()
                for belief, report in zip(beliefs, reports):
                    p = belief.probs
                    truth = expected(score_table(_unit(rule), np.array([p])).tolist()[0], p)
                    best, nearest, checked, skipped = -math.inf, None, 0, 0
                    for point, row in zip(grid.tolist(), table):
                        value = expected(row, p)
                        if not math.isfinite(value):
                            skipped += 1
                        elif any(abs(x - q) > 1e-12 for x, q in zip(point, p)):
                            checked += 1
                            if value - truth > best:
                                best, nearest = value - truth, Forecast(tuple(point))
                    case = (rule.kind, m, resolution, p)
                    assert report.max_margin == rule.b * best, case
                    assert report.nearest_competitor == nearest, case
                    assert (report.checked, report.skipped) == (checked, skipped), case
                    assert report.passed == (best < 0.0), case


def test_quadratic_properness_agrees_with_exact_arithmetic():
    # An exact judge at the program's own floats: under the quadratic unit
    # rule S_j(r) = 2 r_j - |r|^2 every gap E_p[S(r)] - E_p[S(p)] is
    # rational (-|p - r|^2 when sum(p) is exactly 1). The counts and the
    # verdict must be the exact ones, and max_margin must lie within a
    # rounding bound derived from the terms' magnitudes (Higham's gamma_k
    # for a left-to-right sum of k products), with no tuned tolerance.
    u = Fraction(1, 2**53)

    def gamma(k):
        return k * u / (1 - k * u)

    def error(norm, size, total, k, m):
        # The rounding bound of one expected score: the norm |r|^2 is a
        # left-to-right sum of m squares, each S_j one subtraction from
        # it, and E_p a left-to-right sum of the products over p's k
        # nonzero states; size is sum_j p_j |S_j| and total sum(p).
        per_entry = gamma(m) * norm * (1 + u) * total + u * size
        return (1 + gamma(k)) * per_entry + gamma(k) * size

    rng = random.Random(2603)
    for m, resolution in ((3, 30), (5, 8), (8, 5), (9, 4), (12, 3)):
        # Every composition of resolution into m parts, as the program's
        # float rows k / resolution.
        rows = []
        for bars in itertools.combinations(range(resolution + m - 1), m - 1):
            edges = (-1, *bars, resolution + m - 1)
            rows.append(tuple((b - a - 1) / resolution for a, b in zip(edges, edges[1:])))
        beliefs = []
        for kind in range(6):
            weights = [rng.random() for _ in range(m)]
            if kind % 2:
                weights[rng.randrange(m)] = 0.0
            if kind < 4:  # random
                beliefs.append(tuple(w / sum(weights) for w in weights))
            else:  # on the lattice
                beliefs.append(rows[rng.randrange(len(rows))])
        # Every float here is an integer over one power of two, den, so
        # the arithmetic is exact in integers: S(r) over den**2, and
        # expected scores over den**3.
        den = max(Fraction(x).denominator for row in rows + beliefs for x in row)

        def exact(probs):
            return [int(Fraction(x) * den) for x in probs]

        def unit_scores(r):
            norm = sum(x * x for x in r)
            return [2 * x * den - norm for x in r], norm

        exact_rows = {row: exact(row) for row in rows}
        scored = [unit_scores(exact_rows[row]) for row in rows]
        for probs in beliefs:
            report = check_strict_properness(quadratic_rule(), Forecast(probs), resolution)
            p = exact(probs)
            k = sum(1 for q in p if q)

            def expected(scores):
                return sum(q * x for q, x in zip(p, scores)), sum(q * abs(x) for q, x in zip(p, scores))

            truth_scores, truth_norm = unit_scores(p)
            truth, truth_size = expected(truth_scores)
            gaps, norms, sizes = {}, [], []
            for row, (scores, norm) in zip(rows, scored):
                if all(abs(x - q) <= 1e-12 for x, q in zip(row, probs)):
                    continue  # the truthful row
                value, size = expected(scores)
                gaps[row] = Fraction(value - truth, den**3)
                norms.append(norm)
                sizes.append(size)
            best = max(gaps.values())
            if sum(p) == den:
                squares = (sum((x - q) ** 2 for x, q in zip(exact_rows[row], p)) for row in gaps)
                assert best == -Fraction(min(squares), den**2)
            # The bound grows with the norm and the size, so their largest
            # values bound every competitor's margin.
            total = Fraction(sum(p), den)
            competitor = error(Fraction(max(norms), den**2), Fraction(max(sizes), den**3), total, k, m)
            own = error(Fraction(truth_norm, den**2), Fraction(truth_size, den**3), total, k, m)
            bound = (1 + u) * (competitor + own) + u * max(map(abs, gaps.values()))
            case = (m, resolution, probs)
            assert (report.checked, report.skipped) == (len(gaps), 0), case
            assert report.passed == (best < 0), case
            assert abs(Fraction(report.max_margin) - best) <= bound, case
            nearest = report.nearest_competitor.probs
            assert gaps[nearest] >= best - 2 * bound, case
            if sum(1 for gap in gaps.values() if gap >= best - 2 * bound) == 1:
                assert gaps[nearest] == best, case


@pytest.mark.parametrize("limit", [1, 2, 3, 7, 50])
def test_properness_reports_do_not_depend_on_the_block_limit(monkeypatch, limit):
    # Blocks are plain row ranges and each row's expected score is one
    # fixed sum, so every limit gives the default limit's reports, field
    # for field, interior scans and lone last rows included.
    rng = np.random.default_rng(1313)
    cases = []
    for _ in range(12):
        m = int(rng.integers(2, 6))
        resolution = int(rng.integers(2, {2: 60, 3: 20, 4: 10, 5: 8}[m]))
        rule = _random_rule(rng, m)
        beliefs = [_random_belief(rng, m, resolution) for _ in range(3)]
        beliefs = [b for b in beliefs if _unblocked_properness(rule, b, resolution) is not None]
        if beliefs:
            cases.append((rule, beliefs, resolution))
    cases.append((logarithmic_rule(), [random_forecast(rng, 10)], 12))
    cases.append((generalized_log_rule(0.0), [random_forecast(rng, 4), random_forecast(rng, 4)], 16))
    expected = [rules._properness_scan(*case) for case in cases]
    monkeypatch.setattr(simplex, "BLOCK_ROWS", limit)
    assert [rules._properness_scan(*case) for case in cases] == expected


@pytest.mark.parametrize("block_entries", [2**11, None])
def test_properness_equals_unblocked_oracle_at_wide_m(monkeypatch, block_entries):
    # Above 8 states the entry cap sets the block rows; at 2**11 entries
    # and 70 states it falls below m and the max(m, 3) floor takes over.
    if block_entries is not None:
        monkeypatch.setattr(simplex, "BLOCK_ENTRIES", block_entries)
    # (8, 12) and (9, 11) add log checks of positive beliefs, which scan
    # only the lattice interior; the other lattices have none.
    rng = np.random.default_rng(707)
    for m, resolution in ((10, 8), (12, 6), (20, 4), (30, 3), (70, 2), (8, 12), (9, 11)):
        assert math.comb(resolution + m - 1, m - 1) > simplex.BLOCK_ENTRIES // m
        cases = [(_random_rule(rng, m), _random_belief(rng, m, resolution)) for _ in range(3)]
        if resolution > m:
            a = tuple(rng.uniform(-1.0, 1.0, size=m))
            cases += [
                (logarithmic_rule(a, 1.3), random_forecast(rng, m)),
                (generalized_log_rule(0.0), random_forecast(rng, m)),
            ]
        for rule, belief in cases:
            expected = _unblocked_properness(rule, belief, resolution)
            assert expected is not None
            # Each row's sum is fixed, so every block size gives the bits of
            # the whole lattice's.
            assert check_strict_properness(rule, belief, resolution) == expected
    # The interior of (10, 12) is 55 rows, in a block of its own, whose
    # last three rows a matrix product through OpenBLAS rounded unlike the
    # whole lattice's.
    belief = Forecast(tuple(k / 55 for k in range(10, 0, -1)))
    for rule in (logarithmic_rule(), generalized_log_rule(0.0)):
        assert check_strict_properness(rule, belief, 12) == _unblocked_properness(rule, belief, 12)


def test_properness_log_at_resolution_m_equals_unblocked_oracle():
    # At resolution m the interior is the one row (1/m, ..., 1/m), a block
    # of one row, and every report keeps the bits of the oracle.
    rng = np.random.default_rng(505)
    for m in range(3, 8):
        centre = Forecast((1.0 / m,) * m)
        for rule in (
            logarithmic_rule(),
            logarithmic_rule(tuple(rng.uniform(-1.0, 1.0, size=m)), 0.7),
            generalized_log_rule(0.0, None, 1.6),
        ):
            for belief in (random_forecast(rng, m), random_forecast(rng, m), centre):
                report = check_strict_properness(rule, belief, m)
                assert report == _unblocked_properness(rule, belief, m)
                # Every row but the centre has a zero entry.
                assert report.skipped == math.comb(2 * m - 1, m - 1) - 1


def test_properness_log_scores_only_the_interior(monkeypatch):
    # A log check of beliefs with no zero state scores the C(res - 1, m - 1)
    # lattice rows with no zero entry, besides the one-row table of each
    # truthful report, and counts the rest as skipped; other rules, and
    # beliefs with a zero state, score the whole lattice.
    seen = []
    score_into = rules._score_into

    def counting(rule, R):
        seen.append(len(R))
        return score_into(rule, R)

    monkeypatch.setattr(rules, "_score_into", counting)
    m, resolution = 4, 20
    whole, inside = math.comb(resolution + m - 1, m - 1), math.comb(resolution - 1, m - 1)
    # The first belief is a lattice row, which is not its own competitor.
    positive = [Forecast((0.1, 0.2, 0.3, 0.4)), Forecast((0.13, 0.21, 0.33, 0.33))]
    zero = Forecast((0.0, 0.22, 0.33, 0.45))
    for rule, beliefs, rows in (
        (logarithmic_rule(), positive, inside),
        (generalized_log_rule(0.0), positive[:1], inside),
        (quadratic_rule(), positive, whole),
        (logarithmic_rule(), [positive[0], zero], whole),
    ):
        seen.clear()
        reports = rules._properness_scan(rule, beliefs, resolution)
        assert sum(seen) == rows + len(beliefs)
        assert [r.checked + r.skipped for r in reports] == [
            whole - (b == positive[0]) for b in beliefs
        ]
    log = rules._properness_scan(logarithmic_rule(), positive, resolution)
    assert [r.skipped for r in log] == [whole - inside] * 2


def test_properness_ties_keep_the_first_maximum_in_lattice_order(monkeypatch):
    # Every report has expected linear score exactly 1/4 against the
    # uniform belief (all terms are dyadic), so every competitor ties at
    # margin 0 and the first row of the lattice is the nearest competitor.
    monkeypatch.setattr(simplex, "BLOCK_ROWS", 7)
    belief = Forecast((0.25, 0.25, 0.25, 0.25))
    report = check_strict_properness(linear_rule(), belief, 8)
    assert report == _unblocked_properness(linear_rule(), belief, 8)
    assert report.max_margin == 0.0 and not report.passed
    assert report.nearest_competitor.probs == (0.0, 0.0, 0.0, 1.0)
    assert report.checked == math.comb(11, 3) - 1


def test_properness_checks_on_threads_match_serial_reports():
    # Every call scans the lattice in a workspace of its own: four threads
    # checking multi-block lattices at once, each in its own order, get
    # the serial reports field for field.
    cases = [
        (quadratic_rule((0.1, -0.2, 0.3), 1.5), Forecast((0.2, 0.3, 0.5)), 300),
        (spherical_rule(), Forecast((0.3, 0.1, 0.2, 0.25, 0.15)), 30),
        (logarithmic_rule(), Forecast((0.5, 0.0, 0.25, 0.25)), 60),
        (generalized_log_rule(0.1), Forecast((0.1, 0.2, 0.3, 0.15, 0.1, 0.15)), 20),
    ]
    for rule, belief, resolution in cases:
        assert math.comb(resolution + belief.m - 1, belief.m - 1) > 2 * simplex.BLOCK_ROWS
    serial = [check_strict_properness(*case) for case in cases]
    results: dict[int, list] = {}
    errors: list[BaseException] = []
    start = threading.Barrier(4)

    def work(t):
        try:
            start.wait(timeout=60)
            order = [(t + k) % len(cases) for k in range(2 * len(cases))]
            results[t] = [(i, check_strict_properness(*cases[i])) for i in order]
        except BaseException as exc:  # reported on the main thread
            errors.append(exc)

    threads = [threading.Thread(target=work, args=(t,)) for t in range(4)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    assert sorted(results) == [0, 1, 2, 3]
    for reports in results.values():
        for i, report in reports:
            for field in dataclasses.fields(PropernessReport):
                assert getattr(report, field.name) == getattr(serial[i], field.name), field.name


@pytest.mark.parametrize("block_rows", [7, 50, None])
def test_properness_scan_equals_one_check_per_belief(monkeypatch, block_rows):
    # One scan over k beliefs gives the k reports of k separate checks,
    # field for field, with zero states, on- and off-lattice beliefs and
    # beliefs within 1e-12 of a lattice point mixed in one call.
    if block_rows is not None:
        monkeypatch.setattr(simplex, "BLOCK_ROWS", block_rows)
    rng = np.random.default_rng(818)
    top = {2: 300, 3: 40, 4: 16, 5: 10, 9: 4}
    for _ in range(30):
        m = int(rng.choice([2, 3, 4, 5, 9]))
        resolution = int(rng.integers(2, top[m]))
        rule = _random_rule(rng, m)
        beliefs = []
        while len(beliefs) < int(rng.integers(1, 7)):
            belief = _random_belief(rng, m, resolution)
            if rng.random() < 0.3:
                # Off the lattice by less than the truthful-row tolerance.
                nudged = np.asarray(belief.probs) + rng.uniform(-4e-13, 4e-13, m)
                belief = Forecast(tuple(np.where(np.asarray(belief.probs) > 0.0, nudged, 0.0).tolist()))
            if _unblocked_properness(rule, belief, resolution) is not None:
                beliefs.append(belief)
        reports = rules._properness_scan(rule, beliefs, resolution)
        expected = [check_strict_properness(rule, belief, resolution) for belief in beliefs]
        assert len(reports) == len(expected)
        for report, one in zip(reports, expected):
            for field in dataclasses.fields(PropernessReport):
                assert getattr(report, field.name) == getattr(one, field.name), field.name
    # Forty-two beliefs under the unfloored logarithmic rule, with and
    # without zero states: a zero state's truthful score is -inf, and its
    # term in the truthful sum must be 0.0, not -inf * 0.
    rule = logarithmic_rule()
    points = [(i, j, 12 - i - j) for i in range(13) for j in range(13 - i)]
    beliefs = [Forecast(tuple(x / 12 for x in points[k])) for k in rng.permutation(len(points))[:42]]
    assert {0.0 in b.probs for b in beliefs} == {False, True}
    reports = rules._properness_scan(rule, beliefs, 6)
    expected = [check_strict_properness(rule, belief, 6) for belief in beliefs]
    assert len(reports) == len(expected) == 42
    for report, one in zip(reports, expected):
        for field in dataclasses.fields(PropernessReport):
            assert getattr(report, field.name) == getattr(one, field.name), field.name


def test_properness_scan_arguments():
    rule = logarithmic_rule()
    assert rules._properness_scan(rule, [], 10) == []
    with pytest.raises(ValidationError, match="resolution"):
        rules._properness_scan(rule, [], 1)
    with pytest.raises(DimensionMismatch):
        rules._properness_scan(rule, [Forecast((0.5, 0.5)), Forecast((0.2, 0.3, 0.5))], 10)
    # A belief outside the rule's domain fails the whole scan, as its own
    # check fails.
    binary = custom_binary_rule(logit_generator())
    with pytest.raises(ValidationError, match="not finite"):
        rules._properness_scan(binary, [Forecast((0.4, 0.6)), Forecast((1.0, 0.0))], 10)


def test_properness_memory_is_bounded_by_the_block():
    # 316,251 lattice points: the whole grid and its score table would be
    # 12.7 MB each.
    belief = Forecast((0.3, 0.1, 0.2, 0.25, 0.15))
    tracemalloc.start()
    try:
        report = check_strict_properness(spherical_rule(), belief, 50)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 16 * 2**20
    assert report == _unblocked_properness(spherical_rule(), belief, 50)


def test_properness_memory_is_bounded_at_wide_m():
    # 45,760 lattice points over 64 states: a block of 16,384 rows is
    # 8.4 MB before scoring (a 24 MB peak); a block of 2**17 entries is 1 MB.
    belief = Forecast((1.0 / 64,) * 64)
    tracemalloc.start()
    try:
        report = check_strict_properness(spherical_rule(), belief, 3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 8 * 2**20
    assert report.passed and report.checked == math.comb(66, 63)


def test_properness_scores_each_block_in_the_stream_buffer():
    # A check holds the stream's float block (one buffer: rows * m * 8
    # bytes), its integer parts and per-row vectors, and scores each
    # block in place; a score table beside the block took it to about 2.5
    # buffers. Every belief sums its expected scores from the block over
    # its nonzero states, in either order of beliefs: a masked copy of the
    # block for every belief but the last took the pair below to 2.78
    # buffers. At 9 states the squares behind the spherical norms, taken
    # as one table of the block's size, took a check to 2.37 buffers.
    zero_state = Forecast((0.0, 0.2, 0.3, 0.25, 0.25))
    full = Forecast((0.3, 0.1, 0.2, 0.25, 0.15))
    for rule, beliefs, resolution in (
        (spherical_rule(), [full], 50),
        (logarithmic_rule(), [Forecast((0.1, 0.2, 0.15, 0.25, 0.2, 0.1))], 30),
        (spherical_rule(), [zero_state, full], 50),
        (spherical_rule(), [full, zero_state], 50),
        (spherical_rule(), [Forecast((1.0 / 9,) * 9)], 10),
    ):
        m = beliefs[0].m
        buffer = simplex._block_rows(m, resolution) * m * 8
        tracemalloc.start()
        try:
            reports = rules._properness_scan(rule, beliefs, resolution)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * buffer, (rule.kind, len(beliefs), peak / buffer)
        assert all(report.passed for report in reports)
        assert reports == [check_strict_properness(rule, b, resolution) for b in beliefs]


def test_normalize_quadratic():
    norm = normalize_to_unit_interval(quadratic_rule(), 2)
    assert norm.affine_offsets == (0.5, 0.5)
    assert norm.b == pytest.approx(0.5)
    # Extremes attained at vertices: wrong vertex scores 0, right one 1.
    assert score(norm, Forecast((1.0, 0.0)), 1) == pytest.approx(0.0)
    assert score(norm, Forecast((1.0, 0.0)), 0) == pytest.approx(1.0)


def test_normalize_spherical_is_identity():
    norm = normalize_to_unit_interval(spherical_rule(), 3)
    assert norm.affine_offsets == (0.0, 0.0, 0.0)
    assert norm.b == pytest.approx(1.0)


def test_normalize_generalized_log_matches_grid_extremes():
    for m, l in [(2, 0.05), (3, 0.05), (2, 0.5), (3, 0.5)]:
        rule = generalized_log_rule(l)
        table = score_table(rule, grid_array(m, 200))
        tail = l * (math.log(1.0 + l) + (m - 1) * math.log(l))
        lo = math.log(l) + tail
        hi = math.log(1.0 + l) + tail
        assert table.min() == pytest.approx(lo, abs=1e-9)
        assert table.max() == pytest.approx(hi, abs=1e-9)
        norm = normalize_to_unit_interval(rule, m)
        norm_table = score_table(norm, grid_array(m, 200))
        assert norm_table.min() == pytest.approx(0.0, abs=1e-12)
        assert norm_table.max() == pytest.approx(1.0, abs=1e-12)


def test_normalize_with_offsets_spans_unit_interval():
    rule = quadratic_rule(a=(0.3, -0.2), b=2.0)
    norm = normalize_to_unit_interval(rule, 2)
    table = score_table(norm, grid_array(2, 100))
    assert table.min() == pytest.approx(0.0, abs=1e-12)
    assert table.max() == pytest.approx(1.0, abs=1e-12)


def test_normalize_preserves_properness():
    norm = normalize_to_unit_interval(generalized_log_rule(0.05), 2)
    assert check_strict_properness(norm, Forecast((0.35, 0.65)), 60).passed


def test_normalize_rejects_unbounded_and_unsupported():
    with pytest.raises(UnboundedRule):
        normalize_to_unit_interval(logarithmic_rule(), 2)
    with pytest.raises(UnboundedRule):
        normalize_to_unit_interval(generalized_log_rule(0.0), 2)
    with pytest.raises(UnsupportedRule):
        normalize_to_unit_interval(linear_rule(), 2)
    with pytest.raises(UnsupportedRule):
        normalize_to_unit_interval(custom_binary_rule(logit_generator()), 2)


def test_rule_kind_given_as_its_name():
    rule = ScoringRule("quadratic")
    assert rule.kind is RuleKind.QUADRATIC
    assert rule == quadratic_rule()
    beliefs = [Forecast((0.2, 0.8)), Forecast((0.7, 0.3))]
    assert np.array_equal(score_table(rule, beliefs), score_table(quadratic_rule(), beliefs))
    players = [Player(b, 1.0) for b in beliefs]
    q = arbitrage_report(rule, players, Coalition((0, 1))).q
    assert q == arbitrage_report(quadratic_rule(), players, Coalition((0, 1))).q
    assert ScoringRule("generalized_logarithmic", None, 1.0, 0.1) == generalized_log_rule(0.1)
    for bogus in ("bogus", "Quadratic", None, {}):
        with pytest.raises(ValidationError, match="unknown rule kind"):
            ScoringRule(bogus)
