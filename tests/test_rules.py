"""Tests for scoring rule evaluation, generator-built binary rules,
properness checking, and unit-interval normalization."""

from __future__ import annotations

import dataclasses
import math
import threading
import tracemalloc

import numpy as np
import pytest

from coalition_forge import (
    Coalition,
    ConvexGenerator,
    DimensionMismatch,
    Forecast,
    GeneratorMismatch,
    LogOfZero,
    NonMonotoneGenerator,
    OutOfDomain,
    PropernessReport,
    RuleKind,
    ScoringRule,
    UnboundedRule,
    UnsupportedRule,
    ValidationError,
    binary_quadratic_generator,
    check_strict_properness,
    custom_binary_rule,
    expected_score,
    generalized_log_rule,
    grid_array,
    grid_search_equalizer,
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

from conftest import random_forecast, random_players


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


def test_savage_scores_for_square_generator():
    gen = ConvexGenerator(g=lambda r: r * r, g_prime=lambda r: 2.0 * r)
    gen.spot_check()
    assert savage_binary_score(gen, 0.5, 0) == pytest.approx(0.75)
    assert savage_binary_score(gen, 0.5, 1) == pytest.approx(-0.25)
    with pytest.raises(OutOfDomain):
        savage_binary_score(gen, 0.0, 0)
    with pytest.raises(OutOfDomain):
        savage_binary_score(gen, 1.0, 1)
    with pytest.raises(DimensionMismatch):
        savage_binary_score(gen, 0.5, 2)


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


def test_expected_score_at_truth_equals_generator_value():
    # For a generator-built binary rule, truthful expected score is G(p).
    for gen in (logit_generator(), binary_quadratic_generator()):
        rule = custom_binary_rule(gen)
        for k in range(1, 20):
            p = k / 20.0
            f = Forecast((p, 1.0 - p))
            assert expected_score(rule, f, f) == pytest.approx(gen.g(p), abs=1e-12)


def test_expected_score_examples():
    rule = quadratic_rule()
    half = Forecast((0.5, 0.5))
    assert expected_score(rule, half, half) == pytest.approx(0.5)
    belief = Forecast((0.7, 0.3))
    # Truth strictly beats an uninformative report under a proper rule.
    assert expected_score(rule, belief, belief) > expected_score(rule, half, belief)
    with pytest.raises(DimensionMismatch):
        expected_score(rule, half, Forecast((0.2, 0.3, 0.5)))


def test_spot_check_rejects_concave_generator():
    concave = ConvexGenerator(g=lambda r: -r * r, g_prime=lambda r: -2.0 * r)
    with pytest.raises(NonMonotoneGenerator):
        concave.spot_check()


def test_spot_check_rejects_wrong_derivative():
    off = ConvexGenerator(g=lambda r: r * r, g_prime=lambda r: 2.0 * r + 0.1)
    with pytest.raises(GeneratorMismatch):
        off.spot_check()


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
        expected_score(log, edge, Forecast((0.5, 0.5)))
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


def _score_columns_by_entry(rule, reports, outcomes):
    """rules._score_columns as first written, testing the table entry by
    entry: the reference for which error comes first and its text."""
    m = reports[0].m
    if any(r.m != m for r in reports):
        raise DimensionMismatch("reports have mixed lengths")
    for j in outcomes:
        if not (0 <= j < m):
            raise DimensionMismatch(f"outcome index {j} out of range for m={m}")
    table = score_table(rule, np.asarray([r.probs for r in reports], dtype=np.float64))
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
    # loop's, and every table is score_table's bit for bit.
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
        full = score_table(rule, np.asarray([r.probs for r in reports]))
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


def test_score_table_uses_neg_inf_for_log_of_zero():
    table = score_table(logarithmic_rule(), np.array([[0.0, 1.0]]))
    assert table[0, 0] == -np.inf
    assert table[0, 1] == pytest.approx(0.0)


def test_score_into_writes_every_entry_of_a_dirty_buffer():
    # The in-place kernel never reads what its output held: written into
    # NaN-filled rows of a larger buffer, as the lattice scans use it, each
    # table is score_table's bit for bit and the rows past it stay NaN.
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
        for rule in kinds:
            expected = score_table(rule, R)
            buf = np.full((len(R) + 7, m), np.nan)
            rules._score_into(rule, R, buf[: len(R)])
            assert buf[: len(R)].tobytes() == expected.tobytes(), rule.kind
            assert np.isnan(buf[len(R):]).all()
        assert np.isneginf(score_table(logarithmic_rule(a), R)).any()


def test_row_sums_match_numpy_sum_bit_for_bit():
    # Column by column in numpy's order for short rows, numpy's own sum
    # for long ones: the bytes agree, signed zeros, infinities and NaN
    # included, or every table that sums rows would drift.
    rng = np.random.default_rng(919)
    specials = np.array([0.0, -0.0, 1.0, -1.0, np.inf, -np.inf, np.nan, 1e-300, 1e300])
    for m in range(2, 13):
        X = rng.standard_normal((2000, m)) * 10.0 ** rng.integers(-20, 20, (2000, m))
        special = rng.random(X.shape) < 0.2
        X[special] = rng.choice(specials, int(special.sum()))
        with np.errstate(invalid="ignore"):
            for rows in (X, X[:37]):
                expected = rows.sum(axis=1, keepdims=True)
                assert rules._row_sums(rows).tobytes() == expected.tobytes(), m


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
    """check_strict_properness over the whole lattice at once: one score
    table, one matmul and the first maximum; None where the truthful
    expected score is not finite."""
    p = belief.as_array()
    zero_cols = p == 0.0
    grid = grid_array(belief.m, resolution)
    table = score_table(rule, grid)
    table[:, zero_cols] = 0.0
    with np.errstate(invalid="ignore"):
        expectations = table @ p
    truth = score_table(rule, p[None, :])
    truth[:, zero_cols] = 0.0
    truth_value = float(truth[0] @ p)
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
        bool(margins[best] < 0.0), float(margins[best]), nearest, len(rows), skipped
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


@pytest.mark.parametrize("block_entries", [2**11, None])
def test_properness_equals_unblocked_oracle_at_wide_m(monkeypatch, block_entries):
    # Above 8 states the entry cap sets the block rows; at 2**11 entries
    # and 70 states it falls below m and the max(m, 3) floor takes over.
    if block_entries is not None:
        monkeypatch.setattr(simplex, "BLOCK_ENTRIES", block_entries)
    rng = np.random.default_rng(707)
    for m, resolution in ((10, 8), (12, 6), (20, 4), (30, 3), (70, 2)):
        assert math.comb(resolution + m - 1, m - 1) > simplex.BLOCK_ENTRIES // m
        for _ in range(3):
            rule = _random_rule(rng, m)
            belief = _random_belief(rng, m, resolution)
            expected = _unblocked_properness(rule, belief, resolution)
            assert expected is not None
            report = check_strict_properness(rule, belief, resolution)
            # From 8 states on, OpenBLAS computes the last len % 4 rows of a
            # matrix-vector product with its remainder kernel, so a row at
            # the end of a block can differ from the whole-lattice product
            # in the last bits; every other field is exact.
            assert report.max_margin == pytest.approx(expected.max_margin, rel=1e-14)
            assert dataclasses.replace(report, max_margin=expected.max_margin) == expected


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


@pytest.mark.parametrize("tile_entries", [12, 100, None])
def test_tables_do_not_depend_on_the_offset_tile(monkeypatch, tile_entries):
    # Offsets go onto a table through a tile of whole rows, chunk by chunk;
    # every tile size gives the bits of numpy's row broadcast, -inf
    # entries included, in the scans and the grid search too.
    rng = np.random.default_rng(919)
    grid = grid_array(3, 100)
    cases = [(_random_rule(rng, 3), random_forecast(rng, 3)) for _ in range(12)]
    cases.append((quadratic_rule((0.0, 0.0, 0.0)), Forecast((0.0, 0.5, 0.5))))
    players = random_players(rng, 3, 3)
    coalition = Coalition((0, 1, 2))
    expected = []
    for rule, belief in cases:
        table = np.empty(grid.shape)
        rules._score_into(rule, grid, table, rule.offsets_for(3)[None, :])
        search = None
        if rule.kind in (RuleKind.QUADRATIC, RuleKind.SPHERICAL, RuleKind.LINEAR):
            search = grid_search_equalizer(rule, players, coalition, 60)
        expected.append((table.tobytes(), _unblocked_properness(rule, belief, 100), search))
    if tile_entries is not None:
        monkeypatch.setattr(rules, "_TILE_ENTRIES", tile_entries)
    for (rule, belief), (table, report, search) in zip(cases, expected):
        assert score_table(rule, grid).tobytes() == table
        if report is not None:
            assert check_strict_properness(rule, belief, 100) == report
        if search is not None:
            assert grid_search_equalizer(rule, players, coalition, 60) == search


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
