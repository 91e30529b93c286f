"""Tests for probability-vector validation, norms, means, and grids.

The wager-weighted mean of beliefs is the quadratic rule's equalizing
report, so the means here are arbitrage_report's under that rule."""

from __future__ import annotations

import itertools
import math
import tracemalloc

import numpy as np
import pytest

from coalition_forge import (
    Coalition,
    DimensionMismatch,
    Forecast,
    InvalidCoalition,
    NegativeEntry,
    NonPositiveWager,
    Player,
    SumOutOfTolerance,
    TooFewStates,
    ValidationError,
    arbitrage_report,
    grid_array,
    quadratic_rule,
    validate_forecast,
)
from coalition_forge import simplex
from coalition_forge.simplex import MAX_GRID_POINTS

from conftest import random_forecast


def test_validate_accepts_interior_point():
    f = validate_forecast([0.2, 0.8])
    assert isinstance(f, Forecast)
    assert f.probs == (0.2, 0.8)
    assert f.m == 2


def test_validate_accepts_vertex():
    f = validate_forecast([1.0, 0.0, 0.0])
    assert f.probs == (1.0, 0.0, 0.0)


def test_validate_accepts_tiny_rounding_slack():
    # Off by less than the 1e-9 budget: still a valid forecast.
    f = validate_forecast([0.3, 0.7 + 4e-10])
    assert math.isclose(sum(f.probs), 1.0, abs_tol=1e-9)


def test_validate_rejects_bad_sum():
    with pytest.raises(SumOutOfTolerance) as err:
        validate_forecast([0.5, 0.6])
    assert str(err.value) == "entries sum to 1.1, outside 1 +/- 1e-09"


def test_validate_rejects_negative_entry():
    with pytest.raises(NegativeEntry):
        validate_forecast([-0.1, 1.1])


def test_validate_rejects_single_state():
    with pytest.raises(TooFewStates):
        validate_forecast([1.0])


def test_grid_array_needs_two_states():
    with pytest.raises(TooFewStates, match="^need at least 2 states, got 1$"):
        grid_array(1, 3)


@pytest.mark.parametrize(
    "probs", [(math.nan, 0.5), (math.nan, 1.0), (0.5, math.inf), (math.inf, math.nan)]
)
def test_forecast_rejects_non_finite_entries(probs):
    # NaN passes both p < 0 and |sum - 1| > tol; the sum test must fail it.
    with pytest.raises(SumOutOfTolerance):
        Forecast(probs)
    with pytest.raises(SumOutOfTolerance):
        validate_forecast(list(probs))


def test_forecast_rejects_entries_whose_sum_overflows():
    # Finite entries whose exact sum passes the float range: math.fsum
    # raises OverflowError, which must surface as a ValidationError.
    for probs in [(1e308, 1e308), (0.5, 1.7e308, 1.7e308)]:
        with pytest.raises(SumOutOfTolerance) as err:
            Forecast(probs)
        assert str(err.value) == "entries sum to inf, outside 1 +/- 1e-09"
        with pytest.raises(ValidationError):
            validate_forecast(list(probs))


def test_validate_forecast_checks_with_the_forecast_tolerance():
    # Off by 1e-8: outside the 1e-9 budget, and there is no looser one.
    with pytest.raises(SumOutOfTolerance) as err:
        validate_forecast([0.3, 0.7 + 1e-8])
    assert str(err.value).endswith(f", outside 1 +/- {simplex.SUM_TOL!r}")
    with pytest.raises(TypeError):
        validate_forecast([0.3, 0.7], tol=1e-6)


def test_forecast_sequence_protocol():
    f = Forecast((0.1, 0.9))
    assert len(f) == 2
    assert f[1] == 0.9
    assert list(f) == [0.1, 0.9]
    np.testing.assert_array_equal(f.as_array(), np.array([0.1, 0.9]))


def _mean(beliefs, wagers):
    """The wager-weighted mean of the beliefs, as the quadratic rule's
    equalizing report for a coalition holding them."""
    players = [Player(b, w) for b, w in zip(beliefs, wagers)]
    coalition = Coalition(tuple(range(len(players))))
    return arbitrage_report(quadratic_rule(), players, coalition).q


def test_weighted_mean_symmetric_pair():
    mean = _mean([Forecast((0.2, 0.8)), Forecast((0.8, 0.2))], [1.0, 1.0])
    np.testing.assert_allclose(mean.as_array(), [0.5, 0.5])


def test_weighted_mean_unequal_weights():
    mean = _mean([Forecast((0.3, 0.7)), Forecast((0.5, 0.5))], [3.0, 1.0])
    np.testing.assert_allclose(mean.as_array(), [0.35, 0.65])


def test_weighted_mean_single_forecast_is_identity():
    f = Forecast((0.25, 0.35, 0.4))
    assert _mean([f, f], [2.0, 0.5]) == f


def test_weighted_mean_refuses_empty_and_mixed_lengths():
    with pytest.raises(InvalidCoalition, match="^coalition has no members$"):
        Coalition(())
    with pytest.raises(DimensionMismatch, match="^member beliefs have mixed lengths$"):
        _mean([Forecast((0.5, 0.5)), Forecast((0.2, 0.3, 0.5))], [1.0, 1.0])


def test_weighted_mean_rejects_nonpositive_weight():
    with pytest.raises(NonPositiveWager):
        _mean([Forecast((0.5, 0.5)), Forecast((0.4, 0.6))], [1.0, 0.0])


def test_weighted_mean_stays_on_simplex():
    # Convexity: a weighted mean of forecasts is itself a valid forecast,
    # so construction must not raise for any random combination.
    rng = np.random.default_rng(202)
    for _ in range(200):
        m = int(rng.integers(2, 6))
        k = int(rng.integers(2, 5))
        forecasts = [random_forecast(rng, m) for _ in range(k)]
        weights = rng.uniform(0.1, 5.0, size=k).tolist()
        mean = _mean(forecasts, weights)
        assert math.isclose(sum(mean.probs), 1.0, abs_tol=1e-9)
        assert min(mean.probs) >= 0.0


def test_simplex_grid_binary_resolution_two():
    assert grid_array(2, 2).tolist() == [
        [0.0, 1.0],
        [0.5, 0.5],
        [1.0, 0.0],
    ]


def test_simplex_grid_resolution_one_gives_vertices():
    assert grid_array(3, 1).tolist() == [
        [0.0, 0.0, 1.0],
        [0.0, 1.0, 0.0],
        [1.0, 0.0, 0.0],
    ]


def test_simplex_grid_counts_match_compositions():
    # Lattice size is C(resolution + m - 1, m - 1).
    for m in (2, 3, 4):
        for resolution in (1, 5, 12, 20):
            expected = math.comb(resolution + m - 1, m - 1)
            assert grid_array(m, resolution).shape == (expected, m)


def test_grid_array_matches_independent_enumeration():
    # Stars and bars: m - 1 bars among resolution + m - 1 slots, the gaps
    # between them being the composition. combinations() yields the bar
    # positions in lexicographic order, which is the compositions' order.
    for m in range(2, 7):
        for resolution in (1, 2, 5, 9):
            slots = resolution + m - 1
            compositions = []
            for bars in itertools.combinations(range(slots), m - 1):
                edges = (-1,) + bars + (slots,)
                compositions.append([b - a - 1 for a, b in zip(edges, edges[1:])])
            arr = grid_array(m, resolution)
            assert arr.shape == (math.comb(slots, m - 1), m)
            expected = np.asarray(
                [[k / resolution for k in comp] for comp in compositions]
            )
            assert arr.tobytes() == expected.tobytes()


def test_grid_array_refuses_lattices_above_the_point_limit():
    # m = 6 at the default verify resolution still fits; m = 7 does not.
    assert math.comb(50 + 6 - 1, 6 - 1) <= MAX_GRID_POINTS
    with pytest.raises(ValidationError, match=r"resolution 50 .*32,468,436.*4,000,000"):
        grid_array(7, 50)
    # The limit bounds the whole lattice even where only its interior,
    # 1,344,904 of 4,496,388 rows at m = 7 and resolution 35, is streamed.
    assert math.comb(35 - 1, 7 - 1) <= MAX_GRID_POINTS
    with pytest.raises(ValidationError, match=r"4,496,388"):
        simplex._lattice_blocks(7, 35, interior=True)
    with pytest.raises(ValidationError, match=r"4,496,388"):
        simplex._block_rows(7, 35, interior=True)


def test_lattices_above_the_entry_limit_are_refused():
    # Each point has m entries, so wide m at a small resolution is bounded
    # by entries. The largest default verify lattice, 300 states at
    # resolution 2, two states at the point limit and the 1,500 vertices
    # of 1,500 states all fit.
    for m, resolution in ((6, 50), (300, 2), (2, 3_999_999), (1500, 1)):
        n = math.comb(resolution + m - 1, m - 1)
        assert n * m <= simplex.MAX_GRID_ENTRIES
        assert simplex._block_rows(m, resolution) >= 1
    # 600 states at resolution 2 is 180,300 points of 600 entries each;
    # the stream refuses it at the call, interior or not.
    message = r"resolution 2 over 600 states .*180,300 .*108,180,000 entries.*32,000,000"
    with pytest.raises(ValidationError, match=message):
        simplex._block_rows(600, 2)
    with pytest.raises(ValidationError, match=message):
        simplex._lattice_blocks(600, 2, interior=True)
    with pytest.raises(ValidationError, match=r"500,500,000 entries"):
        grid_array(1000, 2)


def test_grid_array_rejects_resolution_below_one():
    with pytest.raises(ValidationError, match="resolution"):
        grid_array(3, 0)


def test_lattice_blocks_concatenate_to_grid_array():
    for m in range(2, 7):
        for resolution in (1, 2, 5, 9, 20):
            whole = grid_array(m, resolution)
            joined = np.concatenate([b.copy() for _, b in simplex._lattice_blocks(m, resolution)])
            assert joined.dtype == whole.dtype
            assert joined.tobytes() == whole.tobytes()


@pytest.mark.parametrize("limit", [1, 7, 50])
def test_lattice_blocks_cut_rows_below_one_first_entry(monkeypatch, limit):
    # At these limits most first entries lead to more rows than one block
    # holds, so blocks start and end two to four entries deep.
    monkeypatch.setattr(simplex, "BLOCK_ROWS", limit)
    for m in range(2, 7):
        for resolution in (1, 5, 9):
            blocks = [b.copy() for _, b in simplex._lattice_blocks(m, resolution)]
            assert [len(b) for b in blocks[:-1]] == [limit] * (len(blocks) - 1)
            assert 1 <= len(blocks[-1]) <= limit
            joined = np.concatenate(blocks)
            assert joined.tobytes() == grid_array(m, resolution).tobytes()


@pytest.mark.parametrize("limit", [7, 50, None])
def test_lattice_interior_blocks_are_the_rows_without_zeros(monkeypatch, limit):
    # The interior streams the lattice rows with every entry > 0, in
    # lattice order and with their bits; below m units there are none.
    if limit is not None:
        monkeypatch.setattr(simplex, "BLOCK_ROWS", limit)
    for m in range(2, 9):
        for resolution in range(m - 1, m + 7):
            grid = grid_array(m, resolution)
            inside = grid[(grid > 0.0).all(axis=1)]
            blocks = [b.copy() for _, b in simplex._lattice_blocks(m, resolution, interior=True)]
            assert len(inside) == _interior_rows(m, resolution)
            most = _block_limit(m, None)
            assert simplex._block_rows(m, resolution, interior=True) == min(most, len(inside))
            if not blocks:
                assert len(inside) == 0
                continue
            assert [len(b) for b in blocks] == _plain_sizes(len(inside), most), (m, resolution)
            assert np.concatenate(blocks).tobytes() == inside.tobytes()


def test_lattice_blocks_cap_entries_at_wide_m():
    # Up to 8 states the row cap binds and the blocks are the BLOCK_ROWS
    # blocks; wider lattices get fewer rows, never fewer than m.
    for m, resolution in ((6, 30), (8, 12)):
        capped = [len(b) for _, b in simplex._lattice_blocks(m, resolution)]
        rows = [len(b) for _, b in simplex._lattice_blocks(m, resolution, simplex.BLOCK_ROWS)]
        assert capped == rows and len(rows) > 1
    for m, resolution in ((9, 10), (40, 3), (120, 2)):
        limit = max(simplex.BLOCK_ENTRIES // m, m, 3)
        assert limit < simplex.BLOCK_ROWS
        blocks = [b.copy() for _, b in simplex._lattice_blocks(m, resolution)]
        assert max(len(b) for b in blocks) <= limit
        assert min(len(b) for b in blocks) >= 2
        assert np.concatenate(blocks).tobytes() == grid_array(m, resolution).tobytes()


def _interior_rows(m, resolution):
    # Lattice rows with no zero entry: the compositions of resolution - m
    # into m parts.
    return math.comb(resolution - 1, m - 1)


def _block_limit(m, limit):
    # Most rows in one block: the limit given, or the default entry and row
    # caps read from the module as it stands.
    if limit is not None:
        return limit
    return min(simplex.BLOCK_ROWS, max(simplex.BLOCK_ENTRIES // m, m, 3))


def _plain_sizes(total, limit):
    # Blocks of limit rows each and the rest last.
    return [limit] * (total // limit) + ([total % limit] if total % limit else [])


@pytest.mark.parametrize("limit", [4, 5, 7, 8, 50, None])
def test_lattice_blocks_are_plain_row_ranges(limit):
    # Blocks are fixed row ranges of the limit each, the rest last, with no
    # alignment: a lone last row stays a block of its own.
    shapes = [(2, 12), (3, 9), (4, 7), (5, 6), (6, 5), (9, 3), (12, 2)]
    if limit is None:
        shapes += [(3, 400), (6, 30), (9, 10), (12, 6), (40, 3), (120, 2)]
    for m, resolution in shapes:
        most = _block_limit(m, limit)
        for interior in (False, True):
            blocks = simplex._lattice_blocks(m, resolution, limit, interior)
            sizes = [len(b) for _, b in blocks]
            total = _interior_rows(m, resolution) if interior else len(grid_array(m, resolution))
            assert sizes == _plain_sizes(total, most), (m, resolution, interior, sizes)
    if limit is None:
        # 7,260 rows over 120 states at 1,092 rows a block: seven blocks.
        assert sum(1 for _ in simplex._lattice_blocks(120, 2)) == 7
    elif limit == 5:
        # C(12, 2) = 66 rows over 3 states: thirteen blocks and a lone row.
        assert [len(b) for _, b in simplex._lattice_blocks(3, 10, limit)][-2:] == [5, 1]


def test_lattice_blocks_generators_keep_buffers_of_their_own():
    # A generator builds every block in the same buffers, so a block and
    # its parts are views that the next block overwrites; two generators
    # over one lattice, advanced in turn with the first a block ahead,
    # still each give the lattice, because neither writes into the other's
    # buffers.
    for m, resolution, limit in ((3, 40, 50), (5, 12, 7), (6, 30, None)):
        first = simplex._lattice_blocks(m, resolution, limit)
        second = simplex._lattice_blocks(m, resolution, limit)
        parts, previous = next(first)
        first_blocks, second_blocks = [previous.copy()], []
        for next_parts, block in first:
            other_parts, other = next(second)
            assert np.shares_memory(block, previous)
            assert np.shares_memory(next_parts, parts)
            assert not np.shares_memory(block, other)
            assert not np.shares_memory(next_parts, other_parts)
            first_blocks.append(block.copy())
            second_blocks.append(other.copy())
            parts, previous = next_parts, block
        second_blocks.extend(b.copy() for _, b in second)
        whole = grid_array(m, resolution).tobytes()
        assert len(first_blocks) > 2
        assert np.concatenate(first_blocks).tobytes() == whole
        assert np.concatenate(second_blocks).tobytes() == whole


@pytest.mark.parametrize("m,resolution", [(2, 9), (3, 7), (4, 6), (5, 8), (6, 3), (9, 2)])
def test_lattice_index_is_the_row_position(m, resolution):
    grid = grid_array(m, resolution)
    rng = np.random.default_rng(m * 100 + resolution)
    # Interior positions count only the rows with no zero entry.
    inside = np.cumsum((grid > 0.0).all(axis=1)) - 1
    for i, row in enumerate(grid.tolist()):
        assert simplex._lattice_index(row, resolution) == i
        expected = int(inside[i]) if min(row) > 0.0 else None
        assert simplex._lattice_index(row, resolution, interior=True) == expected
        # Within 1e-12 of a lattice value in every entry is the same row.
        nudged = [x + float(rng.uniform(-9e-13, 9e-13)) if x > 0.0 else x for x in row]
        assert simplex._lattice_index(nudged, resolution) == i
    assert simplex._lattice_index([0.5 + 2e-12, 0.5 - 2e-12] + [0.0] * (m - 2), resolution) is None
    off = [1.0 / (resolution + 1)] * (resolution + 1)
    assert simplex._lattice_index((off + [0.0] * m)[:m], resolution) is None


def _check_streamed_parts(m, resolution, limit, interior):
    # The integer parts of every block give its float rows bit for bit,
    # and over the whole stream they are the lattice rows in strictly
    # rising lexicographic order, each at the position _lattice_index
    # gives it. Every block is column-major, and the blocks are the rows of
    # grid_array, the interior's rows alone with interior set.
    pairs = []
    for p, g in simplex._lattice_blocks(m, resolution, limit, interior):
        assert p.strides[0] == p.itemsize and g.strides[0] == g.itemsize
        pairs.append((p.copy(), g.copy()))
    whole = grid_array(m, resolution)
    if interior:
        whole = whole[whole.min(axis=1) > 0.0]
    streamed = b"".join(g.tobytes() for _, g in pairs)  # in row-major order
    assert streamed == whole.tobytes(), (m, resolution, limit, interior)
    for parts, grid in pairs:
        assert (parts / resolution).tobytes() == grid.tobytes(), (m, resolution, limit, interior)
    total = _interior_rows(m, resolution) if interior else math.comb(resolution + m - 1, m - 1)
    if not pairs:
        assert total == 0 and interior
        return
    parts = np.concatenate([p for p, _ in pairs]).astype(np.int64)
    assert len(parts) == total
    assert (parts.sum(axis=1) == resolution).all()
    assert parts.min() >= (1 if interior else 0)
    step = np.diff(parts, axis=0)
    first = np.argmax(step != 0, axis=1)
    assert (step[np.arange(len(step)), first] > 0).all(), (m, resolution, limit, interior)
    for index, row in enumerate((parts / resolution).tolist()):
        assert simplex._lattice_index(row, resolution, interior) == index


@pytest.mark.parametrize("m", range(2, 11))
def test_lattice_blocks_stream_integer_parts(m):
    for resolution in range(1, {2: 40, 3: 25, 4: 14, 5: 10}.get(m, 7)):
        for limit in (1, 7, 50, None):
            for interior in (False, True):
                _check_streamed_parts(m, resolution, limit, interior)


def test_lattice_blocks_stream_integer_parts_at_wide_m(monkeypatch):
    # Under a small entry cap wide lattices stream blocks of m to a few
    # hundred rows.
    monkeypatch.setattr(simplex, "BLOCK_ENTRIES", 2**11)
    for m, resolution, interior in ((9, 10, False), (9, 12, True), (12, 13, True), (40, 3, False), (120, 2, False)):
        assert _block_limit(m, None) < simplex.BLOCK_ROWS
        _check_streamed_parts(m, resolution, None, interior)


def test_lattice_blocks_allocate_little_beyond_their_buffers():
    # A pass keeps one integer and one float buffer of the block's size;
    # the last two columns of each block are written straight into the
    # integer one. Building them as int64 arrays of the block's length,
    # about 3.5 at a time, took 440 KB above the buffers at m=5,
    # resolution 50, beyond a quarter of them. The wide lattices keep up
    # to about one partial row for every two rows of a block, four and
    # more columns deep.
    for m, resolution in [(5, 50), (6, 30), (3, 400), (9, 10), (12, 6), (40, 3), (120, 2)]:
        capacity = simplex._block_rows(m, resolution)
        buffers = capacity * m * (8 + np.min_scalar_type(resolution).itemsize)
        tracemalloc.start()
        try:
            blocks = sum(1 for _ in simplex._lattice_blocks(m, resolution))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert blocks > 1
        assert peak - buffers <= buffers // 4, (m, resolution, peak - buffers)


def test_clear_dust_snaps_only_rounding_error():
    q = simplex._clear_dust(np.array([0.5, -1e-12, -3e-17, 0.5, -2e-12, -0.0]))
    assert q.tolist() == [0.5, 0.0, 0.0, 0.5, -2e-12, -0.0]


def test_grid_points_are_valid_forecasts():
    for row in grid_array(4, 9):
        validate_forecast(row.tolist())
