"""Tests for probability-vector validation, norms, means, and grids."""

from __future__ import annotations

import itertools
import math
import tracemalloc

import numpy as np
import pytest

from coalition_forge import (
    Forecast,
    LengthMismatch,
    NegativeEntry,
    NonPositiveWeight,
    SumOutOfTolerance,
    TooFewStates,
    ValidationError,
    grid_array,
    validate_forecast,
    weighted_mean,
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
    assert err.value.actual_sum == pytest.approx(1.1)


def test_validate_rejects_negative_entry():
    with pytest.raises(NegativeEntry):
        validate_forecast([-0.1, 1.1])


def test_validate_rejects_single_state():
    with pytest.raises(TooFewStates):
        validate_forecast([1.0])


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
        assert err.value.actual_sum == math.inf
        with pytest.raises(ValidationError):
            validate_forecast(list(probs))


def test_validate_forecast_checks_with_the_forecast_tolerance():
    # Off by 1e-8: outside the 1e-9 budget, and there is no looser one.
    with pytest.raises(SumOutOfTolerance) as err:
        validate_forecast([0.3, 0.7 + 1e-8])
    assert err.value.tol == simplex.SUM_TOL
    with pytest.raises(TypeError):
        validate_forecast([0.3, 0.7], tol=1e-6)


def test_forecast_sequence_protocol():
    f = Forecast((0.1, 0.9))
    assert len(f) == 2
    assert f[1] == 0.9
    assert list(f) == [0.1, 0.9]
    np.testing.assert_array_equal(f.as_array(), np.array([0.1, 0.9]))


def test_weighted_mean_symmetric_pair():
    mean = weighted_mean(
        [Forecast((0.2, 0.8)), Forecast((0.8, 0.2))], [1.0, 1.0]
    )
    np.testing.assert_allclose(mean.as_array(), [0.5, 0.5])


def test_weighted_mean_unequal_weights():
    mean = weighted_mean(
        [Forecast((0.3, 0.7)), Forecast((0.5, 0.5))], [3.0, 1.0]
    )
    np.testing.assert_allclose(mean.as_array(), [0.35, 0.65])


def test_weighted_mean_single_forecast_is_identity():
    f = Forecast((0.25, 0.35, 0.4))
    np.testing.assert_allclose(weighted_mean([f], [2.0]).as_array(), f.as_array())


def test_weighted_mean_length_mismatch():
    with pytest.raises(LengthMismatch):
        weighted_mean([Forecast((0.5, 0.5))], [1.0, 1.0])


def test_weighted_mean_rejects_nonpositive_weight():
    with pytest.raises(NonPositiveWeight):
        weighted_mean(
            [Forecast((0.5, 0.5)), Forecast((0.4, 0.6))], [1.0, 0.0]
        )


def test_weighted_mean_stays_on_simplex():
    # Convexity: a weighted mean of forecasts is itself a valid forecast,
    # so construction must not raise for any random combination.
    rng = np.random.default_rng(202)
    for _ in range(200):
        m = int(rng.integers(2, 6))
        k = int(rng.integers(1, 5))
        forecasts = [random_forecast(rng, m) for _ in range(k)]
        weights = rng.uniform(0.1, 5.0, size=k).tolist()
        mean = weighted_mean(forecasts, weights)
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


def test_grid_array_rejects_resolution_below_one():
    with pytest.raises(ValidationError, match="resolution"):
        grid_array(3, 0)


def test_lattice_blocks_concatenate_to_grid_array():
    for m in range(2, 7):
        for resolution in (1, 2, 5, 9, 20):
            whole = grid_array(m, resolution)
            joined = np.concatenate([b.copy() for b in simplex._lattice_blocks(m, resolution)])
            assert joined.dtype == whole.dtype
            assert joined.tobytes() == whole.tobytes()


@pytest.mark.parametrize("limit", [1, 7, 50])
def test_lattice_blocks_split_subtrees_larger_than_a_block(monkeypatch, limit):
    # At these limits most first entries lead to more rows than one block
    # holds, so blocks come from splits two to four entries deep.
    monkeypatch.setattr(simplex, "BLOCK_ROWS", limit)
    for m in range(2, 7):
        for resolution in (1, 5, 9):
            blocks = [b.copy() for b in simplex._lattice_blocks(m, resolution)]
            assert max(len(b) for b in blocks) <= limit
            if limit >= m:
                assert min(len(b) for b in blocks) >= 2
            joined = np.concatenate(blocks)
            assert joined.tobytes() == grid_array(m, resolution).tobytes()


def test_lattice_blocks_cap_entries_at_wide_m():
    # Up to 8 states the row cap binds and the blocks are the BLOCK_ROWS
    # blocks; wider lattices get fewer rows, never fewer than m.
    for m, resolution in ((6, 30), (8, 12)):
        capped = [len(b) for b in simplex._lattice_blocks(m, resolution)]
        rows = [len(b) for b in simplex._lattice_blocks(m, resolution, simplex.BLOCK_ROWS)]
        assert capped == rows and len(rows) > 1
    for m, resolution in ((9, 10), (40, 3), (120, 2)):
        limit = max(simplex.BLOCK_ENTRIES // m, m, 3)
        assert limit < simplex.BLOCK_ROWS
        blocks = [b.copy() for b in simplex._lattice_blocks(m, resolution)]
        assert max(len(b) for b in blocks) <= limit
        assert min(len(b) for b in blocks) >= 2
        assert np.concatenate(blocks).tobytes() == grid_array(m, resolution).tobytes()


def test_lattice_blocks_generators_keep_buffers_of_their_own():
    # A generator builds every block in the same buffers, so a block is a
    # view that the next one overwrites; two generators over one lattice,
    # advanced in turn with the first a block ahead, still each give the
    # lattice, because neither writes into the other's buffers.
    for m, resolution, limit in ((3, 40, 50), (5, 12, 7), (6, 30, None)):
        first = simplex._lattice_blocks(m, resolution, limit)
        second = simplex._lattice_blocks(m, resolution, limit)
        previous = next(first)
        first_blocks, second_blocks = [previous.copy()], []
        for block in first:
            other = next(second)
            assert np.shares_memory(block, previous)
            assert not np.shares_memory(block, other)
            first_blocks.append(block.copy())
            second_blocks.append(other.copy())
            previous = block
        second_blocks.extend(b.copy() for b in second)
        whole = grid_array(m, resolution).tobytes()
        assert len(first_blocks) > 2
        assert np.concatenate(first_blocks).tobytes() == whole
        assert np.concatenate(second_blocks).tobytes() == whole


@pytest.mark.parametrize("m,resolution", [(2, 9), (3, 7), (4, 6), (6, 3), (9, 2)])
def test_lattice_index_is_the_row_position(m, resolution):
    grid = grid_array(m, resolution)
    rng = np.random.default_rng(m * 100 + resolution)
    for i, row in enumerate(grid.tolist()):
        assert simplex._lattice_index(row, resolution) == i
        # Within 1e-12 of a lattice value in every entry is the same row.
        nudged = [x + float(rng.uniform(-9e-13, 9e-13)) if x > 0.0 else x for x in row]
        assert simplex._lattice_index(nudged, resolution) == i
    assert simplex._lattice_index([0.5 + 2e-12, 0.5 - 2e-12] + [0.0] * (m - 2), resolution) is None
    off = [1.0 / (resolution + 1)] * (resolution + 1)
    assert simplex._lattice_index((off + [0.0] * m)[:m], resolution) is None


def test_lattice_blocks_allocate_little_beyond_their_buffers():
    # A pass keeps one integer and one float buffer of the block's size;
    # the last two columns of each block are written straight into the
    # integer one. Building them as int64 arrays of the block's length,
    # about 3.5 at a time, took 440 KB above the buffers at m=5,
    # resolution 50, beyond a quarter of them.
    for m, resolution in [(5, 50), (6, 30), (3, 400)]:
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
