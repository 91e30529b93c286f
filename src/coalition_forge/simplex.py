"""Probability-vector primitives: validation, weighted means, and
lattice enumeration on the simplex.

A Forecast is an immutable point of the m-dimensional probability simplex.
Invalid input is always an error; nothing is renormalized silently, because
a silent fix here would mask genuine failures in downstream dominance checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain
from typing import Sequence

import numpy as np

from .errors import (
    LengthMismatch,
    NegativeEntry,
    NonPositiveWeight,
    SumOutOfTolerance,
    TooFewStates,
    ValidationError,
)

# Absolute tolerance on the simplex sum constraint. Downstream formulas
# tolerate this much drift without renormalization.
SUM_TOL = 1e-9

# Largest lattice grid_array or _lattice_blocks accepts. Scoring streams the
# lattice in blocks, so this bounds time, not memory: m = 6 at resolution 50
# (3.48 M points) fits; m = 7 at resolution 50 (32.5 M) does not.
MAX_GRID_POINTS = 4_000_000

# Most rows, and most entries, in one block of _lattice_blocks. Up to
# m = 8 states the row cap binds; wider lattices get fewer rows per block.
BLOCK_ROWS = 16_384
BLOCK_ENTRIES = 2**17

# Entries this far below zero are float dust around an exact 0.
_DUST = 1e-12


@dataclass(frozen=True)
class Forecast:
    """A probability vector over m >= 2 mutually exclusive outcome states.

    Entries are 64-bit floats, each >= 0, summing to 1 within SUM_TOL.
    Immutable and hashable; safe to share between threads.
    """

    probs: tuple[float, ...]

    def __post_init__(self):
        if len(self.probs) < 2:
            raise TooFewStates(f"need at least 2 states, got {len(self.probs)}")
        for p in self.probs:
            if p < 0.0:
                raise NegativeEntry(f"negative entry {p!r}")
        try:
            total = math.fsum(self.probs)
        except OverflowError:
            # Finite entries whose exact sum passes the float range.
            total = math.inf
        # Written so that a NaN entry, whose sum is NaN, fails it too.
        if not abs(total - 1.0) <= SUM_TOL:
            raise SumOutOfTolerance(total, SUM_TOL)

    @property
    def m(self) -> int:
        return len(self.probs)

    def __getitem__(self, j: int) -> float:
        return self.probs[j]

    def __len__(self) -> int:
        return len(self.probs)

    def __iter__(self):
        return iter(self.probs)

    def as_array(self) -> np.ndarray:
        return np.asarray(self.probs, dtype=np.float64)


def validate_forecast(raw: Sequence[float]) -> Forecast:
    """Validate a raw sequence as a probability vector.

    Raises NegativeEntry, SumOutOfTolerance (reporting the actual sum, and
    for a NaN entry), or TooFewStates. Entries are never renormalized.
    """
    return Forecast(tuple(float(x) for x in raw))


def weighted_mean(
    forecasts: Sequence[Forecast], weights: Sequence[float]
) -> Forecast:
    """Convex combination of forecasts with positive weights.

    The result is itself a valid Forecast (convexity closure).
    """
    if len(forecasts) != len(weights):
        raise LengthMismatch(
            f"{len(forecasts)} forecasts vs {len(weights)} weights"
        )
    if not forecasts:
        raise LengthMismatch("empty forecast sequence")
    for w in weights:
        if w <= 0.0:
            raise NonPositiveWeight(f"weight {w!r} must be > 0")
    p_arr = _stack(forecasts)
    if p_arr is None:
        raise LengthMismatch("forecasts have mixed lengths")
    w_arr = np.asarray(weights, dtype=np.float64)
    mean = (w_arr[:, None] * p_arr).sum(axis=0) / w_arr.sum()
    # Clip float dust so convex combinations of valid points stay valid.
    mean = np.clip(mean, 0.0, None)
    return Forecast(tuple(float(x) for x in mean))


def _stack(forecasts: Sequence[Forecast]) -> np.ndarray | None:
    """The forecasts as the rows of an (n, m) float64 array, or None when
    their lengths differ, for the caller to raise its own error.

    Every library call that scores or aggregates forecasts stacks them
    here: one length test, then one pass over the entries, which numpy
    reads faster from a flat iterator than from nested tuples.
    """
    probs = [f.probs for f in forecasts]
    m = len(probs[0])
    if len(set(map(len, probs))) != 1:
        return None
    flat = np.fromiter(chain.from_iterable(probs), np.float64, count=len(probs) * m)
    return flat.reshape(len(probs), m)


def grid_array(m: int, resolution: int) -> np.ndarray:
    """All lattice points with entries k_j/resolution summing to 1, as an
    (N, m) float array with N = C(resolution + m - 1, m - 1).

    Rows are the integer compositions of resolution into m parts in
    lexicographic order, divided by resolution. Lattices above
    MAX_GRID_POINTS raise ValidationError before anything is allocated.
    """
    (grid,) = _lattice_blocks(m, resolution, MAX_GRID_POINTS)
    return grid


def _block_rows(m: int, resolution: int, block_rows: int | None = None) -> int:
    """Rows of the buffers behind _lattice_blocks(m, resolution, block_rows):
    the block limit, or the whole lattice when it is smaller. Checks the
    arguments as _lattice_blocks does."""
    if m < 2:
        raise TooFewStates(f"need at least 2 states, got {m}")
    if resolution < 1:
        raise ValidationError(f"resolution must be >= 1, got {resolution}")
    n = math.comb(resolution + m - 1, m - 1)
    if n > MAX_GRID_POINTS:
        raise ValidationError(
            f"resolution {resolution} over {m} states gives {n:,} lattice "
            f"points, above the limit of {MAX_GRID_POINTS:,}"
        )
    return min(_block_limit(m, block_rows), n)


def _block_limit(m: int, block_rows: int | None) -> int:
    # Most rows in one block of _lattice_blocks.
    if block_rows is not None:
        return block_rows
    return min(BLOCK_ROWS, max(BLOCK_ENTRIES // m, m, 3))


def _lattice_blocks(m: int, resolution: int, block_rows: int | None = None):
    """grid_array(m, resolution) as consecutive row blocks of at most
    block_rows rows, in the same order. When block_rows is None the limit
    is BLOCK_ROWS rows or BLOCK_ENTRIES entries, whichever is fewer rows,
    but the entry cap alone never takes it below max(m, 3) rows.

    Each generator allocates one integer and one float buffer of
    _block_rows(m, resolution, block_rows) rows when it starts, and every
    block is built in them: a block is a view that stays valid only until
    the next block is requested. Copy a block to keep it. Generators share
    nothing, so each may run on its own thread.

    The compositions form a tree: the rows below a partial row share its
    first entries. A block is a run of sibling subtrees; a subtree larger
    than block_rows is split by its next entry, recursively. Arguments are
    checked at the call, before the first block is built.

    While the row limit is at least max(m, 3) no block is a single row:
    numpy multiplies a one-row matrix by a vector with its dot kernel,
    which can round differently from the matrix-vector kernel of longer
    blocks. Up to 7 states that kernel gives every row of a block the bits
    the whole lattice gets. From 8 states on, OpenBLAS computes the last
    len % 4 rows of each product with its remainder kernel, so a row at
    the end of a block can differ from the whole-lattice product in the
    last bits.
    """
    capacity = _block_rows(m, resolution, block_rows)
    limit = _block_limit(m, block_rows)
    # rows[k][r] = C(r + k - 1, k - 1), the full rows below a partial row
    # with r units left over k open columns (k >= 2). By the hockey-stick
    # identity each table is the running sum of the one before.
    rows = {}
    for k in range(2, m):
        rows[k] = np.arange(1, resolution + 2) if k == 2 else np.cumsum(rows[k - 1])
    dtype = np.min_scalar_type(resolution)
    index_type = np.min_scalar_type(capacity)

    def fill(
        prefix: tuple[int, ...], heads: np.ndarray, r: int, parts_buf: np.ndarray
    ) -> np.ndarray:
        # The integer parts of the rows below prefix + (h,) for h in heads,
        # r units after prefix, written to the head of parts_buf.
        remaining = r - heads
        d = len(prefix)
        k = m - d - 1
        size = len(heads) if k == 1 else int(rows[k][remaining].sum())
        parts = parts_buf[:size]
        parts[:, :d] = prefix
        if d == m - 2:
            parts[:, d] = heads
            parts[:, m - 1] = remaining
            return parts
        head = heads
        # Stars and bars, one column at a time: every partial row with
        # `remaining` units left branches into heads 0..remaining, in
        # order, which keeps the rows lexicographic.
        for col in range(d, m - 2):
            if col > d:
                branches = remaining + 1
                starts = np.cumsum(branches) - branches
                head = np.arange(int(branches.sum())) - np.repeat(starts, branches)
                remaining = np.repeat(remaining, branches) - head
            # A partial row ends in rows[open][remaining] full rows, all
            # contiguous.
            parts[:, col] = np.repeat(head.astype(dtype), rows[m - 1 - col][remaining])
        # The last two columns, one row per unit split: below a partial row
        # with r units left they run (0, r), (1, r - 1), ..., (r, 0). Both
        # are written straight into parts, from position arrays in the
        # smallest type that holds a block's row count.
        branches = remaining + 1
        starts = (np.cumsum(branches) - branches).astype(index_type)
        np.subtract(
            np.arange(size, dtype=index_type), np.repeat(starts, branches),
            out=parts[:, m - 2], casting="unsafe",
        )
        np.subtract(
            np.repeat(remaining.astype(dtype), branches), parts[:, m - 2],
            out=parts[:, m - 1],
        )
        return parts

    def split(prefix: tuple[int, ...], r: int) -> list:
        # The rows below prefix, which leaves r units over k >= 2 open
        # columns, in lattice order: blocks (prefix, r, heads) and subtrees
        # too large for one block (prefix + (h,), r - h, None).
        k = m - len(prefix)
        if k == 2:
            # One row per head: split them into equal blocks.
            pieces = -(-(r + 1) // limit)
            return [
                (prefix, r, np.arange((r + 1) * i // pieces, (r + 1) * (i + 1) // pieces))
                for i in range(pieces)
            ]
        child = rows[k - 1][r::-1]  # rows below next entry h, falling in h
        h = 0
        out = []
        while h <= r and child[h] > limit:
            out.append((prefix + (h,), r - h, None))
            h += 1
        # The rest fit a block each. Group them into runs from the last head
        # back, so that the last head, a single row, shares its block.
        back = np.cumsum(child[h:][::-1])  # rows below heads r, r - 1, ..., h
        edges, done = [r + 1], 0
        while edges[-1] > h:
            taken = int(np.searchsorted(back, done + limit, side="right"))
            edges.append(r + 1 - taken)
            done = int(back[taken - 1])
        edges.reverse()
        return out + [(prefix, r, np.arange(a, b)) for a, b in zip(edges, edges[1:])]

    def stream():
        # Integer parts first, in the smallest type that holds resolution,
        # then one contiguous division: filling the float columns one by
        # one is strided and about twice as slow.
        parts_buf = np.empty((capacity, m), dtype=dtype)
        grid_buf = np.empty((capacity, m))
        # Depth first with an explicit stack: a subtree can be split once
        # per state, more often than Python allows nested calls.
        todo = [((), resolution, None)]
        while todo:
            prefix, r, heads = todo.pop()
            if heads is None:
                todo.extend(reversed(split(prefix, r)))
                continue
            parts = fill(prefix, heads, r, parts_buf)
            # A block that fills the buffer is the buffer itself, so the one
            # block of grid_array is an array of its own, not a view.
            grid = grid_buf if len(parts) == capacity else grid_buf[:len(parts)]
            np.divide(parts, resolution, out=grid)
            yield grid

    return stream()


def _lattice_index(p: Sequence[float], resolution: int) -> int | None:
    """Position in grid_array(len(p), resolution) of the row within 1e-12
    of p in every entry, or None when no row is.

    Lattice values k/resolution are more than 2e-12 apart on any lattice
    below MAX_GRID_POINTS, so an entry matches at most one of them, the
    nearest, and at most one row matches.
    """
    parts = [round(x * resolution) for x in p]
    if sum(parts) != resolution or any(
        abs(k / resolution - x) > 1e-12 for k, x in zip(parts, p)
    ):
        return None
    # The rows before the match are those whose first entry that differs
    # from it is smaller. Below entry j with r units still open, a head
    # h < k leaves the compositions of r - h over the columns after j; the
    # hockey-stick identity sums them over h in closed form.
    index, r = 0, resolution
    for j, k in enumerate(parts[:-1]):
        after = len(parts) - j - 1
        index += math.comb(r + after, after) - math.comb(r - k + after, after)
        r -= k
    return index


def _clear_dust(q: np.ndarray) -> np.ndarray:
    """Snap entries in [-1e-12, 0) of q to 0, in place, and return q.

    Such entries are rounding error around an exact 0; anything more
    negative is left for Forecast to reject.
    """
    q[(q < 0.0) & (q >= -_DUST)] = 0.0
    return q
