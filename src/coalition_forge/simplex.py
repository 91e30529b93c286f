"""Probability-vector primitives: validation and lattice enumeration on
the simplex.

A Forecast is an immutable point of the m-dimensional probability simplex.
Invalid input is always an error; nothing is renormalized silently, because
a silent fix here would mask genuine failures in downstream dominance checks.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from itertools import chain
from typing import Sequence

import numpy as np

from .errors import (
    NegativeEntry,
    SumOutOfTolerance,
    TooFewStates,
    ValidationError,
)

# Absolute tolerance on the simplex sum constraint. Downstream formulas
# tolerate this much drift without renormalization.
SUM_TOL = 1e-9

# Largest lattice grid_array or _lattice_blocks accepts. Scoring streams the
# lattice in blocks, so this bounds time, not memory: m = 6 at resolution 50
# (3.48 M points) fits; m = 7 at resolution 50 (32.5 M) does not. It also
# caps a scenario's event.m.
MAX_GRID_POINTS = 4_000_000

# Most entries (points times m) in a lattice grid_array or _lattice_blocks
# accepts: each point has m entries, so the point limit alone lets wide m
# run for minutes. m = 6 at resolution 50 (20.9 M entries) and m = 300 at
# resolution 2 (13.5 M) fit; m = 600 at resolution 2 (108 M) does not.
MAX_GRID_ENTRIES = 8 * MAX_GRID_POINTS

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


def uniform_prior(m: int) -> Forecast:
    return Forecast(tuple(1.0 / m for _ in range(m)))


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
    lexicographic order, divided by resolution. The array is column-major,
    as every lattice block is; its values, and its tobytes(), are those of
    the row-major array. Lattices above
    MAX_GRID_POINTS or MAX_GRID_ENTRIES raise ValidationError before
    anything is allocated.
    """
    ((_, grid),) = _lattice_blocks(m, resolution, MAX_GRID_POINTS)
    return grid


def _block_rows(
    m: int, resolution: int, block_rows: int | None = None, interior: bool = False
) -> int:
    """Rows of the buffers behind _lattice_blocks(m, resolution, block_rows,
    interior): the block limit, or the rows streamed when they are fewer.
    Checks the arguments as _lattice_blocks does; MAX_GRID_POINTS and
    MAX_GRID_ENTRIES bound the whole lattice, interior or not."""
    if m < 2:
        raise TooFewStates(f"need at least 2 states, got {m}")
    if resolution < 1:
        raise ValidationError(f"resolution must be >= 1, got {resolution}")
    n = math.comb(resolution + m - 1, m - 1)
    if n > MAX_GRID_POINTS or n * m > MAX_GRID_ENTRIES:
        raise ValidationError(
            f"resolution {resolution} over {m} states gives {n:,} lattice "
            f"points * {m} = {n * m:,} entries, above the limit of "
            f"{MAX_GRID_POINTS:,} points or {MAX_GRID_ENTRIES:,} entries"
        )
    if interior:
        n = _interior_rows(m, resolution)
    return min(_block_limit(m, block_rows), n)


def _interior_rows(m: int, resolution: int) -> int:
    """Rows of grid_array(m, resolution) with no zero entry: the
    compositions of resolution - m into m parts, C(resolution - 1, m - 1)."""
    return math.comb(resolution - 1, m - 1)


def _block_limit(m: int, block_rows: int | None) -> int:
    # Most rows in one block of _lattice_blocks.
    if block_rows is not None:
        return block_rows
    return min(BLOCK_ROWS, max(BLOCK_ENTRIES // m, m, 3))


def _lattice_blocks(m: int, resolution: int, block_rows: int | None = None, interior: bool = False):
    """grid_array(m, resolution) as consecutive row blocks of at most
    block_rows rows, in the same order, each yielded as a pair (parts,
    grid): parts the rows' integer entries and grid the float rows,
    parts / resolution, exactly. When block_rows is None the limit
    is BLOCK_ROWS rows or BLOCK_ENTRIES entries, whichever is fewer rows,
    but the entry cap alone never takes it below max(m, 3) rows.

    With interior set only the rows with every entry at least 1/resolution
    are streamed, in the same order and with the same bits: they are the
    compositions of resolution - m with 1 added to every part before the
    division. Below m units the interior is empty and nothing is streamed;
    at m units it is the one row (1/m, ..., 1/m). The scans of the
    unfloored logarithmic rules stream only the interior, since every
    other row scores -inf, and count the rows left out instead of scoring
    them.

    Each generator allocates one integer and one float buffer of
    _block_rows(m, resolution, block_rows, interior) rows when it starts,
    both column-major, so every block has contiguous columns.
    Every block is built in the buffers: parts and grid are views that stay
    valid only until the next block is requested. Copy a row to keep it,
    as the lattice scans keep their best row's parts. A consumer may
    overwrite grid, as the lattice scans do when they score it in place:
    the next block is rebuilt from its integer parts, whose every entry is
    written again, so nothing a consumer leaves in the float buffer
    reaches it.
    Generators share nothing, so each may run on its own thread.
    m and resolution are checked at the call, before the first block is
    built.

    Block i is the rows [i * limit, (i + 1) * limit) of the stream and
    the last block the rest. A row's values do not depend on the block it
    falls in, and both lattice scans work row by row, so their reports do
    not depend on the limit.
    """
    capacity = _block_rows(m, resolution, block_rows, interior)
    limit = _block_limit(m, block_rows)
    # Units spread over the columns; an interior row has one more in each.
    units = resolution - m if interior else resolution
    if units < 0:
        return iter(())
    n = math.comb(units + m - 1, m - 1)
    edges = [*range(0, n, limit), n]
    # rows[k][r] = C(r + k - 1, k - 1), the full rows below a partial row
    # with r units left over k open columns (k >= 2). By the hockey-stick
    # identity each table is the running sum of the one before, so the
    # rows of heads 0..h - 1 below such a partial row number
    # rows[k][r] - rows[k][r - h]. Two states need no table.
    rows = {2: np.arange(1, units + 2)} if m > 2 else {}
    for k in range(3, m + 1):
        rows[k] = np.cumsum(rows[k - 1])
    # The same tables as lists, for the scalar lookups of each block:
    # bisect finds a value in a list several times faster than numpy.
    row_lists = {k: rows[k].tolist() for k in range(3, m + 1)}
    dtype = np.min_scalar_type(resolution)

    def branch(left):
        # The heads below partial rows with `left` units left, and the
        # units each head leaves: every partial row with r units left
        # branches into heads 0..r (rows[2][r] = r + 1 of them), in order,
        # which keeps the rows lexicographic.
        branches = rows[2][left]
        heads = _positions(branches, np.int32)
        return heads, np.repeat(left, branches) - heads

    def locate(k, r, x):
        # The head of row x below a partial row with r units left over k
        # open columns, and x's row below that head.
        t = row_lists[k]
        f = bisect_left(t, t[r] - x)
        return r - f, x - t[r] + t[f]

    # The root's branches, heads 0..units, are the same for every block;
    # two states need none.
    root_heads = np.arange(units + 1 if m > 2 else 0, dtype=np.int32)
    top = root_heads, units - root_heads

    def fill(a, b, parts):
        # Rows [a, b) of the lattice, column by column from the root. Kept
        # are the partial rows whose rows reach into the range, `left`
        # units left in each, rows a and b - 1 being row lo of the first
        # and row hi of the last. Each head is repeated by its rows inside.
        left, lo, hi, inside = np.array([units]), a, b - 1, np.array([b - a])
        for col in range(m - 2):
            k, r0, r1 = m - col, int(left[0]), int(left[-1])
            heads, left = top if col == 0 else branch(left)
            first, lo = locate(k, r0, lo)
            last, hi = locate(k, r1, hi)
            # The first partial row's branches lead, the last's close.
            keep = slice(first, len(heads) - r1 + last)
            heads, left = heads[keep], left[keep]
            inside = rows[k - 1][left]
            inside[-1] = hi + 1
            inside[0] -= lo
            parts[:, col] = np.repeat(heads.astype(dtype), inside)
        # The last two columns, one row per unit split: below a partial row
        # with r units left they run (0, r), (1, r - 1), ..., (r, 0), the
        # first partial row's from its row lo. Both are written straight
        # into parts; under one partial row, as in every two-state block,
        # the first is one run from lo.
        if len(inside) == 1:
            parts[:, m - 2] = np.arange(lo, lo + len(parts), dtype=dtype)
        else:
            _positions(inside, np.min_scalar_type(capacity), out=parts[:, m - 2])
            parts[:inside[0], m - 2] += lo
        np.subtract(np.repeat(left.astype(dtype), inside), parts[:, m - 2], out=parts[:, m - 1])
        return parts

    def stream():
        # Integer parts first, in the smallest type that holds resolution,
        # then one division: filling the float columns one by one is
        # slower.
        parts_buf = np.empty((capacity, m), dtype=dtype, order="F")
        grid_buf = np.empty((capacity, m), order="F")
        for a, b in zip(edges, edges[1:]):
            parts = fill(a, b, parts_buf[:b - a])
            if interior:
                parts += 1
            # A block that fills the buffer is the buffer itself, so the one
            # block of grid_array is an array of its own, not a view.
            grid = grid_buf if b - a == capacity else grid_buf[:b - a]
            np.divide(parts, resolution, out=grid)
            yield parts, grid

    return stream()


def _positions(sizes: np.ndarray, dtype, out: np.ndarray | None = None) -> np.ndarray:
    """Each item's place in its group, for consecutive groups of the given
    sizes, as dtype or written to out."""
    starts = np.cumsum(sizes)
    total = int(starts[-1])
    starts -= sizes
    return np.subtract(
        np.arange(total, dtype=dtype), np.repeat(starts.astype(dtype), sizes),
        out=out, casting="unsafe",
    )


def _lattice_index(
    p: Sequence[float], resolution: int, interior: bool = False
) -> int | None:
    """Position in grid_array(len(p), resolution) of the row within 1e-12
    of p in every entry, or None when no row is. With interior set, the
    position among the rows _lattice_blocks streams with interior set, or
    None when the matching row has a zero entry.

    Lattice values k/resolution are more than 2e-12 apart on any lattice
    below MAX_GRID_POINTS, so an entry matches at most one of them, the
    nearest, and at most one row matches.
    """
    parts = [round(x * resolution) for x in p]
    if sum(parts) != resolution or any(
        abs(k / resolution - x) > 1e-12 for k, x in zip(parts, p)
    ):
        return None
    r = resolution
    if interior:
        # An interior row is a composition of resolution - m, plus 1.
        if min(parts) < 1:
            return None
        parts = [k - 1 for k in parts]
        r -= len(parts)
    # The rows before the match are those whose first entry that differs
    # from it is smaller. Below entry j with r units still open, a head
    # h < k leaves the compositions of r - h over the columns after j; the
    # hockey-stick identity sums them over h in closed form.
    index = 0
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
