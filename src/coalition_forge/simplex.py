"""Probability-vector primitives: validation, weighted means, and
lattice enumeration on the simplex.

A Forecast is an immutable point of the m-dimensional probability simplex.
Invalid input is always an error; nothing is renormalized silently, because
a silent fix here would mask genuine failures in downstream dominance checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
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

# Largest lattice grid_array builds: 4 M points of m floats each. m = 6 at
# resolution 50 (3.48 M points) fits; m = 7 at resolution 50 (32.5 M) does not.
MAX_GRID_POINTS = 4_000_000


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
        total = math.fsum(self.probs)
        if abs(total - 1.0) > SUM_TOL:
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


def validate_forecast(raw: Sequence[float], tol: float = SUM_TOL) -> Forecast:
    """Validate a raw sequence as a probability vector.

    Raises NegativeEntry, SumOutOfTolerance (reporting the actual sum), or
    TooFewStates. Entries are never renormalized.
    """
    vals = tuple(float(x) for x in raw)
    if len(vals) < 2:
        raise TooFewStates(f"need at least 2 states, got {len(vals)}")
    for p in vals:
        if p < 0.0:
            raise NegativeEntry(f"negative entry {p!r}")
    total = math.fsum(vals)
    if abs(total - 1.0) > tol:
        raise SumOutOfTolerance(total, tol)
    return Forecast(vals)


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
    m = forecasts[0].m
    for f in forecasts:
        if f.m != m:
            raise LengthMismatch("forecasts have mixed lengths")
    w_arr = np.asarray(weights, dtype=np.float64)
    p_arr = np.asarray([f.probs for f in forecasts], dtype=np.float64)
    mean = (w_arr[:, None] * p_arr).sum(axis=0) / w_arr.sum()
    # Clip float dust so convex combinations of valid points stay valid.
    mean = np.clip(mean, 0.0, None)
    return Forecast(tuple(float(x) for x in mean))


def simplex_grid(m: int, resolution: int) -> list[Forecast]:
    """All lattice forecasts with entries k_j/resolution summing to 1.

    Count equals C(resolution + m - 1, m - 1). Order is deterministic
    (lexicographic in the integer compositions), the same as grid_array.
    """
    return [Forecast(tuple(map(float, row))) for row in grid_array(m, resolution)]


def grid_array(m: int, resolution: int) -> np.ndarray:
    """All lattice points with entries k_j/resolution summing to 1, as an
    (N, m) float array with N = C(resolution + m - 1, m - 1).

    Rows are the integer compositions of resolution into m parts in
    lexicographic order, divided by resolution. Lattices above
    MAX_GRID_POINTS raise ValidationError before anything is allocated.
    """
    if m < 2:
        raise TooFewStates(f"need at least 2 states, got {m}")
    if resolution < 1:
        raise ValueError(f"resolution must be >= 1, got {resolution}")
    n = math.comb(resolution + m - 1, m - 1)
    if n > MAX_GRID_POINTS:
        raise ValidationError(
            f"resolution {resolution} over {m} states gives {n:,} lattice "
            f"points, above the limit of {MAX_GRID_POINTS:,}"
        )
    # Integer parts first, in the smallest type that holds resolution, then
    # one contiguous division: filling the float columns of an (N, m) array
    # one by one is strided and about twice as slow.
    parts = np.empty((n, m), dtype=np.min_scalar_type(resolution))
    # Stars and bars, one column at a time: every partial row (the heads
    # chosen so far) with `remaining` units left branches into heads
    # 0..remaining, in order, which keeps the rows lexicographic.
    remaining = np.array([resolution])
    for col in range(m - 1):
        branches = remaining + 1
        starts = np.cumsum(branches) - branches
        head = np.arange(int(branches.sum())) - np.repeat(starts, branches)
        remaining = np.repeat(remaining, branches) - head
        # A partial row with r units left over the k = m - 1 - col columns
        # still open ends in C(r + k - 1, k - 1) full rows, all contiguous.
        open_cols = m - 1 - col
        if open_cols > 1:
            tails = np.array(
                [math.comb(r + open_cols - 1, open_cols - 1) for r in range(resolution + 1)]
            )
            head = np.repeat(head, tails[remaining])
        parts[:, col] = head
    parts[:, m - 1] = remaining
    return parts / resolution
