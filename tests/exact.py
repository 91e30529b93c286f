"""Exact judges for the lattice searches, in integers and
fractions.Fraction only.

Nothing here imports the package: the judge shares no code, and no
float, with what it judges. Floats handed in (beliefs, wagers) are taken
at their exact binary values.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterator, Sequence

# The unit roundoff of a 64-bit float.
UNIT_ROUNDOFF = Fraction(1, 2**53)


def compositions(total: int, parts: int) -> Iterator[tuple[int, ...]]:
    """The compositions of total into parts nonnegative integers, in
    lexicographic order: the rows of the report lattice at resolution
    total over parts states, times total."""
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for tail in compositions(total - head, parts - 1):
            yield (head, *tail)


def quadratic_unit_scores(report: Sequence[Fraction]) -> list[Fraction]:
    """The quadratic unit rule's score 2 r_j - |r|^2 of the report at
    every outcome j."""
    norm = sum(x * x for x in report)
    return [2 * x - norm for x in report]


def worst_surpluses(
    resolution: int, beliefs: Sequence[Sequence[float]], wagers: Sequence[float]
) -> list[Fraction]:
    """The coalition's worst-outcome surplus of playing each lattice row r
    (compositions(resolution, m) / resolution, in that order) under the
    quadratic unit rule: the least over outcomes j of
    W * S_j(r) - sum_i w_i * S_j(p_i), W the members' total wager."""
    total = sum(map(Fraction, wagers))
    scores = [quadratic_unit_scores([Fraction(x) for x in p]) for p in beliefs]
    truthful = [sum(Fraction(w) * s for w, s in zip(wagers, col)) for col in zip(*scores)]
    return [
        min(total * s - t for s, t in zip(quadratic_unit_scores([Fraction(k, resolution) for k in row]), truthful))
        for row in compositions(resolution, len(truthful))
    ]


def search_rounding_bound(m: int, wagers: Sequence[float]) -> Fraction:
    """A bound on how far a float evaluation of one row's worst-outcome
    surplus (worst_surpluses' formula over m states, the report's entries
    k / resolution rounded) may fall from the exact value.

    Expanded, each outcome's surplus is a signed sum of products:
    W * 2r_j, W * r_k^2, w_i * 2p_ij and w_i * p_ik^2. Every entry lies in
    [0, 1] and sums to 1 with the others, so their absolute values sum to
    at most 3W + 3W. No product passes through more than K = m + n + 3
    roundings (the entry's division, its square, the m - 1 adds of a norm,
    one subtraction, n - 1 adds of the total wager, the product by it and
    the final subtraction; the members' side has fewer), and such a sum is
    then within gamma_K = K u / (1 - K u) of its terms' absolute sum
    (Higham, Accuracy and Stability of Numerical Algorithms, section 3.1).
    K is doubled here for margin. A minimum over outcomes is exact, so it
    moves by no more than its entries do.
    """
    k = 2 * (m + len(wagers) + 3)
    gamma = k * UNIT_ROUNDOFF / (1 - k * UNIT_ROUNDOFF)
    return gamma * 6 * sum(map(Fraction, wagers))
