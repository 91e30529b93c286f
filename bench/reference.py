"""Reference computations for the benchmark's output checks.

Everything here is written from the definitions of the scoring rules and
mechanisms, in plain numpy, and imports nothing from coalition_forge, so a
fault in the package cannot hide behind the same fault in its check.

Conventions: a rule is a dict with "kind" (quadratic, logarithmic,
generalized_logarithmic, spherical, linear), "b" (scale), "a" (per-state
offsets or None) and "l" (floor of the generalized logarithmic rule).
Outcome states are 0-based; beliefs are rows of an (n, m) array.
"""

from __future__ import annotations

import math

import numpy as np

# Beta(2, 2) moments of one belief coordinate x: variance and fourth
# central moment (excess kurtosis -6/7, so mu4 = sigma^4 * (3 - 6/7)).
BETA22_VAR = 2.0 * 2.0 / ((2.0 + 2.0) ** 2 * (2.0 + 2.0 + 1.0))
BETA22_MU4 = BETA22_VAR**2 * (3.0 - 6.0 / 7.0)


def rule_dict(kind: str, b: float = 1.0, a=None, l: float = 0.0) -> dict:
    return {"kind": kind, "b": float(b), "a": None if a is None else list(a), "l": float(l)}


def scores(rule: dict, reports) -> np.ndarray:
    """Score table: entry (i, j) is the score of report row i at state j."""
    R = np.atleast_2d(np.asarray(reports, dtype=np.float64))
    m = R.shape[1]
    b = rule["b"]
    a = np.zeros(m) if rule.get("a") is None else np.asarray(rule["a"], dtype=np.float64)
    kind = rule["kind"]
    if kind == "quadratic":
        # 2 r_j - sum_k r_k^2
        raw = 2.0 * R - np.einsum("ik,ik->i", R, R)[:, None]
    elif kind == "logarithmic" or (kind == "generalized_logarithmic" and rule["l"] == 0.0):
        with np.errstate(divide="ignore"):
            raw = np.log(R)
    elif kind == "generalized_logarithmic":
        l = rule["l"]
        logs = np.log(R + l)
        raw = logs + l * logs.sum(axis=1)[:, None]
    elif kind == "spherical":
        raw = R / np.linalg.norm(R, axis=1)[:, None]
    elif kind == "linear":
        raw = R.copy()
    else:
        raise ValueError(f"no reference score for rule kind {kind!r}")
    return a[None, :] + b * raw


def expected_scores(rule: dict, reports, belief) -> np.ndarray:
    """Expected score of each report row under the belief; states the
    belief rules out contribute nothing."""
    p = np.asarray(belief, dtype=np.float64)
    live = p > 0.0
    return scores(rule, reports)[:, live] @ p[live]


def quadratic_equalizer(P, w) -> np.ndarray:
    """Wager-weighted arithmetic mean of the member beliefs."""
    P = np.asarray(P, dtype=np.float64)
    w = np.asarray(w, dtype=np.float64)
    return (w[:, None] * P).sum(axis=0) / w.sum()


def logarithmic_equalizer(P, w) -> np.ndarray:
    """Wager-weighted geometric mean of the member beliefs, renormalized."""
    P = np.asarray(P, dtype=np.float64)
    v = np.asarray(w, dtype=np.float64) / np.sum(w)
    log_g = v @ np.log(P)
    g = np.exp(log_g - log_g.max())
    return g / g.sum()


def coalition_surplus(rule: dict, P, w, q) -> np.ndarray:
    """Per-state gain of the members when all report q instead of their
    beliefs, each paid wager times score."""
    w = np.asarray(w, dtype=np.float64)
    gain = scores(rule, q)[0][None, :] - scores(rule, P)
    return w @ gain


def traditional_payments(rule: dict, reports, wagers) -> np.ndarray:
    return np.asarray(wagers, dtype=np.float64)[:, None] * scores(rule, reports)


def competitive_payments(rule: dict, reports, wagers) -> np.ndarray:
    """Wagered score minus the wager share of the pool's wagered total."""
    w = np.asarray(wagers, dtype=np.float64)
    wagered = w[:, None] * scores(rule, reports)
    return wagered - (w / w.sum())[:, None] * wagered.sum(axis=0)[None, :]


def market_payments(rule: dict, reports, prior) -> np.ndarray:
    """Each report is paid its score minus its predecessor's score."""
    chain = scores(rule, np.vstack([np.asarray(prior)[None, :], np.asarray(reports)]))
    return chain[1:] - chain[:-1]


def beta22_sweep_row(c: int, n: int, trials: int, competitive: bool) -> tuple[float, float]:
    """Expected per-trial coalition surplus and the standard error of a
    mean of `trials` trials, for the quadratic rule, equal wagers and
    Beta(2, 2) binary beliefs.

    With members x_1..x_c the equalizer is their mean and the surplus is
    2 * sum (x_i - xbar)^2 = 2 (c - 1) s^2 in every state, so its mean is
    2 (c - 1) Var(x) = 0.1 (c - 1) and its variance is 4 (c - 1)^2 Var(s^2)
    with Var(s^2) = (mu4 - sigma^4 (c - 3) / (c - 1)) / c. The
    self-financed pool pays the coalition (1 - c/n) of that per trial.
    """
    scale = (1.0 - c / n) if competitive else 1.0
    mean = 2.0 * (c - 1) * BETA22_VAR
    var_s2 = (BETA22_MU4 - BETA22_VAR**2 * (c - 3) / (c - 1)) / c
    sd = 2.0 * (c - 1) * math.sqrt(var_s2)
    return scale * mean, scale * sd / math.sqrt(trials)


def on_simplex(q, tol: float = 1e-9) -> bool:
    q = np.asarray(q, dtype=np.float64)
    return bool(q.ndim == 1 and (q >= 0.0).all() and abs(math.fsum(q) - 1.0) <= tol)


def close(a, b, rtol: float = 1e-9, atol: float = 1e-12) -> bool:
    """Elementwise |a - b| <= rtol * max(|a|, |b|) + atol."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        return False
    return bool(np.all(np.abs(a - b) <= rtol * np.maximum(np.abs(a), np.abs(b)) + atol))
