"""Numerically stable log-domain arithmetic helpers.

All probability mass in this package is carried as natural-log values; sums
use max-subtracted log-sum-exp and differences of powers use expm1 forms so
that quantities like S^N with N ~ 1e9 neither underflow nor cancel.
"""

from __future__ import annotations

import math

import numpy as np

_LN2 = math.log(2.0)


def logsumexp(values: np.ndarray) -> float:
    """log(sum(exp(values))) with max subtraction; -inf for an empty array."""
    arr = np.asarray(values, dtype=np.float64)
    if arr.size == 0:
        return -math.inf
    hi = float(np.max(arr))
    if not math.isfinite(hi):
        return hi
    return hi + math.log(float(np.sum(np.exp(arr - hi))))


def log1mexp(u: np.ndarray) -> np.ndarray:
    """Elementwise log(1 - exp(-u)) for u > 0, accurate at both ends."""
    u = np.asarray(u, dtype=np.float64)
    if np.any(u <= 0.0):
        raise ValueError("log1mexp requires u > 0")
    out = np.empty_like(u)
    small = u < _LN2
    out[small] = np.log(-np.expm1(-u[small]))
    out[~small] = np.log1p(-np.exp(-u[~small]))
    return out


def log_power_diff(
    n_eff: float, cum_lt: np.ndarray, cum_le: np.ndarray, level_log_prob: np.ndarray
) -> np.ndarray:
    """log(S_le**N - S_lt**N) per reward level, elementwise.

    The difference is taken as N log S_le + log(1 - exp(-N d)), with
    d = log S_le - log S_lt.  ``cum_le`` is the stored log S_le: pinned to 0 at
    the top and formed from the small tail above it near the top, so N log S_le
    has no cancellation even where N d is huge.  The gap d is derived from the
    level's own log mass rather than from ``cum_le - cum_lt``, which keeps
    deep-tail levels (d below the float resolution of the cumulative) exact to
    first order.  ``cum_lt`` is -inf at the bottom level, where d is infinite.
    """
    cum_lt, cum_le, lvl = np.broadcast_arrays(
        np.asarray(cum_lt, dtype=np.float64),
        np.asarray(cum_le, dtype=np.float64),
        np.asarray(level_log_prob, dtype=np.float64),
    )
    inner = cum_lt != -math.inf
    r = lvl[inner] - cum_lt[inner]
    # a log mass below -DBL_MAX is a mass of exactly 0, so -inf is the right value
    with np.errstate(over="ignore"):
        out = n_eff * cum_le
        u = n_eff * np.logaddexp(0.0, r)
        tiny = u == 0.0
        # level mass below float resolution: S_le^N - S_lt^N ~ N * S_lt^(N-1) * mass
        deep = n_eff * cum_lt[inner][tiny] + math.log(n_eff) + r[tiny]
    res = out[inner]
    res[~tiny] += log1mexp(u[~tiny])
    res[tiny] = deep
    out[inner] = res
    return out


def cumulative_log_probs(level_log_probs: np.ndarray) -> np.ndarray:
    """log S_le per level (ascending order), with the top pinned to exactly 0.

    Uses the backward tail form log1p(-exp(tail)) where the tail is small
    (near the top, where N amplifies any cumulative error) and the forward
    running sum where the tail saturates toward 1.  The top level's tail is
    empty (-inf), so the backward form gives it exactly 0.
    """
    lps = np.asarray(level_log_probs, dtype=np.float64)
    # tails[i] = log of the mass strictly above level i, summed from the top down
    tails = np.empty_like(lps)
    tails[:-1] = np.logaddexp.accumulate(lps[:0:-1])[::-1]
    tails[-1:] = -math.inf
    c_le = np.logaddexp.accumulate(lps)
    near_top = tails < -_LN2
    c_le[near_top] = np.log1p(-np.exp(tails[near_top]))
    return c_le
