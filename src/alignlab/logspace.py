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
    """Elementwise log(1 - exp(-u)) for u > 0, accurate at both ends:
    log(-expm1(-u)) below log 2 and log1p(-exp(-u)) above it.

    Both forms are evaluated over the whole array and the second is copied
    over the first where it applies, so no element is gathered through a mask;
    each element gets the bits of its own form.
    """
    u = np.asarray(u, dtype=np.float64)
    if np.any(u <= 0.0):
        raise ValueError("log1mexp requires u > 0")
    out = np.negative(u)
    np.expm1(out, out=out)
    np.negative(out, out=out)
    np.log(out, out=out)
    large = np.negative(u)
    np.exp(large, out=large)
    np.negative(large, out=large)
    # log1p(-1) = -inf where exp(-u) rounds to 1; those u are below log 2
    with np.errstate(divide="ignore"):
        np.log1p(large, out=large)
    np.copyto(out, large, where=u >= _LN2)
    return out


def log_power_diff(
    n_eff: np.ndarray, cum_lt: np.ndarray, cum_le: np.ndarray, level_log_prob: np.ndarray
) -> np.ndarray:
    """log(S_le**N - S_lt**N) per N and reward level: one row per N.

    ``n_eff`` is a column of N values, shape (n, 1); the level arrays are 1-D
    and the result has shape (n, levels).  The difference is taken as
    N log S_le + log(1 - exp(-N d)), with d = log S_le - log S_lt.
    ``cum_le`` is the stored log S_le: pinned to 0 at the top and formed from
    the small tail above it near the top, so N log S_le has no cancellation
    even where N d is huge.  The gap d = log(1 + exp(r)), with r the level's
    own log mass over S_lt, is derived from that mass rather than from
    ``cum_le - cum_lt``, which keeps deep-tail levels (d below the float
    resolution of the cumulative) exact to first order; it does not depend
    on N, so it is formed once for all rows.  ``cum_lt`` is -inf at the
    bottom level, where d is infinite.  Where N d rounds to 0 the first-order
    form N S_lt^(N-1) * mass is used, evaluated only at those cells.
    """
    cum_lt, cum_le, lvl = np.broadcast_arrays(
        np.asarray(cum_lt, dtype=np.float64),
        np.asarray(cum_le, dtype=np.float64),
        np.asarray(level_log_prob, dtype=np.float64),
    )
    n_eff = np.asarray(n_eff, dtype=np.float64)
    # r and so u are +inf at the bottom level, where log1mexp adds exactly 0
    r = lvl - cum_lt
    # a log mass below -DBL_MAX is a mass of exactly 0, so -inf is the right value
    with np.errstate(over="ignore"):
        out = n_eff * cum_le
        u = n_eff * np.logaddexp(0.0, r)
    tiny = u == 0.0
    # u = +inf adds exactly -0.0, so the tiny cells take no log1mexp term
    # before they are overwritten below
    np.copyto(u, math.inf, where=tiny)
    out += log1mexp(u)
    if tiny.any():
        # level mass below float resolution: S_le^N - S_lt^N ~ N * S_lt^(N-1) * mass
        rows, cols = np.nonzero(tiny)
        log_n = np.array([math.log(n) for n in n_eff[:, 0]])
        with np.errstate(over="ignore"):
            out[rows, cols] = n_eff[rows, 0] * cum_lt[cols] + log_n[rows] + r[cols]
    return out


def cumulative_log_probs(level_log_probs: np.ndarray) -> np.ndarray:
    """log S_le per level (ascending order), with the top pinned to exactly 0.

    Uses the backward tail form log1p(-exp(tail)) where the tail is small
    (near the top, where N amplifies any cumulative error) and the forward
    running sum where the tail saturates toward 1.  The top level's tail is
    empty (-inf), so the backward form gives it exactly 0.  The tails and
    the result share one buffer: the tails only grow downward (each
    logaddexp step is at least its larger input), so the levels with a tail
    of at least 1/2 are a prefix, and the forward sum runs over that prefix
    alone.
    """
    lps = np.asarray(level_log_probs, dtype=np.float64)
    # c[i] = log of the mass strictly above level i, summed from the top down
    c = np.empty_like(lps)
    np.logaddexp.accumulate(lps[:0:-1], out=c[-2::-1])
    c[-1:] = -math.inf
    saturated = int(np.count_nonzero(c >= -_LN2))
    if saturated:
        np.logaddexp.accumulate(lps[:saturated], out=c[:saturated])
    near_top = c[saturated:]
    np.exp(near_top, out=near_top)
    np.negative(near_top, out=near_top)
    np.log1p(near_top, out=near_top)
    return c
