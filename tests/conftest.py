from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import settings

from alignlab import (
    CategoricalDistribution,
    TiltSolution,
    from_log_weights,
    group_reward_levels,
    make_distribution,
    mismatched_tilt,
    sequence_space_log_probs,
)
from alignlab.bestofn import REWARD_TIE_TOL, _check_n
from alignlab.deviations import LEGENDRE_BRACKET_TOL, LEGENDRE_GRID
from alignlab.distributions import (
    LEVEL_BLOCK,
    log_class_sizes,
    normalized_log_weights,
    type_counts_matrix,
)
from alignlab.errors import LengthMismatch, TargetOutOfRange
from alignlab.logspace import log_power_diff
from alignlab.metrics import _check_same_alphabet
from alignlab.tilting import reward_target_range

# Property tests draw the same examples on every run, so a tier-1 result
# does not depend on the run; no example database is written.
settings.register_profile("alignlab", derandomize=True, database=None, deadline=None)
settings.load_profile("alignlab")

TERNARY_P = (0.2, 0.3, 0.5)
TERNARY_Q = (2.0 / 3.0, 1.0 / 9.0, 2.0 / 9.0)


@pytest.fixture
def demo_p():
    return make_distribution(TERNARY_P)


@pytest.fixture
def demo_q():
    return make_distribution(TERNARY_Q)


def interior_dirichlet(rng: np.random.Generator, K: int, floor: float = 1e-9) -> np.ndarray:
    """Flat Dirichlet draw with all coordinates above the floor."""
    while True:
        draw = rng.dirichlet(np.ones(K))
        if draw.min() >= floor:
            return draw


def random_pair(rng: np.random.Generator, K: int):
    p = make_distribution(interior_dirichlet(rng, K))
    q = make_distribution(interior_dirichlet(rng, K))
    return p, q


def class_arrays(p, q, m: int):
    """The type classes of length-m sequences as ``bon_type_law`` forms them:
    their counts, log masses under p^m, and rewards sum_k counts_k log q_k."""
    counts = type_counts_matrix(m, p.K)
    return counts, log_class_sizes(counts) + counts @ p.log_probs, counts @ q.log_probs


def one_member_levels(rewards: np.ndarray):
    """The classes of one-member reward levels in level order, and which
    levels they are: ``(classes, levels)`` from the grouping of ``rewards``."""
    order, sizes, _, _ = group_reward_levels(np.zeros(rewards.size), rewards)
    single = sizes == 1
    return order[(np.cumsum(sizes) - sizes)[single]], np.flatnonzero(single)


def per_sequence_probs(law, p, q, m: int) -> np.ndarray:
    """pi(y) of each of the K^m sequences (big-endian base-K order), rebuilt
    from a level law as p^m(y) exp(log_masses[L] - ref_log_masses[L]), with
    the level L of y found by grouping the K^m sequence rewards; the level
    counts must agree."""
    seq_lp = sequence_space_log_probs(p, m)
    order, sizes, _, _ = group_reward_levels(seq_lp, sequence_space_log_probs(q, m))
    assert sizes.size == law.log_masses.size
    level = np.empty(order.size, dtype=np.int64)
    level[order] = np.repeat(np.arange(sizes.size), sizes)
    return np.exp(seq_lp + (law.log_masses - law.ref_log_masses)[level])


def loop_symbols(dist, shape, rng: np.random.Generator) -> np.ndarray:
    """Inverse-CDF symbol draws the way the per-trial samplers made them."""
    cdf = np.cumsum(dist.probs())
    cdf[-1] = 1.0
    return np.searchsorted(cdf, rng.random(shape), side="right")


def loop_bon_sample(p, q, m: int, n: int, rng: np.random.Generator) -> np.ndarray:
    """One best-of-n draw the way the per-trial sampler drew it."""
    symbols = loop_symbols(p, (n, m), rng)
    rewards = q.log_probs[symbols].sum(axis=1)
    winners = np.nonzero(rewards >= rewards.max() - REWARD_TIE_TOL)[0]
    u = rng.random()
    return symbols[winners[min(int(u * winners.size), winners.size - 1)]]


def symbols_from_uniforms(dist, u: np.ndarray) -> np.ndarray:
    """Symbols of ``dist`` for uniforms in [0, 1) of any shape, by inverse CDF.

    The symbol of u is the number of CDF steps at or below it.  Uniforms
    outside [0, 1), and NaN, raise ValueError.
    """
    u = np.asarray(u, dtype=np.float64)
    if u.size and not (u.min() >= 0.0 and u.max() < 1.0):
        raise ValueError("uniforms must lie in [0, 1)")
    cdf = np.cumsum(dist.probs())
    cdf[-1] = 1.0  # guard the last bin against rounding
    return np.searchsorted(cdf, u, side="right")


def bon_winners(p, q, m: int, N: int, u: np.ndarray) -> np.ndarray:
    """Best-of-N winners of a batch of trials, one row of uniforms per trial:
    the Monte Carlo reference for the exact best-of-N laws.

    Row i of ``u`` (shape (T, N*m + 1)) is trial i's stream: N*m uniforms for
    the N length-m candidates drawn from p, one candidate after another, then
    one tie-break variate.  Candidates whose q log likelihood is within
    ``REWARD_TIE_TOL`` of the row's best tie, and the variate picks one of
    them uniformly.  Returns the (T, m) winning symbols; one seeded draw is
    ``bon_winners(p, q, m, N, default_rng(seed).random((1, N*m + 1)))[0]``.
    """
    _check_same_alphabet(p, q)
    _check_n(N)
    u = np.asarray(u, dtype=np.float64)
    if u.ndim != 2 or u.shape[1] != N * m + 1:
        raise LengthMismatch(f"uniforms of shape {u.shape}, expected (T, {N * m + 1})")
    T = u.shape[0]
    symbols = symbols_from_uniforms(p, u[:, :-1]).reshape(T, N, m)
    rewards = q.log_probs[symbols].sum(axis=2)
    winners = rewards >= rewards.max(axis=1, keepdims=True) - REWARD_TIE_TOL
    n_win = winners.sum(axis=1)
    rank = np.minimum((u[:, -1] * n_win).astype(np.int64), n_win - 1)
    pick = np.argmax(np.cumsum(winners, axis=1) > rank[:, None], axis=1)
    return symbols[np.arange(T), pick]


def tilt_compose_check(q, p, alpha: float, beta: float) -> float:
    """L-inf distance between T(q, T(q,p,alpha), beta) and T(q,p,alpha+beta).

    The two are identical by the composition identity; the returned distance
    is a numerical diagnostic expected to stay below 1e-12.
    """
    composed = mismatched_tilt(q, mismatched_tilt(q, p, alpha), beta)
    direct = mismatched_tilt(q, p, alpha + beta)
    return float(np.max(np.abs(np.exp(composed.log_probs) - np.exp(direct.log_probs))))


def bisect_monotone(f, lo: float, hi: float, increasing: bool) -> float:
    """Root of a monotone f bracketed by [lo, hi], the way the tilt solvers
    bisected before they took Newton steps: stop at |f| <= 1e-12, or after
    200 halvings."""
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        r = f(mid)
        if abs(r) <= 1e-12:
            return mid
        if (r < 0.0) == increasing:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def bisection_alpha_for_kl(q, p, delta: float) -> float:
    """alpha with D(T(q,p,alpha) || p) = delta by bracket doubling and bisection."""
    from alignlab import kl_divergence, mismatched_tilt

    def residual(alpha: float) -> float:
        return kl_divergence(mismatched_tilt(q, p, alpha), p) - delta

    lo, hi = 0.0, 1.0
    while residual(hi) < 0.0:
        lo, hi = hi, 2.0 * hi
    return bisect_monotone(residual, lo, hi, increasing=True)


def bisection_beta_for_reward(q, p, t: float) -> float:
    """beta with H(T(q,p,beta) || q) = t by bracket doubling and bisection."""
    from alignlab import cross_entropy, mismatched_tilt

    def residual(beta: float) -> float:
        return cross_entropy(mismatched_tilt(q, p, beta), q) - t

    lo, hi = -1.0, 1.0
    while residual(hi) > 0.0:
        lo, hi = hi, 2.0 * abs(hi)
    while residual(lo) < 0.0:
        hi, lo = lo, -2.0 * abs(lo)
    return bisect_monotone(residual, lo, hi, increasing=False)


def _kl_linear_one(v: np.ndarray, ref_probs: np.ndarray) -> float:
    mask = v > 0.0
    return float(np.sum(v[mask] * (np.log(v[mask]) - np.log(ref_probs[mask]))))


def loop_radial_contour_point(p_probs: np.ndarray, d: np.ndarray, delta: float, tol: float):
    """One ray's KL contour crossing, bisected alone the way the ternary
    figure traced its rays one at a time."""
    negative = d < 0.0
    r_max = float(np.min(p_probs[negative] / -d[negative]))
    hi = r_max * (1.0 - 1e-12)
    if _kl_linear_one(p_probs + hi * d, p_probs) < delta:
        return p_probs + hi * d, True
    lo = 0.0
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if _kl_linear_one(p_probs + mid * d, p_probs) < delta:
            lo = mid
        else:
            hi = mid
    return p_probs + 0.5 * (lo + hi) * d, False


# The best-of-N level kernel and the type helpers as they were before the
# level passes were blocked and the buffers shared: whole-array expressions
# with boolean-mask gathers.  The blocked kernel must match them bit for bit.

_REF_LN2 = math.log(2.0)


def ref_log1mexp(u: np.ndarray) -> np.ndarray:
    u = np.asarray(u, dtype=np.float64)
    if np.any(u <= 0.0):
        raise ValueError("log1mexp requires u > 0")
    out = np.empty_like(u)
    small = u < _REF_LN2
    out[small] = np.log(-np.expm1(-u[small]))
    out[~small] = np.log1p(-np.exp(-u[~small]))
    return out


def ref_log_power_diff(n_eff, cum_lt, cum_le, level_log_prob) -> np.ndarray:
    cum_lt, cum_le, lvl = np.broadcast_arrays(
        np.asarray(cum_lt, dtype=np.float64),
        np.asarray(cum_le, dtype=np.float64),
        np.asarray(level_log_prob, dtype=np.float64),
    )
    n_eff = np.asarray(n_eff, dtype=np.float64)
    r = lvl - cum_lt
    with np.errstate(over="ignore"):
        out = n_eff * cum_le
        u = n_eff * np.logaddexp(0.0, r)
    tiny = u == 0.0
    far = ~tiny
    out[far] += ref_log1mexp(u[far])
    if tiny.any():
        rows, cols = np.nonzero(tiny)
        log_n = np.array([math.log(n) for n in n_eff[:, 0]])
        with np.errstate(over="ignore"):
            out[rows, cols] = n_eff[rows, 0] * cum_lt[cols] + log_n[rows] + r[cols]
    return out


def ref_cumulative_log_probs(level_log_probs: np.ndarray) -> np.ndarray:
    lps = np.asarray(level_log_probs, dtype=np.float64)
    tails = np.empty_like(lps)
    tails[:-1] = np.logaddexp.accumulate(lps[:0:-1])[::-1]
    tails[-1:] = -math.inf
    c_le = np.logaddexp.accumulate(lps)
    near_top = tails < -_REF_LN2
    c_le[near_top] = np.log1p(-np.exp(tails[near_top]))
    return c_le


def ref_group_reward_levels(log_probs: np.ndarray, rewards: np.ndarray):
    """Levels with the absolute tie tolerance ``REWARD_TIE_TOL`` alone."""
    lp = np.asarray(log_probs, dtype=np.float64)
    rw = np.asarray(rewards, dtype=np.float64)
    order = np.argsort(rw, kind="stable")
    starts = np.concatenate(([0], np.flatnonzero(np.diff(rw[order]) > REWARD_TIE_TOL) + 1))
    sizes = np.diff(starts, append=lp.size)
    sorted_lp = lp[order]
    hi = np.maximum.reduceat(sorted_lp, starts)
    level_lps = hi + np.log(np.add.reduceat(np.exp(sorted_lp - np.repeat(hi, sizes)), starts))
    cums = np.concatenate(([-math.inf], ref_cumulative_log_probs(level_lps)))
    return order, sizes, level_lps, cums


def ref_winner_log_probs(log_probs: np.ndarray, rewards: np.ndarray, ns) -> np.ndarray:
    n_eff = np.asarray(ns, dtype=np.float64).reshape(-1, 1)
    order, sizes, level_lps, cums = ref_group_reward_levels(log_probs, rewards)
    picks = ref_log_power_diff(n_eff, cums[:-1], cums[1:], level_lps)
    base = log_probs[order] - np.repeat(level_lps, sizes)
    out = np.empty((n_eff.size, order.size))
    out[:, order] = base + np.repeat(picks, sizes, axis=1)
    return out


def ref_type_counts_matrix(m: int, K: int) -> np.ndarray:
    rows = np.zeros((1, 0), dtype=np.int64)
    left = np.array([m], dtype=np.int64)
    for _ in range(K - 1):
        reps = left + 1
        first = np.cumsum(reps) - reps
        part = np.arange(int(reps.sum()), dtype=np.int64) - np.repeat(first, reps)
        rows = np.column_stack([np.repeat(rows, reps, axis=0), part])
        left = np.repeat(left, reps) - part
    return np.column_stack([rows, left])


def ref_log_class_sizes(counts_matrix: np.ndarray) -> np.ndarray:
    m = int(counts_matrix[0].sum())
    log_factorials = np.array([math.lgamma(k + 1.0) for k in range(m + 1)])
    return math.lgamma(m + 1.0) - log_factorials[counts_matrix].sum(axis=1)


# The flat best-of-N PMF, the KL and the tilt solutions' final build as they
# were while every row was its own validated object: one from_log_weights
# per drawn row, one kl_divergence per pair, one CategoricalDistribution per
# lane.  The row arrays must keep their bits.


def prior_winner_log_probs(log_probs: np.ndarray, rewards: np.ndarray, ns) -> np.ndarray:
    order, sizes, level_lps, cums = group_reward_levels(log_probs, rewards)
    level = np.empty_like(order)
    level[order] = np.repeat(np.arange(sizes.size), sizes)
    n_eff = np.asarray(ns, dtype=np.float64).reshape(-1, 1)
    masses = np.empty((n_eff.size, level_lps.size))
    for lo in range(0, level_lps.size, LEVEL_BLOCK):
        hi = min(lo + LEVEL_BLOCK, level_lps.size)
        cum_lt, cum_le = cums[lo:hi], cums[lo + 1 : hi + 1]
        masses[:, lo:hi] = log_power_diff(n_eff, cum_lt, cum_le, level_lps[lo:hi])
    out = np.take(masses, level, axis=1)
    out += log_probs - level_lps[level]
    return out


def prior_bon_exact_pmf(outcome_probs, rewards, ns) -> list:
    """One CategoricalDistribution per N; N = 1 gives ``outcome_probs``."""
    rw = np.asarray(rewards, dtype=np.float64)
    pmfs = [outcome_probs] * len(ns)
    drawn = [i for i, N in enumerate(ns) if N != 1]
    if drawn:
        log_pi = prior_winner_log_probs(outcome_probs.log_probs, rw, [float(ns[i]) for i in drawn])
        for i, row in zip(drawn, log_pi):
            pmfs[i] = from_log_weights(row)
    return pmfs


def prior_kl_divergence(log_p: np.ndarray, log_q: np.ndarray) -> float:
    return float(np.sum(np.exp(log_p) * (log_p - log_q)))


def prior_tilt_log_probs(lp: np.ndarray, lq_top: np.ndarray, alphas: list) -> np.ndarray:
    weights = np.array(alphas)[:, None] * lq_top
    weights += lp
    rows = normalized_log_weights(weights)
    for i, alpha in enumerate(alphas):
        if alpha == 0.0:
            rows[i] = lp
    return rows


def prior_solution(found, lp: np.ndarray, lq_top: np.ndarray) -> TiltSolution:
    """One lane's result as a solution whose tilt is formed alone and
    validated as its own CategoricalDistribution."""
    (x, _, _, kl, reward), residual, steps = found
    [log_phi] = prior_tilt_log_probs(lp, lq_top, [x])
    return TiltSolution(x, CategoricalDistribution(log_phi), kl, reward, steps, residual)


# The Legendre oracle as it ran one probe point at a time, before the points
# of a grid went in lockstep.  The lockstep oracle must match it bit for bit.


def scalar_legendre_oracle(phi, q, t: float) -> float:
    _check_same_alphabet(phi, q)
    lo_t, hi_t = reward_target_range(q)
    if not (lo_t < t < hi_t):
        raise TargetOutOfRange(f"t={t!r} outside achievable open range ({lo_t!r}, {hi_t!r})")
    lphi = phi.log_probs
    lq = q.log_probs

    def objective(gammas: np.ndarray) -> np.ndarray:
        weights = lphi[None, :] + gammas[:, None] * lq[None, :]
        hi = weights.max(axis=1)
        log_z = hi + np.log(np.exp(weights - hi[:, None]).sum(axis=1))
        return -gammas * t - log_z

    lo, hi = -8.0, 8.0
    # widen until the maximizer is interior
    for _ in range(60):
        grid = np.linspace(lo, hi, LEGENDRE_GRID)
        best = int(np.argmax(objective(grid)))
        if best == 0:
            lo, hi = lo - (hi - lo), grid[1]
        elif best == LEGENDRE_GRID - 1:
            lo, hi = grid[-2], hi + (hi - lo)
        else:
            break
    else:
        raise TargetOutOfRange(f"no interior maximizer for t={t!r}")
    # shrink the bracket around the grid argmax until it collapses; a
    # value-change stop is unsound here because the old best point always
    # reappears at the center of the refined grid
    best_value = -math.inf
    for _ in range(80):
        grid = np.linspace(lo, hi, LEGENDRE_GRID)
        values = objective(grid)
        best = int(np.argmax(values))
        best_value = max(best_value, float(values[best]))
        if hi - lo < LEGENDRE_BRACKET_TOL:
            break
        lo = grid[max(best - 1, 0)]
        hi = grid[min(best + 1, LEGENDRE_GRID - 1)]
    return best_value
