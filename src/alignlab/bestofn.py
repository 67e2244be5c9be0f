"""Exact best-of-N policies.

A best-of-N policy draws N candidates i.i.d. from a reference distribution and
returns one of maximal reward, breaking ties uniformly at random.  Its exact
law only depends on an outcome through its reward level:

    pi_N(y) = p(y) / P(level(y)) * (S_le(y)^N - S_lt(y)^N),

where S_le / S_lt are the cumulative reference masses at / strictly below the
outcome's reward level.  One blocked pass over the levels gives the level
masses log(S_le^N - S_lt^N), one row per N.  Over a flat outcome space
``bon_exact_pmf`` groups the outcomes once, scatters each block of level
masses to its outcomes' columns, and returns the log PMFs as one read-only
(len(ns), K) array, normalized and validated as a block;
``CategoricalDistribution(row)`` wraps a row where an object is wanted.
Over length-m sequences with a memoryless reference and
the additive reward log q^m(y), best-of-N and every tilt of p^m reweight
whole reward levels of p^m, so ``bon_type_law`` keeps the one row as a
``LevelLaw`` on the levels of the type classes, and every exact sequence
quantity is a sum over its levels.  N enters only as a multiplier of log
masses, which admits the N = exp(m * delta) regime.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .distributions import (
    LEVEL_BLOCK,
    CategoricalDistribution,
    log_class_sizes,
    normalize_rows,
    type_counts_matrix,
)
from .errors import InvalidN, LengthMismatch, SizeOverflow
from .logspace import cumulative_log_probs, log_power_diff
from .metrics import _check_same_alphabet
from .tilting import _tilt_log_probs

REWARD_TIE_TOL = 1e-12
REWARD_TIE_ULPS = 8
ORACLE_TUPLE_CAP = 10_000_000
# bon_type_law's N is at most exp(MAX_LOG_N): N multiplies log masses, and
# level log masses stay finite up to this bound
MAX_LOG_N = 690.0


@dataclass(frozen=True)
class LevelLaw:
    """An exact law over length-m sequences, on the reward levels of p^m.

    Level i holds the sequences of reward ``rewards[i]`` (ascending, the sum
    of log q over the sequence; a level of tied type classes takes its first
    member's reward in sort order).  ``ref_log_masses[i]`` is its log mass
    under p^m and ``log_masses[i]`` its log mass under the law, which is p^m
    conditioned on the level within it; ``mean_counts[i]`` is the level's mean
    symbol count vector under p^m, so the law's expected type is a level sum
    too.  The arrays are read-only.
    """

    m: int
    rewards: np.ndarray = field(repr=False)
    ref_log_masses: np.ndarray = field(repr=False)
    log_masses: np.ndarray = field(repr=False)
    mean_counts: np.ndarray = field(repr=False)

    def __post_init__(self):
        for arr in (self.rewards, self.ref_log_masses, self.log_masses, self.mean_counts):
            arr.setflags(write=False)


def group_reward_levels(
    log_probs: np.ndarray, rewards: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Group outcomes into strictly increasing reward levels.

    Adjacent rewards within the tie tolerance after one stable sort join the
    same level, so grouping is deterministic.  The tolerance is
    ``REWARD_TIE_TOL`` or ``REWARD_TIE_ULPS`` float spacings of the largest
    |reward|, whichever is larger: rewards formed as sums of many log
    probabilities carry rounding at the scale of their magnitude, and near
    |reward| ~ 1e4 one spacing is already above ``REWARD_TIE_TOL``.  Returns
    ``(order, sizes, level_lps, cums)``: the sort order of the outcomes, the
    member count of each level, each level's log mass, and the n_levels + 1
    cumulative log masses, where ``cums[i]`` is log S_lt and ``cums[i + 1]``
    is log S_le of level i.  ``cums[0]`` is -inf and the top ``cums[-1]`` is
    pinned to exactly log 1.  The level masses are reduced ``LEVEL_BLOCK``
    levels at a time; when every level has one member they are the sorted
    log probabilities themselves, the bits the reduction gives.  Non-finite
    rewards raise ValueError.
    """
    lp = np.asarray(log_probs, dtype=np.float64)
    rw = np.asarray(rewards, dtype=np.float64)
    if lp.shape != rw.shape:
        raise LengthMismatch(f"{lp.size} probabilities vs {rw.size} rewards")
    if not np.all(np.isfinite(rw)):
        raise ValueError("rewards must be finite")
    order = np.argsort(rw, kind="stable")
    tol = REWARD_TIE_TOL
    if order.size:
        scale = max(abs(float(rw[order[0]])), abs(float(rw[order[-1]])))
        tol = max(tol, REWARD_TIE_ULPS * float(np.spacing(scale)))
    # the level sizes, from the first outcome of each level and lp.size
    sizes = np.diff(np.flatnonzero(np.concatenate(([True], np.diff(rw[order]) > tol, [True]))))
    # lps[0] is an empty level below the lowest, whose cumulative is -inf
    lps = np.empty(sizes.size + 1)
    lps[0] = -math.inf
    if sizes.size == lp.size:
        np.take(lp, order, out=lps[1:])
    else:
        stop = 0
        for lo in range(0, sizes.size, LEVEL_BLOCK):
            size = sizes[lo : lo + LEVEL_BLOCK]
            start, stop = stop, stop + int(size.sum())
            sorted_lp = lp[order[start:stop]]
            at = np.cumsum(size) - size
            hi = np.maximum.reduceat(sorted_lp, at)
            sorted_lp -= np.repeat(hi, size)
            np.exp(sorted_lp, out=sorted_lp)
            lps[lo + 1 : lo + 1 + size.size] = hi + np.log(np.add.reduceat(sorted_lp, at))
    cums = cumulative_log_probs(lps)
    cums[0] = -math.inf
    return order, sizes, lps[1:], cums


def _level_log_mass_blocks(level_lps: np.ndarray, cums: np.ndarray, ns):
    """The best-of-N log masses log(S_le^N - S_lt^N) of the levels, one row
    per N of the 1-D ``ns``, as ``(lo, hi, masses)`` for levels lo:hi,
    ``LEVEL_BLOCK`` levels at a time, from the stored cumulatives ``cums``
    (pinned to exactly log 1 at the top): N amplifies any error in log S
    near the top N-fold."""
    n_eff = np.asarray(ns, dtype=np.float64).reshape(-1, 1)
    for lo in range(0, level_lps.size, LEVEL_BLOCK):
        hi = min(lo + LEVEL_BLOCK, level_lps.size)
        yield lo, hi, log_power_diff(n_eff, cums[lo:hi], cums[lo + 1 : hi + 1], level_lps[lo:hi])


def _winner_log_probs(
    log_probs: np.ndarray, rewards: np.ndarray, ns, out: np.ndarray | None = None, rows=slice(None)
) -> np.ndarray:
    """Per-outcome log probability under best-of-N with uniform tie-breaking,
    one row per N of the 1-D ``ns``: an outcome takes its share p(y) / P(level)
    of its level's mass, the levels grouped once.  The rows go to ``out[rows]``
    (a new array by default): each block of levels is scattered to its
    members' columns as it is formed, ``LEVEL_BLOCK`` members at a time, so
    tied levels with many members add no (len(ns), K) temporary."""
    order, sizes, level_lps, cums = group_reward_levels(log_probs, rewards)
    if out is None:
        out = np.empty((len(ns), order.size))
    stop = 0
    for lo, hi, masses in _level_log_mass_blocks(level_lps, cums, ns):
        size = sizes[lo:hi]
        start, stop = stop, stop + int(size.sum())
        block_members, levels = order[start:stop], np.repeat(np.arange(hi - lo), size)
        for at in range(0, stop - start, LEVEL_BLOCK):
            members, level = block_members[at : at + LEVEL_BLOCK], levels[at : at + LEVEL_BLOCK]
            picks = np.take(masses, level, axis=1)
            picks += log_probs[members] - level_lps[lo:hi][level]
            out[rows, members] = picks
    return out


def _check_n(N) -> None:
    """N is a positive integer that converts to a finite float: the kernels
    multiply log masses by float(N)."""
    integer = isinstance(N, (int, np.integer)) and not isinstance(N, bool)
    if not (integer and 1 <= N <= sys.float_info.max):
        raise InvalidN(f"N must be a positive integer that converts to a finite float, got {N!r}")


def _check_oracle_size(K: int, m: int, N: int) -> None:
    """Raise SizeOverflow when the oracle's (K^m)^N tuples exceed
    ``ORACLE_TUPLE_CAP``, without forming the count: K >= 2, so K^e is over
    the cap once e reaches the cap's bit length, and the exponent is capped
    there."""
    if K ** min(m * N, ORACLE_TUPLE_CAP.bit_length()) > ORACLE_TUPLE_CAP:
        raise SizeOverflow(f"(K^m)^n must be <= {ORACLE_TUPLE_CAP}, got K={K}, m={m}, n={N}")


def bon_exact_pmf(outcome_probs: CategoricalDistribution, rewards, ns) -> np.ndarray:
    """Exact best-of-N log PMFs over a flat outcome space, one row per N of
    ``ns``, as one read-only (len(ns), K) array; the outcomes are grouped
    into reward levels once.  An N = 1 row is ``outcome_probs.log_probs``,
    and every other row has the bits ``from_log_weights`` gives it, checked
    as a ``CategoricalDistribution`` is: ``CategoricalDistribution(row)``
    wraps one."""
    rw = np.asarray(rewards, dtype=np.float64)
    if rw.shape != (outcome_probs.K,):
        raise LengthMismatch(f"{outcome_probs.K} outcomes vs {rw.size} rewards")
    if not np.all(np.isfinite(rw)):
        raise ValueError("rewards must be finite")
    for N in ns:
        _check_n(N)
    pmfs = np.empty((len(ns), outcome_probs.K))
    pmfs[:] = outcome_probs.log_probs
    drawn = [i for i, N in enumerate(ns) if N != 1]
    if drawn:
        n_drawn = [float(ns[i]) for i in drawn]
        _winner_log_probs(outcome_probs.log_probs, rw, n_drawn, pmfs, np.array(drawn)[:, None])
        normalize_rows(pmfs, drawn)
    pmfs.setflags(write=False)
    return pmfs


def bon_type_law(p: CategoricalDistribution, q: CategoricalDistribution, m: int, N: float) -> LevelLaw:
    """Exact best-of-N law over length-m sequences, on the reward levels of p^m.

    The type classes give the levels: a class's reward is
    sum_k counts_k log q_k and its log mass under p^m the log class size plus
    sum_k counts_k log p_k.  The classes are grouped into levels once and
    dropped; one blocked pass over the levels gives the law's level masses.
    N enters only as a multiplier of log masses, so it may be any int or
    float in [1, exp(``MAX_LOG_N``)], such as exp(m * delta); N = 1 gives
    the law of p^m itself, whose ``log_masses`` are its ``ref_log_masses``.
    """
    _check_same_alphabet(p, q)
    number = isinstance(N, (int, float, np.integer)) and not isinstance(N, bool)
    if not (number and 1 <= N <= math.exp(MAX_LOG_N)):
        raise InvalidN(f"N must be a number in [1, exp({MAX_LOG_N})], got {N!r}")
    counts = type_counts_matrix(m, p.K)
    masses = log_class_sizes(counts)
    masses += counts @ p.log_probs
    rewards = counts @ q.log_probs
    order, sizes, ref_lps, cums = group_reward_levels(masses, rewards)
    # on a tied level a class weighs in with its share of the level's mass
    tied = sizes.size < order.size
    starts = np.cumsum(sizes) - sizes if tied else slice(None)
    shares = np.exp(masses[order] - np.repeat(ref_lps, sizes)) if tied else None
    # each class array is freed once it has been read for the last time
    del masses, sizes
    level_rewards = rewards[order[starts]]
    del rewards
    # a column at a time (a row gather of counts[order] is slower); the
    # counts of one-member levels overwrite their own buffer in level order
    mean_counts = np.empty((ref_lps.size, p.K)) if tied else counts.view(np.float64)
    for k in range(p.K):
        column = counts[order, k]
        mean_counts[:, k] = np.add.reduceat(column * shares, starts) if tied else column
    del counts, order, column
    log_masses = ref_lps
    if N != 1:
        log_masses = np.empty(ref_lps.size)
        for lo, hi, masses in _level_log_mass_blocks(ref_lps, cums, [float(N)]):
            log_masses[lo:hi] = masses[0]
        # the top level's log 1 may come out as -0.0; adding 0.0 gives the
        # +0.0 of the per-outcome form and leaves every other value
        log_masses += 0.0
    return LevelLaw(m, level_rewards, ref_lps, log_masses, mean_counts)


def sequence_space_log_probs(dist: CategoricalDistribution, m: int) -> np.ndarray:
    """log probabilities of all K^m sequences, big-endian base-K indexing."""
    K = dist.K
    total = K**m
    idx = np.arange(total)
    out = np.zeros(total)
    for pos in range(m):
        digit = (idx // K ** (m - 1 - pos)) % K
        out += dist.log_probs[digit]
    return out


def bon_enumeration_oracle(
    p: CategoricalDistribution, q: CategoricalDistribution, m: int, N: int
) -> np.ndarray:
    """Brute-force best-of-N PMF over all K^m sequences.

    Enumerates every ordered N-tuple of draws, weights it by its product
    probability, and splits each tuple's mass uniformly across the positions
    achieving the maximal reward.  Ground truth for the closed forms on tiny
    instances; cost is (K^m)^N, and more than ``ORACLE_TUPLE_CAP`` tuples
    raises SizeOverflow.
    """
    _check_same_alphabet(p, q)
    _check_n(N)
    _check_oracle_size(p.K, m, N)
    M = p.K**m
    n_tuples = M**N
    seq_lp = sequence_space_log_probs(p, m)
    seq_rw = sequence_space_log_probs(q, m)
    out = np.zeros(M)
    chunk = 1_000_000
    for start in range(0, n_tuples, chunk):
        ids = np.arange(start, min(start + chunk, n_tuples))
        digits = np.empty((ids.size, N), dtype=np.int64)
        for pos in range(N):
            digits[:, pos] = (ids // M ** (N - 1 - pos)) % M
        tuple_prob = np.exp(seq_lp[digits].sum(axis=1))
        rewards = seq_rw[digits]
        winners = rewards >= rewards.max(axis=1, keepdims=True) - REWARD_TIE_TOL
        share = tuple_prob / winners.sum(axis=1)
        contrib = np.where(winners, share[:, None], 0.0)
        np.add.at(out, digits.ravel(), contrib.ravel())
    return out


def bon_expected_type(law: LevelLaw) -> np.ndarray:
    """Expected type under a level law: a point on the simplex."""
    return np.exp(law.log_masses) @ law.mean_counts / law.m


def bon_kl_to_tilt(law: LevelLaw, alpha: float) -> float:
    """Exact D(law || T(q, p, alpha)^m) as a sum over the law's levels.

    The tilt kernel reweights each level by exp(alpha * (reward - top
    reward)), normalized over the same levels; alpha = 0 is p^m itself,
    whose level masses are taken as is, so the law of p^m reads exactly 0.
    """
    if not math.isfinite(alpha):
        raise ValueError(f"alpha must be finite, got {alpha!r}")
    target = law.ref_log_masses
    if alpha != 0.0:
        [target] = _tilt_log_probs(target, law.rewards - law.rewards[-1], [alpha])
    return float(np.sum(np.exp(law.log_masses) * (law.log_masses - target)))


def expected_reward_rate(law: LevelLaw) -> float:
    """Per-symbol expected reward (1/m) E[log q^m(Y)] under a level law."""
    return float(np.sum(np.exp(law.log_masses) * law.rewards)) / law.m
