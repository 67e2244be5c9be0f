"""Exact and sampled best-of-N policies.

A best-of-N policy draws N candidates i.i.d. from a reference distribution and
returns one of maximal reward, breaking ties uniformly at random.  Its exact
PMF only depends on an outcome through its reward level: grouping outcomes
into levels and forming stable cumulative powers gives the closed form

    pi_N(y) = p(y) / P(level(y)) * (S_le(y)^N - S_lt(y)^N),

where S_le / S_lt are the cumulative reference masses at / strictly below the
outcome's reward level.  Over sequence spaces the reward and the reference
probability depend on a sequence only through its type, so the same formula
applies per type class; N enters only as a multiplier of log masses, which
admits the N = exp(m * delta) regime where N is far too large to enumerate.
The levels do not depend on N either, so a grid of N is grouped once and
evaluated as one row per N (``bon_exact_pmf``); one N is the one-row
case.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .distributions import (
    CategoricalDistribution,
    from_log_weights,
    log_class_sizes,
    type_counts_matrix,
)
from .errors import InvalidN, LengthMismatch, SizeOverflow
from .logspace import cumulative_log_probs, log_power_diff
from .metrics import _check_same_alphabet

REWARD_TIE_TOL = 1e-12
ORACLE_TUPLE_CAP = 10_000_000
# bon_type_law's N is at most exp(MAX_LOG_N): N multiplies log masses, and
# class log-probs stay finite up to this bound
MAX_LOG_N = 690.0


@dataclass(frozen=True)
class TypeLaw:
    """An exact sequence-level PMF represented on type classes.

    Row i of ``counts`` is one type class; ``class_log_masses[i]`` is the log
    probability of the whole class and ``class_log_sizes[i]`` the log of its
    multinomial size.  Every sequence in a class has the same probability:
    under memoryless references and additive rewards both the reward and the
    reference probability of a sequence depend on it only through its type.
    The arrays are made read-only.
    """

    m: int
    counts: np.ndarray = field(repr=False)
    class_log_masses: np.ndarray = field(repr=False)
    class_log_sizes: np.ndarray = field(repr=False)

    def __post_init__(self):
        for arr in (self.counts, self.class_log_masses, self.class_log_sizes):
            arr.setflags(write=False)

    @property
    def K(self) -> int:
        return int(self.counts.shape[1])

    def class_masses(self) -> np.ndarray:
        """Total probability of each type class."""
        return np.exp(self.class_log_masses)


def group_reward_levels(
    log_probs: np.ndarray, rewards: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Group outcomes into strictly increasing reward levels.

    Adjacent rewards within ``REWARD_TIE_TOL`` after one stable sort join the same
    level, so grouping is deterministic.  Returns ``(order, sizes, level_lps,
    cums)``: the sort order of the outcomes, the member count of each level,
    each level's log mass, and the n_levels + 1 cumulative log masses, where
    ``cums[i]`` is log S_lt and ``cums[i + 1]`` is log S_le of level i.
    ``cums[0]`` is -inf and the top ``cums[-1]`` is pinned to exactly log 1.
    """
    lp = np.asarray(log_probs, dtype=np.float64)
    rw = np.asarray(rewards, dtype=np.float64)
    if lp.shape != rw.shape:
        raise LengthMismatch(f"{lp.size} probabilities vs {rw.size} rewards")
    order = np.argsort(rw, kind="stable")
    starts = np.concatenate(([0], np.flatnonzero(np.diff(rw[order]) > REWARD_TIE_TOL) + 1))
    sizes = np.diff(starts, append=lp.size)
    sorted_lp = lp[order]
    hi = np.maximum.reduceat(sorted_lp, starts)
    level_lps = hi + np.log(np.add.reduceat(np.exp(sorted_lp - np.repeat(hi, sizes)), starts))
    cums = np.concatenate(([-math.inf], cumulative_log_probs(level_lps)))
    return order, sizes, level_lps, cums


def _winner_log_probs(
    log_probs: np.ndarray, rewards: np.ndarray, ns
) -> np.ndarray:
    """Per-outcome log probability under best-of-N with uniform tie-breaking,
    one row per N of the 1-D ``ns``; the outcomes are grouped into levels once.

    Each level's pick mass log(S_le^N - S_lt^N) uses the stored cumulatives
    (pinned to exactly log 1 at the top), not a re-accumulated running sum:
    N amplifies any error in log S near the top by a factor of N.
    """
    n_eff = np.asarray(ns, dtype=np.float64).reshape(-1, 1)
    order, sizes, level_lps, cums = group_reward_levels(log_probs, rewards)
    picks = log_power_diff(n_eff, cums[:-1], cums[1:], level_lps)
    base = log_probs[order] - np.repeat(level_lps, sizes)
    out = np.empty((n_eff.size, order.size))
    out[:, order] = base + np.repeat(picks, sizes, axis=1)
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


def bon_exact_pmf(
    outcome_probs: CategoricalDistribution, rewards, ns
) -> list[CategoricalDistribution]:
    """Exact best-of-N PMF over a flat outcome space at each N of ``ns``,
    with the outcomes grouped into reward levels once; N = 1 gives
    ``outcome_probs`` itself."""
    rw = np.asarray(rewards, dtype=np.float64)
    if rw.shape != (outcome_probs.K,):
        raise LengthMismatch(f"{outcome_probs.K} outcomes vs {rw.size} rewards")
    for N in ns:
        _check_n(N)
    pmfs = [outcome_probs] * len(ns)
    drawn = [i for i, N in enumerate(ns) if N != 1]
    if drawn:
        log_pi = _winner_log_probs(outcome_probs.log_probs, rw, [float(ns[i]) for i in drawn])
        for i, row in zip(drawn, log_pi):
            pmfs[i] = from_log_weights(row)
    return pmfs


def bon_type_law(
    p: CategoricalDistribution,
    q: CategoricalDistribution,
    m: int,
    N: float,
) -> TypeLaw:
    """Exact best-of-N law over length-m sequences, per type class.

    Class reward is sum_k counts_k log q_k and the reference class log mass
    is the log class size plus sum_k counts_k log p_k; the level formula
    reshapes the class masses.  N enters only as a multiplier of log masses,
    so it may be any int or float in [1, exp(``MAX_LOG_N``)], such as
    exp(m * delta); N = 1 gives the law of p^m itself.
    """
    _check_same_alphabet(p, q)
    if isinstance(N, bool) or not isinstance(N, (int, float, np.integer)) or not (
        1 <= N <= math.exp(MAX_LOG_N)
    ):
        raise InvalidN(f"N must be a number in [1, exp({MAX_LOG_N})], got {N!r}")
    counts = type_counts_matrix(m, p.K)
    sizes = log_class_sizes(counts)
    masses = sizes + counts @ p.log_probs
    if N != 1:
        masses = _winner_log_probs(masses, counts @ q.log_probs, [float(N)])[0]
    return TypeLaw(m, counts, masses, sizes)


def sequence_space_log_probs(
    dist: CategoricalDistribution, m: int
) -> np.ndarray:
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
    p: CategoricalDistribution,
    q: CategoricalDistribution,
    m: int,
    N: int,
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


def bon_expected_type(law: TypeLaw) -> np.ndarray:
    """Expected type under a sequence-level law: a point on the simplex."""
    masses = law.class_masses()
    fractions = law.counts / law.m
    return masses @ fractions


def bon_kl_to_reference(law: TypeLaw, p: CategoricalDistribution) -> float:
    """Exact D(law || p^m) by type-class summation, for any product target p^m
    (the reference, or a tilt such as phi_delta)."""
    _check_same_alphabet(law, p)
    ref_masses = law.class_log_sizes + law.counts @ p.log_probs
    return float(np.sum(law.class_masses() * (law.class_log_masses - ref_masses)))


def expected_reward_rate(law: TypeLaw, q: CategoricalDistribution) -> float:
    """Per-symbol expected reward (1/m) E[log q^m(Y)] under a sequence law."""
    _check_same_alphabet(law, q)
    rewards = law.counts @ q.log_probs
    return float(np.sum(law.class_masses() * rewards)) / law.m
