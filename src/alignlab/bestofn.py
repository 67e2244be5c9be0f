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
REWARD_TIE_ULPS = 8
# reward levels per block of the level passes; the block's temporaries are
# a few arrays of this many levels (times the number of N rows)
LEVEL_BLOCK = 4096
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
    levels at a time.
    """
    lp = np.asarray(log_probs, dtype=np.float64)
    rw = np.asarray(rewards, dtype=np.float64)
    if lp.shape != rw.shape:
        raise LengthMismatch(f"{lp.size} probabilities vs {rw.size} rewards")
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


def _winner_log_probs(
    log_probs: np.ndarray, rewards: np.ndarray, ns
) -> np.ndarray:
    """Per-outcome log probability under best-of-N with uniform tie-breaking,
    one row per N of the 1-D ``ns``; the outcomes are grouped into levels once.
    """
    n_eff = np.asarray(ns, dtype=np.float64).reshape(-1, 1)
    out = np.empty((n_eff.size, np.size(log_probs)))
    _fill_winner_rows(out, log_probs, group_reward_levels(log_probs, rewards), n_eff)
    return out


def _fill_winner_rows(out: np.ndarray, log_probs: np.ndarray, levels, n_eff: np.ndarray) -> None:
    """Write the best-of-N log probabilities of the outcomes into ``out``, one
    row per N of the column ``n_eff``, from ``levels``, the result of
    ``group_reward_levels(log_probs, rewards)``.

    The levels are taken ``LEVEL_BLOCK`` at a time, so the temporaries are
    per block, not per outcome.  Each level's pick mass log(S_le^N - S_lt^N)
    uses the stored cumulatives (pinned to exactly log 1 at the top), not a
    re-accumulated running sum: N amplifies any error in log S near the top
    by a factor of N.  A block reads its outcomes' log probabilities before
    it writes their cells, so a one-row ``out`` may be ``log_probs`` itself.
    """
    order, sizes, level_lps, cums = levels
    stop = 0
    for lo in range(0, sizes.size, LEVEL_BLOCK):
        hi = min(lo + LEVEL_BLOCK, sizes.size)
        size, lvl = sizes[lo:hi], level_lps[lo:hi]
        picks = log_power_diff(n_eff, cums[lo:hi], cums[lo + 1 : hi + 1], lvl)
        start, stop = stop, stop + int(size.sum())
        members = order[start:stop]
        base = log_probs[members] - np.repeat(lvl, size)
        out[:, members] = base + np.repeat(picks, size, axis=1)


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
        # the class rewards are freed once grouped, and the winner row
        # overwrites the class masses it is formed from
        levels = group_reward_levels(masses, counts @ q.log_probs)
        _fill_winner_rows(masses[None], masses, levels, np.array([[float(N)]]))
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
