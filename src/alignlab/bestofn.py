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
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .distributions import (
    CategoricalDistribution,
    Sequence,
    draw_symbols,
    from_log_weights,
    log_class_sizes,
    type_counts_matrix,
)
from .errors import (
    AlphabetMismatch,
    BudgetExceeded,
    InvalidN,
    LengthMismatch,
    SizeOverflow,
)
from .logspace import cumulative_log_probs, log_power_diff
from .rng import as_generator

REWARD_TIE_TOL = 1e-12
ORACLE_TUPLE_CAP = 10_000_000
SAMPLE_BUDGET = 100_000_000
# exp(log_N) must stay a finite float multiplier
MAX_LOG_N = 690.0


@dataclass(frozen=True)
class BonConfig:
    """Best-of-N sample count, given directly or as log N for huge regimes."""

    N: int | None = None
    log_N: float | None = None

    def __post_init__(self):
        if (self.N is None) == (self.log_N is None):
            raise InvalidN("exactly one of N / log_N must be set")
        if self.N is not None and (not isinstance(self.N, int) or self.N < 1):
            raise InvalidN(f"N must be a positive integer, got {self.N!r}")
        if self.log_N is not None:
            log_n = float(self.log_N)
            if not (0.0 <= log_n <= MAX_LOG_N):
                raise InvalidN(f"log_N must be in [0, {MAX_LOG_N}], got {self.log_N!r}")
            object.__setattr__(self, "log_N", log_n)

    @property
    def n_effective(self) -> float:
        """N as a float multiplier of log masses (fractional in the log_N regime)."""
        return float(self.N) if self.N is not None else math.exp(self.log_N)

    @property
    def is_single_draw(self) -> bool:
        return self.n_effective == 1.0


@dataclass(frozen=True)
class TypeLaw:
    """An exact sequence-level PMF represented on type classes.

    Row i of ``counts`` is one type class; ``per_seq_log_probs[i]`` is the log
    probability of each sequence in it and ``class_log_sizes[i]`` the log of
    its multinomial size.  The per-sequence value is constant within a class:
    under memoryless references and additive rewards both the reward and the
    reference probability of a sequence depend on it only through its type.
    The arrays are made read-only, so the accessors can return them directly.
    """

    m: int
    policy_tag: str
    counts: np.ndarray = field(repr=False)
    per_seq_log_probs: np.ndarray = field(repr=False)
    class_log_sizes: np.ndarray = field(repr=False)

    def __post_init__(self):
        for arr in (self.counts, self.per_seq_log_probs, self.class_log_sizes):
            arr.setflags(write=False)

    @property
    def K(self) -> int:
        return int(self.counts.shape[1])

    def counts_matrix(self) -> np.ndarray:
        return self.counts

    def seq_log_probs(self) -> np.ndarray:
        return self.per_seq_log_probs

    def log_sizes(self) -> np.ndarray:
        return self.class_log_sizes

    def class_masses(self) -> np.ndarray:
        """Total probability of each type class."""
        return np.exp(self.class_log_sizes + self.per_seq_log_probs)


def group_reward_levels(
    log_probs: np.ndarray, rewards: np.ndarray, tie_tol: float = REWARD_TIE_TOL
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Group outcomes into strictly increasing reward levels.

    Adjacent rewards within ``tie_tol`` after one stable sort join the same
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
    starts = np.concatenate(([0], np.flatnonzero(np.diff(rw[order]) > tie_tol) + 1))
    sizes = np.diff(starts, append=lp.size)
    sorted_lp = lp[order]
    hi = np.maximum.reduceat(sorted_lp, starts)
    level_lps = hi + np.log(np.add.reduceat(np.exp(sorted_lp - np.repeat(hi, sizes)), starts))
    cums = np.concatenate(([-math.inf], cumulative_log_probs(level_lps)))
    return order, sizes, level_lps, cums


def _winner_log_probs(
    log_probs: np.ndarray, rewards: np.ndarray, n_eff: float
) -> np.ndarray:
    """Per-outcome log probability under best-of-N with uniform tie-breaking.

    Each level's pick mass log(S_le^N - S_lt^N) uses the stored cumulatives
    (pinned to exactly log 1 at the top), not a re-accumulated running sum:
    N amplifies any error in log S near the top by a factor of N.
    """
    order, sizes, level_lps, cums = group_reward_levels(log_probs, rewards)
    picks = log_power_diff(n_eff, cums[:-1], cums[1:], level_lps)
    out = np.empty(order.size)
    out[order] = log_probs[order] - np.repeat(level_lps, sizes) + np.repeat(picks, sizes)
    return out


def bon_exact_pmf(
    outcome_probs: CategoricalDistribution, rewards, N: int
) -> CategoricalDistribution:
    """Exact best-of-N PMF over a flat outcome space."""
    rw = np.asarray(rewards, dtype=np.float64)
    if rw.shape != (outcome_probs.K,):
        raise LengthMismatch(f"{outcome_probs.K} outcomes vs {rw.size} rewards")
    if not isinstance(N, (int, np.integer)) or isinstance(N, bool) or N < 1:
        raise InvalidN(f"N must be a positive integer, got {N!r}")
    if N == 1:
        return outcome_probs
    log_pi = _winner_log_probs(outcome_probs.log_probs, rw, float(N))
    return from_log_weights(log_pi)


def bon_type_law(
    p: CategoricalDistribution,
    q: CategoricalDistribution,
    m: int,
    config: BonConfig,
    type_cap: int = 10_000_000,
) -> TypeLaw:
    """Exact best-of-N law over length-m sequences, per type class.

    Class reward is sum_k counts_k log q_k and the reference per-sequence log
    probability is sum_k counts_k log p_k; the level formula then assigns one
    per-sequence value to each class.  With ``log_N`` set, N enters only as
    the float multiplier exp(log_N).
    """
    if p.K != q.K:
        raise AlphabetMismatch(f"alphabet sizes differ: {p.K} vs {q.K}")
    counts = type_counts_matrix(m, p.K, cap=type_cap)
    sizes = log_class_sizes(counts)
    ref_lp = counts @ p.log_probs
    rewards = counts @ q.log_probs
    if config.is_single_draw:
        seq_lp = ref_lp
    else:
        class_log_mass = sizes + ref_lp
        seq_lp = _winner_log_probs(class_log_mass, rewards, config.n_effective)
        # _winner_log_probs reshapes whole-class masses; per-sequence values
        # divide the class mass back out
        seq_lp = seq_lp - sizes
    return TypeLaw(m, "best_of_n", counts, seq_lp, sizes)


def product_type_law(
    dist: CategoricalDistribution, m: int, policy_tag: str = "reference",
    type_cap: int = 10_000_000,
) -> TypeLaw:
    """Type-class law of the m-fold product of ``dist``."""
    counts = type_counts_matrix(m, dist.K, cap=type_cap)
    return TypeLaw(m, policy_tag, counts, counts @ dist.log_probs, log_class_sizes(counts))


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
    tuple_cap: int = ORACLE_TUPLE_CAP,
) -> np.ndarray:
    """Brute-force best-of-N PMF over all K^m sequences.

    Enumerates every ordered N-tuple of draws, weights it by its product
    probability, and splits each tuple's mass uniformly across the positions
    achieving the maximal reward.  Ground truth for the closed forms on tiny
    instances; cost is (K^m)^N.
    """
    if p.K != q.K:
        raise AlphabetMismatch(f"alphabet sizes differ: {p.K} vs {q.K}")
    if not isinstance(N, (int, np.integer)) or isinstance(N, bool) or N < 1:
        raise InvalidN(f"N must be a positive integer, got {N!r}")
    M = p.K**m
    n_tuples = M**N
    if n_tuples > tuple_cap:
        raise SizeOverflow(f"(K^m)^N = {n_tuples} exceeds cap {tuple_cap}")
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


def bon_sample(
    p: CategoricalDistribution,
    q: CategoricalDistribution,
    m: int,
    N: int,
    seed,
    budget: int = SAMPLE_BUDGET,
) -> Sequence:
    """Draw N length-m sequences from p and return one maximizing the q log
    likelihood; ties are broken uniformly with one extra seeded variate."""
    if p.K != q.K:
        raise AlphabetMismatch(f"alphabet sizes differ: {p.K} vs {q.K}")
    if not isinstance(N, (int, np.integer)) or isinstance(N, bool) or N < 1:
        raise InvalidN(f"N must be a positive integer, got {N!r}")
    if N * m > budget:
        raise BudgetExceeded(f"N*m = {N * m} exceeds sampling budget {budget}")
    rng = as_generator(seed)
    symbols = draw_symbols(p, (N, m), rng)
    rewards = q.log_probs[symbols].sum(axis=1)
    winners = np.nonzero(rewards >= rewards.max() - REWARD_TIE_TOL)[0]
    u = rng.random()
    pick = winners[min(int(u * winners.size), winners.size - 1)]
    return Sequence(symbols[pick])


def bon_expected_type(law: TypeLaw) -> np.ndarray:
    """Expected type under a sequence-level law: a point on the simplex."""
    masses = law.class_masses()
    fractions = law.counts_matrix() / law.m
    return masses @ fractions


def bon_kl_to_reference(law: TypeLaw, p: CategoricalDistribution) -> float:
    """Exact D(law || p^m) by type-class summation, for any product target p^m
    (the reference, or a tilt such as phi_delta)."""
    if law.K != p.K:
        raise AlphabetMismatch(f"alphabet sizes differ: {law.K} vs {p.K}")
    ref_lp = law.counts_matrix() @ p.log_probs
    return float(np.sum(law.class_masses() * (law.seq_log_probs() - ref_lp)))


def bon_kl_rate_to_optimal(
    p: CategoricalDistribution,
    q: CategoricalDistribution,
    m: int,
    delta: float,
) -> float:
    """Per-symbol D(pi_N^m || phi_delta^m) / m with N = exp(m * delta)."""
    from .tilting import solve_alpha_for_kl

    phi = solve_alpha_for_kl(q, p, delta).phi
    law = bon_type_law(p, q, m, BonConfig(log_N=m * delta))
    return bon_kl_to_reference(law, phi) / m


def expected_reward_rate(law: TypeLaw, q: CategoricalDistribution) -> float:
    """Per-symbol expected reward (1/m) E[log q^m(Y)] under a sequence law."""
    if law.K != q.K:
        raise AlphabetMismatch(f"alphabet sizes differ: {law.K} vs {q.K}")
    rewards = law.counts_matrix() @ q.log_probs
    return float(np.sum(law.class_masses() * rewards)) / law.m
