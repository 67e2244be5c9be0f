"""Entropy, cross entropy, KL divergence, and Renyi cross entropy (nats)."""

from __future__ import annotations

import numpy as np

from .distributions import CategoricalDistribution
from .errors import AlphabetMismatch, NonPositiveOrder
from .logspace import logsumexp

# Inside this window around order 1 the closed form loses ~6 digits to
# cancellation, so the continuous extension (plain cross entropy) is used.
RENYI_ORDER_ONE_WINDOW = 1e-6


def _check_same_alphabet(p: CategoricalDistribution, q: CategoricalDistribution) -> None:
    if p.K != q.K:
        raise AlphabetMismatch(f"alphabet sizes differ: {p.K} vs {q.K}")


def cross_entropy(p: CategoricalDistribution, q: CategoricalDistribution) -> float:
    """H(p||q) = sum_k p_k log(1/q_k)."""
    _check_same_alphabet(p, q)
    return float(-np.sum(np.exp(p.log_probs) * q.log_probs))


def kl_divergence(p: CategoricalDistribution, q: CategoricalDistribution) -> float:
    """D(p||q) = sum_k p_k log(p_k/q_k); nonnegative, zero iff p == q."""
    _check_same_alphabet(p, q)
    return float(kl_divergence_log_rows(p.log_probs, q.log_probs))


def kl_divergence_log_rows(log_p: np.ndarray, log_q: np.ndarray) -> np.ndarray:
    """D(p_i || q_i) row by row from log probabilities, the rows of ``log_p``
    against those of ``log_q`` (either may be one row, broadcast to the
    other's): row i gets the bits ``kl_divergence`` gives on its pair."""
    terms = np.subtract(log_p, log_q)
    terms *= np.exp(log_p)
    return np.add.reduce(terms, axis=-1)


def kl_divergence_rows(v: np.ndarray, ref_probs: np.ndarray) -> np.ndarray:
    """D(v_i || ref) for each row v_i of linear-domain probabilities, with
    0 log 0 = 0: the simplex points of a contour tracer, which may touch the
    boundary and so cannot be CategoricalDistributions."""
    mask = v > 0.0
    safe = np.where(mask, v, 1.0)
    return np.sum(np.where(mask, v * (np.log(safe) - np.log(ref_probs)), 0.0), axis=-1)


def entropy(p: CategoricalDistribution) -> float:
    """H(p) = sum_k p_k log(1/p_k), between 0 and log K."""
    return float(-np.sum(np.exp(p.log_probs) * p.log_probs))


def renyi_cross_entropy(
    p: CategoricalDistribution, q: CategoricalDistribution, t: float
) -> float:
    """Order-t cross entropy (1/(1-t)) log sum_k p_k q_k^(t-1).

    Continuously extended to the plain cross entropy for |t - 1| below
    ``RENYI_ORDER_ONE_WINDOW``.
    """
    _check_same_alphabet(p, q)
    if not 0.0 < t < np.inf:
        raise NonPositiveOrder(f"order must be positive and finite, got {t!r}")
    if abs(t - 1.0) < RENYI_ORDER_ONE_WINDOW:
        return cross_entropy(p, q)
    return logsumexp(p.log_probs + (t - 1.0) * q.log_probs) / (1.0 - t)
