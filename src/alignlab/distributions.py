"""Categorical distributions over finite alphabets, i.i.d. sequences, and types.

Probabilities are stored as natural-log values throughout; combining them goes
through :mod:`alignlab.logspace`.  All values are immutable after construction
and safe to share across threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import AlphabetTooSmall, NonPositiveWeight, SizeOverflow

TYPE_CAP = 10_000_000
# rows per block of the blocked passes over type classes and reward levels;
# a block's temporaries are a few arrays of this many rows (times K, or the
# number of N)
LEVEL_BLOCK = 4096

_NORMALIZATION_TOL = 1e-12


def _frozen_array(values, dtype) -> np.ndarray:
    arr = np.array(values, dtype=dtype)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class CategoricalDistribution:
    """A strictly positive distribution over ``K`` symbols, in log domain."""

    log_probs: np.ndarray

    def __post_init__(self):
        arr = _frozen_array(self.log_probs, np.float64)
        if arr.ndim != 1 or arr.size < 1:
            raise AlphabetTooSmall("log_probs must be a nonempty 1-D array")
        check_log_probs(arr)
        object.__setattr__(self, "log_probs", arr)

    @property
    def K(self) -> int:
        return int(self.log_probs.size)

    def probs(self) -> np.ndarray:
        """Linear-domain probability vector (fresh copy)."""
        return np.exp(self.log_probs)

    def __eq__(self, other) -> bool:
        if not isinstance(other, CategoricalDistribution):
            return NotImplemented
        return self.K == other.K and bool(np.array_equal(self.log_probs, other.log_probs))

    def __hash__(self):
        return hash((self.K, self.log_probs.tobytes()))


def make_distribution(weights) -> CategoricalDistribution:
    """Normalize positive weights into a CategoricalDistribution.

    Raises NonPositiveWeight if any weight is <= 0 or non-finite, and
    AlphabetTooSmall for fewer than two symbols.
    """
    arr = np.asarray(weights, dtype=np.float64)
    if arr.ndim != 1 or arr.size < 2:
        raise AlphabetTooSmall(f"need at least 2 weights, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)) or np.any(arr <= 0.0):
        raise NonPositiveWeight("weights must be finite and strictly positive")
    return from_log_weights(np.log(arr))


def from_log_weights(log_weights) -> CategoricalDistribution:
    """Normalize finite log weights (any scale) into a distribution.

    The maximum is subtracted first, so the normalizer is rounded at the
    scale of the probabilities rather than of the weights: at weights of
    magnitude ~1e4 the latter leaves the total off 1 by ~1e-12.
    """
    arr = np.asarray(log_weights, dtype=np.float64)
    if arr.ndim != 1 or arr.size < 1:
        raise AlphabetTooSmall("need a nonempty 1-D array of log weights")
    if not np.all(np.isfinite(arr)):
        raise NonPositiveWeight("log weights must be finite")
    return CategoricalDistribution(normalized_log_weights(arr))


def normalized_log_weights(arr: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """The log probabilities ``from_log_weights`` stores, without validation;
    row by row for a 2-D array, in place when ``out`` is ``arr``.

    Each row's normalizer is ``math.log`` of its total: ``np.log`` rounds a
    few floats differently, and a row must get the bits of the 1-D call.
    """
    shifted = np.subtract(arr, np.maximum.reduce(arr, axis=-1, keepdims=True), out=out)
    totals = np.add.reduce(np.exp(shifted), axis=-1, keepdims=True)
    shifted -= np.array([math.log(t) for t in totals.flat]).reshape(totals.shape)
    return shifted


def check_log_probs(arr: np.ndarray) -> None:
    """The check every ``CategoricalDistribution`` passes, on each row of a
    1-D or 2-D array: finite log probabilities whose probabilities sum to 1
    within ``_NORMALIZATION_TOL``; NonPositiveWeight otherwise."""
    if not np.all(np.isfinite(arr)):
        raise NonPositiveWeight("log probabilities must be finite (strict positivity)")
    for total in np.add.reduce(np.exp(arr), axis=-1).reshape(-1).tolist():
        if abs(total - 1.0) > _NORMALIZATION_TOL:
            raise NonPositiveWeight(f"probabilities sum to {total!r}, not 1")


def normalize_rows(arr: np.ndarray, rows: list) -> None:
    """Normalize the listed rows of the 2-D ``arr`` of log weights in place,
    each to the bits ``from_log_weights`` gives it alone, and validate them
    as ``CategoricalDistribution`` does.

    The rows go a block at a time, of at most ``len(rows) * LEVEL_BLOCK``
    values (all of them at once up to ``LEVEL_BLOCK`` columns), so the
    temporaries stay a block's size.
    """
    step = max(1, len(rows) * LEVEL_BLOCK // arr.shape[1])
    for lo in range(0, len(rows), step):
        index = rows[lo : lo + step]
        block = arr[index]
        if not np.all(np.isfinite(block)):
            raise NonPositiveWeight("log weights must be finite")
        normalized_log_weights(block, out=block)
        check_log_probs(block)
        arr[index] = block


def distributions_from_rows(rows: np.ndarray) -> list[CategoricalDistribution]:
    """One ``CategoricalDistribution`` per row of the 2-D ``rows``, validated
    as one block: each holds a read-only view of its row, not a copy."""
    check_log_probs(rows)
    rows.setflags(write=False)
    dists = []
    for row in rows:
        dist = object.__new__(CategoricalDistribution)
        object.__setattr__(dist, "log_probs", row)
        dists.append(dist)
    return dists


def type_counts_matrix(m: int, K: int) -> np.ndarray:
    """All C(m+K-1, K-1) compositions of m into K parts as an (n_types, K)
    int array; more than ``TYPE_CAP`` raises SizeOverflow.

    Rows are in ascending lexicographic order: each pass splits every partial
    row into one child per value of its next part, in ascending order, and
    the last part takes what is left.
    """
    if m < 1 or K < 2:
        raise AlphabetTooSmall(f"need m >= 1 and K >= 2, got m={m}, K={K}")
    n = math.comb(m + K - 1, K - 1)
    if n > TYPE_CAP:
        raise SizeOverflow(f"{n} types exceeds cap {TYPE_CAP}")
    counts = np.empty((n, K), dtype=np.int64)
    rows = 1  # partial rows so far, in counts[:rows, :j]
    left = np.array([m], dtype=np.int64)
    for j in range(K - 1):
        reps = left + 1
        first = np.cumsum(reps) - reps  # each partial row's first child
        total = int(first[-1] + reps[-1])
        for col in range(j):
            counts[:total, col] = np.repeat(counts[:rows, col], reps)
        part = np.arange(total, dtype=np.int64)
        part -= np.repeat(first, reps)
        counts[:total, j] = part
        left = np.repeat(left, reps)
        left -= part
        rows = total
    counts[:, K - 1] = left
    return counts


def log_class_sizes(counts_matrix: np.ndarray) -> np.ndarray:
    """Row-wise log multinomial coefficients of a counts matrix, with the bits
    of ``log_factorials[counts_matrix].sum(axis=1)``.

    numpy adds fewer than 8 items of a row one by one, so below 8 columns
    the gathered columns are added in turn; from 8 on, numpy's own row sum
    runs over ``LEVEL_BLOCK`` rows at a time, and only a block of the
    gathered array exists at once.
    """
    m = int(counts_matrix[0].sum())
    log_factorials = np.array([math.lgamma(k + 1.0) for k in range(m + 1)])
    n, K = counts_matrix.shape
    if K < 8:
        total = log_factorials[counts_matrix[:, 0]]
        for j in range(1, K):
            total += log_factorials[counts_matrix[:, j]]
    else:
        total = np.empty(n)
        for lo in range(0, n, LEVEL_BLOCK):
            block = slice(lo, lo + LEVEL_BLOCK)
            total[block] = log_factorials[counts_matrix[block]].sum(axis=1)
    return np.subtract(math.lgamma(m + 1.0), total, out=total)
