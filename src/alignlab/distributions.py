"""Categorical distributions over finite alphabets, i.i.d. sequences, and types.

Probabilities are stored as natural-log values throughout; combining them goes
through :mod:`alignlab.logspace`.  All values are immutable after construction
and safe to share across threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    AlphabetTooSmall,
    NonPositiveWeight,
    SizeOverflow,
    SymbolOutOfRange,
)
from .rng import as_generator

DEFAULT_TYPE_CAP = 10_000_000

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
        if not np.all(np.isfinite(arr)):
            raise NonPositiveWeight("log probabilities must be finite (strict positivity)")
        total = float(np.sum(np.exp(arr)))
        if abs(total - 1.0) > _NORMALIZATION_TOL:
            raise NonPositiveWeight(f"probabilities sum to {total!r}, not 1")
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


@dataclass(frozen=True)
class Sequence:
    """A length-m sequence of symbols drawn from ``{0, ..., K-1}``."""

    symbols: np.ndarray

    def __post_init__(self):
        arr = _frozen_array(self.symbols, np.int64)
        if arr.ndim != 1 or arr.size < 1:
            raise SymbolOutOfRange("a sequence must hold at least one symbol")
        if arr.min() < 0:
            raise SymbolOutOfRange("symbols must be nonnegative")
        object.__setattr__(self, "symbols", arr)

    @property
    def m(self) -> int:
        return int(self.symbols.size)


@dataclass(frozen=True)
class TypeVector:
    """Symbol counts of a length-m sequence; an m-grained simplex point."""

    counts: np.ndarray
    m: int = 0

    def __post_init__(self):
        arr = _frozen_array(self.counts, np.int64)
        if arr.ndim != 1 or arr.size < 1:
            raise SymbolOutOfRange("counts must be a nonempty 1-D array")
        if arr.min() < 0:
            raise SymbolOutOfRange("counts must be nonnegative")
        total = int(arr.sum())
        declared = self.m if self.m else total
        if declared != total or total < 1:
            raise SymbolOutOfRange(f"counts sum to {total}, expected m={declared} >= 1")
        object.__setattr__(self, "counts", arr)
        object.__setattr__(self, "m", total)

    @property
    def K(self) -> int:
        return int(self.counts.size)

    def as_probs(self) -> np.ndarray:
        """The type as a point on the simplex (multiples of 1/m)."""
        return self.counts / self.m

    def __eq__(self, other) -> bool:
        if not isinstance(other, TypeVector):
            return NotImplemented
        return bool(np.array_equal(self.counts, other.counts))

    def __hash__(self):
        return hash(self.counts.tobytes())


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
    shifted = arr - np.max(arr)
    return CategoricalDistribution(shifted - math.log(float(np.sum(np.exp(shifted)))))


def log_sequence_prob(dist: CategoricalDistribution, seq: Sequence) -> float:
    """log of the product probability of ``seq`` under i.i.d. draws from ``dist``."""
    if int(seq.symbols.max()) >= dist.K:
        raise SymbolOutOfRange(
            f"symbol {int(seq.symbols.max())} outside alphabet of size {dist.K}"
        )
    return float(np.sum(dist.log_probs[seq.symbols]))


def type_of(seq: Sequence, K: int) -> TypeVector:
    """Empirical symbol counts of ``seq`` over an alphabet of size ``K``."""
    if int(seq.symbols.max()) >= K:
        raise SymbolOutOfRange(f"symbol {int(seq.symbols.max())} outside alphabet of size {K}")
    counts = np.bincount(seq.symbols, minlength=K)
    return TypeVector(counts)


def count_types(m: int, K: int) -> int:
    """Number of K-part compositions of m: C(m+K-1, K-1)."""
    return math.comb(m + K - 1, K - 1)


def enumerate_types(m: int, K: int, cap: int = DEFAULT_TYPE_CAP) -> list[TypeVector]:
    """All types of length-m sequences over K symbols, lexicographic on counts."""
    return [TypeVector(c) for c in type_counts_matrix(m, K, cap)]


def type_counts_matrix(m: int, K: int, cap: int = DEFAULT_TYPE_CAP) -> np.ndarray:
    """All compositions of m into K parts as an (n_types, K) int array.

    Rows are in ascending lexicographic order: each pass splits every partial
    row into one child per value of its next part, in ascending order, and
    the last part takes what is left.
    """
    if m < 1 or K < 2:
        raise AlphabetTooSmall(f"need m >= 1 and K >= 2, got m={m}, K={K}")
    n = count_types(m, K)
    if n > cap:
        raise SizeOverflow(f"{n} types exceeds cap {cap}")
    rows = np.zeros((1, 0), dtype=np.int64)
    left = np.array([m], dtype=np.int64)
    for _ in range(K - 1):
        reps = left + 1
        first = np.cumsum(reps) - reps  # each partial row's first child
        part = np.arange(int(reps.sum()), dtype=np.int64) - np.repeat(first, reps)
        rows = np.column_stack([np.repeat(rows, reps, axis=0), part])
        left = np.repeat(left, reps) - part
    return np.column_stack([rows, left])


def log_type_class_size(tau: TypeVector) -> float:
    """log of the multinomial coefficient m! / prod_k counts_k!."""
    return _log_multinomial(tau.counts, tau.m)


def _log_multinomial(counts: np.ndarray, m: int) -> float:
    return math.lgamma(m + 1) - float(sum(math.lgamma(int(c) + 1) for c in counts))


def log_class_sizes(counts_matrix: np.ndarray) -> np.ndarray:
    """Row-wise log multinomial coefficients of a counts matrix."""
    m = int(counts_matrix[0].sum())
    log_factorials = np.array([math.lgamma(k + 1.0) for k in range(m + 1)])
    return math.lgamma(m + 1.0) - log_factorials[counts_matrix].sum(axis=1)


def draw_symbols(dist: CategoricalDistribution, shape, rng: np.random.Generator) -> np.ndarray:
    """i.i.d. symbol draws of the given shape via inverse-CDF lookup."""
    cdf = np.cumsum(np.exp(dist.log_probs))
    cdf[-1] = 1.0  # guard the last bin against rounding
    u = rng.random(shape)
    return np.searchsorted(cdf, u, side="right").astype(np.int64)


def sample_sequence(dist: CategoricalDistribution, m: int, seed) -> Sequence:
    """Draw a length-m i.i.d. sequence from ``dist``; deterministic given seed."""
    if m < 1:
        raise SymbolOutOfRange("m must be >= 1")
    rng = as_generator(seed)
    return Sequence(draw_symbols(dist, m, rng))
