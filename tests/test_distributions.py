from __future__ import annotations

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from alignlab import (
    AlphabetTooSmall,
    NonPositiveWeight,
    Sequence,
    SizeOverflow,
    SymbolOutOfRange,
    TypeVector,
    count_types,
    enumerate_types,
    from_log_weights,
    log_sequence_prob,
    log_type_class_size,
    make_distribution,
    sample_sequence,
    type_of,
)
from alignlab.distributions import log_class_sizes, type_counts_matrix

from .conftest import random_pair


class TestMakeDistribution:
    def test_large_magnitude_log_weights(self):
        # log weights met by the tilt solvers' bracket doubling; subtracting
        # logsumexp at this scale left the probabilities summing to 1 + 1.1e-12
        log_w = np.array([-21715.247177587204, -16418.68527834665, -16418.08014502627])
        dist = from_log_weights(log_w)
        assert abs(float(dist.probs().sum()) - 1.0) <= 1e-12
        near = from_log_weights(log_w - log_w[2])
        assert np.max(np.abs(dist.probs() - near.probs())) <= 1e-15

    @settings(max_examples=200)
    @given(
        st.lists(st.integers(-(2**16), 2**16), min_size=1, max_size=20),
        st.integers(-(10**6), 10**6),
    )
    def test_shift_invariance(self, grid, shift):
        # weights on a 1/64 grid and an integer shift keep every sum exact, so
        # the shifted weights are exactly the unshifted ones moved by the shift
        log_w = np.array(grid, dtype=np.float64) / 64.0
        dist = from_log_weights(log_w)
        shifted = from_log_weights(log_w + shift)
        assert np.max(np.abs(dist.probs() - shifted.probs())) <= 1e-15

    def test_uniform_normalization(self):
        dist = make_distribution((1, 1, 1))
        assert np.allclose(dist.probs(), [1 / 3, 1 / 3, 1 / 3], atol=1e-15)

    def test_scale_invariance(self):
        dist = make_distribution((2, 3, 5))
        assert np.allclose(dist.probs(), [0.2, 0.3, 0.5], atol=1e-15)
        scaled = make_distribution((2e-8, 3e-8, 5e-8))
        assert np.allclose(scaled.probs(), dist.probs(), atol=1e-15)

    def test_zero_weight_rejected(self):
        with pytest.raises(NonPositiveWeight):
            make_distribution((0, 1))

    def test_negative_and_nonfinite_rejected(self):
        with pytest.raises(NonPositiveWeight):
            make_distribution((-1, 2))
        with pytest.raises(NonPositiveWeight):
            make_distribution((math.inf, 1))
        with pytest.raises(NonPositiveWeight):
            make_distribution((math.nan, 1))

    def test_alphabet_too_small(self):
        with pytest.raises(AlphabetTooSmall):
            make_distribution((1,))

    def test_normalized_within_tolerance(self):
        rng = np.random.default_rng(1)
        for _ in range(25):
            weights = rng.uniform(0.01, 10.0, size=rng.integers(2, 30))
            dist = make_distribution(weights)
            assert abs(float(np.exp(dist.log_probs).sum()) - 1.0) <= 1e-12
            assert np.all(np.isfinite(dist.log_probs))

    def test_from_log_weights_matches(self):
        rng = np.random.default_rng(2)
        logw = rng.normal(size=6) - 500.0  # far from linear-domain scale
        dist = from_log_weights(logw)
        assert abs(float(np.exp(dist.log_probs).sum()) - 1.0) <= 1e-12


class TestSequenceProb:
    def test_uniform_product(self):
        dist = make_distribution((1, 1, 1))
        seq = Sequence(np.array([0, 1, 2]))
        assert log_sequence_prob(dist, seq) == pytest.approx(3 * math.log(1 / 3), abs=1e-15)

    def test_demo_pair_double_zero(self, demo_p):
        seq = Sequence(np.array([0, 0]))
        assert log_sequence_prob(demo_p, seq) == pytest.approx(math.log(0.04), abs=1e-12)

    def test_equals_type_identity(self, demo_p):
        rng = np.random.default_rng(3)
        for _ in range(20):
            seq = Sequence(rng.integers(0, 3, size=rng.integers(1, 40)))
            tau = type_of(seq, 3)
            via_type = float(tau.counts @ demo_p.log_probs)
            assert log_sequence_prob(demo_p, seq) == pytest.approx(via_type, abs=1e-12)

    def test_symbol_out_of_range(self, demo_p):
        with pytest.raises(SymbolOutOfRange):
            log_sequence_prob(demo_p, Sequence(np.array([0, 3])))


class TestTypeOf:
    def test_direct_count(self):
        tau = type_of(Sequence(np.array([0, 0, 1, 2])), 3)
        assert tau.counts.tolist() == [2, 1, 1]
        assert tau.m == 4

    def test_permutation_invariance(self):
        rng = np.random.default_rng(4)
        base = rng.integers(0, 4, size=30)
        tau = type_of(Sequence(base), 4)
        for _ in range(10):
            perm = rng.permutation(base)
            assert type_of(Sequence(perm), 4) == tau

    def test_singleton(self):
        tau = type_of(Sequence(np.array([0])), 3)
        assert tau.counts.tolist() == [1, 0, 0]

    def test_out_of_range(self):
        with pytest.raises(SymbolOutOfRange):
            type_of(Sequence(np.array([0, 5])), 3)


class TestEnumerateTypes:
    def test_m2_k2(self):
        types = enumerate_types(2, 2)
        assert [t.counts.tolist() for t in types] == [[0, 2], [1, 1], [2, 0]]

    def test_m2_k3_count(self):
        assert len(enumerate_types(2, 3)) == 6

    def test_m10_k3_count(self):
        # brute-force composition count
        brute = sum(1 for a in range(11) for _ in range(11 - a))
        assert brute == 66
        assert len(enumerate_types(10, 3)) == 66

    def test_all_distinct_and_sum_to_m(self):
        types = enumerate_types(7, 4)
        assert len({t for t in types}) == count_types(7, 4)
        assert all(t.m == 7 for t in types)

    def test_cap(self):
        with pytest.raises(SizeOverflow):
            enumerate_types(1000, 6, cap=100)

    def test_m_grained(self):
        for tau in enumerate_types(5, 3):
            probs = tau.as_probs()
            assert np.allclose(probs * 5, np.round(probs * 5), atol=1e-12)


def _lexicographic_compositions(m: int, K: int) -> np.ndarray:
    """Compositions of m into K parts, in itertools.product (lexicographic) order."""
    rows = [
        head + (m - sum(head),)
        for head in itertools.product(range(m + 1), repeat=K - 1)
        if sum(head) <= m
    ]
    return np.array(rows, dtype=np.int64)


class TestTypeCountsMatrix:
    def test_matches_itertools_reference(self):
        for K in range(2, 7):
            for m in range(1, 13):
                assert np.array_equal(type_counts_matrix(m, K), _lexicographic_compositions(m, K))

    def test_large_m(self):
        counts = type_counts_matrix(400, 3)
        assert counts.shape == (count_types(400, 3), 3)
        assert np.array_equal(counts, _lexicographic_compositions(400, 3))

    def test_enumerate_types_rows(self):
        types = enumerate_types(6, 4)
        assert np.array_equal(np.array([t.counts for t in types]), type_counts_matrix(6, 4))


class TestTypeClassSize:
    def test_class_sizes_match_per_row_lgamma_sum(self):
        for K, m in [*itertools.product(range(2, 7), range(1, 13)), (3, 400)]:
            counts = type_counts_matrix(m, K)
            per_row = [log_type_class_size(TypeVector(row)) for row in counts]
            assert np.array_equal(log_class_sizes(counts), per_row)

    def test_single_class(self):
        assert log_type_class_size(TypeVector(np.array([2, 0, 0]))) == pytest.approx(0.0, abs=1e-12)

    def test_two_arrangements(self):
        assert log_type_class_size(TypeVector(np.array([1, 1, 0]))) == pytest.approx(
            math.log(2), abs=1e-12
        )

    def test_exact_multinomial(self):
        tau = TypeVector(np.array([4, 3, 3]))
        exact = math.factorial(10) // (math.factorial(4) * math.factorial(3) ** 2)
        assert exact == 4200
        assert log_type_class_size(tau) == pytest.approx(math.log(exact), rel=1e-12)

    def test_random_against_integer_multinomial(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            K = int(rng.integers(2, 5))
            counts = rng.multinomial(int(rng.integers(1, 60)), np.ones(K) / K)
            if counts.sum() == 0:
                continue
            tau = TypeVector(counts)
            exact = math.factorial(tau.m)
            for c in counts:
                exact //= math.factorial(int(c))
            assert log_type_class_size(tau) == pytest.approx(math.log(exact), rel=1e-10)

    def test_types_partition_sequence_space(self):
        rng = np.random.default_rng(6)
        for K, m in [(2, 6), (3, 5), (4, 4)]:
            dist, _ = random_pair(rng, K)
            counts = type_counts_matrix(m, K)
            sizes = log_class_sizes(counts)
            total = float(np.exp(sizes + counts @ dist.log_probs).sum())
            assert total == pytest.approx(1.0, abs=1e-9)


class TestSampleSequence:
    def test_deterministic(self, demo_p):
        a = sample_sequence(demo_p, 50, 123)
        b = sample_sequence(demo_p, 50, 123)
        assert np.array_equal(a.symbols, b.symbols)

    def test_near_point_mass(self):
        eps = 1e-6
        dist = make_distribution((1 - 2 * eps, eps, eps))
        seq = sample_sequence(dist, 5, 7)
        assert np.all(seq.symbols == 0)

    def test_uniform_type_concentrates(self):
        dist = make_distribution((1, 1, 1))
        seq = sample_sequence(dist, 30000, 99)
        tau = type_of(seq, 3)
        assert np.max(np.abs(tau.as_probs() - 1 / 3)) <= 0.02

    def test_symbols_in_range(self, demo_p):
        seq = sample_sequence(demo_p, 1000, 11)
        assert seq.symbols.min() >= 0 and seq.symbols.max() < 3
