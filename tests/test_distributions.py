from __future__ import annotations

import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from alignlab import (
    AlphabetTooSmall,
    CategoricalDistribution,
    NonPositiveWeight,
    SizeOverflow,
    from_log_weights,
    make_distribution,
    sequence_space_log_probs,
)
from alignlab.distributions import (
    log_class_sizes,
    type_counts_matrix,
)

from .conftest import (
    random_pair,
    ref_log_class_sizes,
    ref_type_counts_matrix,
    symbols_from_uniforms,
)


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

    @pytest.mark.parametrize(
        "log_probs, error",
        [
            ([math.log(0.5), -math.inf], NonPositiveWeight),
            ([math.log(0.5), math.nan], NonPositiveWeight),
            ([math.log(0.5), math.log(0.6)], NonPositiveWeight),
            ([], AlphabetTooSmall),
        ],
        ids=["zero-probability", "nan", "unnormalised", "empty"],
    )
    def test_direct_construction_rejects(self, log_probs, error):
        with pytest.raises(error):
            CategoricalDistribution(np.array(log_probs))

    @pytest.mark.parametrize(
        "log_weights, error",
        [
            ([], AlphabetTooSmall),
            ([[0.0, 1.0]], AlphabetTooSmall),
            ([0.0, math.nan], NonPositiveWeight),
            ([0.0, -math.inf], NonPositiveWeight),
        ],
        ids=["empty", "2-d", "nan", "minus-inf"],
    )
    def test_from_log_weights_rejects(self, log_weights, error):
        with pytest.raises(error):
            from_log_weights(log_weights)

    def test_from_log_weights_matches(self):
        rng = np.random.default_rng(2)
        logw = rng.normal(size=6) - 500.0  # far from linear-domain scale
        dist = from_log_weights(logw)
        assert abs(float(np.exp(dist.log_probs).sum()) - 1.0) <= 1e-12


def _log_class_size(counts) -> float:
    """log m! / prod_k counts_k!, one lgamma per count."""
    m = int(sum(counts))
    return math.lgamma(m + 1) - float(sum(math.lgamma(int(c) + 1) for c in counts))


def _sequence_index(seq, K: int) -> int:
    """Big-endian base-K index of a sequence, as ``sequence_space_log_probs`` orders them."""
    return int(np.ravel_multi_index(tuple(seq), (K,) * len(seq)))


class TestSequenceProb:
    """The product probability of a sequence is its entry in ``sequence_space_log_probs``."""

    def test_uniform_product(self):
        dist = make_distribution((1, 1, 1))
        index = _sequence_index([0, 1, 2], 3)
        assert sequence_space_log_probs(dist, 3)[index] == pytest.approx(
            3 * math.log(1 / 3), abs=1e-15
        )

    def test_demo_pair_double_zero(self, demo_p):
        assert sequence_space_log_probs(demo_p, 2)[0] == pytest.approx(math.log(0.04), abs=1e-12)

    def test_equals_type_identity(self, demo_p):
        rng = np.random.default_rng(3)
        for _ in range(20):
            seq = rng.integers(0, 3, size=rng.integers(1, 9))
            counts = np.bincount(seq, minlength=3)
            via_type = float(counts @ demo_p.log_probs)
            got = sequence_space_log_probs(demo_p, seq.size)[_sequence_index(seq, 3)]
            assert got == pytest.approx(via_type, abs=1e-12)


class TestTypeOf:
    """The type of a sequence is its ``np.bincount`` over the alphabet."""

    def test_direct_count(self):
        counts = np.bincount(np.array([0, 0, 1, 2]), minlength=3)
        assert counts.tolist() == [2, 1, 1]
        assert counts.sum() == 4

    def test_permutation_invariance(self):
        rng = np.random.default_rng(4)
        base = rng.integers(0, 4, size=30)
        counts = np.bincount(base, minlength=4)
        for _ in range(10):
            perm = rng.permutation(base)
            assert np.array_equal(np.bincount(perm, minlength=4), counts)

    def test_singleton(self):
        counts = np.bincount(np.array([0]), minlength=3)
        assert counts.tolist() == [1, 0, 0]

    def test_out_of_range(self):
        # a symbol outside the alphabet shows up as a count past its last bin
        counts = np.bincount(np.array([0, 5]), minlength=3)
        assert counts.size > 3 and counts[3:].sum() == 1


class TestEnumerateTypes:
    """All types of length-m sequences are the rows of ``type_counts_matrix``."""

    def test_m2_k2(self):
        assert type_counts_matrix(2, 2).tolist() == [[0, 2], [1, 1], [2, 0]]

    def test_m2_k3_count(self):
        assert len(type_counts_matrix(2, 3)) == 6

    def test_m10_k3_count(self):
        # brute-force composition count
        brute = sum(1 for a in range(11) for _ in range(11 - a))
        assert brute == 66
        assert len(type_counts_matrix(10, 3)) == 66

    def test_all_distinct_and_sum_to_m(self):
        counts = type_counts_matrix(7, 4)
        assert len({tuple(row) for row in counts}) == math.comb(7 + 4 - 1, 4 - 1)
        assert np.all(counts.sum(axis=1) == 7)

    @pytest.mark.parametrize("m, K", [(0, 3), (3, 1)])
    def test_too_small(self, m, K):
        with pytest.raises(AlphabetTooSmall):
            type_counts_matrix(m, K)

    def test_cap(self):
        # C(1005, 5) = 8.5e12 types, over TYPE_CAP = 1e7
        with pytest.raises(SizeOverflow):
            type_counts_matrix(1000, 6)

    def test_m_grained(self):
        for probs in type_counts_matrix(5, 3) / 5:
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
        assert counts.shape == (math.comb(402, 2), 3)
        assert np.array_equal(counts, _lexicographic_compositions(400, 3))

    @pytest.mark.parametrize("m, K", [(1, 2), (7, 2), (30, 3), (400, 3), (12, 5), (5, 8), (2, 40)])
    def test_matches_reference_copy(self, m, K):
        counts = type_counts_matrix(m, K)
        assert counts.flags.c_contiguous
        assert counts.tobytes() == ref_type_counts_matrix(m, K).tobytes()

    def test_enumerate_types_rows(self):
        # the distinct bincounts of all 4^6 sequences, in lexicographic order
        seqs = np.array(list(itertools.product(range(4), repeat=6)))
        types = np.unique([np.bincount(seq, minlength=4) for seq in seqs], axis=0)
        assert np.array_equal(types, type_counts_matrix(6, 4))


class TestTypeClassSize:
    def test_class_sizes_match_per_row_lgamma_sum(self):
        for K, m in [*itertools.product(range(2, 7), range(1, 13)), (3, 400)]:
            counts = type_counts_matrix(m, K)
            per_row = [_log_class_size(row) for row in counts]
            assert np.array_equal(log_class_sizes(counts), per_row)

    @settings(max_examples=150)
    @given(
        st.integers(0, 2**32 - 1),
        st.one_of(st.integers(2, 40), st.sampled_from([129, 130, 200, 300])),
        st.integers(1, 5000),
    )
    def test_bits_match_reference_row_sum(self, seed, K, m):
        # numpy's row sum is sequential below 8 items, pairwise above, and
        # split in halves above 128; the column-at-a-time sum follows that order
        rng = np.random.default_rng(seed)
        counts = rng.multinomial(m, rng.dirichlet(np.ones(K)), size=50)
        assert log_class_sizes(counts).tobytes() == ref_log_class_sizes(counts).tobytes()

    @pytest.mark.parametrize("m, K", [(2, 130), (1, 300), (3, 9), (12, 8)])
    def test_bits_match_reference_on_type_rows(self, m, K):
        counts = type_counts_matrix(m, K)
        assert log_class_sizes(counts).tobytes() == ref_log_class_sizes(counts).tobytes()

    def test_single_class(self):
        assert log_class_sizes(np.array([[2, 0, 0]]))[0] == pytest.approx(0.0, abs=1e-12)

    def test_two_arrangements(self):
        assert log_class_sizes(np.array([[1, 1, 0]]))[0] == pytest.approx(
            math.log(2), abs=1e-12
        )

    def test_exact_multinomial(self):
        counts = np.array([[4, 3, 3]])
        exact = math.factorial(10) // (math.factorial(4) * math.factorial(3) ** 2)
        assert exact == 4200
        assert log_class_sizes(counts)[0] == pytest.approx(math.log(exact), rel=1e-12)

    def test_random_against_integer_multinomial(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            K = int(rng.integers(2, 5))
            counts = rng.multinomial(int(rng.integers(1, 60)), np.ones(K) / K)
            if counts.sum() == 0:
                continue
            exact = math.factorial(int(counts.sum()))
            for c in counts:
                exact //= math.factorial(int(c))
            assert log_class_sizes(counts[None, :])[0] == pytest.approx(math.log(exact), rel=1e-10)

    def test_types_partition_sequence_space(self):
        rng = np.random.default_rng(6)
        for K, m in [(2, 6), (3, 5), (4, 4)]:
            dist, _ = random_pair(rng, K)
            counts = type_counts_matrix(m, K)
            sizes = log_class_sizes(counts)
            total = float(np.exp(sizes + counts @ dist.log_probs).sum())
            assert total == pytest.approx(1.0, abs=1e-9)


def _sample_sequence(dist, m: int, seed: int) -> np.ndarray:
    """A length-m i.i.d. sequence from the first m uniforms of ``seed``'s stream."""
    return symbols_from_uniforms(dist, np.random.default_rng(seed).random(m))


class TestSampleSequence:
    def test_deterministic(self, demo_p):
        a = _sample_sequence(demo_p, 50, 123)
        b = _sample_sequence(demo_p, 50, 123)
        assert np.array_equal(a, b)

    def test_near_point_mass(self):
        eps = 1e-6
        dist = make_distribution((1 - 2 * eps, eps, eps))
        seq = _sample_sequence(dist, 5, 7)
        assert np.all(seq == 0)

    def test_uniform_type_concentrates(self):
        dist = make_distribution((1, 1, 1))
        seq = _sample_sequence(dist, 30000, 99)
        freqs = np.bincount(seq, minlength=3) / 30000
        assert np.max(np.abs(freqs - 1 / 3)) <= 0.02

    def test_symbols_in_range(self, demo_p):
        seq = _sample_sequence(demo_p, 1000, 11)
        assert seq.dtype == np.int64 and seq.shape == (1000,)
        assert seq.min() >= 0 and seq.max() < 3


class TestSymbolsFromUniforms:
    # a fixed K = 1024 Dirichlet(0.3) draw, with many CDF steps crowded together
    SKEWED = np.random.default_rng(2024).dirichlet(np.full(1024, 0.3)) + 1e-300

    @settings(max_examples=40)
    @given(
        K=st.integers(2, 1024),
        seed=st.integers(0, 2**32 - 1),
        tiny=st.integers(0, 8),
        skewed=st.booleans(),
    )
    @example(K=1024, seed=0, tiny=0, skewed=True)
    def test_counts_cdf_steps_at_or_below(self, K, seed, tiny, skewed):
        # the symbol of u is the number of CDF steps <= u, checked with
        # uniforms placed exactly on every step and just below it;
        # underflowing weights put many steps at one point
        rng = np.random.default_rng(seed)
        weights = self.SKEWED if skewed else rng.random(K) + 1e-3
        if tiny and not skewed:
            weights[rng.integers(K, size=tiny)] = 1e-300
        dist = make_distribution(weights)
        steps = np.cumsum(np.exp(dist.log_probs))[:-1]
        u = np.concatenate([rng.random(500), steps, np.nextafter(steps, 0.0)])
        u = u[(u >= 0.0) & (u < 1.0)].reshape(1, -1)
        expected = (u[..., None] >= steps).sum(axis=-1)
        got = symbols_from_uniforms(dist, u)
        assert got.dtype == np.int64 and got.shape == u.shape
        assert np.array_equal(got, expected)

    @pytest.mark.parametrize("bad", [-0.5, 1.0, np.nan])
    def test_rejects_uniforms_outside_unit_interval(self, demo_p, bad):
        u = np.array([0.0, 0.5, bad, 0.25])
        with pytest.raises(ValueError, match=r"\[0, 1\)"):
            symbols_from_uniforms(demo_p, u)
