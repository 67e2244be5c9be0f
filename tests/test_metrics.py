from __future__ import annotations

import math

import numpy as np
import pytest

from alignlab import (
    AlphabetMismatch,
    NonPositiveOrder,
    cross_entropy,
    entropy,
    kl_divergence,
    kl_divergence_log_rows,
    kl_divergence_rows,
    make_distribution,
    renyi_cross_entropy,
)
from alignlab.distributions import log_class_sizes, type_counts_matrix

from .conftest import (
    TERNARY_P,
    TERNARY_Q,
    interior_dirichlet,
    prior_kl_divergence,
    random_pair,
)


def _direct_cross_entropy(p_weights, q_weights) -> float:
    # independent scalar-summation oracle
    return sum(pw * math.log(1.0 / qw) for pw, qw in zip(p_weights, q_weights))


class TestCrossEntropy:
    def test_uniform_self(self):
        u = make_distribution((1,) * 5)
        assert cross_entropy(u, u) == pytest.approx(math.log(5), abs=1e-12)

    def test_self_equals_entropy(self, demo_p):
        assert cross_entropy(demo_p, demo_p) == pytest.approx(entropy(demo_p), abs=1e-12)

    def test_demo_pair_direct_sum(self, demo_p, demo_q):
        expected = _direct_cross_entropy(TERNARY_P, TERNARY_Q)
        assert expected == pytest.approx(1.4922990932106357, abs=1e-12)
        assert cross_entropy(demo_p, demo_q) == pytest.approx(expected, abs=1e-12)

    def test_alphabet_mismatch(self, demo_p):
        with pytest.raises(AlphabetMismatch):
            cross_entropy(demo_p, make_distribution((1, 1)))


class TestKLDivergence:
    def test_identity_of_indiscernibles(self, demo_p):
        assert kl_divergence(demo_p, demo_p) == 0.0

    def test_kl_to_uniform_identity(self, demo_p):
        u = make_distribution((1, 1, 1))
        assert kl_divergence(demo_p, u) == pytest.approx(
            math.log(3) - entropy(demo_p), abs=1e-12
        )

    def test_demo_pair_direct_sum(self, demo_p, demo_q):
        expected = sum(
            pw * math.log(pw / qw) for pw, qw in zip(TERNARY_P, TERNARY_Q)
        )
        assert expected == pytest.approx(0.4626460791460622, abs=1e-12)
        assert kl_divergence(demo_p, demo_q) == pytest.approx(expected, abs=1e-12)
        assert kl_divergence(demo_p, demo_q) > 0.0

    def test_nonnegative_on_random_pairs(self):
        rng = np.random.default_rng(10)
        for _ in range(50):
            p, q = random_pair(rng, int(rng.integers(2, 8)))
            assert kl_divergence(p, q) >= 0.0

    def test_decomposition_identity(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            p, q = random_pair(rng, int(rng.integers(2, 8)))
            assert kl_divergence(p, q) == pytest.approx(
                cross_entropy(p, q) - entropy(p), abs=1e-12
            )


class TestKLDivergenceRows:
    @pytest.mark.parametrize("K", [2, 3, 10, 100])
    def test_interior_rows_match_kl_divergence(self, K):
        rng = np.random.default_rng(K)
        p = make_distribution(rng.dirichlet(np.ones(K)))
        points = [make_distribution(rng.dirichlet(np.ones(K))) for _ in range(20)]
        rows = kl_divergence_rows(np.array([v.probs() for v in points]), p.probs())
        for v, row in zip(points, rows):
            assert row == pytest.approx(kl_divergence(v, p), rel=1e-14)

    def test_vertex_takes_zero_log_zero(self, demo_p):
        # 0 log 0 = 0: only the vertex's own symbol contributes
        vertex = np.array([1.0, 0.0, 0.0])
        assert kl_divergence_rows(vertex, demo_p.probs()) == -math.log(demo_p.probs()[0])

    def test_batch_equals_rows_one_at_a_time(self, demo_p):
        rng = np.random.default_rng(3)
        batch = rng.dirichlet(np.ones(3), size=50)
        batch[:5, 1] = 0.0  # boundary rows too
        batch[:5] /= batch[:5].sum(axis=1, keepdims=True)
        ref = demo_p.probs()
        rows = kl_divergence_rows(batch, ref)
        assert rows.tobytes() == np.array([kl_divergence_rows(v, ref) for v in batch]).tobytes()


class TestKLDivergenceLogRows:
    @pytest.mark.parametrize("K", [2, 3, 7, 8, 9, 16, 100, 129, 1000, 1024])
    def test_rows_match_kl_divergence_bits(self, K):
        # row i is the prior kl_divergence on pair i, bit for bit, also
        # with either side one row against all the other's
        rng = np.random.default_rng(K)
        ps = [make_distribution(interior_dirichlet(rng, K)) for _ in range(6)]
        qs = [make_distribution(interior_dirichlet(rng, K)) for _ in range(6)]
        log_p = np.array([p.log_probs for p in ps])
        log_q = np.array([q.log_probs for q in qs])
        rows = kl_divergence_log_rows(log_p, log_q)
        against_q0 = kl_divergence_log_rows(log_p, log_q[0])
        from_p0 = kl_divergence_log_rows(log_p[0], log_q)
        for i, (p, q) in enumerate(zip(ps, qs)):
            ref = prior_kl_divergence(p.log_probs, q.log_probs).hex()
            assert float(rows[i]).hex() == ref == kl_divergence(p, q).hex()
            assert float(against_q0[i]).hex() == prior_kl_divergence(log_p[i], log_q[0]).hex()
            assert float(from_p0[i]).hex() == prior_kl_divergence(log_p[0], log_q[i]).hex()
        assert float(kl_divergence_log_rows(log_p[1], log_q[1])).hex() == float(rows[1]).hex()


class TestEntropy:
    def test_uniform(self):
        assert entropy(make_distribution((1,) * 7)) == pytest.approx(math.log(7), abs=1e-12)

    def test_near_point_mass(self):
        eps = 1e-9
        dist = make_distribution((1 - 2 * eps, eps, eps))
        assert entropy(dist) < 1e-7

    def test_direct_sum(self, demo_p):
        expected = -sum(w * math.log(w) for w in TERNARY_P)
        assert entropy(demo_p) == pytest.approx(expected, abs=1e-12)
        assert expected == pytest.approx(1.0296530140645737, abs=1e-12)

    def test_bounds(self):
        rng = np.random.default_rng(12)
        for _ in range(30):
            K = int(rng.integers(2, 10))
            p, _ = random_pair(rng, K)
            h = entropy(p)
            assert 0.0 <= h <= math.log(K) + 1e-12


class TestRenyiCrossEntropy:
    def test_order_one_is_cross_entropy(self, demo_p, demo_q):
        assert renyi_cross_entropy(demo_p, demo_q, 1.0) == cross_entropy(demo_p, demo_q)

    def test_uniform_any_order(self):
        u = make_distribution((1,) * 4)
        # near t = 1 the closed form conditions like eps/|t-1|, hence the
        # looser tolerance (the t = 1 window itself uses the extension)
        for t in (0.3, 0.9999, 1.5, 3.0):
            assert renyi_cross_entropy(u, u, t) == pytest.approx(math.log(4), abs=1e-9)

    def test_order_two_direct_sum(self, demo_p, demo_q):
        expected = -math.log(sum(pw * qw for pw, qw in zip(TERNARY_P, TERNARY_Q)))
        assert expected == pytest.approx(1.2809338454620642, abs=1e-12)
        assert renyi_cross_entropy(demo_p, demo_q, 2.0) == pytest.approx(expected, abs=1e-12)

    def test_continuity_across_order_one(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            p, q = random_pair(rng, 3)
            ce = cross_entropy(p, q)
            for t in (1.0 - 1e-4, 1.0 + 1e-4):
                assert abs(renyi_cross_entropy(p, q, t) - ce) < 1e-3

    def test_nonpositive_order(self, demo_p, demo_q):
        with pytest.raises(NonPositiveOrder):
            renyi_cross_entropy(demo_p, demo_q, 0.0)
        with pytest.raises(NonPositiveOrder):
            renyi_cross_entropy(demo_p, demo_q, -1.0)

    @pytest.mark.parametrize("t", [math.inf, math.nan])
    def test_non_finite_order(self, demo_p, demo_q, t):
        with pytest.raises(NonPositiveOrder, match="positive and finite"):
            renyi_cross_entropy(demo_p, demo_q, t)


class TestProductAdditivity:
    def test_cross_entropy_additive_over_products(self):
        # sequence-level sums over enumerated types for small m
        rng = np.random.default_rng(14)
        for m in range(1, 7):
            p, q = random_pair(rng, 3)
            counts = type_counts_matrix(m, 3)
            sizes = log_class_sizes(counts)
            masses = np.exp(sizes + counts @ p.log_probs)
            seq_level = float(np.sum(masses * -(counts @ q.log_probs)))
            assert seq_level == pytest.approx(m * cross_entropy(p, q), abs=1e-9)
