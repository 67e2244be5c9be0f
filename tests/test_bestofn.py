from __future__ import annotations

import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from alignlab import (
    AlphabetMismatch,
    BonConfig,
    BudgetExceeded,
    InvalidN,
    LengthMismatch,
    SizeOverflow,
    bon_enumeration_oracle,
    bon_exact_pmf,
    bon_expected_type,
    bon_kl_rate_to_optimal,
    bon_kl_to_reference,
    bon_sample,
    bon_type_law,
    group_reward_levels,
    make_distribution,
    product_type_law,
    sequence_space_log_probs,
    solve_alpha_for_kl,
    from_log_weights,
)

from alignlab.bestofn import REWARD_TIE_TOL, _winner_log_probs
from alignlab.logspace import log_power_diff, logsumexp

from .conftest import random_pair

# Exact best-of-2 joint over symbol pairs for the ternary demo pair.
PAIR_JOINT = {
    (0, 0): Fraction(49, 625),
    (0, 1): Fraction(21, 250),
    (0, 2): Fraction(43, 250),
    (1, 0): Fraction(21, 250),
    (1, 1): Fraction(81, 10000),
    (1, 2): Fraction(9, 125),
    (2, 0): Fraction(43, 250),
    (2, 1): Fraction(9, 125),
    (2, 2): Fraction(103, 400),
}
MARGINAL_0 = Fraction(209, 625)

# Exact expected type of best-of-3 at m=10 for the demo pair, frozen from the
# type-law summation and cross-validated by 2e5 Monte Carlo draws (within 2 sigma).
ETYPE_M10_N3 = (0.2974717735806194, 0.2120921000591865, 0.4904361263601892)

CHI2_DF8_999 = 26.124  # 99.9% quantile, 8 degrees of freedom
CHI2_DF2_999 = 13.816  # 99.9% quantile, 2 degrees of freedom


def _pair_space(p, q):
    probs = from_log_weights(sequence_space_log_probs(p, 2))
    rewards = sequence_space_log_probs(q, 2)
    return probs, rewards


class TestBonConfig:
    def test_exactly_one_of_n_logn(self):
        with pytest.raises(InvalidN):
            BonConfig()
        with pytest.raises(InvalidN):
            BonConfig(N=2, log_N=1.0)

    def test_invalid_values(self):
        with pytest.raises(InvalidN):
            BonConfig(N=0)
        with pytest.raises(InvalidN):
            BonConfig(N=2.5)
        with pytest.raises(InvalidN):
            BonConfig(log_N=-0.1)

    def test_effective_n(self):
        assert BonConfig(N=7).n_effective == 7.0
        assert BonConfig(log_N=0.0).is_single_draw
        assert BonConfig(log_N=2.0).n_effective == pytest.approx(math.exp(2.0), rel=1e-15)


class TestRewardLevels:
    def test_grouping_and_cumulatives(self, demo_p, demo_q):
        probs, rewards = _pair_space(demo_p, demo_q)
        order, sizes, level_lps, cums = group_reward_levels(probs.log_probs, rewards)
        # pair rewards log{1,2,4,6,12,36} -> six levels, two of them tied pairs
        assert sizes.tolist() == [1, 2, 1, 2, 2, 1]
        assert cums[-1] == 0.0
        assert cums[0] == -math.inf
        values = rewards[order][np.cumsum(sizes) - sizes]
        assert all(b > a for a, b in zip(values, values[1:]))
        masses = [math.exp(lp) for lp in level_lps]
        assert sum(masses) == pytest.approx(1.0, abs=1e-12)

    def test_tie_tolerance(self):
        dist = make_distribution((1, 1, 1, 1))
        rewards = np.array([0.0, 5e-13, 1.0, 1.0 + 5e-13])
        _, sizes, _, _ = group_reward_levels(dist.log_probs, rewards)
        assert sizes.tolist() == [2, 2]


class TestBonExactPmf:
    def test_single_draw_is_reference(self, demo_p, demo_q):
        rewards = demo_q.log_probs
        assert bon_exact_pmf(demo_p, rewards, 1) is demo_p

    def test_pair_joint_matches_fractions(self, demo_p, demo_q):
        probs, rewards = _pair_space(demo_p, demo_q)
        pi = bon_exact_pmf(probs, rewards, 2).probs()
        for (y1, y2), frac in PAIR_JOINT.items():
            assert abs(pi[3 * y1 + y2] - float(frac)) <= 1e-12
        marginal = pi.reshape(3, 3).sum(axis=1)
        assert abs(marginal[0] - float(MARGINAL_0)) <= 1e-12

    def test_all_rewards_equal_preserves_reference(self, demo_p):
        for n in (2, 5, 100):
            pi = bon_exact_pmf(demo_p, np.zeros(3), n)
            assert np.max(np.abs(pi.probs() - demo_p.probs())) <= 1e-15

    def test_hand_enumerated_binary(self):
        # symbol 0 wins any tuple containing it: pi(0) = 1 - 0.6^3
        p = make_distribution((0.4, 0.6))
        rewards = np.log(np.array([0.9, 0.1]))
        pi = bon_exact_pmf(p, rewards, 3).probs()
        assert pi[0] == pytest.approx(0.784, abs=1e-12)

    def test_errors(self, demo_p):
        with pytest.raises(LengthMismatch):
            bon_exact_pmf(demo_p, np.zeros(4), 2)
        with pytest.raises(InvalidN):
            bon_exact_pmf(demo_p, np.zeros(3), 0)
        with pytest.raises(InvalidN):
            bon_exact_pmf(demo_p, np.zeros(3), 2.0)

    def test_huge_n_concentrates(self, demo_p, demo_q):
        pi = bon_exact_pmf(demo_p, demo_q.log_probs, 10**9)
        probs = pi.probs()
        assert probs[0] == pytest.approx(1.0, abs=1e-9)
        assert np.all(np.isfinite(pi.log_probs))


class TestBonTypeLaw:
    def test_marginal_via_expected_type(self, demo_p, demo_q):
        law = bon_type_law(demo_p, demo_q, 2, BonConfig(N=2))
        # exchangeability makes the single-symbol marginal the expected type
        etype = bon_expected_type(law)
        assert abs(etype[0] - float(MARGINAL_0)) <= 1e-12

    def test_single_draw_equals_product_law(self, demo_p, demo_q):
        law = bon_type_law(demo_p, demo_q, 4, BonConfig(N=1))
        ref = product_type_law(demo_p, 4)
        assert np.array_equal(law.seq_log_probs(), ref.seq_log_probs())
        assert law.policy_tag == "best_of_n"

    def test_matches_enumeration_oracle_per_sequence(self, demo_p, demo_q):
        p2 = make_distribution((0.35, 0.65))
        q2 = make_distribution((0.8, 0.2))
        law = bon_type_law(p2, q2, 3, BonConfig(N=3))
        oracle = bon_enumeration_oracle(p2, q2, 3, 3)
        by_class = dict(zip(map(tuple, law.counts_matrix()), law.seq_log_probs()))
        for idx in range(8):
            seq = [(idx >> (2 - pos)) & 1 for pos in range(3)]
            counts = (seq.count(0), seq.count(1))
            assert math.exp(by_class[counts]) == pytest.approx(oracle[idx], abs=1e-12)

    def test_normalization_across_regimes(self, demo_p, demo_q):
        for m, config in [
            (2, BonConfig(N=2)),
            (6, BonConfig(N=17)),
            (40, BonConfig(log_N=40 * 0.11)),
            (80, BonConfig(log_N=80 * 0.11)),
            (160, BonConfig(log_N=160 * 0.11)),
        ]:
            law = bon_type_law(demo_p, demo_q, m, config)
            assert float(law.class_masses().sum()) == pytest.approx(1.0, abs=1e-9)

    def test_fractional_effective_n(self, demo_p, demo_q):
        law = bon_type_law(demo_p, demo_q, 5, BonConfig(log_N=0.55))
        assert float(law.class_masses().sum()) == pytest.approx(1.0, abs=1e-12)

    def test_size_overflow(self, demo_p, demo_q):
        with pytest.raises(SizeOverflow):
            bon_type_law(demo_p, demo_q, 10_000, BonConfig(N=2), type_cap=1000)

    def test_cross_type_reward_tie(self, demo_p):
        # q0^2 == q1 * q2 makes the types (2,0,0) and (0,1,1) collide at one
        # reward level; grouping must treat them as a single level, matching
        # the brute-force oracle
        q = make_distribution((2 / 7, 4 / 7, 1 / 7))
        assert abs(2 * q.log_probs[0] - (q.log_probs[1] + q.log_probs[2])) < 1e-12
        law = bon_type_law(demo_p, q, 2, BonConfig(N=3))
        oracle = bon_enumeration_oracle(demo_p, q, 2, 3)
        classes = zip(law.counts_matrix(), law.seq_log_probs())
        by_class = {tuple(c): math.exp(lp) for c, lp in classes}
        for idx in range(9):
            digits = [idx // 3, idx % 3]
            counts = tuple(np.bincount(digits, minlength=3))
            assert abs(by_class[counts] - oracle[idx]) <= 1e-12

    def test_log_n_matches_integer_n(self, demo_p, demo_q):
        by_int = bon_type_law(demo_p, demo_q, 6, BonConfig(N=5))
        by_log = bon_type_law(demo_p, demo_q, 6, BonConfig(log_N=math.log(5.0)))
        assert np.max(np.abs(by_int.seq_log_probs() - by_log.seq_log_probs())) <= 1e-9


_LN2 = math.log(2.0)
_EPS = float(np.finfo(np.float64).eps)


def _loop_levels(rewards):
    """(start, end) bounds of the reward levels within the stable sort order."""
    order = np.argsort(rewards, kind="stable")
    breaks = np.nonzero(np.diff(rewards[order]) > REWARD_TIE_TOL)[0]
    starts = np.concatenate([[0], breaks + 1])
    ends = np.concatenate([breaks + 1, [rewards.size]])
    return order, list(zip(starts, ends))


def _loop_log_power_diff(n_eff, cum_lt, level_log_prob):
    """Scalar log(S_le**N - S_lt**N) as the loop kernel formed it."""
    if cum_lt == -math.inf:
        return n_eff * level_log_prob
    r = level_log_prob - cum_lt
    u = n_eff * float(np.logaddexp(0.0, r))
    if u == 0.0:
        return n_eff * cum_lt + math.log(n_eff) + r
    if u < _LN2:
        return n_eff * cum_lt + u + math.log(-math.expm1(-u))
    return n_eff * cum_lt + u + math.log1p(-math.exp(-u))


def _loop_winner_log_probs(log_probs, rewards, n_eff):
    """The per-level loop kernel the array kernel replaced, kept as a slow reference.

    Returns the per-outcome log probabilities, and per outcome the scale
    N * (1 + |log S_lt|) of the loop's own rounding: it adds N log S_lt to
    N d, which cancel near the top, and it forms log masses near 0 as
    hi + log(sum), whose O(1) terms N multiplies (|level log mass| stands in
    for |log S_lt| at the bottom level).
    """
    order, bounds = _loop_levels(rewards)
    level_lps = [logsumexp(log_probs[order[a:b]]) for a, b in bounds]
    n = len(level_lps)
    tails = [0.0] * n
    t = -math.inf
    for i in range(n - 1, -1, -1):
        tails[i] = t
        t = float(np.logaddexp(t, level_lps[i]))
    fwd = np.logaddexp.accumulate(level_lps)
    cum_le = []
    for i in range(n):
        if tails[i] == -math.inf:
            cum_le.append(0.0)
        elif tails[i] < -_LN2:
            cum_le.append(math.log1p(-math.exp(tails[i])))
        else:
            cum_le.append(float(fwd[i]))
    out = np.empty(log_probs.size)
    scale = np.empty(log_probs.size)
    for i, (a, b) in enumerate(bounds):
        cum_lt = cum_le[i - 1] if i else -math.inf
        pick = _loop_log_power_diff(n_eff, cum_lt, level_lps[i])
        for j in order[a:b]:
            out[j] = log_probs[j] - level_lps[i] + pick
            scale[j] = n_eff * (1.0 + abs(cum_lt if i else level_lps[i]))
    return out, scale


def _mp_winner_log_probs(log_probs, rewards, n_eff):
    """Best-of-N log probabilities in 50-digit arithmetic.

    The float log probabilities are taken as exact (and normalized exactly),
    and levels are grouped by the same tie rule, so only the kernel's own
    arithmetic is measured.
    """
    with mpmath.workdps(50):
        probs = [mpmath.exp(mpmath.mpf(float(x))) for x in log_probs]
        total = mpmath.fsum(probs)
        probs = [x / total for x in probs]
        n = mpmath.mpf(float(n_eff))
        order, bounds = _loop_levels(rewards)
        out = np.empty(len(probs))
        below = mpmath.mpf(0)
        for a, b in bounds:
            level = mpmath.fsum(probs[j] for j in order[a:b])
            if below == 0:
                pick = n * mpmath.log(level)
            else:
                # S_le^N - S_lt^N = S_lt^N * expm1(N log1p(level / S_lt))
                pick = n * mpmath.log(below) + mpmath.log(
                    mpmath.expm1(n * mpmath.log1p(level / below))
                )
            for j in order[a:b]:
                out[j] = float(mpmath.log(probs[j] / level) + pick)
            below += level
    return out


@st.composite
def _flat_instances(draw):
    """Log probabilities with random or tie-heavy (small integer) rewards.

    The log weights are normalized in 50 digits and then rounded, so the
    probabilities sum to 1 within ~1e-16: N multiplies a normalization error
    of the input, which is not the kernel's to correct.
    """
    K = draw(st.integers(2, 24))
    log_w = draw(st.lists(st.floats(-30.0, 0.0), min_size=K, max_size=K))
    with mpmath.workdps(50):
        log_total = mpmath.log(mpmath.fsum(mpmath.exp(w) for w in log_w))
        log_probs = np.array([float(w - log_total) for w in log_w])
    if draw(st.booleans()):
        rewards = draw(st.lists(st.integers(0, 3), min_size=K, max_size=K))
    else:
        rewards = draw(st.lists(st.floats(-5.0, 5.0), min_size=K, max_size=K))
    return log_probs, np.array(rewards, dtype=np.float64)


# N given directly, or as exp(log_N)
_N_EFF = st.one_of(
    st.sampled_from([2.0, 3.0, 17.0, 1e3, 1e6, 1e9]),
    st.integers(2, 10**9).map(float),
    st.floats(0.0, 40.0).map(math.exp),
)


def _cross_tie_pair(a: float, b: float, p_weights):
    """A pair whose q has q0^2 = q1 * q2, so types (2,0,0) and (0,1,1) tie."""
    q = make_distribution((math.sqrt(a * b), a, b))
    return make_distribution(p_weights), q


class TestArrayKernel:
    @settings(max_examples=300)
    @given(_flat_instances(), _N_EFF)
    def test_matches_loop_reference(self, instance, n_eff):
        log_probs, rewards = instance
        ref, scale = _loop_winner_log_probs(log_probs, rewards, n_eff)
        got = _winner_log_probs(log_probs, rewards, n_eff)
        live = ref > -700.0
        tol = 1e-12 + 32 * _EPS * scale[live]
        assert np.all(np.abs(got[live] - ref[live]) <= tol)

    @settings(max_examples=150)
    @given(_flat_instances(), _N_EFF)
    def test_matches_50_digit_kernel(self, instance, n_eff):
        log_probs, rewards = instance
        exact = _mp_winner_log_probs(log_probs, rewards, n_eff)
        got = _winner_log_probs(log_probs, rewards, n_eff)
        live = exact > -700.0
        assert np.max(np.abs(got[live] - exact[live]), initial=0.0) <= 1e-12

    @settings(max_examples=60)
    @given(
        st.floats(0.05, 1.0),
        st.floats(0.05, 1.0),
        st.tuples(st.floats(0.05, 1.0), st.floats(0.05, 1.0), st.floats(0.05, 1.0)),
        st.integers(1, 25),
        st.one_of(
            st.integers(2, 10**9).map(lambda n: BonConfig(N=n)),
            st.floats(0.0, 40.0).map(lambda log_n: BonConfig(log_N=log_n)),
        ),
    )
    def test_type_law_with_cross_type_ties(self, a, b, p_weights, m, config):
        p, q = _cross_tie_pair(a, b, p_weights)
        law = bon_type_law(p, q, m, config)
        assert abs(float(law.class_masses().sum()) - 1.0) <= 1e-12
        if config.is_single_draw:
            return
        counts = law.counts_matrix()
        class_lp = law.log_sizes() + counts @ p.log_probs
        ref, scale = _loop_winner_log_probs(class_lp, counts @ q.log_probs, config.n_effective)
        got = law.seq_log_probs() + law.log_sizes()
        live = ref > -700.0
        tol = 1e-12 + 32 * _EPS * scale[live]
        assert np.all(np.abs(got[live] - ref[live]) <= tol)

    def test_log_power_diff_50_digits(self):
        # (log S_lt, level log mass): the top level, upper levels, a deep
        # tail, and a level mass below the float resolution of S_lt
        cases = [
            (math.log(0.3), math.log(0.7)),
            (math.log1p(-1e-6), math.log(1e-6)),
            (math.log(0.5), math.log(1e-3)),
            (math.log(1e-5), math.log(1e-8)),
            (math.log(0.9), -69.0),
            (math.log(0.5), -800.0),
        ]
        cum_lt = np.array([c for c, _ in cases])
        level = np.array([x for _, x in cases])
        with mpmath.workdps(50):
            s_lt = [mpmath.exp(mpmath.mpf(c)) for c in cum_lt]
            mass = [mpmath.exp(mpmath.mpf(x)) for x in level]
            cum_le = np.array([float(mpmath.log(a + b)) for a, b in zip(s_lt, mass)])
            for n_eff in (2.0, 7.0, 1e3, 1e9, math.exp(40.0)):
                got = log_power_diff(n_eff, cum_lt, cum_le, level)
                n = mpmath.mpf(n_eff)
                for g, a, b in zip(got, s_lt, mass):
                    exact = float(n * mpmath.log(a) + mpmath.log(mpmath.expm1(n * mpmath.log1p(b / a))))
                    assert abs(g - exact) <= 1e-12 * max(1.0, abs(exact))
                bottom = log_power_diff(n_eff, [-math.inf], [math.log(0.25)], [math.log(0.25)])
                assert bottom[0] == pytest.approx(float(n * mpmath.log(0.25)), rel=1e-15)

    def test_type_law_50_digits(self, demo_p):
        # the cross-type tie pair at m=4, where 50 digits resolve every class
        p, q = demo_p, make_distribution((2 / 7, 4 / 7, 1 / 7))
        for config in (BonConfig(N=17), BonConfig(log_N=9.5)):
            law = bon_type_law(p, q, 4, config)
            counts = law.counts_matrix()
            class_lp = law.log_sizes() + counts @ p.log_probs
            exact = _mp_winner_log_probs(class_lp, counts @ q.log_probs, config.n_effective)
            got = law.seq_log_probs() + law.log_sizes()
            live = exact > -700.0
            assert np.max(np.abs(got[live] - exact[live])) <= 1e-12


class TestEnumerationOracle:
    def test_single_draw(self, demo_p, demo_q):
        oracle = bon_enumeration_oracle(demo_p, demo_q, 2, 1)
        expected = np.exp(sequence_space_log_probs(demo_p, 2))
        assert np.max(np.abs(oracle - expected)) <= 1e-15

    def test_pair_joint(self, demo_p, demo_q):
        oracle = bon_enumeration_oracle(demo_p, demo_q, 2, 2)
        for (y1, y2), frac in PAIR_JOINT.items():
            assert abs(oracle[3 * y1 + y2] - float(frac)) <= 1e-12

    def test_cap(self, demo_p, demo_q):
        with pytest.raises(SizeOverflow):
            bon_enumeration_oracle(demo_p, demo_q, 4, 4, tuple_cap=1000)

    def test_closed_forms_match_oracle(self):
        rng = np.random.default_rng(40)
        checked = 0
        while checked < 12:
            K = int(rng.integers(2, 4))
            m = int(rng.integers(1, 4))
            N = int(rng.integers(1, 5))
            if (K**m) ** N > 100_000:
                continue
            checked += 1
            p, q = random_pair(rng, K)
            oracle = bon_enumeration_oracle(p, q, m, N)
            probs = from_log_weights(sequence_space_log_probs(p, m))
            rewards = sequence_space_log_probs(q, m)
            flat = bon_exact_pmf(probs, rewards, N).probs()
            assert np.max(np.abs(flat - oracle)) <= 1e-12
            law = bon_type_law(p, q, m, BonConfig(N=N))
            classes = zip(law.counts_matrix(), law.seq_log_probs())
            by_class = {tuple(c): math.exp(lp) for c, lp in classes}
            for idx in range(K**m):
                digits = [(idx // K ** (m - 1 - pos)) % K for pos in range(m)]
                counts = tuple(np.bincount(digits, minlength=K))
                assert abs(by_class[counts] - oracle[idx]) <= 1e-12


class TestExchangeability:
    def test_pair_matrix_symmetric(self):
        rng = np.random.default_rng(41)
        for _ in range(10):
            p, q = random_pair(rng, 3)
            n = int(rng.integers(1, 6))
            probs = from_log_weights(sequence_space_log_probs(p, 2))
            rewards = sequence_space_log_probs(q, 2)
            joint = bon_exact_pmf(probs, rewards, n).probs().reshape(3, 3)
            assert np.max(np.abs(joint - joint.T)) <= 1e-15

    def test_non_product_witness(self, demo_p, demo_q):
        assert PAIR_JOINT[(0, 0)] != MARGINAL_0 * MARGINAL_0
        probs, rewards = _pair_space(demo_p, demo_q)
        pi = bon_exact_pmf(probs, rewards, 2).probs()
        marginal0 = float(pi.reshape(3, 3).sum(axis=1)[0])
        assert pi[0] != marginal0 * marginal0


class TestBonSample:
    def test_deterministic(self, demo_p, demo_q):
        a = bon_sample(demo_p, demo_q, 5, 4, 2718)
        b = bon_sample(demo_p, demo_q, 5, 4, 2718)
        assert np.array_equal(a.symbols, b.symbols)

    def test_budget(self, demo_p, demo_q):
        with pytest.raises(BudgetExceeded):
            bon_sample(demo_p, demo_q, 10, 10**9, 0)

    def test_single_draw_matches_reference_chi2(self, demo_p, demo_q):
        rng = np.random.default_rng(4242)
        n = 30000
        cells = np.zeros(9)
        for _ in range(n):
            seq = bon_sample(demo_p, demo_q, 2, 1, rng)
            cells[3 * seq.symbols[0] + seq.symbols[1]] += 1
        expected = np.outer(demo_p.probs(), demo_p.probs()).ravel() * n
        chi2 = float(((cells - expected) ** 2 / expected).sum())
        assert chi2 <= CHI2_DF8_999

    def test_uniform_tie_break_preserves_reference_chi2(self, demo_p):
        rng = np.random.default_rng(31)
        uniform_target = make_distribution((1, 1, 1))
        n = 30000
        cells = np.zeros(3)
        for _ in range(n):
            seq = bon_sample(demo_p, uniform_target, 1, 5, rng)
            cells[seq.symbols[0]] += 1
        expected = demo_p.probs() * n
        chi2 = float(((cells - expected) ** 2 / expected).sum())
        assert chi2 <= CHI2_DF2_999

    def test_pair_joint_three_sigma_bands(self, demo_p, demo_q):
        # 1e6 draws against the exact joint, per-cell 3 sigma multinomial bands
        rng = np.random.default_rng(777)
        trials = 1_000_000
        counts = np.zeros((3, 3))
        for _ in range(trials):
            seq = bon_sample(demo_p, demo_q, 2, 2, rng)
            counts[seq.symbols[0], seq.symbols[1]] += 1
        emp = counts / trials
        expected = np.array(
            [[float(PAIR_JOINT[(y1, y2)]) for y2 in range(3)] for y1 in range(3)]
        )
        sigma = np.sqrt(expected * (1 - expected) / trials)
        assert np.max(np.abs(emp - expected) / sigma) <= 3.0


class TestExpectedTypeAndKl:
    def test_single_draw_expected_type_is_reference(self, demo_p, demo_q):
        law = bon_type_law(demo_p, demo_q, 6, BonConfig(N=1))
        assert np.max(np.abs(bon_expected_type(law) - demo_p.probs())) <= 1e-12

    def test_pair_expected_type_matches_joint(self, demo_p, demo_q):
        probs, rewards = _pair_space(demo_p, demo_q)
        joint = bon_exact_pmf(probs, rewards, 2).probs().reshape(3, 3)
        direct = np.zeros(3)
        for y1 in range(3):
            for y2 in range(3):
                direct[y1] += joint[y1, y2] / 2
                direct[y2] += joint[y1, y2] / 2
        law = bon_type_law(demo_p, demo_q, 2, BonConfig(N=2))
        assert np.max(np.abs(bon_expected_type(law) - direct)) <= 1e-12

    def test_expected_type_fixture_m10(self, demo_p, demo_q):
        law = bon_type_law(demo_p, demo_q, 10, BonConfig(N=3))
        etype = bon_expected_type(law)
        assert np.max(np.abs(etype - np.array(ETYPE_M10_N3))) <= 1e-12
        phi = solve_alpha_for_kl(demo_q, demo_p, 0.11).phi.probs()
        assert np.abs(etype - phi).sum() < np.abs(demo_p.probs() - phi).sum()

    def test_kl_to_reference_single_draw(self, demo_p, demo_q):
        law = bon_type_law(demo_p, demo_q, 5, BonConfig(N=1))
        assert bon_kl_to_reference(law, demo_p) == 0.0

    def test_kl_to_reference_pair_value(self, demo_p, demo_q):
        # independent 9-term summation from the exact fractions
        expected = sum(
            float(frac) * math.log(float(frac) / (0.2, 0.3, 0.5)[y1] / (0.2, 0.3, 0.5)[y2])
            for (y1, y2), frac in PAIR_JOINT.items()
        )
        law = bon_type_law(demo_p, demo_q, 2, BonConfig(N=2))
        assert bon_kl_to_reference(law, demo_p) == pytest.approx(expected, abs=1e-12)
        assert bon_kl_to_reference(law, demo_p) <= math.log(2)

    def test_kl_bound_random_configs(self):
        rng = np.random.default_rng(42)
        for _ in range(20):
            K = int(rng.integers(2, 4))
            m = int(rng.integers(1, 5))
            n = int(rng.integers(1, 30))
            p, q = random_pair(rng, K)
            law = bon_type_law(p, q, m, BonConfig(N=n))
            assert bon_kl_to_reference(law, p) <= math.log(n) + 1e-9

    def test_kl_to_optimal_bound_demo(self, demo_p, demo_q):
        law = bon_type_law(demo_p, demo_q, 10, BonConfig(N=3))
        assert bon_kl_to_reference(law, demo_p) <= math.log(3) + 1e-9

    def test_kl_rate_zero_budget(self, demo_p, demo_q):
        assert bon_kl_rate_to_optimal(demo_p, demo_q, 4, 0.0) == 0.0

    def test_kl_rate_decreases_in_m(self, demo_p, demo_q):
        rates = [bon_kl_rate_to_optimal(demo_p, demo_q, m, 0.11) for m in (5, 10, 20, 40)]
        assert all(r > 0 for r in rates)
        assert all(b < a for a, b in zip(rates, rates[1:]))

    def test_type_and_reward_convergence(self, demo_p, demo_q):
        phi_sol = solve_alpha_for_kl(demo_q, demo_p, 0.11)
        phi = phi_sol.phi.probs()
        l1s, gaps = [], []
        for m in (5, 10, 20, 40, 80):
            law = bon_type_law(demo_p, demo_q, m, BonConfig(log_N=m * 0.11))
            l1s.append(float(np.abs(bon_expected_type(law) - phi).sum()))
            rewards = law.counts_matrix() @ demo_q.log_probs
            reward_rate = float(np.sum(law.class_masses() * rewards)) / m
            gaps.append(abs(reward_rate - phi_sol.expected_reward))
        assert all(b < a for a, b in zip(l1s, l1s[1:]))
        assert all(b < a for a, b in zip(gaps, gaps[1:]))

    def test_alphabet_mismatch(self, demo_p, demo_q):
        law = bon_type_law(demo_p, demo_q, 2, BonConfig(N=2))
        with pytest.raises(AlphabetMismatch):
            bon_kl_to_reference(law, make_distribution((1, 1)))
