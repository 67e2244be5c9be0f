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
    CategoricalDistribution,
    InvalidN,
    LengthMismatch,
    SizeOverflow,
    bon_enumeration_oracle,
    bon_exact_pmf,
    bon_expected_type,
    bon_kl_to_reference,
    bon_type_law,
    group_reward_levels,
    kl_divergence,
    make_distribution,
    sequence_space_log_probs,
    solve_alpha_for_kl,
    from_log_weights,
)

from alignlab.bestofn import MAX_LOG_N, REWARD_TIE_TOL, _winner_log_probs
from alignlab.logspace import log1mexp, log_power_diff, logsumexp

from .conftest import TERNARY_P, TERNARY_Q, bon_winners, loop_bon_sample, random_pair

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


class TestBonTypeLawN:
    def test_invalid_values(self, demo_p, demo_q):
        # N is an int or float in [1, exp(MAX_LOG_N)], never a bool
        too_large = math.exp(MAX_LOG_N) * 1.01
        for N in (0, 0.5, math.nan, math.inf, -math.inf, True, too_large, "2", None):
            with pytest.raises(InvalidN):
                bon_type_law(demo_p, demo_q, 3, N)

    def test_effective_n(self, demo_p, demo_q):
        by_int = bon_type_law(demo_p, demo_q, 3, 7)
        by_float = bon_type_law(demo_p, demo_q, 3, 7.0)
        assert np.array_equal(by_int.class_log_masses, by_float.class_log_masses)
        single = bon_type_law(demo_p, demo_q, 3, math.exp(0.0))
        product = single.class_log_sizes + single.counts @ demo_p.log_probs
        assert np.array_equal(single.class_log_masses, product)
        # fractional N (log N = log 2.5) and the largest N are valid multipliers
        for N in (2.5, math.exp(2.0), math.exp(MAX_LOG_N)):
            law = bon_type_law(demo_p, demo_q, 3, N)
            assert float(law.class_masses().sum()) == pytest.approx(1.0, abs=1e-12)


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

    def test_length_mismatch(self, demo_p):
        with pytest.raises(LengthMismatch):
            group_reward_levels(demo_p.log_probs, np.zeros(4))


class TestBonExactPmf:
    def test_single_draw_is_reference(self, demo_p, demo_q):
        rewards = demo_q.log_probs
        assert bon_exact_pmf(demo_p, rewards, [1])[0] is demo_p

    def test_pair_joint_matches_fractions(self, demo_p, demo_q):
        probs, rewards = _pair_space(demo_p, demo_q)
        pi = bon_exact_pmf(probs, rewards, [2])[0].probs()
        for (y1, y2), frac in PAIR_JOINT.items():
            assert abs(pi[3 * y1 + y2] - float(frac)) <= 1e-12
        marginal = pi.reshape(3, 3).sum(axis=1)
        assert abs(marginal[0] - float(MARGINAL_0)) <= 1e-12

    def test_all_rewards_equal_preserves_reference(self, demo_p):
        for n in (2, 5, 100):
            [pi] = bon_exact_pmf(demo_p, np.zeros(3), [n])
            assert np.max(np.abs(pi.probs() - demo_p.probs())) <= 1e-15

    def test_hand_enumerated_binary(self):
        # symbol 0 wins any tuple containing it: pi(0) = 1 - 0.6^3
        p = make_distribution((0.4, 0.6))
        rewards = np.log(np.array([0.9, 0.1]))
        pi = bon_exact_pmf(p, rewards, [3])[0].probs()
        assert pi[0] == pytest.approx(0.784, abs=1e-12)

    def test_errors(self, demo_p):
        with pytest.raises(LengthMismatch):
            bon_exact_pmf(demo_p, np.zeros(4), [2])
        with pytest.raises(InvalidN):
            bon_exact_pmf(demo_p, np.zeros(3), [0])
        with pytest.raises(InvalidN):
            bon_exact_pmf(demo_p, np.zeros(3), [2.0])

    def test_huge_n_concentrates(self, demo_p, demo_q):
        [pi] = bon_exact_pmf(demo_p, demo_q.log_probs, [10**9])
        probs = pi.probs()
        assert probs[0] == pytest.approx(1.0, abs=1e-9)
        assert np.all(np.isfinite(pi.log_probs))


class TestBonTypeLaw:
    def test_marginal_via_expected_type(self, demo_p, demo_q):
        law = bon_type_law(demo_p, demo_q, 2, 2)
        # exchangeability makes the single-symbol marginal the expected type
        etype = bon_expected_type(law)
        assert abs(etype[0] - float(MARGINAL_0)) <= 1e-12

    def test_single_draw_equals_product_law(self, demo_p, demo_q):
        law = bon_type_law(demo_p, demo_q, 4, 1)
        product = law.class_log_sizes + law.counts @ demo_p.log_probs
        assert np.array_equal(law.class_log_masses, product)

    def test_matches_enumeration_oracle_per_sequence(self, demo_p, demo_q):
        p2 = make_distribution((0.35, 0.65))
        q2 = make_distribution((0.8, 0.2))
        law = bon_type_law(p2, q2, 3, 3)
        oracle = bon_enumeration_oracle(p2, q2, 3, 3)
        per_seq = law.class_log_masses - law.class_log_sizes
        by_class = dict(zip(map(tuple, law.counts), per_seq))
        for idx in range(8):
            seq = [(idx >> (2 - pos)) & 1 for pos in range(3)]
            counts = (seq.count(0), seq.count(1))
            assert math.exp(by_class[counts]) == pytest.approx(oracle[idx], abs=1e-12)

    def test_normalization_across_regimes(self, demo_p, demo_q):
        for m, N in [
            (2, 2),
            (6, 17),
            (40, math.exp(40 * 0.11)),
            (80, math.exp(80 * 0.11)),
            (160, math.exp(160 * 0.11)),
        ]:
            law = bon_type_law(demo_p, demo_q, m, N)
            assert float(law.class_masses().sum()) == pytest.approx(1.0, abs=1e-9)

    def test_fractional_effective_n(self, demo_p, demo_q):
        law = bon_type_law(demo_p, demo_q, 5, math.exp(0.55))
        assert float(law.class_masses().sum()) == pytest.approx(1.0, abs=1e-12)

    def test_size_overflow(self, demo_p, demo_q):
        with pytest.raises(SizeOverflow):
            # C(10002, 2) = 5.0e7 types, over TYPE_CAP = 1e7
            bon_type_law(demo_p, demo_q, 10_000, 2)

    def test_cross_type_reward_tie(self, demo_p):
        # q0^2 == q1 * q2 makes the types (2,0,0) and (0,1,1) collide at one
        # reward level; grouping must treat them as a single level, matching
        # the brute-force oracle
        q = make_distribution((2 / 7, 4 / 7, 1 / 7))
        assert abs(2 * q.log_probs[0] - (q.log_probs[1] + q.log_probs[2])) < 1e-12
        law = bon_type_law(demo_p, q, 2, 3)
        oracle = bon_enumeration_oracle(demo_p, q, 2, 3)
        classes = zip(law.counts, law.class_log_masses - law.class_log_sizes)
        by_class = {tuple(c): math.exp(lp) for c, lp in classes}
        for idx in range(9):
            digits = [idx // 3, idx % 3]
            counts = tuple(np.bincount(digits, minlength=3))
            assert abs(by_class[counts] - oracle[idx]) <= 1e-12

    def test_log_n_matches_integer_n(self, demo_p, demo_q):
        by_int = bon_type_law(demo_p, demo_q, 6, 5)
        by_log = bon_type_law(demo_p, demo_q, 6, math.exp(math.log(5.0)))
        assert np.max(np.abs(by_int.class_log_masses - by_log.class_log_masses)) <= 1e-9


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
        got = _winner_log_probs(log_probs, rewards, [n_eff])[0]
        live = ref > -700.0
        tol = 1e-12 + 32 * _EPS * scale[live]
        assert np.all(np.abs(got[live] - ref[live]) <= tol)

    @settings(max_examples=150)
    @given(_flat_instances(), _N_EFF)
    def test_matches_50_digit_kernel(self, instance, n_eff):
        log_probs, rewards = instance
        exact = _mp_winner_log_probs(log_probs, rewards, n_eff)
        got = _winner_log_probs(log_probs, rewards, [n_eff])[0]
        live = exact > -700.0
        assert np.max(np.abs(got[live] - exact[live]), initial=0.0) <= 1e-12

    @settings(max_examples=60)
    @given(
        st.floats(0.05, 1.0),
        st.floats(0.05, 1.0),
        st.tuples(st.floats(0.05, 1.0), st.floats(0.05, 1.0), st.floats(0.05, 1.0)),
        st.integers(1, 25),
        st.one_of(
            st.integers(2, 10**9),
            st.floats(0.0, 40.0).map(math.exp),
        ),
    )
    def test_type_law_with_cross_type_ties(self, a, b, p_weights, m, N):
        p, q = _cross_tie_pair(a, b, p_weights)
        law = bon_type_law(p, q, m, N)
        assert abs(float(law.class_masses().sum()) - 1.0) <= 1e-12
        if N == 1:
            return
        counts = law.counts
        class_lp = law.class_log_sizes + counts @ p.log_probs
        got = law.class_log_masses
        # the law is the kernel's row over the class masses, as it came out
        row = _winner_log_probs(class_lp, counts @ q.log_probs, [float(N)])[0]
        assert got.tobytes() == row.tobytes()
        ref, scale = _loop_winner_log_probs(class_lp, counts @ q.log_probs, float(N))
        live = ref > -700.0
        tol = 1e-12 + 32 * _EPS * scale[live]
        assert np.all(np.abs(got[live] - ref[live]) <= tol)

    @pytest.mark.parametrize("u", [0.0, -1.0])
    def test_log1mexp_needs_positive_u(self, u):
        with pytest.raises(ValueError, match="u > 0"):
            log1mexp(np.array([1.0, u]))

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
                got = log_power_diff([[n_eff]], cum_lt, cum_le, level)[0]
                n = mpmath.mpf(n_eff)
                for g, a, b in zip(got, s_lt, mass):
                    exact = float(n * mpmath.log(a) + mpmath.log(mpmath.expm1(n * mpmath.log1p(b / a))))
                    assert abs(g - exact) <= 1e-12 * max(1.0, abs(exact))
                bottom = log_power_diff([[n_eff]], [-math.inf], [math.log(0.25)], [math.log(0.25)])[0]
                assert bottom[0] == pytest.approx(float(n * mpmath.log(0.25)), rel=1e-15)

    def test_type_law_50_digits(self, demo_p):
        # the cross-type tie pair at m=4, where 50 digits resolve every class
        p, q = demo_p, make_distribution((2 / 7, 4 / 7, 1 / 7))
        for N in (17, math.exp(9.5)):
            law = bon_type_law(p, q, 4, N)
            counts = law.counts
            class_lp = law.class_log_sizes + counts @ p.log_probs
            exact = _mp_winner_log_probs(class_lp, counts @ q.log_probs, float(N))
            got = law.class_log_masses
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
            # 81^4 = 4.3e7 tuples, over ORACLE_TUPLE_CAP = 1e7
            bon_enumeration_oracle(demo_p, demo_q, 4, 4)

    def test_cap_without_forming_the_count(self, demo_p, demo_q):
        # (3^10)^1000 has 4,772 digits, past the int-to-str limit of 4,300
        with pytest.raises(SizeOverflow, match=r"\(K\^m\)\^n must be <= 10000000"):
            bon_enumeration_oracle(demo_p, demo_q, 10, 1000)

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
            flat = bon_exact_pmf(probs, rewards, [N])[0].probs()
            assert np.max(np.abs(flat - oracle)) <= 1e-12
            law = bon_type_law(p, q, m, N)
            classes = zip(law.counts, law.class_log_masses - law.class_log_sizes)
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
            joint = bon_exact_pmf(probs, rewards, [n])[0].probs().reshape(3, 3)
            assert np.max(np.abs(joint - joint.T)) <= 1e-15

    def test_non_product_witness(self, demo_p, demo_q):
        assert PAIR_JOINT[(0, 0)] != MARGINAL_0 * MARGINAL_0
        probs, rewards = _pair_space(demo_p, demo_q)
        pi = bon_exact_pmf(probs, rewards, [2])[0].probs()
        marginal0 = float(pi.reshape(3, 3).sum(axis=1)[0])
        assert pi[0] != marginal0 * marginal0


def _one_draw(p, q, m, n, seed):
    """One best-of-n draw on the stream of ``seed``: its first n*m + 1 uniforms."""
    return bon_winners(p, q, m, n, np.random.default_rng(seed).random((1, n * m + 1)))[0]


class TestBonSample:
    def test_deterministic(self, demo_p, demo_q):
        a = _one_draw(demo_p, demo_q, 5, 4, 2718)
        b = _one_draw(demo_p, demo_q, 5, 4, 2718)
        assert np.array_equal(a, b)

    def test_single_draw_matches_reference_chi2(self, demo_p, demo_q):
        # 30000 draws of 3 uniforms each, one after another on one stream
        n = 30000
        u = np.random.default_rng(4242).random((n, 3))
        seqs = bon_winners(demo_p, demo_q, 2, 1, u)
        cells = np.bincount(3 * seqs[:, 0] + seqs[:, 1], minlength=9)
        expected = np.outer(demo_p.probs(), demo_p.probs()).ravel() * n
        chi2 = float(((cells - expected) ** 2 / expected).sum())
        assert chi2 <= CHI2_DF8_999

    def test_uniform_tie_break_preserves_reference_chi2(self, demo_p):
        uniform_target = make_distribution((1, 1, 1))
        n = 30000
        u = np.random.default_rng(31).random((n, 6))
        cells = np.bincount(bon_winners(demo_p, uniform_target, 1, 5, u)[:, 0], minlength=3)
        expected = demo_p.probs() * n
        chi2 = float(((cells - expected) ** 2 / expected).sum())
        assert chi2 <= CHI2_DF2_999

    def test_pair_joint_three_sigma_bands(self, demo_p, demo_q):
        # 1e6 draws against the exact joint, per-cell 3 sigma multinomial
        # bands; each draw takes the next 5 uniforms of one stream
        trials = 1_000_000
        counts = _pair_counts(demo_p, demo_q, np.random.default_rng(777), trials)
        emp = counts / trials
        expected = np.array(
            [[float(PAIR_JOINT[(y1, y2)]) for y2 in range(3)] for y1 in range(3)]
        )
        sigma = np.sqrt(expected * (1 - expected) / trials)
        assert np.max(np.abs(emp - expected) / sigma) <= 3.0

    def test_chunked_pair_counts_match_bon_sample(self, demo_p, demo_q):
        trials = 10_000
        chunked = _pair_counts(demo_p, demo_q, np.random.default_rng(777), trials, chunk=999)
        rng = np.random.default_rng(777)
        counts = np.zeros((3, 3))
        for _ in range(trials):
            seq = bon_winners(demo_p, demo_q, 2, 2, rng.random((1, 5)))[0]
            counts[seq[0], seq[1]] += 1
        assert np.array_equal(chunked, counts)

    def test_matches_recorded_draws(self, demo_p, demo_q):
        targets = {"demo": demo_q, "uniform": make_distribution((1, 1, 1))}
        for (target, m, n), draws in RECORDED_BON_DRAWS.items():
            got = " ".join(
                "".join(map(str, _one_draw(demo_p, targets[target], m, n, seed)))
                for seed in range(4)
            )
            assert got == draws, (target, m, n)

    @settings(max_examples=30)
    @given(
        seed=st.integers(0, 2**32 - 1),
        m=st.integers(1, 12),
        n=st.integers(1, 40),
        trials=st.integers(1, 20),
        tied=st.booleans(),
    )
    def test_winners_match_per_trial_loop(self, seed, m, n, trials, tied):
        # a uniform target ties every candidate, so the last uniform decides
        demo_p = make_distribution(TERNARY_P)
        q = make_distribution((1, 1, 1) if tied else TERNARY_Q)
        rng = np.random.default_rng(seed)
        expected = np.array([loop_bon_sample(demo_p, q, m, n, rng) for _ in range(trials)])
        u = np.random.default_rng(seed).random((trials, n * m + 1))
        assert np.array_equal(bon_winners(demo_p, q, m, n, u), expected)

    def test_winners_inputs_checked(self, demo_p, demo_q):
        with pytest.raises(LengthMismatch):
            bon_winners(demo_p, demo_q, 3, 2, np.zeros((4, 6)))
        # a larger q would still gather rewards for p's symbols
        with pytest.raises(AlphabetMismatch):
            bon_winners(demo_p, make_distribution((1, 2, 3, 4)), 3, 2, np.zeros((4, 7)))
        with pytest.raises(InvalidN):
            bon_winners(demo_p, demo_q, 3, 0, np.zeros((4, 1)))
        with pytest.raises(InvalidN):
            bon_winners(demo_p, demo_q, 3, -2, np.zeros((4, 1)))


# One best-of-N draw of TERNARY_P, target, m, N on the stream of each of
# seeds 0-3, recorded from the per-trial sampler that bon_winners replaced.
RECORDED_BON_DRAWS = {
    ("demo", 1, 1): "2 2 1 0",
    ("demo", 1, 2): "2 2 1 0",
    ("demo", 1, 7): "0 0 0 0",
    ("demo", 1, 40): "0 0 0 0",
    ("demo", 4, 1): "2100 2202 1120 0122",
    ("demo", 4, 2): "2100 2202 2200 0110",
    ("demo", 4, 7): "0022 2202 2200 0110",
    ("demo", 4, 40): "0022 0200 0020 2002",
    ("demo", 9, 1): "210022222 220211212 112022001 012201102",
    ("demo", 9, 2): "220202022 022121101 112022001 012201102",
    ("demo", 9, 7): "220202022 222022202 122210002 012201102",
    ("demo", 9, 40): "202202202 002202020 220002202 220100120",
    ("uniform", 1, 1): "2 2 1 0",
    ("uniform", 1, 2): "2 2 1 1",
    ("uniform", 1, 7): "2 0 1 1",
    ("uniform", 1, 40): "2 2 1 2",
    ("uniform", 4, 1): "2100 2202 1120 0122",
    ("uniform", 4, 2): "2222 1121 1120 0110",
    ("uniform", 4, 7): "2211 1121 1120 0122",
    ("uniform", 4, 40): "1002 1022 0022 2012",
    ("uniform", 9, 1): "210022222 220211212 112022001 012201102",
    ("uniform", 9, 2): "210022222 220211212 112022001 012122212",
    ("uniform", 9, 7): "122121211 222022202 112022001 202102212",
    ("uniform", 9, 40): "201011120 200122112 122112221 110122112",
}


def _pair_counts(p, q, rng, trials, chunk=2**14):
    """Counts of best-of-2 pairs over ``trials`` draws from one stream."""
    counts = np.zeros(9, dtype=np.int64)
    for first in range(0, trials, chunk):
        u = rng.random((min(chunk, trials - first), 5))
        pairs = bon_winners(p, q, 2, 2, u)
        counts += np.bincount(3 * pairs[:, 0] + pairs[:, 1], minlength=9)
    return counts.reshape(3, 3).astype(float)


class TestExpectedTypeAndKl:
    def test_single_draw_expected_type_is_reference(self, demo_p, demo_q):
        law = bon_type_law(demo_p, demo_q, 6, 1)
        assert np.max(np.abs(bon_expected_type(law) - demo_p.probs())) <= 1e-12

    def test_pair_expected_type_matches_joint(self, demo_p, demo_q):
        probs, rewards = _pair_space(demo_p, demo_q)
        joint = bon_exact_pmf(probs, rewards, [2])[0].probs().reshape(3, 3)
        direct = np.zeros(3)
        for y1 in range(3):
            for y2 in range(3):
                direct[y1] += joint[y1, y2] / 2
                direct[y2] += joint[y1, y2] / 2
        law = bon_type_law(demo_p, demo_q, 2, 2)
        assert np.max(np.abs(bon_expected_type(law) - direct)) <= 1e-12

    def test_expected_type_fixture_m10(self, demo_p, demo_q):
        law = bon_type_law(demo_p, demo_q, 10, 3)
        etype = bon_expected_type(law)
        assert np.max(np.abs(etype - np.array(ETYPE_M10_N3))) <= 1e-12
        phi = solve_alpha_for_kl(demo_q, demo_p, [0.11])[0].phi.probs()
        assert np.abs(etype - phi).sum() < np.abs(demo_p.probs() - phi).sum()

    def test_kl_to_reference_single_draw(self, demo_p, demo_q):
        law = bon_type_law(demo_p, demo_q, 5, 1)
        assert bon_kl_to_reference(law, demo_p) == 0.0

    def test_kl_to_reference_pair_value(self, demo_p, demo_q):
        # independent 9-term summation from the exact fractions
        expected = sum(
            float(frac) * math.log(float(frac) / (0.2, 0.3, 0.5)[y1] / (0.2, 0.3, 0.5)[y2])
            for (y1, y2), frac in PAIR_JOINT.items()
        )
        law = bon_type_law(demo_p, demo_q, 2, 2)
        assert bon_kl_to_reference(law, demo_p) == pytest.approx(expected, abs=1e-12)
        assert bon_kl_to_reference(law, demo_p) <= math.log(2)

    def test_kl_bound_random_configs(self):
        rng = np.random.default_rng(42)
        for _ in range(20):
            K = int(rng.integers(2, 4))
            m = int(rng.integers(1, 5))
            n = int(rng.integers(1, 30))
            p, q = random_pair(rng, K)
            law = bon_type_law(p, q, m, n)
            assert bon_kl_to_reference(law, p) <= math.log(n) + 1e-9

    @settings(max_examples=200)
    @given(
        _flat_instances(),
        st.one_of(st.sampled_from([1, 2, 3, 17, 10**6, 10**9]), st.integers(1, 10**9)),
    )
    def test_kl_bound_log_n_minus_flat(self, instance, n):
        # D(pi_N || p) <= log N - (N - 1)/N (Beirami et al., arXiv:2401.01879),
        # tighter than log N, over random and tie-heavy rewards
        log_probs, rewards = instance
        p = CategoricalDistribution(log_probs)
        [pi] = bon_exact_pmf(p, rewards, [n])
        assert kl_divergence(pi, p) <= math.log(n) - (n - 1) / n + 1e-9

    def test_kl_to_optimal_bound_demo(self, demo_p, demo_q):
        law = bon_type_law(demo_p, demo_q, 10, 3)
        assert bon_kl_to_reference(law, demo_p) <= math.log(3) + 1e-9

    @staticmethod
    def _kl_rate(p, q, m, delta):
        """Per-symbol D(pi_N^m || phi_delta^m) / m at N = exp(m delta), as
        equivalence-scan forms it."""
        phi = solve_alpha_for_kl(q, p, [delta])[0].phi
        return bon_kl_to_reference(bon_type_law(p, q, m, math.exp(m * delta)), phi) / m

    def test_kl_rate_zero_budget(self, demo_p, demo_q):
        assert self._kl_rate(demo_p, demo_q, 4, 0.0) == 0.0

    def test_kl_rate_decreases_in_m(self, demo_p, demo_q):
        rates = [self._kl_rate(demo_p, demo_q, m, 0.11) for m in (5, 10, 20, 40)]
        assert all(r > 0 for r in rates)
        assert all(b < a for a, b in zip(rates, rates[1:]))

    def test_type_and_reward_convergence(self, demo_p, demo_q):
        [phi_sol] = solve_alpha_for_kl(demo_q, demo_p, [0.11])
        phi = phi_sol.phi.probs()
        l1s, gaps = [], []
        for m in (5, 10, 20, 40, 80):
            law = bon_type_law(demo_p, demo_q, m, math.exp(m * 0.11))
            l1s.append(float(np.abs(bon_expected_type(law) - phi).sum()))
            rewards = law.counts @ demo_q.log_probs
            reward_rate = float(np.sum(law.class_masses() * rewards)) / m
            gaps.append(abs(reward_rate - phi_sol.expected_reward))
        assert all(b < a for a, b in zip(l1s, l1s[1:]))
        assert all(b < a for a, b in zip(gaps, gaps[1:]))

    def test_alphabet_mismatch(self, demo_p, demo_q):
        law = bon_type_law(demo_p, demo_q, 2, 2)
        with pytest.raises(AlphabetMismatch):
            bon_kl_to_reference(law, make_distribution((1, 1)))


@st.composite
def _grid_instances(draw):
    """A flat pair for ``bon_exact_pmf``: rewards random, or tied in
    groups whose members differ by less than ``REWARD_TIE_TOL``; log weights
    that may reach 800 nats down, where a level's mass is below the float
    resolution of the mass beneath it at any N (the deep branch)."""
    K = draw(st.integers(2, 32))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    depth = draw(st.sampled_from([5.0, 800.0]))
    log_w = -depth * rng.random(K)
    if draw(st.booleans()):
        rewards = rng.integers(0, 4, K) + 0.4 * REWARD_TIE_TOL * rng.random(K)
    else:
        rewards = rng.standard_normal(K)
    return from_log_weights(log_w), rewards


_GRID_NS = st.lists(
    st.one_of(st.sampled_from([1, 2, 10**9]), st.integers(1, 10**6)), min_size=1, max_size=12
).map(lambda ns: ns + [1, 10**9])


class TestExactPmfGrid:
    @given(_grid_instances(), _GRID_NS)
    @settings(max_examples=120)
    def test_rows_match_one_n_calls(self, instance, ns):
        dist, rewards = instance
        grid = bon_exact_pmf(dist, rewards, ns)
        assert len(grid) == len(ns)
        for N, row in zip(ns, grid):
            [alone] = bon_exact_pmf(dist, rewards, [N])
            assert row.log_probs.tobytes() == alone.log_probs.tobytes()
            if N == 1:
                assert row is dist

    def test_deep_branch_is_reached(self):
        # one outcome 800 nats below the rest: at N = 1e9 its level's mass is
        # below the resolution of S_lt, and the first-order form gives it
        # log N + (N - 1) log S_lt + log mass
        log_w = np.array([-800.0, 0.0, -1.0])
        dist = from_log_weights(log_w)
        rewards = np.array([1.0, 0.0, 2.0])
        n = 10**9
        [pi] = bon_exact_pmf(dist, rewards, [n])
        s_lt = math.log(float(np.exp(dist.log_probs[1])))
        deep = math.log(n) + (n - 1) * s_lt + dist.log_probs[0]
        assert pi.log_probs[0] == pytest.approx(deep, rel=1e-12)

    def test_n_beyond_float_range_raises(self, demo_p, demo_q):
        # 10^400 has no finite float, and the kernels multiply log masses by float(N)
        with pytest.raises(InvalidN, match="converts to a finite float"):
            bon_exact_pmf(demo_p, demo_q.log_probs, [2, 10**400])

    def test_invalid_n_anywhere_raises(self, demo_p, demo_q):
        with pytest.raises(InvalidN):
            bon_exact_pmf(demo_p, demo_q.log_probs, [2, 0, 3])
        assert bon_exact_pmf(demo_p, demo_q.log_probs, []) == []
