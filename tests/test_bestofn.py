from __future__ import annotations

import math
import tracemalloc
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
    NonPositiveWeight,
    SizeOverflow,
    bon_enumeration_oracle,
    bon_exact_pmf,
    bon_expected_type,
    bon_kl_to_tilt,
    bon_type_law,
    expected_reward_rate,
    group_reward_levels,
    kl_divergence,
    make_distribution,
    sequence_space_log_probs,
    solve_alpha_for_kl,
    from_log_weights,
)

from alignlab import bestofn, distributions, logspace
from alignlab.bestofn import MAX_LOG_N, REWARD_TIE_TOL, _winner_log_probs
from alignlab.experiments import _dirichlet_interior, default_n_grid
from alignlab.logspace import cumulative_log_probs, log1mexp, log_power_diff, logsumexp
from alignlab.rng import spawn_generator

from .conftest import (
    TERNARY_P,
    TERNARY_Q,
    bon_winners,
    class_arrays,
    loop_bon_sample,
    one_member_levels,
    prior_bon_exact_pmf,
    per_sequence_probs,
    random_pair,
    ref_cumulative_log_probs,
    ref_group_reward_levels,
    ref_log1mexp,
    ref_log_class_sizes,
    ref_log_power_diff,
    ref_type_counts_matrix,
    ref_winner_log_probs,
)

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
        assert np.array_equal(by_int.log_masses, by_float.log_masses)
        single = bon_type_law(demo_p, demo_q, 3, math.exp(0.0))
        _, class_lp, class_rw = class_arrays(demo_p, demo_q, 3)
        assert single.log_masses is single.ref_log_masses
        assert np.array_equal(single.ref_log_masses, class_lp[np.argsort(class_rw, kind="stable")])
        # fractional N (log N = log 2.5) and the largest N are valid multipliers
        for N in (2.5, math.exp(2.0), math.exp(MAX_LOG_N)):
            law = bon_type_law(demo_p, demo_q, 3, N)
            assert float(np.exp(law.log_masses).sum()) == pytest.approx(1.0, abs=1e-12)


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

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_reward(self, demo_p, bad):
        # a NaN would sort last and join the top level; +-inf gives a NaN
        # tie tolerance
        with pytest.raises(ValueError, match="rewards must be finite"):
            group_reward_levels(demo_p.log_probs, [0.0, bad, 1.0])

    def test_ties_near_large_rewards(self):
        # near 1e4 one float spacing (1.8e-12) is above REWARD_TIE_TOL, so the
        # tolerance scales with |reward|: rewards a few spacings apart tie,
        # while a gap of 1e-9 still separates two levels
        top = 1e4
        step = float(np.spacing(top))
        assert step > REWARD_TIE_TOL
        dist = make_distribution((1, 1, 1, 1))
        rewards = np.array([-top, -top + 3 * step, top, top + 1e-9])
        _, sizes, _, _ = group_reward_levels(dist.log_probs, rewards)
        assert sizes.tolist() == [2, 1, 1]


    @settings(max_examples=100)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 60), st.sampled_from([5.0, 800.0]))
    def test_one_member_levels_skip_the_reduction(self, seed, n, depth):
        # distinct rewards: every level is one outcome, whose log mass is the
        # outcome's own, with the bits of the segmented reduction
        rng = np.random.default_rng(seed)
        log_probs = from_log_weights(-depth * rng.random(n)).log_probs
        rewards = rng.permutation(n) + 0.5 * rng.random(n)
        got = group_reward_levels(log_probs, rewards)
        assert got[1].size == n
        for a, b in zip(got, ref_group_reward_levels(log_probs, rewards)):
            assert a.tobytes() == b.tobytes()

    def test_tied_levels_take_the_reduction(self, demo_p):
        # q proportional to (1, 3, 9) ties the 496 type classes at m = 30 into
        # 2m + 1 levels
        _, class_lp, class_rw = class_arrays(demo_p, make_distribution((1, 3, 9)), 30)
        got = group_reward_levels(class_lp, class_rw)
        assert got[1].size == 61 < class_lp.size
        for a, b in zip(got, ref_group_reward_levels(class_lp, class_rw)):
            assert a.tobytes() == b.tobytes()


class TestBonExactPmf:
    def test_single_draw_is_reference(self, demo_p, demo_q):
        rewards = demo_q.log_probs
        assert bon_exact_pmf(demo_p, rewards, [1])[0].tobytes() == demo_p.log_probs.tobytes()

    def test_pair_joint_matches_fractions(self, demo_p, demo_q):
        probs, rewards = _pair_space(demo_p, demo_q)
        pi = np.exp(bon_exact_pmf(probs, rewards, [2])[0])
        for (y1, y2), frac in PAIR_JOINT.items():
            assert abs(pi[3 * y1 + y2] - float(frac)) <= 1e-12
        marginal = pi.reshape(3, 3).sum(axis=1)
        assert abs(marginal[0] - float(MARGINAL_0)) <= 1e-12

    def test_all_rewards_equal_preserves_reference(self, demo_p):
        for n in (2, 5, 100):
            [pi] = bon_exact_pmf(demo_p, np.zeros(3), [n])
            assert np.max(np.abs(np.exp(pi) - demo_p.probs())) <= 1e-15

    def test_hand_enumerated_binary(self):
        # symbol 0 wins any tuple containing it: pi(0) = 1 - 0.6^3
        p = make_distribution((0.4, 0.6))
        rewards = np.log(np.array([0.9, 0.1]))
        pi = np.exp(bon_exact_pmf(p, rewards, [3])[0])
        assert pi[0] == pytest.approx(0.784, abs=1e-12)

    def test_errors(self, demo_p):
        with pytest.raises(LengthMismatch):
            bon_exact_pmf(demo_p, np.zeros(4), [2])
        with pytest.raises(InvalidN):
            bon_exact_pmf(demo_p, np.zeros(3), [0])
        with pytest.raises(InvalidN):
            bon_exact_pmf(demo_p, np.zeros(3), [2.0])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_reward(self, demo_p, bad):
        # N = 1 never groups the levels, so the rewards are checked before
        for ns in ([1], [2]):
            with pytest.raises(ValueError, match="rewards must be finite"):
                bon_exact_pmf(demo_p, [0.0, bad, 1.0], ns)

    def test_huge_n_concentrates(self, demo_p, demo_q):
        [pi] = bon_exact_pmf(demo_p, demo_q.log_probs, [10**9])
        probs = np.exp(pi)
        assert probs[0] == pytest.approx(1.0, abs=1e-9)
        assert np.all(np.isfinite(pi))


class TestBonTypeLaw:
    def test_marginal_via_expected_type(self, demo_p, demo_q):
        law = bon_type_law(demo_p, demo_q, 2, 2)
        # exchangeability makes the single-symbol marginal the expected type
        etype = bon_expected_type(law)
        assert abs(etype[0] - float(MARGINAL_0)) <= 1e-12

    def test_single_draw_equals_product_law(self, demo_p, demo_q):
        # the demo pair has no tied classes: each level is one class
        law = bon_type_law(demo_p, demo_q, 4, 1)
        counts, class_lp, class_rw = class_arrays(demo_p, demo_q, 4)
        order = np.argsort(class_rw, kind="stable")
        assert law.log_masses is law.ref_log_masses
        assert law.ref_log_masses.tobytes() == class_lp[order].tobytes()
        assert law.rewards.tobytes() == class_rw[order].tobytes()
        assert np.array_equal(law.mean_counts, counts[order])

    def test_matches_enumeration_oracle_per_sequence(self, demo_p, demo_q):
        p2 = make_distribution((0.35, 0.65))
        q2 = make_distribution((0.8, 0.2))
        law = bon_type_law(p2, q2, 3, 3)
        oracle = bon_enumeration_oracle(p2, q2, 3, 3)
        assert np.max(np.abs(per_sequence_probs(law, p2, q2, 3) - oracle)) <= 1e-12

    def test_normalization_across_regimes(self, demo_p, demo_q):
        for m, N in [
            (2, 2),
            (6, 17),
            (40, math.exp(40 * 0.11)),
            (80, math.exp(80 * 0.11)),
            (160, math.exp(160 * 0.11)),
        ]:
            law = bon_type_law(demo_p, demo_q, m, N)
            assert float(np.exp(law.log_masses).sum()) == pytest.approx(1.0, abs=1e-9)

    def test_fractional_effective_n(self, demo_p, demo_q):
        law = bon_type_law(demo_p, demo_q, 5, math.exp(0.55))
        assert float(np.exp(law.log_masses).sum()) == pytest.approx(1.0, abs=1e-12)

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
        assert law.log_masses.size == 5
        oracle = bon_enumeration_oracle(demo_p, q, 2, 3)
        assert np.max(np.abs(per_sequence_probs(law, demo_p, q, 2) - oracle)) <= 1e-12

    def test_log_n_matches_integer_n(self, demo_p, demo_q):
        by_int = bon_type_law(demo_p, demo_q, 6, 5)
        by_log = bon_type_law(demo_p, demo_q, 6, math.exp(math.log(5.0)))
        assert np.max(np.abs(by_int.log_masses - by_log.log_masses)) <= 1e-9


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


def _loop_level_picks(log_probs, rewards, n_eff):
    """The per-level loop kernel the array kernel replaced, kept as a slow reference.

    Returns the sort order and level bounds, each level's log mass, its
    best-of-N log mass (its pick), and per level the scale
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
    picks = np.empty(n)
    scales = np.empty(n)
    for i in range(n):
        cum_lt = cum_le[i - 1] if i else -math.inf
        picks[i] = _loop_log_power_diff(n_eff, cum_lt, level_lps[i])
        scales[i] = n_eff * (1.0 + abs(cum_lt if i else level_lps[i]))
    return order, bounds, level_lps, picks, scales


def _loop_winner_log_probs(log_probs, rewards, n_eff):
    """Per-outcome log probabilities of the loop kernel, and per outcome the
    scale of its rounding (see ``_loop_level_picks``)."""
    order, bounds, level_lps, picks, scales = _loop_level_picks(log_probs, rewards, n_eff)
    out = np.empty(log_probs.size)
    scale = np.empty(log_probs.size)
    for i, (a, b) in enumerate(bounds):
        for j in order[a:b]:
            out[j] = log_probs[j] - level_lps[i] + picks[i]
            scale[j] = scales[i]
    return out, scale


def _mp_winner_log_probs(log_probs, rewards, n_eff, per_level=False):
    """Best-of-N log probabilities in 50-digit arithmetic, per outcome, or
    per reward level with ``per_level``.

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
        picks = np.empty(len(bounds))
        below = mpmath.mpf(0)
        for i, (a, b) in enumerate(bounds):
            level = mpmath.fsum(probs[j] for j in order[a:b])
            if below == 0:
                pick = n * mpmath.log(level)
            else:
                # S_le^N - S_lt^N = S_lt^N * expm1(N log1p(level / S_lt))
                pick = n * mpmath.log(below) + mpmath.log(
                    mpmath.expm1(n * mpmath.log1p(level / below))
                )
            picks[i] = float(pick)
            for j in order[a:b]:
                out[j] = float(mpmath.log(probs[j] / level) + pick)
            below += level
    return picks if per_level else out


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
        assert abs(float(np.exp(law.log_masses).sum()) - 1.0) <= 1e-12
        if N == 1:
            return
        _, class_lp, class_rw = class_arrays(p, q, m)
        # on one-member levels, the law is the flat kernel's row over the
        # class masses, as it came out
        row = _winner_log_probs(class_lp, class_rw, [float(N)])[0]
        classes, levels = one_member_levels(class_rw)
        assert law.log_masses[levels].tobytes() == row[classes].tobytes()
        _, _, _, ref, scale = _loop_level_picks(class_lp, class_rw, float(N))
        live = ref > -700.0
        tol = 1e-12 + 32 * _EPS * scale[live]
        assert np.all(np.abs(law.log_masses[live] - ref[live]) <= tol)

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
            _, class_lp, class_rw = class_arrays(p, q, 4)
            exact = _mp_winner_log_probs(class_lp, class_rw, float(N), per_level=True)
            live = exact > -700.0
            assert np.max(np.abs(law.log_masses[live] - exact[live])) <= 1e-12


@st.composite
def _blocked_instances(draw):
    """Log probabilities and rewards for the blocked kernel: random rewards,
    tie-heavy small integers, or lattice rewards formed as count rows times
    log q for q proportional to (1, 3, 9), whose ties differ by rounding; log
    weights may reach 800 nats down, where N d rounds to 0."""
    K = draw(st.integers(1, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    log_w = -draw(st.sampled_from([5.0, 800.0])) * rng.random(K)
    kind = draw(st.sampled_from(["random", "ties", "lattice"]))
    if kind == "random":
        rewards = rng.standard_normal(K)
    elif kind == "ties":
        rewards = rng.integers(0, 4, K).astype(np.float64)
    else:
        lattice_q = make_distribution((1, 3, 9))
        rows = rng.multinomial(int(rng.integers(1, 300)), np.ones(3) / 3, size=K)
        rewards = rows @ lattice_q.log_probs
    return from_log_weights(log_w).log_probs, rewards


# N = 1, small N, N = exp(m * delta) for the demo pair's m = 400, and N up
# to the float range
_BLOCKED_NS = st.lists(
    st.one_of(
        st.sampled_from([1.0, 2.0, 3.0, math.exp(0.11 * 400), 1e9, math.exp(MAX_LOG_N)]),
        st.floats(1.0, 1e6),
    ),
    min_size=1,
    max_size=6,
)


class TestBlockedKernel:
    """The blocked level passes give the bits of the whole-array kernel they
    replaced (the ``ref_*`` copies in conftest), at any block size."""

    @settings(max_examples=300)
    @given(_blocked_instances(), _BLOCKED_NS, st.integers(1, 7))
    def test_winner_rows_match_reference(self, instance, ns, block):
        log_probs, rewards = instance
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(bestofn, "LEVEL_BLOCK", block)
            got = _winner_log_probs(log_probs, rewards, ns)
            levels = group_reward_levels(log_probs, rewards)
        assert got.tobytes() == ref_winner_log_probs(log_probs, rewards, ns).tobytes()
        for a, b in zip(levels, ref_group_reward_levels(log_probs, rewards)):
            assert a.tobytes() == b.tobytes()

    def test_first_order_cells_are_reached(self):
        # a level 800 nats below the mass under it: N d rounds to 0 at N = 1e9
        log_probs = from_log_weights(np.array([-800.0, 0.0, -1.0])).log_probs
        rewards = np.array([1.0, 0.0, 2.0])
        order, sizes, level_lps, cums = group_reward_levels(log_probs, rewards)
        u = 1e9 * np.logaddexp(0.0, level_lps - cums[:-1])
        assert np.count_nonzero(u == 0.0) == 1
        got = _winner_log_probs(log_probs, rewards, [1e9, 2.0])
        assert got.tobytes() == ref_winner_log_probs(log_probs, rewards, [1e9, 2.0]).tobytes()

    @pytest.mark.parametrize("block", [1, 2, 3, 4096])
    def test_half_tail_crossing_at_a_block_edge(self, block):
        # the mass above level 2 is exactly 1/2 (log 1/2 = -log 2): the last
        # level of the forward prefix, the first of a block at block = 2
        log_probs = np.log([0.125, 0.125, 0.25, 0.5])
        rewards = np.array([0.0, 1.0, 2.0, 3.0])
        got = cumulative_log_probs(log_probs)
        assert got.tobytes() == ref_cumulative_log_probs(log_probs).tobytes()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(bestofn, "LEVEL_BLOCK", block)
            got = _winner_log_probs(log_probs, rewards, [1.0, 7.0, 1e9])
        assert got.tobytes() == ref_winner_log_probs(log_probs, rewards, [1.0, 7.0, 1e9]).tobytes()

    @settings(max_examples=100)
    @given(st.integers(0, 2**32 - 1), st.integers(2, 60), st.sampled_from([5.0, 50.0, 800.0]))
    def test_backward_tails_stop_at_a_block_edge(self, seed, n, depth):
        # the block size is the number of unsaturated tails, so the first
        # tail of 1/2 or more is the first of the second block
        lps = from_log_weights(-depth * np.random.default_rng(seed).random(n)).log_probs
        tails = np.logaddexp.accumulate(lps[:0:-1])
        unsaturated = int(np.count_nonzero(tails < -math.log(2.0)))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(logspace, "LEVEL_BLOCK", max(1, unsaturated))
            got = cumulative_log_probs(lps)
        assert got.tobytes() == ref_cumulative_log_probs(lps).tobytes()

    @pytest.mark.parametrize("block", [1, 2, 3, 4096])
    def test_backward_tails_that_never_saturate(self, block):
        # the bottom level holds more than 1/2, so no tail above a level reaches it
        lps = from_log_weights(np.log([0.6, 0.05, 0.1, 0.15, 0.1])).log_probs
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(logspace, "LEVEL_BLOCK", block)
            got = cumulative_log_probs(lps)
        assert got.tobytes() == ref_cumulative_log_probs(lps).tobytes()

    @settings(max_examples=200)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 60), st.sampled_from([5.0, 50.0, 800.0]))
    def test_cumulatives_match_reference(self, seed, n, depth):
        lps = from_log_weights(-depth * np.random.default_rng(seed).random(n)).log_probs
        assert cumulative_log_probs(lps).tobytes() == ref_cumulative_log_probs(lps).tobytes()

    @settings(max_examples=200)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 50))
    def test_log_power_diff_matches_reference(self, seed, n):
        rng = np.random.default_rng(seed)
        n_eff = np.array([[1.0], [2.0], [float(rng.integers(3, 10**6))], [math.exp(44.0)]])
        level = -rng.exponential(20.0, n) * rng.integers(1, 40, n)
        cum_lt = np.where(rng.random(n) < 0.1, -math.inf, -rng.exponential(1.0, n))
        cum_le = np.logaddexp(cum_lt, level)
        got = log_power_diff(n_eff, cum_lt, cum_le, level)
        assert got.tobytes() == ref_log_power_diff(n_eff, cum_lt, cum_le, level).tobytes()
        u = np.concatenate((rng.exponential(1.0, n), rng.exponential(1e3, n), [math.inf, 5e-324]))
        assert log1mexp(u).tobytes() == ref_log1mexp(u).tobytes()

    @pytest.mark.parametrize(
        "q_weights, m",
        [
            (TERNARY_Q, 40),
            (TERNARY_Q, 200),
            ((1, 3, 9), 120),
            ((2 / 7, 4 / 7, 1 / 7), 60),
            ((0.1, 0.2, 0.3, 0.4), 30),
        ],
    )
    @pytest.mark.parametrize("block", [5, 4096])
    def test_type_law_matches_reference(self, q_weights, m, block):
        q = make_distribution(q_weights)
        p = make_distribution(TERNARY_P + (0.25,) if q.K == 4 else TERNARY_P)
        counts = ref_type_counts_matrix(m, q.K)
        masses = ref_log_class_sizes(counts) + counts @ p.log_probs
        rewards = counts @ q.log_probs
        _, class_lp, _ = class_arrays(p, q, m)
        assert class_lp.tobytes() == masses.tobytes()
        # one-member levels keep the bits of the parent kernel's class values;
        # a tied level holds its classes' total
        classes, levels = one_member_levels(rewards)
        order, sizes, _, _ = ref_group_reward_levels(masses, rewards)
        starts = np.cumsum(sizes) - sizes
        for N in (2, 17, math.exp(0.11 * m)):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(bestofn, "LEVEL_BLOCK", block)
                law = bon_type_law(p, q, m, N)
            ref = ref_winner_log_probs(masses, rewards, [float(N)])[0]
            assert law.log_masses[levels].tobytes() == ref[classes].tobytes()
            assert law.ref_log_masses[levels].tobytes() == masses[classes].tobytes()
            assert law.rewards.tobytes() == rewards[order[starts]].tobytes()
            assert law.mean_counts[levels].tobytes() == counts[classes].astype(float).tobytes()
            top = np.maximum.reduceat(ref[order], starts)
            summed = top + np.log(np.add.reduceat(np.exp(ref[order] - np.repeat(top, sizes)), starts))
            assert np.all(np.abs(law.log_masses - summed) <= 1e-12 * np.maximum(1.0, np.abs(summed)))

    def test_memory_guard(self, demo_p, demo_q):
        # the level passes hold the law's outputs, the sort order and the
        # per-level arrays, not a dozen per-class temporaries: the traced
        # peak on the demo pair at m = 400 (80,601 classes) stays below 8 MB
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            bon_type_law(demo_p, demo_q, 400, math.exp(44.0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8.0e6

    def test_flat_memory_guard(self):
        # the first random-alphabet pair at K = 100,000 (seed 0) over the
        # default N grid: the 12 output rows, one block of level masses and
        # the sort, stay below 20 MB traced (15.1 MB; 21.6 MB when the whole
        # level-mass array was gathered into a second array, then wrapped
        # row by row)
        rng = spawn_generator(0, 0)
        p = make_distribution(_dirichlet_interior(rng, 100_000))
        q = make_distribution(_dirichlet_interior(rng, 100_000))
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            bon_exact_pmf(p, q.log_probs, default_n_grid())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 20.0e6


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
            flat = np.exp(bon_exact_pmf(probs, rewards, [N])[0])
            assert np.max(np.abs(flat - oracle)) <= 1e-12
            law = bon_type_law(p, q, m, N)
            assert np.max(np.abs(per_sequence_probs(law, p, q, m) - oracle)) <= 1e-12


class TestExchangeability:
    def test_pair_matrix_symmetric(self):
        rng = np.random.default_rng(41)
        for _ in range(10):
            p, q = random_pair(rng, 3)
            n = int(rng.integers(1, 6))
            probs = from_log_weights(sequence_space_log_probs(p, 2))
            rewards = sequence_space_log_probs(q, 2)
            joint = np.exp(bon_exact_pmf(probs, rewards, [n])[0]).reshape(3, 3)
            assert np.max(np.abs(joint - joint.T)) <= 1e-15

    def test_non_product_witness(self, demo_p, demo_q):
        assert PAIR_JOINT[(0, 0)] != MARGINAL_0 * MARGINAL_0
        probs, rewards = _pair_space(demo_p, demo_q)
        pi = np.exp(bon_exact_pmf(probs, rewards, [2])[0])
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
        joint = np.exp(bon_exact_pmf(probs, rewards, [2])[0]).reshape(3, 3)
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
        assert bon_kl_to_tilt(law, 0.0) == 0.0

    def test_kl_to_reference_pair_value(self, demo_p, demo_q):
        # independent 9-term summation from the exact fractions
        expected = sum(
            float(frac) * math.log(float(frac) / (0.2, 0.3, 0.5)[y1] / (0.2, 0.3, 0.5)[y2])
            for (y1, y2), frac in PAIR_JOINT.items()
        )
        law = bon_type_law(demo_p, demo_q, 2, 2)
        assert bon_kl_to_tilt(law, 0.0) == pytest.approx(expected, abs=1e-12)
        assert bon_kl_to_tilt(law, 0.0) <= math.log(2)

    def test_kl_bound_random_configs(self):
        rng = np.random.default_rng(42)
        for _ in range(20):
            K = int(rng.integers(2, 4))
            m = int(rng.integers(1, 5))
            n = int(rng.integers(1, 30))
            p, q = random_pair(rng, K)
            law = bon_type_law(p, q, m, n)
            assert bon_kl_to_tilt(law, 0.0) <= math.log(n) + 1e-9

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
        assert kl_divergence(CategoricalDistribution(pi), p) <= math.log(n) - (n - 1) / n + 1e-9

    def test_kl_to_optimal_bound_demo(self, demo_p, demo_q):
        law = bon_type_law(demo_p, demo_q, 10, 3)
        assert bon_kl_to_tilt(law, 0.0) <= math.log(3) + 1e-9

    @staticmethod
    def _kl_rate(p, q, m, delta):
        """Per-symbol D(pi_N^m || phi_delta^m) / m at N = exp(m delta), as
        equivalence-scan forms it."""
        alpha = solve_alpha_for_kl(q, p, [delta])[0].alpha
        return bon_kl_to_tilt(bon_type_law(p, q, m, math.exp(m * delta)), alpha) / m

    def test_kl_rate_zero_budget(self, demo_p, demo_q):
        assert self._kl_rate(demo_p, demo_q, 4, 0.0) == 0.0

    def test_kl_rate_clamped_at_zero(self, demo_p, demo_q):
        # equivalence-scan --delta 1e-300 at m = 10: the law is the tilt up
        # to rounding, and the unclamped sum reads -1.8e-16
        assert self._kl_rate(demo_p, demo_q, 10, 1e-300) == 0.0

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
            gaps.append(abs(expected_reward_rate(law) - phi_sol.expected_reward))
        assert all(b < a for a, b in zip(l1s, l1s[1:]))
        assert all(b < a for a, b in zip(gaps, gaps[1:]))

    def test_alphabet_mismatch(self, demo_p):
        # the readers take no distribution: the alphabets meet once, at the build
        with pytest.raises(AlphabetMismatch):
            bon_type_law(demo_p, make_distribution((1, 1)), 2, 2)

    @pytest.mark.parametrize("alpha", [math.nan, math.inf, -math.inf])
    def test_non_finite_alpha(self, demo_p, demo_q, alpha):
        with pytest.raises(ValueError, match="alpha must be finite"):
            bon_kl_to_tilt(bon_type_law(demo_p, demo_q, 2, 2), alpha)


def _mp_level_law(p_weights, q_weights, m, N, alpha):
    """The level law of best-of-N over length-m sequences in 30-digit
    arithmetic, from the exact weights: the type classes from integer
    factorials, levels by exact reward ties.  Returns per level the log
    masses under the law, and D(law || p^m), D(law || T(q, p, alpha)^m), the
    expected type and the per-symbol expected reward."""
    with mpmath.workdps(30):
        lp = [mpmath.log(mpmath.mpf(w) / sum(map(mpmath.mpf, p_weights))) for w in p_weights]
        lq = [mpmath.log(mpmath.mpf(w) / sum(map(mpmath.mpf, q_weights))) for w in q_weights]
        K = len(lp)
        classes = []
        for counts in ref_type_counts_matrix(m, K).tolist():
            size = math.factorial(m)
            for c in counts:
                size //= math.factorial(c)
            log_mass = mpmath.log(size) + mpmath.fsum(c * x for c, x in zip(counts, lp))
            classes.append((mpmath.fsum(c * x for c, x in zip(counts, lq)), mpmath.exp(log_mass), counts))
        classes.sort(key=lambda c: c[0])
        levels = []  # [reward, mass, mass-weighted counts]
        for reward, mass, counts in classes:
            if levels and reward - levels[-1][0] < mpmath.mpf(10) ** -20:
                levels[-1][1] += mass
                levels[-1][2] = [a + mass * c for a, c in zip(levels[-1][2], counts)]
            else:
                levels.append([reward, mass, [mass * c for c in counts]])
        n = mpmath.mpf(N)
        below = mpmath.mpf(0)
        pis = []
        for _, mass, _ in levels:
            # S_le^N - S_lt^N = S_lt^N * expm1(N log1p(mass / S_lt)), with no
            # cancellation near the top
            pis.append(below**n * mpmath.expm1(n * mpmath.log1p(mass / below)) if below else mass**n)
            below += mass
        tilt = [mass * mpmath.exp(alpha * reward) for reward, mass, _ in levels]
        z = mpmath.fsum(tilt)
        kl_ref = mpmath.fsum(pi * mpmath.log(pi / lvl[1]) for pi, lvl in zip(pis, levels))
        kl_tilt = mpmath.fsum(pi * mpmath.log(pi * z / t) for pi, t in zip(pis, tilt))
        etype = [
            mpmath.fsum(pi * lvl[2][k] / lvl[1] for pi, lvl in zip(pis, levels)) / m for k in range(K)
        ]
        reward = mpmath.fsum(pi * lvl[0] for pi, lvl in zip(pis, levels)) / m
        return (
            np.array([float(mpmath.log(pi)) for pi in pis]),
            float(kl_ref),
            float(kl_tilt),
            np.array([float(x) for x in etype]),
            float(reward),
        )


class TestLevelLaw:
    @pytest.mark.parametrize("q_weights", [(6, 1, 2), (1, 3, 9)], ids=["demo", "lattice"])
    @pytest.mark.parametrize("m", [1, 7, 30])
    def test_matches_30_digits(self, q_weights, m):
        # the demo pair (q = (2/3, 1/9, 2/9)) and the lattice q, at
        # N = exp(m delta) and the budget's alpha, to 1e-12 relative
        p_weights = (2, 3, 5)
        p, q = make_distribution(p_weights), make_distribution(q_weights)
        [sol] = solve_alpha_for_kl(q, p, [0.11])
        N = math.exp(m * 0.11)
        law = bon_type_law(p, q, m, N)
        log_masses, kl_ref, kl_tilt, etype, reward = _mp_level_law(
            p_weights, q_weights, m, N, sol.alpha
        )
        assert law.log_masses.size == log_masses.size
        assert np.all(np.abs(law.log_masses - log_masses) <= 1e-12 * np.abs(log_masses))
        assert abs(bon_kl_to_tilt(law, 0.0) - kl_ref) <= 1e-12 * abs(kl_ref)
        assert abs(bon_kl_to_tilt(law, sol.alpha) - kl_tilt) <= 1e-12 * abs(kl_tilt)
        assert np.all(np.abs(bon_expected_type(law) - etype) <= 1e-12 * etype)
        assert abs(expected_reward_rate(law) - reward) <= 1e-12 * abs(reward)

    @pytest.mark.parametrize("s", [1e-4, 1e-5])
    @pytest.mark.parametrize("m", [30, 60])
    def test_kl_to_tilt_at_large_alpha(self, demo_p, s, m):
        # a nearly uniform q puts alpha at ~5e3 (s = 1e-4) and ~5e4 (1e-5);
        # the tilt is formed from the rewards less the top one, so the KL
        # keeps 1e-14 against 30 digits run on the law's own level arrays
        q = make_distribution((1 + s, 1, 1 - s / 2))
        [sol] = solve_alpha_for_kl(q, demo_p, [0.05])
        law = bon_type_law(demo_p, q, m, math.exp(0.05 * m))
        with mpmath.workdps(30):
            alpha = mpmath.mpf(sol.alpha)
            levels = zip(law.ref_log_masses, law.rewards)
            tilt = [mpmath.mpf(r) + alpha * mpmath.mpf(x) for r, x in levels]
            log_z = mpmath.log(mpmath.fsum(mpmath.exp(w) for w in tilt))
            exact = float(
                mpmath.fsum(
                    mpmath.exp(mpmath.mpf(lm)) * (mpmath.mpf(lm) - w + log_z)
                    for lm, w in zip(law.log_masses, tilt)
                )
            )
        assert abs(bon_kl_to_tilt(law, sol.alpha) - exact) <= 1e-14 * max(1.0, exact)

    @pytest.mark.parametrize("m", [50, 200, 400])
    def test_decomposition_identity(self, demo_p, demo_q, m):
        # D(pi_N || phi^m) = D(pi_N || p^m) - m D(phi || p) + alpha m (E_phi - E_pi)
        # per-symbol rewards, at N = exp(m delta); K = 4 stops at m = 200,
        # where C(m + 3, 3) is still under TYPE_CAP
        rng = np.random.default_rng(21)
        pairs = [(demo_p, demo_q, 0.11), (*random_pair(rng, 3), 0.05), (*random_pair(rng, 4), 0.05)]
        for p, q, delta in pairs[: 3 if m <= 200 else 2]:
            [sol] = solve_alpha_for_kl(q, p, [delta])
            law = bon_type_law(p, q, m, math.exp(m * delta))
            to_ref = bon_kl_to_tilt(law, 0.0)
            gap = sol.expected_reward - expected_reward_rate(law)
            identity = to_ref - m * sol.achieved_kl + sol.alpha * m * gap
            assert abs(bon_kl_to_tilt(law, sol.alpha) - identity) <= 1e-10 * max(1.0, to_ref)

    @settings(max_examples=60)
    @given(
        st.integers(0, 2**32 - 1),
        st.integers(1, 60),
        st.sampled_from(["random", "lattice", "equal"]),
        st.one_of(st.sampled_from([1, 2, 17]), st.floats(0.0, MAX_LOG_N).map(math.exp)),
    )
    def test_level_masses_sum_to_one(self, seed, m, kind, N):
        # random q, the lattice q proportional to (1, 3, 9) with its 2m + 1
        # levels, and q proportional to (1, 1, 2) with its m + 1
        rng = np.random.default_rng(seed)
        p, q = random_pair(rng, 3)
        if kind != "random":
            q = make_distribution((1, 3, 9) if kind == "lattice" else (1, 1, 2))
        law = bon_type_law(p, q, m, N)
        assert abs(float(np.exp(law.log_masses).sum()) - 1.0) <= 1e-12
        assert abs(float(np.exp(law.ref_log_masses).sum()) - 1.0) <= 1e-12
        assert np.all(np.diff(law.rewards) > 0.0)
        assert np.all(np.abs(law.mean_counts.sum(axis=1) - m) <= 1e-12 * m)
        if kind != "random":
            assert law.log_masses.size == (2 * m + 1 if kind == "lattice" else m + 1)
        if N == 1:
            assert law.log_masses is law.ref_log_masses


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
            assert row.tobytes() == alone.tobytes()
            if N == 1:
                assert row.tobytes() == dist.log_probs.tobytes()

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
        assert pi[0] == pytest.approx(deep, rel=1e-12)

    def test_n_beyond_float_range_raises(self, demo_p, demo_q):
        # 10^400 has no finite float, and the kernels multiply log masses by float(N)
        with pytest.raises(InvalidN, match="converts to a finite float"):
            bon_exact_pmf(demo_p, demo_q.log_probs, [2, 10**400])

    @settings(max_examples=300)
    @given(
        _blocked_instances(),
        st.lists(
            st.one_of(st.sampled_from([1, 2, 3, 10**9]), st.integers(1, 10**6)),
            min_size=1,
            max_size=6,
        ),
        st.integers(1, 7),
    )
    def test_rows_match_prior_objects(self, instance, ns, block):
        # each row has the bits of the prior one from_log_weights per
        # drawn N, at any block of levels and of normalized rows
        log_probs, rewards = instance
        dist = CategoricalDistribution(log_probs)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(bestofn, "LEVEL_BLOCK", block)
            mp.setattr(distributions, "LEVEL_BLOCK", block)
            got = bon_exact_pmf(dist, rewards, ns)
        assert got.shape == (len(ns), dist.K) and not got.flags.writeable
        for row, ref in zip(got, prior_bon_exact_pmf(dist, rewards, ns)):
            assert row.tobytes() == ref.log_probs.tobytes()

    def test_non_finite_row_raises_as_before(self):
        # N log 1e-5 is below -DBL_MAX at N = 1e308: the lower level's log
        # mass is -inf, and from_log_weights refused that row
        p = make_distribution((1e-5, 1.0 - 1e-5))
        rewards = np.array([0.0, 1.0])
        for ns in ([10**308], [1, 2, 10**308]):
            with pytest.raises(NonPositiveWeight) as ref:
                prior_bon_exact_pmf(p, rewards, ns)
            with pytest.raises(NonPositiveWeight) as got:
                bon_exact_pmf(p, rewards, ns)
            assert str(got.value) == str(ref.value) == "log weights must be finite"

    def test_unnormalized_row_raises_as_before(self, demo_p, demo_q, monkeypatch):
        # a normalization that leaves each row's mass at e^1e-9 fails the
        # check every CategoricalDistribution runs, with the same message
        real = distributions.normalized_log_weights

        def skewed(arr, out=None):
            rows = real(arr, out=out)
            rows += 1e-9
            return rows

        monkeypatch.setattr(distributions, "normalized_log_weights", skewed)
        for ns in ([2], [1, 3, 10**9]):
            with pytest.raises(NonPositiveWeight) as ref:
                prior_bon_exact_pmf(demo_p, demo_q.log_probs, ns)
            with pytest.raises(NonPositiveWeight) as got:
                bon_exact_pmf(demo_p, demo_q.log_probs, ns)
            assert str(got.value) == str(ref.value)
            assert str(got.value).startswith("probabilities sum to 1.000000001")

    def test_invalid_n_anywhere_raises(self, demo_p, demo_q):
        with pytest.raises(InvalidN):
            bon_exact_pmf(demo_p, demo_q.log_probs, [2, 0, 3])
        assert bon_exact_pmf(demo_p, demo_q.log_probs, []).shape == (0, 3)
