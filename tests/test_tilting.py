from __future__ import annotations

import math
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from alignlab import (
    DegenerateFamily,
    InfeasibleBudget,
    TargetOutOfRange,
    bon_exact_pmf,
    cross_entropy,
    kl_divergence,
    kl_divergence_log_rows,
    make_distribution,
    max_achievable_kl,
    mismatched_tilt,
    reward_target_range,
    solve_alpha_for_kl,
    solve_beta_for_reward,
)
from alignlab import tilting
from alignlab.distributions import from_log_weights
from alignlab.experiments import _dirichlet_interior, default_n_grid
from alignlab.rng import spawn_generator
from alignlab.tilting import FEASIBILITY_MARGIN, MAX_STEPS, _tilt_moments

from .conftest import (
    TERNARY_P,
    TERNARY_Q,
    bisection_alpha_for_kl,
    bisection_beta_for_reward,
    interior_dirichlet,
    prior_solution,
    prior_tilt_log_probs,
    random_pair,
    tilt_compose_check,
)

# Independent bisection oracle at 1e-14 residual froze this tilt parameter
# for the ternary demo pair at KL budget 0.11.
DEMO_ALPHA_011 = 0.7091380845456214
DEMO_PHI_011 = (0.3893964948420786, 0.1639330842342216, 0.4466704209236999)


def _direct_tilt(p_weights, q_weights, alpha):
    w = [pw * qw**alpha for pw, qw in zip(p_weights, q_weights)]
    s = sum(w)
    return [x / s for x in w]


class TestMismatchedTilt:
    def test_alpha_zero_is_reference(self, demo_p, demo_q):
        assert mismatched_tilt(demo_q, demo_p, 0.0) is demo_p

    def test_uniform_target_is_identity(self, demo_p):
        u = make_distribution((1, 1, 1))
        for alpha in (-2.0, 0.5, 3.0):
            tilted = mismatched_tilt(u, demo_p, alpha)
            assert np.allclose(tilted.probs(), demo_p.probs(), atol=1e-12)

    def test_alpha_one_componentwise(self, demo_p, demo_q):
        expected = _direct_tilt(TERNARY_P, TERNARY_Q, 1.0)
        tilted = mismatched_tilt(demo_q, demo_p, 1.0)
        assert np.allclose(tilted.probs(), expected, atol=1e-14)
        assert np.allclose(expected, [0.48, 0.12, 0.4], atol=1e-14)

    @pytest.mark.parametrize("alpha", [math.nan, math.inf, -math.inf])
    def test_non_finite_alpha_rejected(self, demo_p, demo_q, alpha):
        with pytest.raises(ValueError, match="alpha must be finite"):
            mismatched_tilt(demo_q, demo_p, alpha)

    def test_negative_alpha_allowed(self, demo_p, demo_q):
        tilted = mismatched_tilt(demo_q, demo_p, -1.5)
        assert abs(float(np.exp(tilted.log_probs).sum()) - 1.0) <= 1e-12


class TestMaxAchievableKl:
    def test_uniform_target(self, demo_p):
        assert max_achievable_kl(make_distribution((1, 1, 1)), demo_p) == pytest.approx(
            0.0, abs=1e-12
        )

    def test_unique_maximizer(self):
        p = make_distribution((0.5, 0.25, 0.25))
        q = make_distribution((0.1, 0.2, 0.7))
        assert max_achievable_kl(q, p) == pytest.approx(math.log(1 / 0.25), abs=1e-12)

    def test_demo_pair(self, demo_p, demo_q):
        assert max_achievable_kl(demo_q, demo_p) == pytest.approx(math.log(5), abs=1e-12)

    def test_tied_maximizers(self, demo_p):
        q = make_distribution((0.4, 0.4, 0.2))
        assert max_achievable_kl(q, demo_p) == pytest.approx(math.log(1 / 0.5), abs=1e-12)


class TestSolveAlphaForKl:
    def test_zero_budget(self, demo_p, demo_q):
        [sol] = solve_alpha_for_kl(demo_q, demo_p, [0.0])
        assert sol.alpha == 0.0
        assert sol.phi is demo_p
        assert sol.achieved_kl == 0.0
        assert sol.expected_reward == pytest.approx(-cross_entropy(demo_p, demo_q), abs=1e-15)

    def test_demo_budget_fixture(self, demo_p, demo_q):
        [sol] = solve_alpha_for_kl(demo_q, demo_p, [0.11])
        assert sol.alpha == pytest.approx(DEMO_ALPHA_011, abs=1e-8)
        assert np.allclose(sol.phi.probs(), DEMO_PHI_011, atol=1e-9)
        assert abs(kl_divergence(sol.phi, demo_p) - 0.11) <= 1e-10

    def test_infeasible_budget(self, demo_p, demo_q):
        with pytest.raises(InfeasibleBudget):
            solve_alpha_for_kl(demo_q, demo_p, [1.7])  # above log 5 ~ 1.609

    def test_boundary_margin(self, demo_p, demo_q):
        boundary = max_achievable_kl(demo_q, demo_p)
        with pytest.raises(InfeasibleBudget):
            solve_alpha_for_kl(demo_q, demo_p, [boundary - 1e-10])

    def test_degenerate_family(self, demo_p):
        u = make_distribution((1, 1, 1))
        with pytest.raises(DegenerateFamily):
            solve_alpha_for_kl(u, demo_p, [0.1])
        [sol] = solve_alpha_for_kl(u, demo_p, [0.0])
        assert sol.phi is demo_p

    def test_negative_budget(self, demo_p, demo_q):
        with pytest.raises(InfeasibleBudget):
            solve_alpha_for_kl(demo_q, demo_p, [-0.1])

    def test_round_trip_residuals(self):
        rng = np.random.default_rng(20)
        for _ in range(200):
            K = 3 if rng.random() < 0.5 else 10
            p, q = random_pair(rng, K)
            delta = float(rng.uniform(0.0, 0.95)) * max_achievable_kl(q, p)
            [sol] = solve_alpha_for_kl(q, p, [delta])
            assert abs(kl_divergence(sol.phi, p) - delta) <= 1e-10
            assert sol.alpha >= 0.0

    def test_monotone_in_alpha(self):
        rng = np.random.default_rng(21)
        for _ in range(100):
            K = 3 if rng.random() < 0.5 else 10
            p, q = random_pair(rng, K)
            a1, a2 = sorted(rng.uniform(0.0, 4.0, size=2))
            if a2 - a1 < 1e-6:
                continue
            t1 = mismatched_tilt(q, p, float(a1))
            t2 = mismatched_tilt(q, p, float(a2))
            assert kl_divergence(t2, p) > kl_divergence(t1, p)
            assert cross_entropy(t2, q) < cross_entropy(t1, q)

    def test_optimizer_invariant(self, demo_p, demo_q):
        # no feasible perturbation beats the solved tilt's expected reward
        rng = np.random.default_rng(22)
        delta = 0.11
        [sol] = solve_alpha_for_kl(demo_q, demo_p, [delta])
        best = cross_entropy(sol.phi, demo_q)
        tried = 0
        while tried < 200:
            psi = from_log_weights(np.log(rng.dirichlet(np.ones(3))))
            if kl_divergence(psi, demo_p) > delta:
                continue
            tried += 1
            assert cross_entropy(psi, demo_q) >= best - 1e-9

    def test_reference_is_feasible_and_bound_holds(self, demo_p, demo_q):
        # the reference itself satisfies the budget; its excess cross entropy
        # epsilon obeys D(p || phi) <= alpha * epsilon
        [sol] = solve_alpha_for_kl(demo_q, demo_p, [0.11])
        eps = cross_entropy(demo_p, demo_q) - cross_entropy(sol.phi, demo_q)
        assert eps >= 0.0
        assert kl_divergence(demo_p, sol.phi) <= sol.alpha * eps + 1e-9


class TestSolveBetaForReward:
    def test_reference_reward_gives_zero(self, demo_p, demo_q):
        beta = solve_beta_for_reward(demo_q, demo_p, [cross_entropy(demo_p, demo_q)])[0].alpha
        assert abs(beta) <= 1e-9

    @pytest.mark.parametrize("side", [-1.0, 0.0, 1.0])
    def test_target_next_to_reference_reward(self, demo_p, demo_q, side):
        # H(p || q) itself and its neighbouring floats: the root beta ~ 0 is
        # at the inner end of either side's bracket
        rng = np.random.default_rng(19)
        for p, q in [(demo_p, demo_q), random_pair(rng, 2), random_pair(rng, 64)]:
            h0 = cross_entropy(p, q)
            t = math.nextafter(h0, side * math.inf) if side else h0
            [sol] = solve_beta_for_reward(q, p, [t])
            assert abs(sol.residual) <= 1e-12
            assert abs(sol.alpha) <= 1e-9

    def test_consistent_with_budget_solver(self, demo_p, demo_q):
        [sol] = solve_alpha_for_kl(demo_q, demo_p, [0.11])
        beta = solve_beta_for_reward(demo_q, demo_p, [cross_entropy(sol.phi, demo_q)])[0].alpha
        assert beta == pytest.approx(sol.alpha, abs=1e-8)

    def test_divergence_toward_endpoint(self, demo_p, demo_q):
        lo, hi = reward_target_range(demo_q)
        near_low = lo + 1e-6 * (hi - lo)
        assert solve_beta_for_reward(demo_q, demo_p, [near_low])[0].alpha > 5.0
        near_high = hi - 1e-6 * (hi - lo)
        assert solve_beta_for_reward(demo_q, demo_p, [near_high])[0].alpha < -5.0

    def test_residual(self, demo_p, demo_q):
        lo, hi = reward_target_range(demo_q)
        for frac in (0.1, 0.35, 0.6, 0.9):
            t = lo + frac * (hi - lo)
            beta = solve_beta_for_reward(demo_q, demo_p, [t])[0].alpha
            achieved = cross_entropy(mismatched_tilt(demo_q, demo_p, beta), demo_q)
            assert abs(achieved - t) <= 1e-10

    def test_out_of_range(self, demo_p, demo_q):
        lo, hi = reward_target_range(demo_q)
        with pytest.raises(TargetOutOfRange):
            solve_beta_for_reward(demo_q, demo_p, [hi + 0.1])
        with pytest.raises(TargetOutOfRange):
            solve_beta_for_reward(demo_q, demo_p, [lo])


class TestTradeoffCurve:
    """The expected-reward versus KL-budget curve, one budget solve per point."""

    def test_single_zero(self, demo_p, demo_q):
        [sol] = solve_alpha_for_kl(demo_q, demo_p, [0.0])
        assert sol.alpha == 0.0
        assert sol.expected_reward == pytest.approx(-cross_entropy(demo_p, demo_q), abs=1e-15)

    def test_monotone_rewards(self, demo_p, demo_q):
        deltas = np.linspace(0.0, 1.5, 20)
        sols = solve_alpha_for_kl(demo_q, demo_p, [float(d) for d in deltas])
        rewards = [sol.expected_reward for sol in sols]
        assert all(b >= a for a, b in zip(rewards, rewards[1:]))

    def test_duplicates_identical(self, demo_p, demo_q):
        a, b = (solve_alpha_for_kl(demo_q, demo_p, [0.3])[0] for _ in range(2))
        assert a == b


class TestTiltComposition:
    def test_zero_zero(self, demo_p, demo_q):
        assert tilt_compose_check(demo_q, demo_p, 0.0, 0.0) == 0.0

    def test_inverse_tilt(self, demo_p, demo_q):
        assert tilt_compose_check(demo_q, demo_p, 1.0, -1.0) <= 1e-12

    def test_demo_values(self, demo_p, demo_q):
        assert tilt_compose_check(demo_q, demo_p, 0.4, 0.7) <= 1e-12
        # direct 3-term oracle for the composed endpoint
        composed = mismatched_tilt(demo_q, mismatched_tilt(demo_q, demo_p, 0.4), 0.7)
        expected = _direct_tilt(TERNARY_P, TERNARY_Q, 1.1)
        assert np.allclose(composed.probs(), expected, atol=1e-14)

    def test_random_pairs(self):
        rng = np.random.default_rng(23)
        for _ in range(200):
            K = 3 if rng.random() < 0.5 else 10
            p, q = random_pair(rng, K)
            alpha, beta = rng.uniform(-3.0, 3.0, size=2)
            assert tilt_compose_check(q, p, float(alpha), float(beta)) <= 1e-12


# log q = NEAR_UNIFORM_SPREAD * z for standard normal z.  Much flatter targets
# need alpha ~ 1e5 or more near the boundary, where rounding in p + alpha *
# log q alone moves D by more than 1e-12 (see test_resolution_floor).
NEAR_UNIFORM_SPREAD = 0.3
# Newton or bisection steps after bracketing, on every instance below.
MAX_NEWTON_STEPS = 10


@st.composite
def tilt_pairs(draw, max_k: int = 64):
    """(p, q) with q random, near-uniform, or with a two-way tie at its argmax."""
    kind = draw(st.sampled_from(["random", "near_uniform", "tied_argmax"]))
    K = draw(st.integers(3 if kind == "tied_argmax" else 2, max_k))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    p = make_distribution(interior_dirichlet(rng, K))
    if kind == "near_uniform":
        w = np.exp(NEAR_UNIFORM_SPREAD * rng.standard_normal(K))
    else:
        w = interior_dirichlet(rng, K)
        if kind == "tied_argmax":
            w[:2] = 1.5 * w.max()
    return p, make_distribution(w)


# a fraction of the feasible range; 1.0 is the closest budget the experiments use
_FRACTIONS = st.one_of(st.floats(0.0, 1.0), st.sampled_from([1e-9, 1e-4, 0.999999, 1.0]))


def _budget(p, q, frac: float) -> float:
    return frac * (max_achievable_kl(q, p) - 2e-9)


def _reward_target(q, frac: float) -> float:
    lo, hi = reward_target_range(q)
    return lo + min(max(frac, 1e-6), 1.0 - 1e-6) * (hi - lo)


def _log_q_variance(phi, q) -> float:
    w = phi.probs()
    mean = float(np.sum(w * q.log_probs))
    return float(np.sum(w * (q.log_probs - mean) ** 2))


def _mp_tilt(p, q, x: float):
    """The tilt T(q, p, x) in 50 digits, from the float log-probs."""
    lp = [mpmath.mpf(float(v)) for v in p.log_probs]
    lq = [mpmath.mpf(float(v)) for v in q.log_probs]
    weights = [a + mpmath.mpf(x) * b for a, b in zip(lp, lq)]
    log_z = mpmath.log(mpmath.fsum(mpmath.exp(w) for w in weights))
    return [w - log_z for w in weights], lp, lq


def _rounding_allowance(x: float, q) -> float:
    """How far the float D or H at x may sit from its exact value: the
    rounding of x * log q, carried into the sum."""
    return 8.0 * np.finfo(float).eps * (1.0 + abs(x) * float(np.max(np.abs(q.log_probs))))


class TestNewtonSolvers:
    @given(tilt_pairs(), _FRACTIONS)
    @settings(max_examples=150)
    def test_alpha_meets_budget_in_few_steps(self, pair, frac):
        p, q = pair
        delta = _budget(p, q, frac)
        [sol] = solve_alpha_for_kl(q, p, [delta])
        residual = kl_divergence(sol.phi, p) - delta
        assert abs(residual) <= 1e-12
        assert sol.residual == residual == sol.achieved_kl - delta
        assert sol.iterations <= MAX_NEWTON_STEPS
        assert np.array_equal(sol.phi.log_probs, mismatched_tilt(q, p, sol.alpha).log_probs)
        # the bisection solver meets the same stop; between the two roots
        # D moves by at least the smaller endpoint slope alpha * Var(log q)
        ref = bisection_alpha_for_kl(q, p, delta)
        ref_phi = mismatched_tilt(q, p, ref)
        ref_residual = kl_divergence(ref_phi, p) - delta
        assert abs(ref_residual) <= 1e-12
        slope = min(sol.alpha * _log_q_variance(sol.phi, q), ref * _log_q_variance(ref_phi, q))
        assert abs(sol.alpha - ref) * slope <= abs(residual - ref_residual) + 1e-13

    @given(tilt_pairs(), st.floats(0.0, 1.0))
    @settings(max_examples=150)
    def test_beta_meets_reward_in_few_steps(self, pair, frac):
        p, q = pair
        t = _reward_target(q, frac)
        [sol] = solve_beta_for_reward(q, p, [t])
        beta, residual = sol.alpha, sol.residual
        tilt = mismatched_tilt(q, p, beta)
        # the solution is the kernel's final point: its tilt, KL and reward
        assert _bits(sol.phi.log_probs) == _bits(tilt.log_probs)
        assert _bits(sol.achieved_kl) == _bits(kl_divergence(tilt, p))
        assert _bits(residual) == _bits(-sol.expected_reward - t)
        assert residual == cross_entropy(tilt, q) - t
        assert abs(residual) <= 1e-12
        assert sol.iterations <= MAX_NEWTON_STEPS
        ref = bisection_beta_for_reward(q, p, t)
        ref_tilt = mismatched_tilt(q, p, ref)
        ref_residual = cross_entropy(ref_tilt, q) - t
        assert abs(ref_residual) <= 1e-12
        slope = min(_log_q_variance(tilt, q), _log_q_variance(ref_tilt, q))
        assert abs(beta - ref) * slope <= abs(residual - ref_residual) + 1e-13

    @given(tilt_pairs(max_k=8), _FRACTIONS)
    @settings(max_examples=60)
    def test_alpha_budget_in_50_digits(self, pair, frac):
        p, q = pair
        delta = _budget(p, q, frac)
        [sol] = solve_alpha_for_kl(q, p, [delta])
        with mpmath.workdps(50):
            log_phi, lp, _ = _mp_tilt(p, q, sol.alpha)
            kl = mpmath.fsum(mpmath.exp(a) * (a - b) for a, b in zip(log_phi, lp))
            gap = abs(float(kl - mpmath.mpf(delta)))
        assert gap <= 1e-12 + _rounding_allowance(sol.alpha, q)

    @given(tilt_pairs(max_k=8), st.floats(0.0, 1.0))
    @settings(max_examples=60)
    def test_beta_reward_in_50_digits(self, pair, frac):
        p, q = pair
        t = _reward_target(q, frac)
        beta = solve_beta_for_reward(q, p, [t])[0].alpha
        with mpmath.workdps(50):
            log_phi, _, lq = _mp_tilt(p, q, beta)
            h = -mpmath.fsum(mpmath.exp(a) * b for a, b in zip(log_phi, lq))
            gap = abs(float(h - mpmath.mpf(t)))
        assert gap <= 1e-12 + _rounding_allowance(beta, q)

    def test_kernel_moments(self, demo_p, demo_q):
        lq = demo_q.log_probs
        [log_phi], [kl], [mean], [var] = _tilt_moments(demo_p.log_probs, lq, lq - lq.max(), [0.7])
        tilt = mismatched_tilt(demo_q, demo_p, 0.7)
        assert np.array_equal(log_phi, tilt.log_probs)
        assert kl == kl_divergence(tilt, demo_p)
        assert mean == -cross_entropy(tilt, demo_q)
        direct = np.array(_direct_tilt(TERNARY_P, TERNARY_Q, 0.7))
        lq = np.log(TERNARY_Q)
        assert var == pytest.approx(float(direct @ lq**2 - (direct @ lq) ** 2), abs=1e-14)
        # a zero alpha's row is p's log-probs themselves, not renormalized
        rows = _tilt_moments(demo_p.log_probs, lq, lq - lq.max(), [0.7, 0.0])[0]
        assert rows[1].tobytes() == demo_p.log_probs.tobytes()
        assert rows[0].tobytes() == log_phi.tobytes()

    def test_zero_budget_takes_no_steps(self, demo_p, demo_q):
        [sol] = solve_alpha_for_kl(demo_q, demo_p, [0.0])
        assert (sol.iterations, sol.residual) == (0, 0.0)

    def test_resolution_floor(self):
        # a target within 1e-4 of uniform needs alpha ~ 6e4 at half the
        # feasible budget, where rounding in p + alpha * log q moves D by more
        # than 1e-12 between neighbouring floats (bisection misses the stop
        # here too); the solver ends on an exhausted bracket and reports the
        # best residual it saw (4.4e-12 at the time of writing)
        rng = np.random.default_rng(1)
        p = make_distribution(interior_dirichlet(rng, 64))
        q = make_distribution(np.exp(1e-4 * rng.standard_normal(64)))
        delta = 0.5 * max_achievable_kl(q, p)
        [sol] = solve_alpha_for_kl(q, p, [delta])
        assert sol.alpha > 1e4
        assert sol.iterations < MAX_STEPS
        assert sol.residual == sol.achieved_kl - delta
        assert abs(sol.residual) <= 1e-10

    @given(st.integers(0, 2**32 - 1), st.sampled_from([1e-3, 1e-4]))
    @settings(max_examples=40)
    def test_near_uniform_target_meets_stop(self, seed, spread):
        # a log-q spread of 1e-3 or 1e-4 puts alpha at 1e3-1e6 at half the
        # feasible budget; tilting by q / max q keeps the rounding of D below
        # the 1e-12 stop there (tilting by q itself left up to ~4e-12)
        rng = np.random.default_rng(seed)
        p = make_distribution(interior_dirichlet(rng, 64))
        q = make_distribution(np.exp(spread * rng.standard_normal(64)))
        delta = 0.5 * max_achievable_kl(q, p)
        [sol] = solve_alpha_for_kl(q, p, [delta])
        assert sol.alpha > 1e3
        assert abs(kl_divergence(sol.phi, p) - delta) <= 1e-12

    @pytest.mark.parametrize("p_top", [1e-30, 1e-200, 5e-324])
    def test_little_mass_on_target_argmax(self, p_top):
        # Var_p(log q) is ~p_top here: the small-budget estimate
        # sqrt(2 delta / Var) would start the bracket near 1e101 for
        # p_top = 1e-200, where D rounds to its supremum, and divide by zero
        # for p_top = 5e-324
        q = make_distribution((0.4, 0.6))
        p = make_distribution((1.0, p_top))
        delta = 30.0 if p_top > 1e-100 else 100.0
        [sol] = solve_alpha_for_kl(q, p, [delta])
        assert sol.alpha == pytest.approx(bisection_alpha_for_kl(q, p, delta), rel=1e-12)
        assert sol.iterations < MAX_STEPS
        # alpha ~ 1e3 puts the rounding floor above 1e-12
        assert abs(sol.residual) <= 1e-11

    def test_unconverged_alpha_raises(self, demo_p, demo_q, monkeypatch):
        monkeypatch.setattr(tilting, "MAX_STEPS", 1)
        with pytest.raises(InfeasibleBudget, match="after 1 steps"):
            solve_alpha_for_kl(demo_q, demo_p, [0.11])

    def test_unconverged_beta_raises(self, demo_p, demo_q, monkeypatch):
        monkeypatch.setattr(tilting, "MAX_STEPS", 1)
        with pytest.raises(TargetOutOfRange, match="after 1 steps"):
            solve_beta_for_reward(demo_q, demo_p, [_reward_target(demo_q, 0.3)])

    @pytest.mark.parametrize("delta", [math.nan, math.inf, -math.inf])
    def test_non_finite_budget(self, demo_p, demo_q, delta):
        with pytest.raises(InfeasibleBudget):
            solve_alpha_for_kl(demo_q, demo_p, [delta])

    @pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
    def test_non_finite_reward(self, demo_p, demo_q, t):
        with pytest.raises(TargetOutOfRange):
            solve_beta_for_reward(demo_q, demo_p, [t])


@st.composite
def lockstep_pairs(draw):
    """(p, q) at K 2-64 with q random, tie-heavy (a few distinct values) or
    near-uniform (log-q spread 0.3)."""
    kind = draw(st.sampled_from(["random", "tie_heavy", "near_uniform"]))
    K = draw(st.integers(2, 64))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    p = make_distribution(interior_dirichlet(rng, K))
    if kind == "random":
        w = interior_dirichlet(rng, K)
    elif kind == "tie_heavy":
        w = rng.integers(1, 4, K).astype(float)
        w[:2] = (1.0, 3.0)  # not uniform
    else:
        w = np.exp(NEAR_UNIFORM_SPREAD * rng.standard_normal(K))
    return p, make_distribution(w)


@st.composite
def budget_grids(draw, p, q):
    """Budgets in the feasible range, with 0, a duplicate and the clamp
    max_achievable_kl - 2 * FEASIBILITY_MARGIN among them, in drawn order."""
    cap = max_achievable_kl(q, p) - 2 * FEASIBILITY_MARGIN
    fracs = draw(st.lists(_FRACTIONS, min_size=1, max_size=8))
    budgets = [f * cap for f in fracs]
    budgets += [0.0, budgets[0], cap]
    return draw(st.permutations(budgets))


def _bits(x) -> bytes:
    return np.asarray(x, dtype=np.float64).tobytes()


class TestLockstep:
    @given(lockstep_pairs(), st.data())
    @settings(max_examples=80)
    def test_lanes_match_one_budget_solves(self, pair, data):
        p, q = pair
        deltas = data.draw(budget_grids(p, q))
        grid = solve_alpha_for_kl(q, p, deltas)
        assert len(grid) == len(deltas)
        for delta, lane in zip(deltas, grid):
            [alone] = solve_alpha_for_kl(q, p, [delta])
            assert _bits(lane.alpha) == _bits(alone.alpha)
            assert _bits(lane.phi.log_probs) == _bits(alone.phi.log_probs)
            assert lane.iterations == alone.iterations
            assert _bits(lane.residual) == _bits(alone.residual)
            assert _bits(lane.achieved_kl) == _bits(alone.achieved_kl)
            assert _bits(lane.expected_reward) == _bits(alone.expected_reward)

    def test_zero_budget_lane_is_the_reference(self, demo_p, demo_q):
        zero, spent = solve_alpha_for_kl(demo_q, demo_p, [0.0, 0.11])
        assert zero.alpha == 0.0 and zero.phi is demo_p
        assert (zero.iterations, zero.residual) == (0, 0.0)
        assert spent.alpha == pytest.approx(DEMO_ALPHA_011, rel=1e-12)

    def test_one_kernel_call_per_round(self, demo_p, demo_q, monkeypatch):
        # alone, each budget takes one kernel call per round; in a grid the
        # lanes share every round's call
        calls = []
        real = tilting._tilt_moments

        def counting(lp, lq, lq_top, alphas):
            calls.append(len(alphas))
            return real(lp, lq, lq_top, alphas)

        monkeypatch.setattr(tilting, "_tilt_moments", counting)
        deltas = [0.01, 0.11, 0.5, 1.2, 1.6]
        rounds = []
        for delta in deltas:
            calls.clear()
            solve_alpha_for_kl(demo_q, demo_p, [delta])
            rounds.append(len(calls))
        calls.clear()
        solve_alpha_for_kl(demo_q, demo_p, deltas)
        assert len(calls) == max(rounds)
        assert sum(calls) == sum(rounds)

    def test_empty_grid(self, demo_p, demo_q):
        assert solve_alpha_for_kl(demo_q, demo_p, []) == []

    def test_unconverged_lane_raises(self, demo_p, demo_q, monkeypatch):
        monkeypatch.setattr(tilting, "MAX_STEPS", 1)
        with pytest.raises(InfeasibleBudget, match="after 1 steps"):
            solve_alpha_for_kl(demo_q, demo_p, [0.0, 0.11])

    @pytest.mark.parametrize("bad", [math.nan, -0.1, 5.0])
    def test_one_bad_budget_raises(self, demo_p, demo_q, bad):
        # 5.0 is past the demo pair's supremum log(1 / 0.2)
        with pytest.raises(InfeasibleBudget):
            solve_alpha_for_kl(demo_q, demo_p, [0.05, bad, 0.11])

    def test_uniform_target_raises_only_for_a_spent_budget(self, demo_p):
        u = make_distribution((1, 1, 1))
        assert solve_alpha_for_kl(u, demo_p, [0.0])[0].phi is demo_p
        with pytest.raises(DegenerateFamily):
            solve_alpha_for_kl(u, demo_p, [0.0, 0.1])

    @given(lockstep_pairs(), st.lists(_FRACTIONS, min_size=1, max_size=8))
    @settings(max_examples=60)
    def test_beta_lanes_match_one_target_solves(self, pair, fracs):
        p, q = pair
        ts = [_reward_target(q, f) for f in fracs]
        ts.append(ts[0])  # a duplicate
        grid = solve_beta_for_reward(q, p, ts)
        assert len(grid) == len(ts)
        for t, lane in zip(ts, grid):
            [alone] = solve_beta_for_reward(q, p, [t])
            assert _bits(lane.alpha) == _bits(alone.alpha)
            assert _bits(lane.phi.log_probs) == _bits(alone.phi.log_probs)
            assert lane.iterations == alone.iterations
            assert _bits(lane.residual) == _bits(alone.residual)
            assert _bits(lane.achieved_kl) == _bits(alone.achieved_kl)
            assert _bits(lane.expected_reward) == _bits(alone.expected_reward)

    @given(lockstep_pairs(), st.lists(_FRACTIONS, min_size=1, max_size=8))
    @settings(max_examples=60)
    def test_beta_lanes_search_the_root_side(self, pair, fracs):
        # H falls from H(p || q) at beta = 0, so the root has the sign of
        # H(p || q) - t, and a lane asks for no beta on the other side
        p, q = pair
        h0 = cross_entropy(p, q)
        asked = []
        real = tilting._tilt_moments

        def recording(lp, lq, lq_top, betas):
            asked.extend(betas)
            return real(lp, lq, lq_top, betas)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(tilting, "_tilt_moments", recording)
            for t in (_reward_target(q, f) for f in fracs):
                if t == h0:
                    continue
                asked.clear()
                solve_beta_for_reward(q, p, [t])
                assert asked and all(b != 0.0 and (b > 0.0) == (t < h0) for b in asked)

    def test_unconverged_beta_lane_raises(self, demo_p, demo_q, monkeypatch):
        monkeypatch.setattr(tilting, "MAX_STEPS", 1)
        ts = [_reward_target(demo_q, 0.5), _reward_target(demo_q, 0.3)]
        with pytest.raises(TargetOutOfRange, match="after 1 steps"):
            solve_beta_for_reward(demo_q, demo_p, ts)

    def test_one_bad_target_raises(self, demo_p, demo_q):
        lo, _ = reward_target_range(demo_q)
        with pytest.raises(TargetOutOfRange):
            solve_beta_for_reward(demo_q, demo_p, [_reward_target(demo_q, 0.5), lo])


class TestFinalRows:
    """The solutions' final rows are validated once per solve and each phi
    is a view of one read-only block, with the bits of the prior one
    CategoricalDistribution per lane (``prior_solution`` in conftest)."""

    @given(lockstep_pairs(), st.data(), st.booleans())
    @settings(max_examples=60)
    def test_solutions_match_prior(self, pair, data, reward):
        p, q = pair
        found = []
        real = tilting._lockstep

        def recording(evaluate, lanes):
            results = real(evaluate, lanes)
            found.extend(results)
            return results

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(tilting, "_lockstep", recording)
            if reward:
                fracs = data.draw(st.lists(st.floats(0.05, 0.95), min_size=1, max_size=8))
                lo, hi = reward_target_range(q)
                sols = solve_beta_for_reward(q, p, [lo + f * (hi - lo) for f in fracs])
            else:
                deltas = data.draw(budget_grids(p, q))
                sols = [s for d, s in zip(deltas, solve_alpha_for_kl(q, p, deltas)) if d != 0.0]
        assert len(sols) == len(found)
        lq_top = q.log_probs - np.max(q.log_probs)
        for sol, lane in zip(sols, found):
            ref = prior_solution(lane)
            assert _bits(sol.phi.log_probs) == _bits(ref.phi.log_probs)
            [alone] = prior_tilt_log_probs(p.log_probs, lq_top, [sol.alpha])
            assert _bits(sol.phi.log_probs) == _bits(alone)
            assert not sol.phi.log_probs.flags.writeable
            for name in ("alpha", "achieved_kl", "expected_reward", "residual"):
                assert _bits(getattr(sol, name)) == _bits(getattr(ref, name))
            assert sol.iterations == ref.iterations

    def test_memory_guard(self):
        # the first random-alphabet pair at K = 100,000 (seed 0) and its 12
        # budgets, 11 lanes: a point a lane keeps holds its own row, so no
        # round's (lanes, K) arrays outlive the round (38.4 MB traced; 67.2
        # MB while kept points pinned them)
        rng = spawn_generator(0, 0)
        p = make_distribution(_dirichlet_interior(rng, 100_000))
        q = make_distribution(_dirichlet_interior(rng, 100_000))
        pis = bon_exact_pmf(p, q.log_probs, default_n_grid())
        cap = max_achievable_kl(q, p) - 2 * FEASIBILITY_MARGIN
        deltas = [min(d, cap) for d in kl_divergence_log_rows(pis, p.log_probs).tolist()]
        del pis
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            solve_alpha_for_kl(q, p, deltas)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 45.0e6
