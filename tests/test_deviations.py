from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from alignlab import (
    AlphabetMismatch,
    TargetOutOfRange,
    bon_enumeration_oracle,
    bon_type_law,
    cross_entropy,
    deviation_hit_count,
    finite_m_cumulant_check,
    kl_divergence,
    legendre_oracle,
    make_distribution,
    max_achievable_kl,
    mismatched_tilt,
    rate_from_hits,
    rate_function,
    renyi_cross_entropy,
    reward_target_range,
    scaled_cumulant,
    sequence_space_log_probs,
    solve_alpha_for_kl,
    window_log_prob,
)

from alignlab import deviations, tilting
from alignlab.deviations import CHUNK_CELLS, MAX_TRIAL_M
from alignlab.experiments import ExperimentConfig, default_probe_grid

from .conftest import TERNARY_P, TERNARY_Q, bon_winners, random_pair, scalar_legendre_oracle

TARGETS = {"demo": TERNARY_Q, "uniform": (1, 1, 1), "pair_tie": (2, 2, 1)}
# the demo pair's tilted source at the demo budget 0.11
DEMO_PHI = solve_alpha_for_kl(
    make_distribution(TERNARY_Q), make_distribution(TERNARY_P), [0.11]
)[0].phi
# ldp-probe's default window and probe points, whose source is DEMO_PHI
_PROBE = ExperimentConfig("ldp_probe")
DEFAULT_GRID, DEFAULT_EPS = _PROBE.derived[3], _PROBE.get("eps")


@pytest.mark.parametrize(
    "call",
    [
        lambda phi, q: deviation_hit_count(phi, q, 0.6, 0.1, 10, 10, np.random.default_rng(0)),
        lambda phi, q: legendre_oracle(phi, q, [0.6]),
    ],
    ids=["deviation_hit_count", "legendre_oracle"],
)
def test_alphabet_mismatch(call):
    # phi over 3 symbols against q over 2, at a t inside q's reward range
    with pytest.raises(AlphabetMismatch):
        call(make_distribution((0.2, 0.3, 0.5)), make_distribution((0.4, 0.6)))


def _loop_values(phi, q, m, trials, seed) -> np.ndarray:
    """Per-symbol -log q^m(Y) / m trial by trial, each trial's type drawn in
    order from one stream."""
    rng = np.random.default_rng(seed)
    return np.array([rng.multinomial(m, phi.probs()) @ -q.log_probs / m for _ in range(trials)])


def _trial_count(K, where):
    """1, or one below, at, or above the trials of one chunk over K symbols."""
    chunk = CHUNK_CELLS // K
    return {"one": 1, "below": chunk - 1, "at": chunk, "above": chunk + 1}[where]


class TestRateFunction:
    def test_zero_at_reference_mean(self, demo_p, demo_q):
        [point] = rate_function(demo_p, demo_q, demo_p, [cross_entropy(demo_p, demo_q)])
        assert abs(point.beta) <= 1e-9
        assert point.rate <= 1e-10

    def test_zero_at_tilted_mean(self, demo_p, demo_q):
        phi = solve_alpha_for_kl(demo_q, demo_p, [0.11])[0].phi
        [point] = rate_function(demo_p, demo_q, DEMO_PHI, [cross_entropy(phi, demo_q)])
        assert point.rate <= 1e-10

    def test_positive_off_mean(self, demo_p, demo_q):
        phi = solve_alpha_for_kl(demo_q, demo_p, [0.11])[0].phi
        [point] = rate_function(demo_p, demo_q, demo_p, [cross_entropy(phi, demo_q)])
        assert point.rate > 1e-3
        [oracle] = legendre_oracle(demo_p, demo_q, [cross_entropy(phi, demo_q)])
        assert abs(point.rate - oracle) <= 1e-5

    def test_increases_away_from_mean(self, demo_p, demo_q):
        phi = solve_alpha_for_kl(demo_q, demo_p, [0.11])[0].phi
        mean = cross_entropy(phi, demo_q)
        ds = (0.1, 0.2, 0.3)
        above = [pt.rate for pt in rate_function(demo_p, demo_q, DEMO_PHI, [mean + d for d in ds])]
        below = [pt.rate for pt in rate_function(demo_p, demo_q, DEMO_PHI, [mean - d for d in ds])]
        assert all(b > a for a, b in zip(above, above[1:]))
        assert all(b > a for a, b in zip(below, below[1:]))
        assert all(r >= 0 for r in above + below)

    def test_nonnegative_at_default_probe_points(self, demo_p, demo_q):
        # at the tilted mean beta equals alpha, and the two tilts' rounding
        # used to leave a rate of -1e-16
        for t in DEFAULT_GRID:
            assert rate_function(demo_p, demo_q, DEMO_PHI, [t])[0].rate >= 0.0

    def test_default_grid_takes_five_kernel_rounds(self, demo_p, demo_q, monkeypatch):
        # each level's beta lane searches only its root's side of 0
        calls = []
        real = tilting._tilt_moments
        monkeypatch.setattr(tilting, "_tilt_moments", lambda *a: calls.append(a) or real(*a))
        rate_function(demo_p, demo_q, DEMO_PHI, [float(t) for t in DEFAULT_GRID])
        assert len(calls) <= 5

    def test_grid_points_are_the_one_level_points(self, demo_p, demo_q, monkeypatch):
        ts = [float(t) for t in DEFAULT_GRID]
        # each rate is read off the solved reward-matched tilt, not re-tilted
        calls = []
        for module in (tilting, deviations):
            if hasattr(module, "mismatched_tilt"):
                monkeypatch.setattr(module, "mismatched_tilt", lambda *a: calls.append(a))
        grid = rate_function(demo_p, demo_q, DEMO_PHI, ts)
        assert calls == []
        monkeypatch.undo()
        assert grid == [rate_function(demo_p, demo_q, DEMO_PHI, [t])[0] for t in ts]
        for point in grid:
            tilt = mismatched_tilt(demo_q, demo_p, point.beta)
            assert point.rate == max(0.0, kl_divergence(tilt, DEMO_PHI))

    def test_consistency_tilted_base_vs_budget(self, demo_p, demo_q):
        # rate under the tilted base at budget 0 equals the budgeted rate,
        # with the family re-anchored through tilt composition
        phi = solve_alpha_for_kl(demo_q, demo_p, [0.11])[0].phi
        mean = cross_entropy(phi, demo_q)
        for t in (mean - 0.2, mean - 0.05, mean + 0.1, mean + 0.4):
            direct = rate_function(demo_p, demo_q, DEMO_PHI, [t])[0].rate
            reanchored = rate_function(phi, demo_q, phi, [t])[0].rate
            assert direct == pytest.approx(reanchored, abs=1e-9)


class TestScaledCumulant:
    def test_zero_order_is_expected_reward(self, demo_p, demo_q):
        [sol] = solve_alpha_for_kl(demo_q, demo_p, [0.11])
        point = scaled_cumulant(DEMO_PHI, demo_q, 0.0)
        assert point.value == pytest.approx(sol.expected_reward, abs=1e-12)

    def test_uniform_everything(self):
        u = make_distribution((1,) * 6)
        for rho in (0.0, 0.5, 2.0):
            assert scaled_cumulant(u, u, rho).value == pytest.approx(
                -math.log(6), abs=1e-9
            )

    def test_order_one_direct_sum(self, demo_p, demo_q):
        phi = solve_alpha_for_kl(demo_q, demo_p, [0.11])[0].phi
        expected = math.log(float(np.sum(phi.probs() * demo_q.probs())))
        assert scaled_cumulant(DEMO_PHI, demo_q, 1.0).value == pytest.approx(
            expected, abs=1e-12
        )
        assert scaled_cumulant(DEMO_PHI, demo_q, 1.0).value == pytest.approx(
            -renyi_cross_entropy(phi, demo_q, 2.0), abs=1e-15
        )

    def test_continuous_at_zero(self, demo_p, demo_q):
        base = scaled_cumulant(DEMO_PHI, demo_q, 0.0).value
        assert abs(scaled_cumulant(DEMO_PHI, demo_q, 1e-4).value - base) < 1e-3

    def test_negative_rho_rejected(self, demo_p, demo_q):
        with pytest.raises(ValueError):
            scaled_cumulant(DEMO_PHI, demo_q, -0.5)

    @pytest.mark.parametrize("rho", [math.inf, math.nan])
    def test_non_finite_rho_rejected(self, demo_q, rho):
        with pytest.raises(ValueError, match="finite and nonnegative"):
            scaled_cumulant(DEMO_PHI, demo_q, rho)


class TestFiniteMCumulant:
    def test_m_one_is_definition(self, demo_p, demo_q):
        phi = solve_alpha_for_kl(demo_q, demo_p, [0.11])[0].phi
        lhs, rhs = finite_m_cumulant_check(DEMO_PHI, demo_q, 0.7, 1)
        assert lhs == pytest.approx(-renyi_cross_entropy(phi, demo_q, 1.7), abs=1e-12)
        assert abs(lhs - rhs) <= 1e-12

    def test_demo_pair_m8(self, demo_p, demo_q):
        lhs, rhs = finite_m_cumulant_check(DEMO_PHI, demo_q, 0.5, 8)
        assert abs(lhs - rhs) <= 1e-10

    def test_random_pairs(self):
        rng = np.random.default_rng(50)
        for _ in range(5):
            p, q = random_pair(rng, 3)
            lhs, rhs = finite_m_cumulant_check(solve_alpha_for_kl(q, p, [0.05])[0].phi, q, 2.0, 4)
            assert abs(lhs - rhs) <= 1e-10

    def test_rho_must_be_positive(self, demo_p, demo_q):
        with pytest.raises(ValueError):
            finite_m_cumulant_check(DEMO_PHI, demo_q, 0.0, 3)

    @pytest.mark.parametrize("rho", [math.inf, math.nan])
    def test_rho_must_be_finite(self, demo_q, rho):
        with pytest.raises(ValueError, match="positive and finite"):
            finite_m_cumulant_check(DEMO_PHI, demo_q, rho, 3)


def _deviation_rate(p, q, delta, t, eps, m, trials, seed):
    phi = solve_alpha_for_kl(q, p, [delta])[0].phi
    hits = deviation_hit_count(phi, q, t, eps, m, trials, np.random.default_rng(seed))
    return rate_from_hits(hits, trials, m)


class TestEmpiricalDeviationRate:
    def test_full_window_rate_zero(self, demo_p, demo_q):
        lo, hi = reward_target_range(demo_q)
        rate = _deviation_rate(
            demo_p, demo_q, 0.11, 0.5 * (lo + hi), eps=hi - lo, m=20, trials=200, seed=5
        )
        assert rate == 0.0

    def test_near_zero_at_mean(self, demo_p, demo_q):
        phi = solve_alpha_for_kl(demo_q, demo_p, [0.11])[0].phi
        rate = _deviation_rate(
            demo_p, demo_q, 0.11, cross_entropy(phi, demo_q), eps=0.1, m=400, trials=500, seed=6
        )
        assert rate is not None and rate < 0.01

    def test_zero_hits_is_none(self, demo_p, demo_q):
        lo, hi = reward_target_range(demo_q)
        rate = _deviation_rate(
            demo_p, demo_q, 0.0, hi - 1e-4 * (hi - lo), eps=1e-4, m=200, trials=50, seed=7
        )
        assert rate is None
        assert rate_from_hits(0, 50, 200) is None

    def test_all_hits_is_positive_zero(self):
        # -log(3/3) / m is -0.0, which the CSV would write as "-0.0"
        assert math.copysign(1.0, rate_from_hits(3, 3, 10)) == 1.0

    def test_deterministic(self, demo_p, demo_q):
        args = (demo_p, demo_q, 0.11, 1.25, 0.05, 50, 300, 11)
        assert _deviation_rate(*args) == _deviation_rate(*args)

    def test_hit_count_matches_rate(self, demo_p, demo_q):
        hits = deviation_hit_count(DEMO_PHI, demo_q, 1.19, 0.08, 60, 400, np.random.default_rng(13))
        rate = rate_from_hits(hits, 400, 60)
        assert rate == pytest.approx(-math.log(hits / 400) / 60, abs=1e-15)

    def test_batching_independent_hit_count(self, demo_p, demo_q):
        # the trials read one stream in order: a second call on the same
        # generator continues it, so two counts of 200 trials add up to the
        # count of 400 from a fresh generator
        t, eps, m, seed = 1.19, 0.08, 60, 13
        whole = deviation_hit_count(DEMO_PHI, demo_q, t, eps, m, 400, np.random.default_rng(seed))
        rng = np.random.default_rng(seed)
        first = deviation_hit_count(DEMO_PHI, demo_q, t, eps, m, 200, rng)
        assert first + deviation_hit_count(DEMO_PHI, demo_q, t, eps, m, 200, rng) == whole

    def test_cost_does_not_grow_with_m(self, demo_q):
        # a trial draws K counts, not m symbols, so m = 10^11 needs no
        # (trials, m) buffer
        hits = deviation_hit_count(DEMO_PHI, demo_q, 1.19, 0.08, 10**11, 3, np.random.default_rng(1))
        assert isinstance(hits, int) and 0 <= hits <= 3


class TestBatchedHitCounts:
    """The chunked hit count reproduces the per-trial loop exactly."""

    # the window is centred on a quantile of the loop's own values, so most
    # examples split their trials into hits and misses
    @settings(max_examples=30)
    @given(
        seed=st.integers(0, 2**63 - 1),
        m=st.integers(30, 400),
        target=st.sampled_from(["demo", "pair_tie"]),  # a uniform target has no tilt
        quantile=st.floats(0.0, 1.0),
        eps=st.floats(0.005, 0.2),
        where=st.sampled_from(["one", "below", "at", "above"]),
    )
    def test_deviation_count_matches_loop(self, seed, m, target, quantile, eps, where):
        p, q = make_distribution(TERNARY_P), make_distribution(TARGETS[target])
        trials = _trial_count(q.K, where)
        phi = solve_alpha_for_kl(q, p, [0.11])[0].phi
        values = _loop_values(phi, q, m, trials, seed)
        t = float(np.quantile(values, quantile))
        expected = int(np.count_nonzero(np.abs(values - t) < eps))
        rng = np.random.default_rng(seed)
        assert deviation_hit_count(phi, q, t, eps, m, trials, rng) == expected

    def test_counts_are_nontrivial(self, demo_p, demo_q):
        # a window near the bulk splits the trials into hits and misses
        hits = deviation_hit_count(DEMO_PHI, demo_q, 1.19, 0.08, 60, 500, np.random.default_rng(3))
        assert 0 < hits < 500

    def test_invalid_sizes(self, demo_p, demo_q):
        rng = np.random.default_rng(3)
        with pytest.raises(ValueError):
            deviation_hit_count(DEMO_PHI, demo_q, 1.19, 0.08, 0, 10, rng)
        with pytest.raises(ValueError):
            deviation_hit_count(DEMO_PHI, demo_q, 1.19, 0.08, 10, 0, rng)
        with pytest.raises(ValueError, match="m must be <="):
            deviation_hit_count(DEMO_PHI, demo_q, 1.19, 0.08, MAX_TRIAL_M + 1, 10, rng)

    @pytest.mark.parametrize(
        "hits, trials, m",
        [(5, 0, 10), (11, 10, 10), (-1, 10, 10), (5, 10, 0)],
        ids=["no-trials", "hits-above-trials", "negative-hits", "m-zero"],
    )
    def test_invalid_rate_inputs(self, hits, trials, m):
        # no ZeroDivisionError and no negative rate
        with pytest.raises(ValueError, match="0 <= hits <= trials"):
            rate_from_hits(hits, trials, m)


class TestHitCountAgainstExactLaw:
    """The Monte Carlo count against the exact window probability of phi^m."""

    # the demo pair at ldp-probe's default probe points, and a random K = 5
    # pair at its own, which runs multinomial's binomial chain past 3 symbols
    @pytest.mark.parametrize(
        "K, m, trials",
        [
            pytest.param(3, 40, 20_000, id="40-20000"),
            pytest.param(3, 400, 5_000, id="400-5000"),
            pytest.param(5, 40, 20_000, id="K5-40-20000"),
        ],
    )
    def test_within_five_sigma(self, demo_q, K, m, trials):
        # threshold fixed in advance: |hits - n P| <= 5 sqrt(n P (1 - P))
        phi, q, grid = DEMO_PHI, demo_q, DEFAULT_GRID
        if K != 3:
            p, q = random_pair(np.random.default_rng(70), K)
            phi = solve_alpha_for_kl(q, p, [0.11])[0].phi
            grid = default_probe_grid(cross_entropy(phi, q), DEFAULT_EPS)
        law = bon_type_law(phi, q, m, 1)
        values = -law.rewards / m
        for i, t in enumerate(grid):
            # no level value near an edge, so float rounding moves no trial
            # across the window
            for edge in (t - DEFAULT_EPS, t + DEFAULT_EPS):
                assert np.min(np.abs(values - edge)) >= 1e-9
            prob = math.exp(window_log_prob(law, t, DEFAULT_EPS))
            rng = np.random.default_rng(2000 + i)
            hits = deviation_hit_count(phi, q, t, DEFAULT_EPS, m, trials, rng)
            assert abs(hits - trials * prob) <= 5.0 * math.sqrt(trials * prob * (1.0 - prob))


def _levels(values: np.ndarray) -> np.ndarray:
    """One representative of each group of values equal to within 1e-9."""
    ordered = np.sort(values)
    return ordered[np.concatenate(([True], np.diff(ordered) > 1e-9))]


def _windows(values: np.ndarray):
    """(t, eps) of every window from one level to another, its edges halfway
    between neighbouring levels, so no value sits near an edge."""
    levels = _levels(values)
    edges = np.concatenate(([levels[0] - 1.0], 0.5 * (levels[1:] + levels[:-1]), [levels[-1] + 1.0]))
    for i in range(levels.size):
        for j in range(i, levels.size):
            lo, hi = edges[i], edges[j + 1]
            yield 0.5 * (lo + hi), 0.5 * (hi - lo)


class TestWindowLogProb:
    @pytest.mark.parametrize("target", ["random", *sorted(TARGETS)])
    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_matches_enumeration_oracle(self, target, m, n):
        if target == "random":
            p, q = random_pair(np.random.default_rng(100 * m + n), 3)
        else:
            p, q = make_distribution(TERNARY_P), make_distribution(TARGETS[target])
        pmf = bon_enumeration_oracle(p, q, m, n)
        values = -sequence_space_log_probs(q, m) / m
        law = bon_type_law(p, q, m, n)
        for t, eps in _windows(values):
            expected = math.log(float(pmf[np.abs(values - t) < eps].sum()))
            assert window_log_prob(law, t, eps) == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize(
        "t, eps",
        [
            (math.nan, 0.05),
            (math.inf, 0.05),
            (-math.inf, 0.05),
            (1.1, 0.0),
            (1.1, -0.05),
            (1.1, math.nan),
        ],
        ids=["t-nan", "t-inf", "t-minus-inf", "eps-zero", "eps-negative", "eps-nan"],
    )
    def test_invalid_window(self, demo_p, demo_q, t, eps):
        # an unusable window is an error, not an empty window's -inf or a
        # Monte Carlo count of 0
        law = bon_type_law(demo_p, demo_q, 2, 2)
        with pytest.raises(ValueError, match="t must be finite and eps positive"):
            window_log_prob(law, t, eps)
        with pytest.raises(ValueError, match="t must be finite and eps positive"):
            deviation_hit_count(DEMO_PHI, demo_q, t, eps, 10, 10, np.random.default_rng(3))

    def test_empty_window_is_minus_inf(self, demo_p, demo_q):
        # at m = 2 the per-symbol values nearest 1.1 are 0.955 and 1.301
        law = bon_type_law(demo_p, demo_q, 2, 2)
        assert window_log_prob(law, 1.1, 0.01) == -math.inf

    def test_sampled_winners_within_five_sigma(self, demo_p, demo_q):
        # 20,000 best-of-8 draws at m = 10 from one seed; each window's hit
        # count lies within 5 binomial standard deviations of n*P
        m, n, draws, eps = 10, 8, 20_000, 0.05
        law = bon_type_law(demo_p, demo_q, m, n)
        rng = np.random.default_rng(2024)
        winners = np.concatenate(
            [bon_winners(demo_p, demo_q, m, n, rng.random((2_000, n * m + 1))) for _ in range(10)]
        )
        values = -demo_q.log_probs[winners].sum(axis=1) / m
        for t in (0.8, 0.9, 1.0, 1.1, 1.2):
            prob = math.exp(window_log_prob(law, t, eps))
            hits = int(np.count_nonzero(np.abs(values - t) < eps))
            assert abs(hits - draws * prob) <= 5.0 * math.sqrt(draws * prob * (1.0 - prob)), t


@st.composite
def _oracle_grids(draw):
    """A tilted source and its target over K = 2..8 symbols (a random pair, or
    a near-uniform one), with 1..9 probe points: repeats, and points within
    1e-6 of the ends of the target's reward range."""
    K = draw(st.integers(2, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        p, q = random_pair(rng, K)
    else:
        p = make_distribution(1.0 + 1e-3 * rng.random(K))
        q = make_distribution(1.0 + 1e-2 * rng.random(K))
    phi = solve_alpha_for_kl(q, p, [draw(st.floats(0.0, 0.9)) * max_achievable_kl(q, p)])[0].phi
    lo, hi = reward_target_range(q)
    edge = draw(st.floats(1e-9, 1e-6))
    fracs = draw(st.lists(st.floats(0.01, 0.99), min_size=1, max_size=9))
    pool = [lo + edge, hi - edge] + [lo + f * (hi - lo) for f in fracs]
    return phi, q, draw(st.lists(st.sampled_from(pool), min_size=1, max_size=9))


class TestLegendreOracle:
    def test_zero_at_mean(self, demo_p, demo_q):
        phi = solve_alpha_for_kl(demo_q, demo_p, [0.11])[0].phi
        [value] = legendre_oracle(DEMO_PHI, demo_q, [cross_entropy(phi, demo_q)])
        assert abs(value) <= 1e-7

    def test_matches_rate_function_on_grids(self):
        rng = np.random.default_rng(51)
        for _ in range(3):
            p, q = random_pair(rng, 3)
            boundary_delta = 0.3 * float(rng.uniform(0.2, 1.0))
            from alignlab import max_achievable_kl

            delta = min(boundary_delta, 0.8 * max_achievable_kl(q, p))
            phi = solve_alpha_for_kl(q, p, [delta])[0].phi
            lo, hi = reward_target_range(q)
            for frac in np.linspace(0.08, 0.92, 12):
                t = lo + float(frac) * (hi - lo)
                exact = rate_function(p, q, phi, [t])[0].rate
                assert abs(exact - legendre_oracle(phi, q, [t])[0]) <= 1e-5

    @given(st.integers(0, 2**32 - 1), st.integers(2, 8), st.floats(0.0, 0.9), st.floats(0.05, 0.95))
    @settings(max_examples=40)
    def test_matches_rate_function_property(self, seed, K, budget, frac):
        # the Newton solvers behind rate_function against the grid oracle
        p, q = random_pair(np.random.default_rng(seed), K)
        phi = solve_alpha_for_kl(q, p, [budget * max_achievable_kl(q, p)])[0].phi
        lo, hi = reward_target_range(q)
        t = lo + frac * (hi - lo)
        assert abs(rate_function(p, q, phi, [t])[0].rate - legendre_oracle(phi, q, [t])[0]) <= 1e-5

    def test_symmetric_points_nonnegative(self, demo_p, demo_q):
        phi = solve_alpha_for_kl(demo_q, demo_p, [0.11])[0].phi
        mean = cross_entropy(phi, demo_q)
        for d in (0.15, -0.15):
            assert legendre_oracle(DEMO_PHI, demo_q, [mean + d])[0] >= 0.0

    def test_out_of_range(self, demo_p, demo_q):
        lo, hi = reward_target_range(demo_q)
        with pytest.raises(TargetOutOfRange):
            legendre_oracle(DEMO_PHI, demo_q, [hi + 0.01])

    @pytest.mark.parametrize("bad", ["below", "low_end", "high_end", "above", "nan"])
    def test_one_out_of_range_point_fails_the_grid(self, demo_q, bad):
        lo, hi = reward_target_range(demo_q)
        t = {"below": lo - 0.01, "low_end": lo, "high_end": hi, "above": hi + 0.01}.get(bad, math.nan)
        with pytest.raises(TargetOutOfRange):
            legendre_oracle(DEMO_PHI, demo_q, [DEFAULT_GRID[0], t, DEFAULT_GRID[-1]])

    def test_default_grid_matches_scalar_reference(self, demo_q):
        got = legendre_oracle(DEMO_PHI, demo_q, list(DEFAULT_GRID))
        want = [scalar_legendre_oracle(DEMO_PHI, demo_q, t) for t in DEFAULT_GRID]
        assert np.array(got).tobytes() == np.array(want).tobytes()

    def test_empty_grid(self, demo_q):
        assert legendre_oracle(DEMO_PHI, demo_q, []) == []

    @settings(max_examples=200)
    @given(_oracle_grids())
    def test_lockstep_matches_scalar_reference(self, instance):
        phi, q, ts = instance
        try:
            want = [scalar_legendre_oracle(phi, q, t) for t in ts]
        except TargetOutOfRange:
            # a point with no interior maximizer fails the whole grid
            with pytest.raises(TargetOutOfRange):
                legendre_oracle(phi, q, ts)
            return
        got = legendre_oracle(phi, q, ts)
        assert np.array(got).tobytes() == np.array(want).tobytes()
        # each point's value alone is its value in the grid
        alone = [legendre_oracle(phi, q, [t])[0] for t in ts]
        assert np.array(alone).tobytes() == np.array(got).tobytes()
