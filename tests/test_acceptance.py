"""Acceptance suite: every release criterion at its declared tolerance.

Each test prints one ``ACCEPTANCE <n> PASS|FAIL`` line (run with ``pytest -s``
to see them live).  Criterion 11's large-alphabet half is known to fail under
the declared flat-Dirichlet reading; it is asserted faithfully rather than
weakened, and the run reports the measured value.
"""

from __future__ import annotations

import math
import time
from fractions import Fraction

import numpy as np
import pytest

from alignlab import (
    CategoricalDistribution,
    ExperimentConfig,
    bon_enumeration_oracle,
    bon_exact_pmf,
    bon_kl_to_tilt,
    bon_type_law,
    finite_m_cumulant_check,
    from_log_weights,
    kl_divergence,
    legendre_oracle,
    make_distribution,
    max_achievable_kl,
    mismatched_tilt,
    rate_function,
    reward_target_range,
    sequence_space_log_probs,
    solve_alpha_for_kl,
)
from alignlab.experiments import (
    run_equivalence_scan,
    run_example1,
    run_ldp_probe,
    run_random_alphabet,
    run_closeness_bound,
    run_ternary_figure,
)

from .conftest import per_sequence_probs, random_pair, tilt_compose_check

_DEMO_P = (0.2, 0.3, 0.5)
_DEMO_Q = (2.0 / 3.0, 1.0 / 9.0, 2.0 / 9.0)


def _report(number: int, passed: bool, detail: str) -> None:
    status = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {number} {status}: {detail}")


def _demo():
    return make_distribution(_DEMO_P), make_distribution(_DEMO_Q)


def test_criterion_01_pair_table_reproduction():
    started = time.perf_counter()
    report = run_example1(ExperimentConfig("example1"))
    elapsed = time.perf_counter() - started
    table_dev = report.results["max_table_abs_dev"]
    marg_dev = report.results["marginal_abs_dev"]
    ok = table_dev <= 1e-12 and marg_dev <= 1e-12 and elapsed < 1.0
    _report(1, ok, f"max joint dev {table_dev:.2e}, marginal dev {marg_dev:.2e}, {elapsed:.2f}s")
    assert table_dev <= 1e-12
    assert marg_dev <= 1e-12
    assert elapsed < 1.0


def test_criterion_02_non_product_witness():
    exact = Fraction(49, 625) != Fraction(209, 625) ** 2
    report = run_example1(ExperimentConfig("example1"))
    computed = report.results["pi_00"] != report.results["marginal_0_squared"]
    _report(2, exact and computed, "49/625 != (209/625)^2 exactly, and as computed floats")
    assert exact
    assert computed


def test_criterion_03_oracle_equivalence():
    started = time.perf_counter()
    rng = np.random.default_rng(1003)
    checked = 0
    worst = 0.0
    while checked < 50:
        K = int(rng.integers(2, 4))
        m = int(rng.integers(1, 4))
        n = int(rng.integers(1, 6))
        if (K**m) ** n > 100_000:
            continue
        checked += 1
        p, q = random_pair(rng, K)
        oracle = bon_enumeration_oracle(p, q, m, n)
        [flat] = bon_exact_pmf(
            from_log_weights(sequence_space_log_probs(p, m)),
            sequence_space_log_probs(q, m),
            [n],
        )
        flat = np.exp(flat)
        worst = max(worst, float(np.max(np.abs(flat - oracle))))
        law = bon_type_law(p, q, m, n)
        worst = max(worst, float(np.max(np.abs(per_sequence_probs(law, p, q, m) - oracle))))
    elapsed = time.perf_counter() - started
    ok = worst <= 1e-12 and elapsed < 30.0
    _report(3, ok, f"{checked} instances, worst |dev| {worst:.2e}, {elapsed:.1f}s")
    assert worst <= 1e-12
    assert elapsed < 30.0


def test_criterion_04_kl_bound():
    started = time.perf_counter()
    rng = np.random.default_rng(1004)
    worst_excess = -math.inf
    for _ in range(60):
        K = int(rng.integers(2, 51))
        n = int(rng.integers(1, 2000))
        p, q = random_pair(rng, K)
        [pi] = bon_exact_pmf(p, q.log_probs, [n])
        worst_excess = max(worst_excess, kl_divergence(CategoricalDistribution(pi), p) - math.log(n))
    for _ in range(40):
        K = int(rng.integers(2, 4))
        m = int(rng.integers(1, 7))
        n = int(rng.integers(1, 100))
        p, q = random_pair(rng, K)
        law = bon_type_law(p, q, m, n)
        worst_excess = max(worst_excess, bon_kl_to_tilt(law, 0.0) - math.log(n))
    elapsed = time.perf_counter() - started
    ok = worst_excess <= 1e-9 and elapsed < 10.0
    _report(4, ok, f"worst KL excess over log N: {worst_excess:.2e}, {elapsed:.1f}s")
    assert worst_excess <= 1e-9
    assert elapsed < 10.0


def test_criterion_05_tilt_algebra():
    started = time.perf_counter()
    rng = np.random.default_rng(1005)
    worst_compose = 0.0
    for _ in range(1000):
        K = 3 if rng.random() < 0.5 else 10
        p, q = random_pair(rng, K)
        alpha, beta = (float(x) for x in rng.uniform(-3.0, 3.0, size=2))
        worst_compose = max(worst_compose, tilt_compose_check(q, p, alpha, beta))
    worst_residual = 0.0
    for _ in range(1000):
        K = 3 if rng.random() < 0.5 else 10
        p, q = random_pair(rng, K)
        delta = float(rng.uniform(0.0, 0.95)) * max_achievable_kl(q, p)
        [sol] = solve_alpha_for_kl(q, p, [delta])
        worst_residual = max(worst_residual, abs(kl_divergence(sol.phi, p) - delta))
    elapsed = time.perf_counter() - started
    ok = worst_compose <= 1e-12 and worst_residual <= 1e-10 and elapsed < 10.0
    _report(
        5,
        ok,
        f"compose max {worst_compose:.2e}, solver residual max {worst_residual:.2e}, {elapsed:.1f}s",
    )
    assert worst_compose <= 1e-12
    assert worst_residual <= 1e-10
    assert elapsed < 10.0


def test_criterion_06_closeness_bound():
    started = time.perf_counter()
    report = run_closeness_bound(ExperimentConfig("closeness_bound", trials=1100, seed=1006))
    elapsed = time.perf_counter() - started
    accepted = report.results["accepted"]
    violations = report.results["violations"]
    ok = accepted >= 1000 and violations == 0 and elapsed < 30.0
    _report(6, ok, f"{accepted} accepted trials, {violations} violations, {elapsed:.1f}s")
    assert accepted >= 1000
    assert violations == 0
    assert elapsed < 30.0


def test_criterion_07_cumulant_identity():
    started = time.perf_counter()
    p, q = _demo()
    rng = np.random.default_rng(1007)
    pairs = [(p, q, 0.11)]
    for _ in range(10):
        rp, rq = random_pair(rng, 3)
        pairs.append((rp, rq, 0.3 * max_achievable_kl(rq, rp)))
    worst = 0.0
    for pp, qq, delta in pairs:
        phi = solve_alpha_for_kl(qq, pp, [delta])[0].phi
        for m in range(1, 11):
            for rho in (0.25, 0.5, 1.0, 2.0):
                lhs, rhs = finite_m_cumulant_check(phi, qq, rho, m)
                worst = max(worst, abs(lhs - rhs))
    elapsed = time.perf_counter() - started
    ok = worst <= 1e-10 and elapsed < 30.0
    _report(7, ok, f"11 pairs x m 1..10 x 4 orders, worst gap {worst:.2e}, {elapsed:.1f}s")
    assert worst <= 1e-10
    assert elapsed < 30.0


def test_criterion_08_rate_function_consistency():
    started = time.perf_counter()
    rng = np.random.default_rng(1008)
    worst = 0.0
    worst_mean = 0.0
    for _ in range(10):
        p, q = random_pair(rng, 3)
        delta = float(rng.uniform(0.1, 0.8)) * max_achievable_kl(q, p)
        phi = solve_alpha_for_kl(q, p, [delta])[0].phi
        lo, hi = reward_target_range(q)
        for frac in np.linspace(0.05, 0.95, 20):
            t = lo + float(frac) * (hi - lo)
            exact = rate_function(p, q, phi, [t])[0].rate
            worst = max(worst, abs(exact - legendre_oracle(phi, q, t)))
        mean_t = float(phi.probs() @ (-q.log_probs))
        worst_mean = max(worst_mean, rate_function(p, q, phi, [mean_t])[0].rate)
    elapsed = time.perf_counter() - started
    ok = worst <= 1e-5 and worst_mean <= 1e-10 and elapsed < 60.0
    _report(8, ok, f"oracle gap max {worst:.2e}, rate at mean max {worst_mean:.2e}, {elapsed:.1f}s")
    assert worst <= 1e-5
    assert worst_mean <= 1e-10
    assert elapsed < 60.0


def test_criterion_09_monte_carlo_deviation_band():
    started = time.perf_counter()
    report = run_ldp_probe(ExperimentConfig("ldp_probe", seed=1009))
    elapsed = time.perf_counter() - started
    by_name = {c["name"]: c for c in report.checks}
    band_dev = report.results["max_mc_band_dev"]
    band = report.results["band"]
    undefined = report.results["undefined_at_shallow_rate"]
    ok = (
        by_name["mc_within_band"]["passed"]
        and by_name["undefined_only_deep"]["passed"]
        and elapsed < 300.0
    )
    _report(
        9,
        ok,
        f"max |mc - exact| {band_dev:.4f} vs band {band:.4f}, "
        f"{undefined} undefined at rate <= 3, {elapsed:.0f}s",
    )
    assert by_name["mc_within_band"]["passed"]
    assert by_name["undefined_only_deep"]["passed"]
    assert elapsed < 300.0


def test_criterion_10_equivalence_trend():
    started = time.perf_counter()
    report = run_equivalence_scan(ExperimentConfig("equivalence_scan", seed=1010))
    elapsed = time.perf_counter() - started
    rates = report.results["kl_rate_to_optimal"]
    decreasing = all(b < a for a, b in zip(rates, rates[1:]))
    halved = rates[-1] <= 0.5 * rates[0]
    ok = decreasing and halved and elapsed < 120.0
    _report(
        10,
        ok,
        f"rates {['%.5f' % r for r in rates]}, final/first {rates[-1] / rates[0]:.3f}, {elapsed:.0f}s",
    )
    assert decreasing
    assert halved
    assert elapsed < 120.0


def test_criterion_11_random_alphabet_closeness():
    started = time.perf_counter()
    large = run_random_alphabet(ExperimentConfig("random_alphabet", K=1024, seed=1011))
    small = run_random_alphabet(ExperimentConfig("random_alphabet", K=8, seed=1011))
    elapsed = time.perf_counter() - started
    d_large = large.results["max_kl_to_optimal"]
    d_small = small.results["max_kl_to_optimal"]
    ok = d_large <= 0.01 and d_small <= 0.5 and elapsed < 120.0
    _report(
        11,
        ok,
        f"K=1024 max divergence {d_large:.4f} (limit 0.01), "
        f"K=8 max divergence {d_small:.4f} (limit 0.5), {elapsed:.0f}s",
    )
    assert elapsed < 120.0
    # Known-unattainable under the declared flat-Dirichlet single-symbol
    # reading: at K=1024 even the closest member of the tilted family sits
    # 0.1..1 away in KL from exact best-of-N, and at small K a near-tie in
    # the top two target values makes the budget-matched tilt arbitrarily
    # far from it.  Asserted faithfully rather than weakened; the decisions
    # ledger carries the measured evidence.
    assert d_large <= 0.01 and d_small <= 0.5, (
        f"measured max divergences K=1024: {d_large:.4f} (limit 0.01), "
        f"K=8: {d_small:.4f} (limit 0.5); the claimed bounds do not hold under "
        "the declared flat-Dirichlet reading (see decisions ledger)"
    )


def test_criterion_12_figure_geometry():
    started = time.perf_counter()
    report = run_ternary_figure(ExperimentConfig("ternary_figure"))
    elapsed = time.perf_counter() - started
    kl_res = report.results["kl_contour_residual"]
    reward_res = report.results["reward_contour_residual"]
    on_contour = report.results["phi_on_kl_contour_linf"]
    l1_bon = report.results["l1_bon_type_to_phi"]
    l1_ref = report.results["l1_reference_to_phi"]
    ok = (
        kl_res <= 1e-8
        and reward_res <= 1e-8
        and on_contour <= 1e-8
        and l1_bon < l1_ref
        and elapsed < 10.0
    )
    _report(
        12,
        ok,
        f"contour residuals ({kl_res:.1e}, {reward_res:.1e}), tracer gap {on_contour:.1e}, "
        f"L1 {l1_bon:.4f} < {l1_ref:.4f}, {elapsed:.1f}s",
    )
    assert kl_res <= 1e-8
    assert reward_res <= 1e-8
    assert on_contour <= 1e-8
    assert l1_bon < l1_ref
    assert elapsed < 10.0
