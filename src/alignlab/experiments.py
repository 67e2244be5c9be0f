"""Reproducible desk-scale experiments emitting CSV curves and JSON reports.

Every experiment is a pure function of its config (including the seed):
rerunning with an identical config byte-reproduces every numeric output.
Wall-clock duration is recorded as metadata and is the one field outside that
guarantee.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from .bestofn import (
    BonConfig,
    bon_enumeration_oracle,
    bon_exact_pmf,
    bon_expected_type,
    bon_kl_to_reference,
    bon_sample,
    bon_type_law,
    expected_reward_rate,
    sequence_space_log_probs,
)
from .distributions import (
    CategoricalDistribution,
    from_log_weights,
    log_sequence_prob,
    make_distribution,
)
from .deviations import deviation_hit_count, legendre_oracle, rate_function
from .errors import AlignlabError
from .metrics import cross_entropy, kl_divergence
from .rng import spawn_generator
from .tilting import max_achievable_kl, mismatched_tilt, solve_alpha_for_kl

# Ternary demo pair used across the curve/scan experiments.
TERNARY_REFERENCE = (0.2, 0.3, 0.5)
TERNARY_TARGET = (2.0 / 3.0, 1.0 / 9.0, 2.0 / 9.0)

# Exact joint best-of-2 PMF over symbol pairs for the demo pair, as fractions.
PAIR_DEMO_JOINT = {
    (0, 0): (49, 625),
    (0, 1): (21, 250),
    (0, 2): (43, 250),
    (1, 0): (21, 250),
    (1, 1): (81, 10000),
    (1, 2): (9, 125),
    (2, 0): (43, 250),
    (2, 1): (9, 125),
    (2, 2): (103, 400),
}
PAIR_DEMO_MARGINAL0 = (209, 625)


@dataclass
class ExperimentConfig:
    """Inputs of one experiment run; unset fields fall back to defaults."""

    experiment: str
    p: tuple[float, ...] | None = None
    q: tuple[float, ...] | None = None
    K: int | None = None
    m: int | None = None
    n: int | None = None
    log_n: float | None = None
    delta: float | None = None
    deltas: tuple[float, ...] | None = None
    m_grid: tuple[int, ...] | None = None
    n_grid: tuple[int, ...] | None = None
    t_grid: tuple[float, ...] | None = None
    eps: float | None = None
    trials: int | None = None
    seeds: int | None = None
    conjecture: bool = False
    seed: int = 0
    output_dir: str | None = None

    def echo(self) -> dict:
        """Config as a plain dict with unset fields dropped."""
        raw = asdict(self)
        return {k: v for k, v in raw.items() if v is not None and v is not False}


@dataclass
class ExperimentReport:
    """Structured record of one run: config echo, results, and check flags."""

    experiment: str
    seed: int
    config: dict
    results: dict
    checks: list[dict] = field(default_factory=list)
    passed: bool = True
    duration_seconds: float = 0.0

    def to_dict(self) -> dict:
        return {
            "experiment": self.experiment,
            "seed": self.seed,
            "config": self.config,
            "results": self.results,
            "checks": self.checks,
            "passed": self.passed,
            "duration_seconds": self.duration_seconds,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2) + "\n"


def _check(checks: list[dict], name: str, value, limit, passed: bool) -> None:
    checks.append({"name": name, "value": value, "limit": limit, "passed": bool(passed)})


def _format_cell(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return str(bool(value))
    if value is None:
        return ""
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def write_csv(path: Path, header: list[str], rows: list[tuple]) -> None:
    lines = [",".join(header)]
    lines.extend(",".join(_format_cell(cell) for cell in row) for row in rows)
    path.write_text("\n".join(lines) + "\n")


def _write_outputs(report: ExperimentReport, outdir: str | None, csvs: dict) -> None:
    if outdir is None:
        return
    out = Path(outdir)
    out.mkdir(parents=True, exist_ok=True)
    written = []
    for name, (header, rows) in csvs.items():
        path = out / f"{name}.csv"
        write_csv(path, header, rows)
        written.append(path.name)
    report_path = out / f"{report.experiment}_report.json"
    report_path.write_text(report.to_json())
    written.append(report_path.name)
    report.results["files"] = sorted(written)
    # rewrite so the report on disk lists its own companions
    report_path.write_text(report.to_json())


def _demo_pair(config: ExperimentConfig) -> tuple[CategoricalDistribution, CategoricalDistribution]:
    p = make_distribution(config.p if config.p is not None else TERNARY_REFERENCE)
    q = make_distribution(config.q if config.q is not None else TERNARY_TARGET)
    return p, q


def _finish(report: ExperimentReport, started: float, outdir, csvs) -> ExperimentReport:
    report.passed = all(c["passed"] for c in report.checks)
    report.duration_seconds = round(time.perf_counter() - started, 6)
    _write_outputs(report, outdir, csvs)
    return report


def run_example1(config: ExperimentConfig) -> ExperimentReport:
    """Exact best-of-2 joint over symbol pairs, marginals, and the non-product witness."""
    started = time.perf_counter()
    p, q = _demo_pair(config)
    m = config.m if config.m is not None else 2
    n = config.n if config.n is not None else 2
    seq_lp = sequence_space_log_probs(p, m)
    seq_rw = sequence_space_log_probs(q, m)
    outcome_dist = from_log_weights(seq_lp)
    pi = bon_exact_pmf(outcome_dist, seq_rw, n).probs()
    K = p.K
    joint = pi.reshape((K,) * m)
    marginal_first = joint.reshape(K, -1).sum(axis=1)

    checks: list[dict] = []
    results: dict = {
        "joint": [[float(x) for x in row] for row in joint.reshape(K, -1)],
        "marginal_first_symbol": [float(x) for x in marginal_first],
    }

    is_default = (
        config.p is None and config.q is None and m == 2 and n == 2 and K == 3
    )
    if is_default:
        table_dev = max(
            abs(float(joint[y1, y2]) - num / den)
            for (y1, y2), (num, den) in PAIR_DEMO_JOINT.items()
        )
        marg_dev = abs(float(marginal_first[0]) - PAIR_DEMO_MARGINAL0[0] / PAIR_DEMO_MARGINAL0[1])
        pi_00 = float(joint[0, 0])
        marg_0 = float(marginal_first[0])
        results.update(
            {
                "max_table_abs_dev": table_dev,
                "marginal_abs_dev": marg_dev,
                "pi_00": pi_00,
                "marginal_0": marg_0,
                "marginal_0_squared": marg_0 * marg_0,
            }
        )
        _check(checks, "joint_matches_expected_fractions", table_dev, 1e-12, table_dev <= 1e-12)
        _check(checks, "marginal_matches_expected_fraction", marg_dev, 1e-12, marg_dev <= 1e-12)
        _check(
            checks,
            "non_product_witness",
            abs(pi_00 - marg_0 * marg_0),
            0.0,
            pi_00 != marg_0 * marg_0,
        )

    oracle = bon_enumeration_oracle(p, q, m, n)
    oracle_dev = float(np.max(np.abs(oracle - pi)))
    results["max_oracle_abs_dev"] = oracle_dev
    _check(checks, "matches_enumeration_oracle", oracle_dev, 1e-12, oracle_dev <= 1e-12)

    report = ExperimentReport("example1", config.seed, config.echo(), results, checks)
    rows = [
        (y1, y2, float(joint[y1, y2]))
        for y1 in range(K)
        for y2 in range(K)
    ] if m == 2 else []
    csvs = {"example1_joint": (["y1", "y2", "probability"], rows)} if rows else {}
    return _finish(report, started, config.output_dir, csvs)


def _kl_linear(v: np.ndarray, ref_probs: np.ndarray) -> float:
    mask = v > 0.0
    return float(np.sum(v[mask] * (np.log(v[mask]) - np.log(ref_probs[mask]))))


def _radial_contour_point(
    p_probs: np.ndarray, d: np.ndarray, delta: float, tol: float
) -> tuple[np.ndarray, bool]:
    """The point v = p + r*d with D(v||p) = delta, clamped inside the simplex.

    KL increases along rays out of p, so there is at most one crossing; the
    second return value flags rays whose in-simplex segment never reaches
    delta.
    """
    negative = d < 0.0
    r_max = float(np.min(p_probs[negative] / -d[negative]))
    hi = r_max * (1.0 - 1e-12)
    if _kl_linear(p_probs + hi * d, p_probs) < delta:
        return p_probs + hi * d, True
    lo = 0.0
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if _kl_linear(p_probs + mid * d, p_probs) < delta:
            lo = mid
        else:
            hi = mid
    return p_probs + 0.5 * (lo + hi) * d, False


def _trace_kl_contour(
    p_probs: np.ndarray, delta: float, directions: int = 360, tol: float = 1e-10
) -> tuple[np.ndarray, int]:
    """Closed polyline of {v : D(v||p) = delta} by radial root-finding."""
    e1 = np.array([1.0, -1.0, 0.0]) / math.sqrt(2.0)
    e2 = np.array([1.0, 1.0, -2.0]) / math.sqrt(6.0)
    points = np.empty((directions + 1, 3))
    clamped = 0
    for i in range(directions):
        theta = 2.0 * math.pi * i / directions
        d = math.cos(theta) * e1 + math.sin(theta) * e2
        points[i], hit_boundary = _radial_contour_point(p_probs, d, delta, tol)
        clamped += int(hit_boundary)
    points[directions] = points[0]
    return points, clamped


def _reward_contour_segment(q: CategoricalDistribution, level: float, samples: int = 50) -> np.ndarray:
    """The chord {w : sum_k w_k log(1/q_k) = level} across the ternary simplex."""
    vertex_values = -q.log_probs
    endpoints = []
    for i in range(3):
        j = (i + 1) % 3
        vi, vj = float(vertex_values[i]), float(vertex_values[j])
        if vi == vj:
            continue
        s = (level - vi) / (vj - vi)
        if 0.0 <= s <= 1.0:
            w = np.zeros(3)
            w[i] = 1.0 - s
            w[j] = s
            endpoints.append(w)
    if len(endpoints) < 2:
        raise AlignlabError(f"reward level {level!r} does not cross the simplex")
    a, b = endpoints[0], endpoints[-1]
    ts = np.linspace(0.0, 1.0, samples)
    return (1.0 - ts)[:, None] * a[None, :] + ts[:, None] * b[None, :]


def run_ternary_figure(config: ExperimentConfig) -> ExperimentReport:
    """KL contour, reward chord, tilted-family curve, and best-of-N expected type."""
    started = time.perf_counter()
    p, q = _demo_pair(config)
    if p.K != 3:
        raise AlignlabError("the ternary figure requires a 3-symbol alphabet")
    delta = config.delta if config.delta is not None else 0.11
    m = config.m if config.m is not None else 10
    n = config.n if config.n is not None else 3

    sol = solve_alpha_for_kl(q, p, delta)
    phi_probs = sol.phi.probs()
    p_probs = p.probs()
    reward_level = cross_entropy(sol.phi, q)

    checks: list[dict] = []
    csvs: dict = {}
    results: dict = {
        "alpha": sol.alpha,
        "phi": [float(x) for x in phi_probs],
        "achieved_kl": sol.achieved_kl,
        "expected_reward": sol.expected_reward,
    }

    if delta > 0.0:
        contour, clamped = _trace_kl_contour(p_probs, delta)
        results["kl_contour_clamped_rays"] = clamped
        csvs["kl_contour"] = (
            ["x_bary1", "x_bary2", "x_bary3", "curve_tag"],
            [(row[0], row[1], row[2], "kl_contour") for row in contour],
        )
        # consistency: the radial tracer crosses the contour at phi itself
        direction = phi_probs - p_probs
        d = direction / float(np.linalg.norm(direction))
        traced, hit_boundary = _radial_contour_point(p_probs, d, delta, tol=1e-13)
        tracer_dev = math.inf if hit_boundary else float(np.max(np.abs(traced - phi_probs)))
        results["phi_on_kl_contour_linf"] = tracer_dev
        _check(checks, "phi_on_kl_contour", tracer_dev, 1e-8, tracer_dev <= 1e-8)

    kl_residual = abs(sol.achieved_kl - delta)
    reward_residual = abs(float(phi_probs @ (-q.log_probs)) - reward_level)
    results["kl_contour_residual"] = kl_residual
    results["reward_contour_residual"] = reward_residual
    _check(checks, "phi_kl_residual", kl_residual, 1e-8, kl_residual <= 1e-8)
    _check(checks, "phi_on_reward_contour", reward_residual, 1e-8, reward_residual <= 1e-8)

    segment = _reward_contour_segment(q, reward_level)
    csvs["reward_contour"] = (
        ["x_bary1", "x_bary2", "x_bary3", "curve_tag"],
        [(row[0], row[1], row[2], "reward_contour") for row in segment],
    )

    max_kl = max_achievable_kl(q, p)
    alpha_hi = solve_alpha_for_kl(q, p, 0.98 * max_kl).alpha
    family_rows = []
    for alpha in np.linspace(0.0, alpha_hi, 200):
        probs = mismatched_tilt(q, p, float(alpha)).probs()
        family_rows.append((probs[0], probs[1], probs[2], "aligned_family"))
    csvs["aligned_family"] = (["x_bary1", "x_bary2", "x_bary3", "curve_tag"], family_rows)

    law = bon_type_law(p, q, m, BonConfig(N=n))
    e_type = bon_expected_type(law)
    l1_bon = float(np.abs(e_type - phi_probs).sum())
    l1_ref = float(np.abs(p_probs - phi_probs).sum())
    results["bon_expected_type"] = [float(x) for x in e_type]
    results["l1_bon_type_to_phi"] = l1_bon
    results["l1_reference_to_phi"] = l1_ref
    _check(checks, "bon_type_closer_than_reference", l1_bon, l1_ref, l1_bon < l1_ref)

    q_probs = q.probs()
    csvs["points"] = (
        ["x_bary1", "x_bary2", "x_bary3", "curve_tag"],
        [
            (p_probs[0], p_probs[1], p_probs[2], "reference_p"),
            (q_probs[0], q_probs[1], q_probs[2], "alignment_q"),
            (phi_probs[0], phi_probs[1], phi_probs[2], "phi_delta"),
            (e_type[0], e_type[1], e_type[2], "bon_expected_type"),
        ],
    )

    report = ExperimentReport("ternary_figure", config.seed, config.echo(), results, checks)
    return _finish(report, started, config.output_dir, csvs)


def run_equivalence_scan(config: ExperimentConfig) -> ExperimentReport:
    """Per-symbol divergence of exact best-of-N from the solved tilt as m grows."""
    started = time.perf_counter()
    p, q = _demo_pair(config)
    delta = config.delta if config.delta is not None else 0.11
    m_grid = config.m_grid if config.m_grid is not None else (5, 10, 20, 40, 80, 160)

    sol = solve_alpha_for_kl(q, p, delta)
    phi_probs = sol.phi.probs()

    rows = []
    kl_rates = []
    bound_ok = True
    for m in m_grid:
        law = bon_type_law(p, q, int(m), BonConfig(log_N=m * delta))
        kl_rate = bon_kl_to_reference(law, sol.phi) / m
        kl_ref_seq = bon_kl_to_reference(law, p)
        reward_gap = abs(expected_reward_rate(law, q) - sol.expected_reward)
        type_l1 = float(np.abs(bon_expected_type(law) - phi_probs).sum())
        bound_ok = bound_ok and (kl_ref_seq <= m * delta + 1e-9)
        kl_rates.append(kl_rate)
        rows.append(
            (int(m), m * delta, kl_rate, kl_ref_seq / m, delta, reward_gap, type_l1)
        )

    checks: list[dict] = []
    results = {
        "m_grid": [int(m) for m in m_grid],
        "kl_rate_to_optimal": kl_rates,
        "kl_to_reference_per_symbol": [r[3] for r in rows],
        "reward_gap": [r[5] for r in rows],
        "type_l1": [r[6] for r in rows],
    }
    _check(checks, "kl_bound_per_row", bound_ok, True, bound_ok)
    if delta == 0.0:
        all_zero = all(rate == 0.0 for rate in kl_rates)
        _check(checks, "zero_budget_rates_vanish", max(kl_rates, default=0.0), 0.0, all_zero)
    elif len(kl_rates) >= 2:
        decreasing = all(b < a for a, b in zip(kl_rates, kl_rates[1:]))
        _check(checks, "kl_rate_strictly_decreasing", decreasing, True, decreasing)
        halved = kl_rates[-1] <= 0.5 * kl_rates[0]
        _check(checks, "final_rate_at_most_half_first", kl_rates[-1], 0.5 * kl_rates[0], halved)

    csvs = {
        "equivalence_scan": (
            ["m", "logN", "kl_rate_to_optimal", "kl_to_reference", "kl_bound", "reward_gap", "type_l1"],
            rows,
        )
    }
    report = ExperimentReport("equivalence_scan", config.seed, config.echo(), results, checks)
    return _finish(report, started, config.output_dir, csvs)


def default_n_grid(points: int = 12, n_max: int = 1000) -> tuple[int, ...]:
    """Geometric grid of integer sample counts in [1, n_max]."""
    grid = sorted({int(round(x)) for x in np.geomspace(1.0, float(n_max), points)})
    return tuple(grid)


def _dirichlet_interior(rng: np.random.Generator, K: int, floor: float = 1e-12) -> np.ndarray:
    """Flat Dirichlet draw rejected until all coordinates clear the floor."""
    while True:
        draw = rng.dirichlet(np.ones(K))
        if draw.min() >= floor:
            return draw


def run_random_alphabet(config: ExperimentConfig) -> ExperimentReport:
    """Divergence of exact flat best-of-N from the budget-matched tilt.

    For each random pair the tilt is solved at the budget best-of-N actually
    spent, delta = D(pi_N || p); budgets that reach the family's numerical
    boundary are clamped just inside it (counted in the report).
    """
    started = time.perf_counter()
    K = config.K if config.K is not None else 1024
    n_seeds = config.seeds if config.seeds is not None else 20
    n_grid = config.n_grid if config.n_grid is not None else default_n_grid()

    rows = []
    max_d = 0.0
    max_kl_bound_excess = -math.inf
    clamp_count = 0
    for s in range(n_seeds):
        rng = spawn_generator(config.seed, s)
        p = make_distribution(_dirichlet_interior(rng, K))
        q = make_distribution(_dirichlet_interior(rng, K))
        boundary = max_achievable_kl(q, p)
        for n in n_grid:
            pi = bon_exact_pmf(p, q.log_probs, int(n))
            delta = kl_divergence(pi, p)
            max_kl_bound_excess = max(max_kl_bound_excess, delta - math.log(n))
            target = delta
            clamped = False
            if target >= boundary - 2e-9:
                target = boundary - 2e-9
                clamped = True
                clamp_count += 1
            phi = solve_alpha_for_kl(q, p, target).phi
            d = kl_divergence(pi, phi)
            max_d = max(max_d, d)
            rows.append((s, int(n), delta, d, clamped))

    checks: list[dict] = []
    results = {
        "K": K,
        "n_grid": [int(n) for n in n_grid],
        "max_kl_to_optimal": max_d,
        "clamped_budgets": clamp_count,
        "max_kl_bound_excess": max_kl_bound_excess,
    }
    _check(
        checks,
        "kl_bound_log_n",
        max_kl_bound_excess,
        1e-9,
        max_kl_bound_excess <= 1e-9,
    )
    if K >= 1000:
        _check(checks, "max_divergence_large_alphabet", max_d, 0.01, max_d <= 0.01)
    elif K < 10:
        _check(checks, "max_divergence_small_alphabet", max_d, 0.5, max_d <= 0.5)

    csvs = {
        "random_alphabet": (
            ["seed_index", "N", "kl_to_reference", "kl_to_optimal", "clamped"],
            rows,
        )
    }
    report = ExperimentReport("random_alphabet", config.seed, config.echo(), results, checks)
    return _finish(report, started, config.output_dir, csvs)


def run_closeness_bound(config: ExperimentConfig) -> ExperimentReport:
    """Random feasible perturbations never beat the solved tilt's bound.

    Each accepted trial checks D(psi || phi) <= alpha * eps + 1e-9 where eps
    is psi's measured excess cross entropy to the target.
    """
    started = time.perf_counter()
    trials = config.trials if config.trials is not None else 1000

    accepted = 0
    skipped = 0
    violations = 0
    max_excess = -math.inf
    rows = []
    for trial in range(trials):
        rng = spawn_generator(config.seed, trial)
        K = 3 if rng.random() < 0.5 else 10
        p = make_distribution(_dirichlet_interior(rng, K))
        q = make_distribution(_dirichlet_interior(rng, K))
        boundary = max_achievable_kl(q, p)
        delta = float(rng.uniform(0.05, 0.9)) * boundary
        if delta <= 0.0:
            skipped += 1
            continue
        sol = solve_alpha_for_kl(q, p, delta)
        target_point = _dirichlet_interior(rng, K)
        lam = 1.0
        psi = None
        while lam >= 1e-12:
            mix = (1.0 - lam) * sol.phi.probs() + lam * target_point
            candidate = from_log_weights(np.log(mix))
            if kl_divergence(candidate, p) <= delta:
                psi = candidate
                break
            lam *= 0.5
        if psi is None:
            skipped += 1
            continue
        accepted += 1
        eps = cross_entropy(psi, q) - cross_entropy(sol.phi, q)
        d = kl_divergence(psi, sol.phi)
        excess = d - sol.alpha * eps
        max_excess = max(max_excess, excess)
        if excess > 1e-9:
            violations += 1
        rows.append((trial, K, delta, sol.alpha, eps, d, excess))

    checks: list[dict] = []
    results = {
        "trials": trials,
        "accepted": accepted,
        "skipped": skipped,
        "violations": violations,
        "max_bound_excess": max_excess,
    }
    _check(checks, "no_bound_violations", violations, 0, violations == 0)
    csvs = {
        "closeness_bound": (
            ["trial", "K", "delta", "alpha", "epsilon", "kl_to_optimal", "bound_excess"],
            rows,
        )
    }
    report = ExperimentReport("closeness_bound", config.seed, config.echo(), results, checks)
    return _finish(report, started, config.output_dir, csvs)


def _point_seed(master: int, index: int) -> int:
    return int(np.random.SeedSequence(entropy=(int(master), int(index))).generate_state(1, np.uint64)[0])


def default_probe_grid(mean_t: float, eps: float) -> tuple[float, ...]:
    """Five-point deviation grid: the mean and offsets observable at desk scale."""
    return tuple(mean_t + k * eps for k in (-3.0, -2.0, 0.0, 2.0, 3.0))


def _bon_hit_count(p, q, m, n, t, eps, trials, seed) -> int:
    hits = 0
    for trial in range(trials):
        rng = spawn_generator(seed, trial)
        seq = bon_sample(p, q, m, n, rng)
        value = -log_sequence_prob(q, seq) / m
        if abs(value - t) < eps:
            hits += 1
    return hits


def run_ldp_probe(config: ExperimentConfig) -> ExperimentReport:
    """Exact rate function vs its cumulant-transform oracle vs Monte Carlo.

    The optional conjecture mode samples best-of-N sequences instead of the
    tilted source and reports the empirical curve side by side without any
    pass/fail assertion.
    """
    started = time.perf_counter()
    p, q = _demo_pair(config)
    delta = config.delta if config.delta is not None else 0.11
    m = config.m if config.m is not None else 400
    trials = config.trials if config.trials is not None else 100_000
    eps = config.eps if config.eps is not None else 0.05

    sol = solve_alpha_for_kl(q, p, delta)
    mean_t = cross_entropy(sol.phi, q)
    t_grid = config.t_grid if config.t_grid is not None else default_probe_grid(mean_t, eps)
    band = eps + math.log(trials) / m

    conjecture_n = None
    if config.conjecture:
        conjecture_n = config.n if config.n is not None else int(round(math.exp(m * delta)))

    rows = []
    checks: list[dict] = []
    max_oracle_dev = 0.0
    max_band_dev = 0.0
    undefined_shallow = 0
    for i, t in enumerate(t_grid):
        point = rate_function(p, q, delta, float(t))
        oracle = legendre_oracle(p, q, delta, float(t))
        max_oracle_dev = max(max_oracle_dev, abs(point.rate - oracle))
        hits = deviation_hit_count(p, q, delta, float(t), eps, m, trials, _point_seed(config.seed, i))
        mc = None if hits == 0 else -math.log(hits / trials) / m
        if mc is None:
            if point.rate <= 3.0:
                undefined_shallow += 1
        else:
            max_band_dev = max(max_band_dev, abs(mc - point.rate))
        row = [float(t), point.beta, point.rate, oracle, mc, hits, trials]
        if conjecture_n is not None:
            bon_hits = _bon_hit_count(
                p, q, m, conjecture_n, float(t), eps, trials, _point_seed(config.seed, 10_000 + i)
            )
            bon_mc = None if bon_hits == 0 else -math.log(bon_hits / trials) / m
            row.extend([bon_mc, bon_hits])
        rows.append(tuple(row))

    results = {
        "delta": delta,
        "m": m,
        "trials": trials,
        "eps": eps,
        "mean_t": mean_t,
        "t_grid": [float(t) for t in t_grid],
        "max_oracle_abs_dev": max_oracle_dev,
        "max_mc_band_dev": max_band_dev,
        "band": band,
        "undefined_at_shallow_rate": undefined_shallow,
    }
    _check(checks, "rate_matches_oracle", max_oracle_dev, 1e-5, max_oracle_dev <= 1e-5)
    _check(checks, "mc_within_band", max_band_dev, band, max_band_dev <= band)
    _check(checks, "undefined_only_deep", undefined_shallow, 0, undefined_shallow == 0)

    header = ["t", "beta", "rate_exact", "rate_oracle", "rate_mc", "hits", "trials"]
    if conjecture_n is not None:
        header += ["rate_mc_bon", "hits_bon"]
        results["conjecture_n"] = conjecture_n
    csvs = {"ldp_probe": (header, rows)}
    report = ExperimentReport("ldp_probe", config.seed, config.echo(), results, checks)
    return _finish(report, started, config.output_dir, csvs)


RUNNERS = {
    "example1": run_example1,
    "ternary_figure": run_ternary_figure,
    "equivalence_scan": run_equivalence_scan,
    "random_alphabet": run_random_alphabet,
    "closeness_bound": run_closeness_bound,
    "ldp_probe": run_ldp_probe,
}


def run_experiment(config: ExperimentConfig) -> ExperimentReport:
    """Dispatch a config to its experiment runner."""
    if config.experiment not in RUNNERS:
        raise AlignlabError(f"unknown experiment {config.experiment!r}")
    return RUNNERS[config.experiment](config)
