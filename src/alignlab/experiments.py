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
from collections.abc import Callable
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from .bestofn import (
    MAX_LOG_N,
    _check_n,
    _check_oracle_size,
    bon_enumeration_oracle,
    bon_exact_pmf,
    bon_expected_type,
    bon_kl_to_tilt,
    bon_type_law,
    expected_reward_rate,
    sequence_space_log_probs,
)
from .distributions import (
    TYPE_CAP,
    CategoricalDistribution,
    from_log_weights,
    make_distribution,
)
from .deviations import (
    MAX_TRIAL_M,
    deviation_hit_count,
    legendre_oracle,
    rate_from_hits,
    rate_function,
    window_log_prob,
)
from .errors import AlignlabError, InvalidN
from .metrics import cross_entropy, kl_divergence, kl_divergence_log_rows, kl_divergence_rows
from .rng import spawn_generator
from .tilting import (
    FEASIBILITY_MARGIN,
    _is_uniform,
    _tilt_log_probs,
    max_achievable_kl,
    reward_target_range,
    solve_alpha_for_kl,
)

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

# The KL contour of the ternary figure: rays out of p, bisected to this width.
CONTOUR_DIRECTIONS = 360
CONTOUR_TOL = 1e-10
# Points along the figure's reward chord.
CHORD_SAMPLES = 50
# random_alphabet's default N grid: this many geometric points in [1, N_GRID_MAX].
N_GRID_POINTS = 12
N_GRID_MAX = 1000
# Random pairs are drawn until every coordinate clears this floor.
DIRICHLET_FLOOR = 1e-12


# Fields every experiment reads, next to the ones its record declares.
COMMON_FIELDS = ("experiment", "seed", "output_dir")


def _positive_weights(w) -> bool:
    return len(w) >= 2 and all(math.isfinite(x) and x > 0.0 for x in w)


# The generic check of each field, in the order they run: what a set value
# must satisfy whatever the experiment, and how the error says so.
_FIELD_CHECKS = {
    **dict.fromkeys(("m", "n", "trials", "seeds"), (lambda v: v >= 1, "must be >= 1")),
    "seed": (lambda s: s >= 0, "must be >= 0"),
    "K": (lambda K: K >= 2, "must be >= 2"),
    **dict.fromkeys(("m_grid", "n_grid"), (lambda g: g and min(g) >= 1, "must list values >= 1")),
    "t_grid": (bool, "must list at least one value"),
    "eps": (lambda e: math.isfinite(e) and e > 0.0, "must be positive and finite"),
    "delta": (lambda d: math.isfinite(d) and d >= 0.0, "must be nonnegative and finite"),
    **dict.fromkeys(("p", "q"), (_positive_weights, "must list >= 2 positive finite weights")),
}


@dataclass(frozen=True)
class ExperimentConfig:
    """Inputs of one experiment run.

    ``EXPERIMENTS[experiment].fields`` declares the fields the experiment
    reads, with their defaults; :meth:`get` gives a field left ``None`` its
    default.  Construction is the one check of the inputs: it raises
    ValueError for a set field the experiment does not read and for any value
    its runner could not use, an AlignlabError that ``derive`` raises
    included (AlignlabError for an unknown experiment).  What
    the experiment's ``derive`` returns is kept as ``derived``: not a field,
    so neither settable nor echoed, and frozen with the fields.
    """

    experiment: str
    p: tuple[float, ...] | None = None
    q: tuple[float, ...] | None = None
    K: int | None = None
    m: int | None = None
    n: int | None = None
    delta: float | None = None
    m_grid: tuple[int, ...] | None = None
    n_grid: tuple[int, ...] | None = None
    t_grid: tuple[float, ...] | None = None
    eps: float | None = None
    trials: int | None = None
    seeds: int | None = None
    conjecture: bool | None = None
    seed: int = 0
    output_dir: str | None = None

    def __post_init__(self):
        # set values come from vars(), not field by field, so the fields read
        # through the config are those derive and the runner read
        record = EXPERIMENTS.get(self.experiment)
        if record is None:
            raise AlignlabError(f"unknown experiment {self.experiment!r}")
        values = {k: v for k, v in vars(self).items() if v is not None}
        unread = [k for k in values if k not in record.fields and k not in COMMON_FIELDS]
        if unread:
            raise ValueError(f"{self.experiment} does not read {', '.join(unread)}")
        for name, (holds, requirement) in _FIELD_CHECKS.items():
            if name in values and not holds(values[name]):
                raise ValueError(f"{name} {requirement}, got {values[name]!r}")
        try:
            derived = record.derive(self)
        except AlignlabError as exc:
            raise ValueError(str(exc)) from None
        object.__setattr__(self, "derived", derived)

    def get(self, name: str):
        """The field's value, or its experiment's default when it is unset."""
        value = getattr(self, name)
        return EXPERIMENTS[self.experiment].fields[name] if value is None else value

    def echo(self) -> dict:
        """Config as a plain dict with unset fields dropped."""
        fields = vars(self).items()
        return {k: v for k, v in fields if k != "derived" and v is not None and v is not False}


@dataclass(frozen=True)
class Experiment:
    """The fields an experiment reads, with their defaults (None: derive
    computes it), and ``derive(config)``, which checks the experiment's own
    inputs and returns the values its runner unpacks from ``config.derived``.
    The runner is the module function ``run_<name>``."""

    fields: dict
    derive: Callable[[ExperimentConfig], tuple] = lambda config: ()


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
        return asdict(self)

    def to_json(self) -> str:
        """Standard JSON: a non-finite float (an unreached bound, say) is null."""
        report = _finite_or_null(self.to_dict())
        return json.dumps(report, sort_keys=True, indent=2, allow_nan=False) + "\n"


def _finite_or_null(value):
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, dict):
        return {key: _finite_or_null(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_finite_or_null(item) for item in value]
    return value


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


def _pair(config: ExperimentConfig) -> tuple[CategoricalDistribution, CategoricalDistribution]:
    """The reference p and the alignment target q, of one alphabet."""
    p, q = make_distribution(config.get("p")), make_distribution(config.get("q"))
    if p.K != q.K:
        raise ValueError(f"p and q must have the same length, got {p.K} and {q.K}")
    return p, q


def _check_law_size(m: int, K: int, n: int | None = None, delta: float | None = None) -> None:
    """The limits of ``bon_type_law`` at length m over K symbols, with N = n
    or N = exp(m * delta)."""
    if math.comb(m + K - 1, K - 1) > TYPE_CAP:
        raise ValueError(f"type classes C(m+K-1, K-1) must be <= {TYPE_CAP}, got m={m}, K={K}")
    if delta is not None and m * delta > MAX_LOG_N:
        raise ValueError(f"m*delta (log N) must be <= {MAX_LOG_N}, got m={m}, delta={delta}")
    if n is not None and n > math.exp(MAX_LOG_N):
        raise ValueError(f"n must be <= exp({MAX_LOG_N}), got {n}")


def _matched_n(m: int, K: int, n: int | None, delta: float) -> int:
    """N = n, or the budget-matched round(exp(m * delta)) when n is unset,
    within the limits of ``bon_type_law`` at length m over K symbols."""
    _check_law_size(m, K, n=n, delta=None if n else delta)
    return n or round(math.exp(m * delta))


def _finish(config: ExperimentConfig, started: float, results, checks, csvs) -> ExperimentReport:
    """The run's report; with an output directory, written after its CSVs."""
    report = ExperimentReport(config.experiment, config.seed, config.echo(), results, checks)
    report.passed = all(c["passed"] for c in checks)
    report.duration_seconds = round(time.perf_counter() - started, 6)
    if config.output_dir is not None:
        out = Path(config.output_dir)
        out.mkdir(parents=True, exist_ok=True)
        report_name = f"{report.experiment}_report.json"
        report.results["files"] = sorted([f"{name}.csv" for name in csvs] + [report_name])
        for name, (header, rows) in csvs.items():
            write_csv(out / f"{name}.csv", header, rows)
        (out / report_name).write_text(report.to_json())
    return report


def _derive_example1(config: ExperimentConfig) -> tuple:
    p, q = _pair(config)
    _check_oracle_size(p.K, config.get("m"), config.get("n"))
    return p, q


def run_example1(config: ExperimentConfig) -> ExperimentReport:
    """Exact best-of-2 joint over symbol pairs, marginals, and the non-product witness."""
    started = time.perf_counter()
    p, q = config.derived
    m, n = config.get("m"), config.get("n")
    seq_lp = sequence_space_log_probs(p, m)
    seq_rw = sequence_space_log_probs(q, m)
    pi = np.exp(bon_exact_pmf(from_log_weights(seq_lp), seq_rw, [n])[0])
    K = p.K
    joint = pi.reshape((K,) * m)
    marginal_first = joint.reshape(K, -1).sum(axis=1)

    checks: list[dict] = []
    results: dict = {
        "joint": [[float(x) for x in row] for row in joint.reshape(K, -1)],
        "marginal_first_symbol": [float(x) for x in marginal_first],
    }

    is_default = (
        config.get("p") == TERNARY_REFERENCE
        and config.get("q") == TERNARY_TARGET
        and m == 2
        and n == 2
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

    rows = [
        (y1, y2, float(joint[y1, y2]))
        for y1 in range(K)
        for y2 in range(K)
    ] if m == 2 else []
    csvs = {"example1_joint": (["y1", "y2", "probability"], rows)} if rows else {}
    return _finish(config, started, results, checks, csvs)


def _radial_contour_points(
    p_probs: np.ndarray, d: np.ndarray, delta: float, tol: float
) -> tuple[np.ndarray, np.ndarray]:
    """For each row of d, the point v = p + r*d with D(v||p) = delta, clamped
    inside the simplex.

    KL increases along rays out of p, so there is at most one crossing; the
    second return value flags rays whose in-simplex segment never reaches
    delta.  All rays are bisected together, and a ray is frozen once its
    bracket is no wider than tol, so each ray sees the midpoints it would see
    alone.
    """
    with np.errstate(divide="ignore"):
        r_max = np.min(np.where(d < 0.0, p_probs / -d, math.inf), axis=1)
    lo = np.zeros_like(r_max)
    hi = r_max * (1.0 - 1e-12)
    clamped = kl_divergence_rows(p_probs + hi[:, None] * d, p_probs) < delta
    active = ~clamped & (hi - lo > tol)
    while active.any():
        mid = 0.5 * (lo[active] + hi[active])
        below = kl_divergence_rows(p_probs + mid[:, None] * d[active], p_probs) < delta
        lo[active] = np.where(below, mid, lo[active])
        hi[active] = np.where(below, hi[active], mid)
        active &= hi - lo > tol
    r = np.where(clamped, hi, 0.5 * (lo + hi))
    return p_probs + r[:, None] * d, clamped


def _trace_kl_contour(p_probs: np.ndarray, delta: float) -> tuple[np.ndarray, int]:
    """Closed polyline of {v : D(v||p) = delta} by radial root-finding."""
    e1 = np.array([1.0, -1.0, 0.0]) / math.sqrt(2.0)
    e2 = np.array([1.0, 1.0, -2.0]) / math.sqrt(6.0)
    thetas = [2.0 * math.pi * i / CONTOUR_DIRECTIONS for i in range(CONTOUR_DIRECTIONS)]
    d = np.array([math.cos(theta) * e1 + math.sin(theta) * e2 for theta in thetas])
    points, clamped = _radial_contour_points(p_probs, d, delta, CONTOUR_TOL)
    return np.vstack([points, points[:1]]), int(clamped.sum())


def _reward_contour_segment(q: CategoricalDistribution, level: float) -> np.ndarray:
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
    ts = np.linspace(0.0, 1.0, CHORD_SAMPLES)
    return (1.0 - ts)[:, None] * a[None, :] + ts[:, None] * b[None, :]


def _derive_ternary_figure(config: ExperimentConfig) -> tuple:
    p, q = _pair(config)
    if p.K != 3:
        raise ValueError(f"ternary_figure needs 3 weights in p and q, got {p.K}")
    if _is_uniform(q):
        # the solver's uniform target: whatever the budget, the family is p alone
        raise ValueError("uniform alignment target: the family is the single point p")
    # the tilt first: an unspendable budget is reported as such, not as log N
    [tilt] = solve_alpha_for_kl(q, p, [config.get("delta")])
    n = _matched_n(config.get("m"), p.K, config.get("n"), config.get("delta"))
    return p, q, tilt, n


def run_ternary_figure(config: ExperimentConfig) -> ExperimentReport:
    """KL contour, reward chord, tilted-family curve, and best-of-N expected type."""
    started = time.perf_counter()
    p, q, sol, n = config.derived
    delta, m = config.get("delta"), config.get("m")

    phi_probs = sol.phi.probs()
    p_probs = p.probs()
    # 0 when phi = p, at delta = 0 or when a tiny budget's phi rounds to p
    l1_ref = float(np.abs(p_probs - phi_probs).sum())
    reward_level = -sol.expected_reward

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
    if l1_ref > 0.0:
        # consistency: the radial tracer crosses the contour at phi itself
        direction = phi_probs - p_probs
        d = direction / float(np.linalg.norm(direction))
        traced, hit_boundary = _radial_contour_points(p_probs, d[None, :], delta, tol=1e-13)
        tracer_dev = math.inf if hit_boundary[0] else float(np.max(np.abs(traced[0] - phi_probs)))
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

    [far] = solve_alpha_for_kl(q, p, [0.98 * max_achievable_kl(q, p)])
    lq = q.log_probs
    family = np.exp(_tilt_log_probs(p.log_probs, lq - np.max(lq), np.linspace(0.0, far.alpha, 200)))
    csvs["aligned_family"] = (
        ["x_bary1", "x_bary2", "x_bary3", "curve_tag"],
        [(row[0], row[1], row[2], "aligned_family") for row in family],
    )

    law = bon_type_law(p, q, m, n)
    e_type = bon_expected_type(law)
    l1_bon = float(np.abs(e_type - phi_probs).sum())
    results["bon_expected_type"] = [float(x) for x in e_type]
    results["l1_bon_type_to_phi"] = l1_bon
    results["l1_reference_to_phi"] = l1_ref
    if n > 1 and l1_ref > 0.0:
        # best-of-1 is p, and phi = p leaves nothing to be closer to
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

    return _finish(config, started, results, checks, csvs)


def _derive_equivalence_scan(config: ExperimentConfig) -> tuple:
    p, q = _pair(config)
    m_grid, delta = config.get("m_grid"), config.get("delta")
    if any(b <= a for a, b in zip(m_grid, m_grid[1:])):
        raise ValueError(f"m_grid must be strictly increasing, got {m_grid!r}")
    # the largest m, so the largest type law and N = exp(m * delta)
    _check_law_size(m_grid[-1], p.K, delta=delta)
    [tilt] = solve_alpha_for_kl(q, p, [delta])
    return p, q, tilt


def run_equivalence_scan(config: ExperimentConfig) -> ExperimentReport:
    """Per-symbol divergence of exact best-of-N from the solved tilt as m grows."""
    started = time.perf_counter()
    p, q, sol = config.derived
    delta, m_grid = config.get("delta"), config.get("m_grid")

    phi_probs = sol.phi.probs()

    rows = []
    bound_ok = True
    for m in m_grid:
        law = bon_type_law(p, q, int(m), math.exp(m * delta))
        kl_rate = bon_kl_to_tilt(law, sol.alpha) / m
        kl_ref_seq = bon_kl_to_tilt(law, 0.0)
        reward_gap = abs(expected_reward_rate(law) - sol.expected_reward)
        type_l1 = float(np.abs(bon_expected_type(law) - phi_probs).sum())
        bound_ok = bound_ok and (kl_ref_seq <= m * delta + 1e-9)
        rows.append((int(m), m * delta, kl_rate, kl_ref_seq / m, delta, reward_gap, type_l1))
    kl_rates = [r[2] for r in rows]

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
    return _finish(config, started, results, checks, csvs)


def default_n_grid() -> tuple[int, ...]:
    """Geometric grid of integer sample counts in [1, N_GRID_MAX]."""
    points = np.geomspace(1.0, float(N_GRID_MAX), N_GRID_POINTS)
    return tuple(sorted({int(round(x)) for x in points}))


def _dirichlet_interior(rng: np.random.Generator, K: int) -> np.ndarray:
    """Flat Dirichlet draw rejected until all coordinates clear DIRICHLET_FLOOR."""
    while True:
        draw = rng.dirichlet(np.ones(K))
        if draw.min() >= DIRICHLET_FLOOR:
            return draw


def _derive_random_alphabet(config: ExperimentConfig) -> tuple:
    try:
        for n in config.get("n_grid"):
            _check_n(n)
    except InvalidN as exc:
        raise ValueError(f"n_grid: {exc}") from None
    return ()


def run_random_alphabet(config: ExperimentConfig) -> ExperimentReport:
    """Divergence of exact flat best-of-N from the budget-matched tilt.

    For each random pair the tilt is solved at the budget best-of-N actually
    spent, delta = D(pi_N || p); budgets that reach the family's numerical
    boundary are clamped just inside it (counted in the report).  A pair's
    whole N grid is one best-of-N call, one tilt solve and two row-KL calls.
    """
    started = time.perf_counter()
    K, n_seeds, n_grid = config.get("K"), config.get("seeds"), config.get("n_grid")

    rows = []
    max_d = 0.0
    max_kl_bound_excess = -math.inf
    max_kl_bound_log_n_minus_excess = -math.inf
    clamp_count = 0
    for s in range(n_seeds):
        rng = spawn_generator(config.seed, s)
        p = make_distribution(_dirichlet_interior(rng, K))
        q = make_distribution(_dirichlet_interior(rng, K))
        cap = max_achievable_kl(q, p) - 2 * FEASIBILITY_MARGIN
        pis = bon_exact_pmf(p, q.log_probs, [int(n) for n in n_grid])
        deltas = kl_divergence_log_rows(pis, p.log_probs).tolist()
        tilts = solve_alpha_for_kl(q, p, [min(delta, cap) for delta in deltas])
        phis = np.array([tilt.phi.log_probs for tilt in tilts])
        for n, delta, d in zip(n_grid, deltas, kl_divergence_log_rows(pis, phis).tolist()):
            max_kl_bound_excess = max(max_kl_bound_excess, delta - math.log(n))
            max_kl_bound_log_n_minus_excess = max(
                max_kl_bound_log_n_minus_excess, delta - (math.log(n) - (n - 1) / n)
            )
            clamped = delta >= cap
            clamp_count += clamped
            max_d = max(max_d, d)
            rows.append((s, int(n), delta, d, clamped))

    checks: list[dict] = []
    results = {
        "K": K,
        "n_grid": [int(n) for n in n_grid],
        "max_kl_to_optimal": max_d,
        "clamped_budgets": clamp_count,
        "max_kl_bound_excess": max_kl_bound_excess,
        "max_kl_bound_log_n_minus_excess": max_kl_bound_log_n_minus_excess,
    }
    _check(
        checks,
        "kl_bound_log_n",
        max_kl_bound_excess,
        1e-9,
        max_kl_bound_excess <= 1e-9,
    )
    # the tighter D(pi_N || p) <= log N - (N - 1)/N of Beirami et al.
    # (arXiv:2401.01879)
    _check(
        checks,
        "kl_bound_log_n_minus",
        max_kl_bound_log_n_minus_excess,
        1e-9,
        max_kl_bound_log_n_minus_excess <= 1e-9,
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
    return _finish(config, started, results, checks, csvs)


# closeness-bound trials feasible only below this mixing weight test nothing
DEGENERATE_LAMBDA = 1e-9


def run_closeness_bound(config: ExperimentConfig) -> ExperimentReport:
    """Random feasible perturbations never beat the solved tilt's bound.

    Each accepted trial checks D(psi || phi) <= alpha * eps + 1e-9 where eps
    is psi's measured excess cross entropy to the target.  A trial whose
    perturbation is feasible only at a mixing weight below
    ``DEGENERATE_LAMBDA`` has psi ~ phi, eps ~ 1e-13 and D ~ 1e-16: it tests
    rounding noise, so it is counted as ``degenerate`` instead.
    """
    started = time.perf_counter()
    trials = config.get("trials")

    accepted = 0
    skipped = 0
    degenerate = 0
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
        [sol] = solve_alpha_for_kl(q, p, [delta])
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
        if lam < DEGENERATE_LAMBDA:
            degenerate += 1
            continue
        accepted += 1
        eps = cross_entropy(psi, q) + sol.expected_reward
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
        "degenerate": degenerate,
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
    return _finish(config, started, results, checks, csvs)


def default_probe_grid(mean_t: float, eps: float) -> tuple[float, ...]:
    """Five-point deviation grid: the mean and offsets observable at desk scale."""
    return tuple(mean_t + k * eps for k in (-3.0, -2.0, 0.0, 2.0, 3.0))


def _derive_ldp_probe(config: ExperimentConfig) -> tuple:
    p, q = _pair(config)
    m, delta, n = config.get("m"), config.get("delta"), config.get("n")
    if m > MAX_TRIAL_M:
        raise ValueError(f"m must be <= {MAX_TRIAL_M}, got {m!r}")
    if n is not None and not config.get("conjecture"):
        raise ValueError(f"n is read only with conjecture, got n={n!r}")
    if config.get("conjecture"):
        n = _matched_n(m, p.K, n, delta)
    if _is_uniform(q):
        raise ValueError("uniform alignment target: the family is the single point p")
    [tilt] = solve_alpha_for_kl(q, p, [delta])
    # the grid centre is the mean per-symbol -log q under phi
    grid = config.get("t_grid") or default_probe_grid(-tilt.expected_reward, config.get("eps"))
    lo, hi = reward_target_range(q)
    if not all(lo < t < hi for t in grid):
        name = "t_grid" if config.get("t_grid") else "the default t_grid (mean +- 3 eps)"
        raise ValueError(f"{name} must lie in ({lo!r}, {hi!r}), got {grid!r}")
    return p, q, tilt, grid, n


def run_ldp_probe(config: ExperimentConfig) -> ExperimentReport:
    """Exact rate function vs its cumulant-transform oracle vs Monte Carlo.

    The optional conjecture mode adds best-of-N's exact window probability at
    each t, from ``bon_type_law(p, q, m, N)``, and its finite-m rate side by
    side, without any pass/fail assertion.
    """
    started = time.perf_counter()
    p, q, tilt, t_grid, conjecture_n = config.derived
    delta, m, trials, eps = (config.get(name) for name in ("delta", "m", "trials", "eps"))
    phi, mean_t = tilt.phi, -tilt.expected_reward
    band = eps + math.log(trials) / m
    bon_law = None if conjecture_n is None else bon_type_law(p, q, m, conjecture_n)

    rows = []
    checks: list[dict] = []
    max_oracle_dev = 0.0
    max_band_dev = 0.0
    undefined_shallow = 0
    points = rate_function(p, q, phi, [float(t) for t in t_grid])
    for i, (t, point) in enumerate(zip(t_grid, points)):
        oracle = legendre_oracle(phi, q, float(t))
        max_oracle_dev = max(max_oracle_dev, abs(point.rate - oracle))
        hits = deviation_hit_count(
            phi, q, float(t), eps, m, trials, spawn_generator(config.seed, i)
        )
        mc = rate_from_hits(hits, trials, m)
        if mc is None:
            if point.rate <= 3.0:
                undefined_shallow += 1
        else:
            max_band_dev = max(max_band_dev, abs(mc - point.rate))
        row = [float(t), point.beta, point.rate, oracle, mc, hits, trials]
        if bon_law is not None:
            # the rate comes from the log, so it stays finite where P underflows
            log_p = window_log_prob(bon_law, float(t), eps)
            row.extend([math.exp(log_p), -log_p / m if log_p > -math.inf else None])
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
        header += ["p_bon", "rate_bon_finite_m"]
        results["conjecture_n"] = conjecture_n
    csvs = {"ldp_probe": (header, rows)}
    return _finish(config, started, results, checks, csvs)


# One record per experiment: the fields it reads, with their defaults, and its
# derive step.  _DEMO is the ternary demo pair at its demo budget.
_DEMO = {"p": TERNARY_REFERENCE, "q": TERNARY_TARGET, "delta": 0.11}
EXPERIMENTS = {
    "example1": Experiment(
        {"p": TERNARY_REFERENCE, "q": TERNARY_TARGET, "m": 2, "n": 2}, _derive_example1
    ),
    "ternary_figure": Experiment({**_DEMO, "m": 10, "n": None}, _derive_ternary_figure),
    "equivalence_scan": Experiment(
        {**_DEMO, "m_grid": (5, 10, 20, 40, 80, 160)}, _derive_equivalence_scan
    ),
    "random_alphabet": Experiment(
        {"K": 1024, "seeds": 20, "n_grid": default_n_grid()}, _derive_random_alphabet
    ),
    "closeness_bound": Experiment({"trials": 1000}),
    "ldp_probe": Experiment(
        {
            **_DEMO,
            "m": 400,
            "n": None,
            "trials": 100_000,
            "eps": 0.05,
            "t_grid": None,
            "conjecture": False,
        },
        _derive_ldp_probe,
    ),
}


def run_experiment(config: ExperimentConfig) -> ExperimentReport:
    """Run ``run_<experiment>``, looked up by name so a rebinding of it runs."""
    return globals()[f"run_{config.experiment}"](config)
