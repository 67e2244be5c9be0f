"""Rate functions, scaled reward cumulants, and deviation probabilities.

For a tilted product source phi, the per-symbol negative log likelihood under
the alignment target obeys an exponential decay law for rare deviations; its
rate at a point t is the KL divergence from the reward-matched tilt at t back
to phi.  The scaled cumulants of the reward are Renyi cross entropies of phi
to the target, exactly at every sequence length because product measures
factorize.  Every function here takes the source phi itself, not a KL
budget, so a caller solves the budget's tilt phi_delta once and passes it;
``rate_function`` solves the reward-matched tilts of several levels in
one lockstep run and reads each rate off the solved tilt.
The window statistic and the reward depend on a sequence only through its
reward level, so a window probability and the finite-m cumulant are sums
over the levels of a ``LevelLaw`` (best-of-N's, or phi^m's at N = 1).
Monte Carlo counts the window under phi^m through the type, which is
Multinomial(m, phi) there: a trial draws the K type counts, not the m
symbols, from one caller-given NumPy generator in order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bestofn import LevelLaw, bon_type_law
from .distributions import CategoricalDistribution
from .errors import TargetOutOfRange
from .logspace import logsumexp
from .metrics import _check_same_alphabet, kl_divergence, renyi_cross_entropy
from .tilting import reward_target_range, solve_beta_for_reward

LEGENDRE_BRACKET_TOL = 1e-9
LEGENDRE_GRID = 41
# Type counts (trials x K cells) drawn per array pass of a Monte Carlo hit
# count: bounds its buffers to a few hundred kB whatever the trial count.
CHUNK_CELLS = 2**14
# The largest m of a Monte Carlo trial: its type counts are int64.
MAX_TRIAL_M = int(np.iinfo(np.int64).max)


@dataclass(frozen=True)
class RatePoint:
    """Exact decay rate of the reward deviation at per-symbol level t."""

    t: float
    beta: float
    rate: float


@dataclass(frozen=True)
class CumulantPoint:
    """Scaled cumulant of the reward at order rho (nats per symbol)."""

    rho: float
    value: float


def rate_function(
    p: CategoricalDistribution,
    q: CategoricalDistribution,
    phi: CategoricalDistribution,
    ts,
) -> list[RatePoint]:
    """Rate of P(|per-symbol -log q^m(Y) - t| small) under the source phi^m,
    one ``RatePoint`` per level t of ``ts``, with the reward-matched tilts'
    betas solved in lockstep.

    phi is a tilt T(q, p, alpha) of the reference p; phi = p gives the rate
    under the reference itself.  The rate is clamped at 0: at phi's own mean
    beta equals alpha, and the rounding of the two tilts can leave a KL of
    about -1e-16.
    """
    return [
        RatePoint(t=t, beta=sol.alpha, rate=max(0.0, kl_divergence(sol.phi, phi)))
        for t, sol in zip(ts, solve_beta_for_reward(q, p, ts))
    ]


def scaled_cumulant(
    phi: CategoricalDistribution,
    q: CategoricalDistribution,
    rho: float,
) -> CumulantPoint:
    """(1/m rho) log E[exp(rho reward)] under phi^m in the large-m limit
    (exact per symbol): -H_{1+rho}(phi, q), whose rho -> 0 limit is the mean
    reward -H(phi, q)."""
    if not 0.0 <= rho < math.inf:
        raise ValueError(f"rho must be finite and nonnegative, got {rho!r}")
    return CumulantPoint(rho=rho, value=-renyi_cross_entropy(phi, q, 1.0 + rho))


def finite_m_cumulant_check(
    phi: CategoricalDistribution, q: CategoricalDistribution, rho: float, m: int
) -> tuple[float, float]:
    """Both sides of the finite-m cumulant identity.

    Returns ((1/(m rho)) log E_{Y ~ phi^m}[exp(rho reward(Y))] via exact
    summation over the reward levels of phi^m (``bon_type_law`` at N = 1),
    and the closed form from the Renyi cross entropy.  The identity is exact
    at every m because E factorizes over symbols.
    """
    if not 0.0 < rho < math.inf:
        raise ValueError(f"rho must be positive and finite, got {rho!r}")
    law = bon_type_law(phi, q, m, 1)
    lhs = logsumexp(law.log_masses + rho * law.rewards) / (m * rho)
    return lhs, scaled_cumulant(phi, q, rho).value


def window_log_prob(law: LevelLaw, t: float, eps: float) -> float:
    """log P(|-(1/m) log q^m(Y) - t| < eps) for Y drawn from a level law: one
    masked log-sum-exp of the level log masses, over the same open window
    :func:`deviation_hit_count` counts; -inf when no level lies in it."""
    if not (math.isfinite(t) and eps > 0.0):
        raise ValueError(f"t must be finite and eps positive, got t={t!r}, eps={eps!r}")
    return logsumexp(law.log_masses[np.abs(-law.rewards / law.m - t) < eps])


def deviation_hit_count(
    phi: CategoricalDistribution,
    q: CategoricalDistribution,
    t: float,
    eps: float,
    m: int,
    trials: int,
    rng: np.random.Generator,
) -> int:
    """Number of samples of phi^m whose per-symbol value lands in the window.

    Trial j draws its type, the symbol counts of a length-m sample, as the
    next ``rng.multinomial(m, phi)`` row, so a trial costs O(K) whatever m.
    Chunks of at most ``CHUNK_CELLS`` counts (and at least one trial) bound
    memory; ``multinomial`` fills its rows one after another from the
    stream, so the count does not depend on the chunking, and a second call
    on the same generator continues where the first stopped.
    """
    _check_same_alphabet(phi, q)
    if trials < 1 or m < 1:
        raise ValueError("trials and m must be >= 1")
    if m > MAX_TRIAL_M:
        raise ValueError(f"m must be <= {MAX_TRIAL_M}, got {m!r}")
    probs = phi.probs()
    per_chunk = max(1, min(trials, CHUNK_CELLS // phi.K))
    hits = 0
    for start in range(0, trials, per_chunk):
        counts = rng.multinomial(m, probs, size=min(per_chunk, trials - start))
        values = counts @ -q.log_probs / m
        hits += int(np.count_nonzero(np.abs(values - t) < eps))
    return hits


def rate_from_hits(hits: int, trials: int, m: int) -> float | None:
    """Monte Carlo rate estimate -(1/m) log(hits / trials) of a window hit count.

    None when no trial hit the window (an honest zero-hit outcome, never
    substituted by infinity), and +0.0 when every trial did.
    """
    if hits == 0:
        return None
    return 0.0 if hits == trials else -math.log(hits / trials) / m


def legendre_oracle(
    phi: CategoricalDistribution,
    q: CategoricalDistribution,
    t: float,
) -> float:
    """Rate at t recovered from the cumulant curve instead of root-finding.

    Maximizes g |-> -g*t - log sum_k phi_k q_k^g over a refined grid; the
    objective is concave, and its supremum equals the exact rate.  Used as an
    independent numerical cross-check of :func:`rate_function`.
    """
    _check_same_alphabet(phi, q)
    lo_t, hi_t = reward_target_range(q)
    if not (lo_t < t < hi_t):
        raise TargetOutOfRange(f"t={t!r} outside achievable open range ({lo_t!r}, {hi_t!r})")
    lphi = phi.log_probs
    lq = q.log_probs

    def objective(gammas: np.ndarray) -> np.ndarray:
        weights = lphi[None, :] + gammas[:, None] * lq[None, :]
        hi = weights.max(axis=1)
        log_z = hi + np.log(np.exp(weights - hi[:, None]).sum(axis=1))
        return -gammas * t - log_z

    lo, hi = -8.0, 8.0
    # widen until the maximizer is interior
    for _ in range(60):
        grid = np.linspace(lo, hi, LEGENDRE_GRID)
        best = int(np.argmax(objective(grid)))
        if best == 0:
            lo, hi = lo - (hi - lo), grid[1]
        elif best == LEGENDRE_GRID - 1:
            lo, hi = grid[-2], hi + (hi - lo)
        else:
            break
    else:
        raise TargetOutOfRange(f"no interior maximizer for t={t!r}")
    # shrink the bracket around the grid argmax until it collapses; a
    # value-change stop is unsound here because the old best point always
    # reappears at the center of the refined grid
    best_value = -math.inf
    for _ in range(80):
        grid = np.linspace(lo, hi, LEGENDRE_GRID)
        values = objective(grid)
        best = int(np.argmax(values))
        best_value = max(best_value, float(values[best]))
        if hi - lo < LEGENDRE_BRACKET_TOL:
            break
        lo = grid[max(best - 1, 0)]
        hi = grid[min(best + 1, LEGENDRE_GRID - 1)]
    return best_value
