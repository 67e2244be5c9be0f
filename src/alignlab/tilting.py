"""Exponential tilting of a reference toward an alignment target, and the
scalar inversions that pick a tilt by KL budget or by expected reward.

The one-parameter family T(q, p, alpha) ~ p_k * q_k^alpha interpolates from
the reference p (alpha = 0) toward the argmax of q (alpha -> inf).  Both
inversions are monotone scalar root-finding problems over one array kernel,
``_tilt_moments``: the tilted log-probs, D(T || p), and the mean and variance
of log q under the tilt.  The variance gives the derivatives, dD/dalpha =
alpha * Var_alpha(log q) for the KL budget and dH/dbeta = -Var_beta(log q)
for the reward.  Each solve doubles a bracket outward from 0 on the root's
side, then takes Newton steps inside it on a warped value that is close to
linear in the parameter; a step that would leave the bracket, or that
follows a Newton step which did not halve the residual, is a bisection.
Both return a ``TiltSolution`` built from the kernel's final point; only its
tilt is built as a validated distribution.

A solve is a lane: a generator that yields the parameter it needs next and
is sent that parameter's point.  ``_lockstep`` advances every unfinished
lane by one step per round, with one row-wise ``_tilt_moments`` call over
all their parameters, so a grid of budgets or reward targets costs one
kernel evaluation per round instead of one per target per round.  Each
lane's arithmetic is the one-lane solve's, so the results do not depend on
the company a target keeps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .distributions import CategoricalDistribution, distributions_from_rows, normalized_log_weights
from .errors import (
    AlphabetMismatch,
    DegenerateFamily,
    InfeasibleBudget,
    TargetOutOfRange,
)
from .logspace import logsumexp
from .metrics import _check_same_alphabet

BISECTION_RESIDUAL = 1e-12
MAX_STEPS = 200
MAX_DOUBLINGS = 200
FEASIBILITY_MARGIN = 1e-9
_UNIFORM_LOGPROB_SPREAD = 1e-12


@dataclass(frozen=True)
class TiltSolution:
    """A solved tilt T(q, p, alpha): parameter, distribution, and achieved
    metrics D(phi || p) and E_phi log q.

    ``alpha`` is the family parameter: alpha for a KL budget, beta for a
    reward target.  ``iterations`` counts the Newton or bisection steps taken
    after the bracket was found (doubling the bracket adds one evaluation per
    step), and ``residual`` is the final value minus its target that the
    stopping test saw: D(phi || p) - delta, or H(phi || q) - t.
    """

    alpha: float
    phi: CategoricalDistribution
    achieved_kl: float
    expected_reward: float
    iterations: int = 0
    residual: float = 0.0


def mismatched_tilt(
    q: CategoricalDistribution, p: CategoricalDistribution, alpha: float
) -> CategoricalDistribution:
    """T(q, p, alpha): the distribution proportional to p_k * q_k^alpha."""
    _check_same_alphabet(p, q)
    if not math.isfinite(alpha):
        raise ValueError("alpha must be finite")
    if alpha == 0.0:
        return p
    lq = q.log_probs
    return CategoricalDistribution(_tilt_log_probs(p.log_probs, lq - np.max(lq), [alpha])[0])


def _tilt_log_probs(lp: np.ndarray, lq_top: np.ndarray, alphas: list) -> np.ndarray:
    """Log-probs of T(q, p, alpha), one row per alpha of ``alphas``,
    from ``lq_top = log q - max log q``: the weights round at the scale of
    alpha times the spread of log q, not of alpha * |log q| (alpha reaches
    1e4-1e7 for nearly uniform q).  A zero alpha's row is a copy of ``lp``."""
    weights = np.array(alphas)[:, None] * lq_top
    weights += lp
    rows = normalized_log_weights(weights, out=weights)
    for i, alpha in enumerate(alphas):
        if alpha == 0.0:
            rows[i] = lp
    return rows


def _tilt_moments(lp: np.ndarray, lq: np.ndarray, lq_top: np.ndarray, alphas: list):
    """The point kernel of both solves: per alpha of the list ``alphas``, one
    row each, the log-probs of T = T(q, p, alpha), D(T || p), and the mean and
    variance of log q under T; ``lq_top`` is ``lq - max(lq)``.

    Row i's log-probs are those of ``mismatched_tilt(q, p, alphas[i])``, bit
    for bit, and its row sums are the numbers ``kl_divergence(T, p)`` and
    ``-cross_entropy(T, q)`` give on that tilt.
    """
    log_phi = _tilt_log_probs(lp, lq_top, alphas)
    w, means, variances = _log_q_moments(log_phi, lq)
    # w is this call's own buffer: the KL terms w * (log_phi - lp) overwrite it
    w *= log_phi - lp
    return log_phi, np.add.reduce(w, axis=-1), means, variances


def _log_q_moments(log_phi: np.ndarray, lq: np.ndarray):
    """Probabilities of ``log_phi`` (one row each if it is 2-D) and the mean
    and variance of log q under them; a row gets the bits of the 1-D call.
    The terms of both sums share one buffer."""
    w = np.exp(log_phi)
    terms = w * lq
    mean = np.add.reduce(terms, axis=-1)
    np.subtract(lq, mean[..., None], out=terms)
    np.square(terms, out=terms)
    terms *= w
    return w, mean, np.add.reduce(terms, axis=-1)


def _is_uniform(q: CategoricalDistribution) -> bool:
    """Whether q is uniform to within ``_UNIFORM_LOGPROB_SPREAD`` in log q,
    where the tilted family is the single point p."""
    return float(np.ptp(q.log_probs)) <= _UNIFORM_LOGPROB_SPREAD


def max_achievable_kl(q: CategoricalDistribution, p: CategoricalDistribution) -> float:
    """Supremum of D(T(q,p,alpha) || p) over alpha >= 0: log 1/p(argmax q)."""
    _check_same_alphabet(p, q)
    top = np.max(q.log_probs)
    maximizers = q.log_probs >= top - _UNIFORM_LOGPROB_SPREAD
    return -logsumexp(p.log_probs[maximizers])


def _lockstep(evaluate, lanes: list) -> list:
    """Run solver lanes in lockstep and return each lane's result.

    A lane is a generator that yields the next parameter it needs, is sent
    that parameter's point, and returns its result.  Each round evaluates
    the parameters of every live lane with one call ``evaluate(params)``, a
    list in, one point per parameter out, so n lanes cost one kernel
    call per round instead of n.  A lane that raises ends the run with its
    error.
    """
    results = [None] * len(lanes)
    points = [None] * len(lanes)  # what each lane is sent next; None starts it
    live = range(len(lanes))
    while live:
        params, asking = [], []
        for i in live:
            try:
                params.append(lanes[i].send(points[i]))
                asking.append(i)
            except StopIteration as stop:
                results[i], points[i] = stop.value, None
        if asking:
            for i, point in zip(asking, evaluate(params)):
                points[i] = point
        live = asking
    return results


def _lane(start: float, target: float, increasing: bool, warp, error):
    """One target's solve as a lane of :func:`_lockstep`: double ``start``
    away from 0 until the value passes ``target``, then take safeguarded
    Newton steps from the bracket end nearer it.

    Each point is ``(x, value, slope, log_phi, kl, reward)``, of which the
    lane reads the first three.  The value is monotone in x, rising if
    ``increasing``, and the root lies on ``start``'s side of 0; the doubling
    stops at the first x whose value is past the target or within
    ``BISECTION_RESIDUAL`` of it.  The step is Newton's on ``warp(value)``,
    a monotone map that returns the warped value and its derivative (or None
    outside its domain) and makes the value nearly linear in x.  A step that
    would leave the bracket, or that follows a Newton step which did not
    halve the residual, is a bisection instead.  Stops at ``|value - target|
    <= BISECTION_RESIDUAL``, or when no float is left strictly inside the
    bracket (rounding in the value can keep the stop out of reach).  Returns
    the point with the smallest residual, that residual, and the number of
    Newton or bisection steps taken.  Raises ``error`` if ``MAX_DOUBLINGS``
    run out before the bracket closes, or ``MAX_STEPS`` with neither stop
    reached.

    A point's ``log_phi`` is a row of its round's (lanes, K) array.  A point
    that the lane keeps past its round, and the point it returns, hold a
    copy of that row instead, so that no round's array outlives its round.
    """
    # s = +1 where the value rises as x leaves 0; a product with s = +-1 is
    # exact, so at s = +1 these are the plain comparisons
    s = 1.0 if (start > 0.0) == increasing else -1.0
    x, inside = start, None
    for _ in range(MAX_DOUBLINGS):
        point = yield x
        if s * point[1] >= s * target - BISECTION_RESIDUAL:
            break
        inside, x = point, 2.0 * x
    else:
        raise error(f"could not bracket target {target!r}")
    lo, hi = sorted((0.0 if inside is None else inside[0], x))
    if inside is not None and s * (target - inside[1]) < s * (point[1] - target):
        point = _own_row(inside)
    del inside
    goal = warp(target)[0]
    best = point
    stalled = False
    for steps in range(MAX_STEPS):
        x, value, slope = point[:3]
        r = value - target
        if abs(r) <= BISECTION_RESIDUAL:
            return _own_row(point), r, steps
        nxt = math.nan
        warped = None if stalled else warp(value)
        if warped is not None and warped[1] * slope != 0.0:
            nxt = x - (warped[0] - goal) / (warped[1] * slope)
        newton = lo < nxt < hi
        if not newton:
            nxt = 0.5 * (lo + hi)
            if not lo < nxt < hi:
                break
        point = yield nxt
        stalled = newton and abs(point[1] - target) > 0.5 * abs(r)
        if abs(point[1] - target) < abs(best[1] - target):
            best = point
        elif best[3].base is not None:
            best = _own_row(best)
        if (point[1] < target) == increasing:
            lo = nxt
        else:
            hi = nxt
    else:
        steps = MAX_STEPS
        if abs(best[1] - target) > BISECTION_RESIDUAL and lo < 0.5 * (lo + hi) < hi:
            raise error(
                f"no root for target {target!r} after {MAX_STEPS} steps: "
                f"bracket [{lo!r}, {hi!r}], best residual {best[1] - target!r}"
            )
    return _own_row(best), best[1] - target, steps


def _own_row(point) -> tuple:
    """``point`` with its own copy of its ``log_phi`` row, if it holds a view."""
    if point[3].base is None:
        return point
    return point[:3] + (point[3].copy(),) + point[4:]


def _solutions(found: list) -> list[TiltSolution]:
    """The ``TiltSolution`` of each lane's result: its final point, the
    residual there and the steps taken.  The final rows are validated as one
    block, and each ``phi`` is a view of its row."""
    if not found:
        return []
    phis = distributions_from_rows(np.array([point[3] for point, _, _ in found]))
    return [
        TiltSolution(x, phi, kl, reward, steps, residual)
        for ((x, _, _, _, kl, reward), residual, steps), phi in zip(found, phis)
    ]


def solve_alpha_for_kl(
    q: CategoricalDistribution, p: CategoricalDistribution, deltas
) -> list[TiltSolution]:
    """Find alpha >= 0 with D(T(q,p,alpha) || p) = delta for each budget of
    ``deltas``, one ``TiltSolution`` per budget.

    KL is strictly increasing in alpha for non-uniform q, so each root is
    unique.  Budgets within ``FEASIBILITY_MARGIN`` of the supremum, and
    budgets that are negative or not finite, are rejected (alpha diverges at
    the boundary).  A zero budget gives alpha = 0 and p itself.  The budgets
    are solved in lockstep: each round of bracket doubling or Newton steps
    evaluates the tilt of every unfinished budget in one kernel call.  Each
    solution is bit for bit the one it gets alone, and a rejected budget
    fails the whole list.
    """
    _check_same_alphabet(p, q)
    lp, lq = p.log_probs, q.log_probs
    lq_top = lq - np.max(lq)
    _, reward, var = _log_q_moments(lp, lq)
    max_kl = None
    for delta in deltas:
        if not (math.isfinite(delta) and delta >= 0.0):
            raise InfeasibleBudget(f"KL budget must be nonnegative and finite, got {delta!r}")
        if delta == 0.0:
            continue
        if max_kl is None:
            if _is_uniform(q):
                raise DegenerateFamily("uniform alignment target: the family is the single point p")
            max_kl = max_achievable_kl(q, p)
        if delta >= max_kl - FEASIBILITY_MARGIN:
            raise InfeasibleBudget(f"delta={delta!r} >= achievable supremum {max_kl!r}")

    def warp(kl: float):
        # -log(1 - sqrt(D / D_max)) grows like alpha both where D ~ alpha^2
        # (small alpha) and where D_max - D decays exponentially (large alpha)
        if not 0.0 < kl < max_kl:
            return None
        s = math.sqrt(kl / max_kl)
        return -math.log1p(-s), 0.5 / ((1.0 - s) * math.sqrt(kl * max_kl))

    def evaluate(alphas: list):
        log_phi, kls, means, variances = _tilt_moments(lp, lq, lq_top, alphas)
        kls = kls.tolist()
        slopes = [alpha * v for alpha, v in zip(alphas, variances.tolist())]
        return zip(alphas, kls, slopes, log_phi, kls, means.tolist())

    # each lane starts from the small-budget root of D ~ alpha^2 Var_p(log q)
    # / 2, but from no further out than 1: the estimate overshoots by orders
    # of magnitude when p puts little mass on the argmax of q, and the
    # variance can round to 0
    var = float(var)
    lanes = [
        _lane(math.sqrt(2.0 * d / var) if 2.0 * d < var else 1.0, d, True, warp, InfeasibleBudget)
        for d in deltas
        if d != 0.0
    ]
    found = iter(_solutions(_lockstep(evaluate, lanes)))
    zero = TiltSolution(0.0, p, 0.0, float(reward))
    return [zero if delta == 0.0 else next(found) for delta in deltas]


def reward_target_range(q: CategoricalDistribution) -> tuple[float, float]:
    """Open interval of reachable per-symbol cross entropies H(T(q,p,b) || q)."""
    return (-float(np.max(q.log_probs)), -float(np.min(q.log_probs)))


def solve_beta_for_reward(
    q: CategoricalDistribution, p: CategoricalDistribution, ts
) -> list[TiltSolution]:
    """Find beta in R with H(T(q,p,beta) || q) = t for each target of ``ts``:
    the reward-matched tilts, as ``TiltSolution``s whose ``alpha`` is beta and
    whose ``residual`` is H - t.

    H is strictly decreasing in beta for non-uniform q; each t must lie
    strictly inside ``reward_target_range(q)``.  The targets are solved in
    lockstep.  Each solution is bit for bit the one it gets alone, and a
    rejected target fails the whole list.
    """
    _check_same_alphabet(p, q)
    lo_t, hi_t = reward_target_range(q)
    for t in ts:
        if not (math.isfinite(t) and lo_t < t < hi_t):
            raise TargetOutOfRange(f"t={t!r} outside achievable open range ({lo_t!r}, {hi_t!r})")
    lp, lq = p.log_probs, q.log_probs
    lq_top = lq - np.max(lq)

    def evaluate(betas: list):
        # H(T(q, p, beta) || q) is minus the mean of log q under the tilt
        log_phi, kls, means, variances = _tilt_moments(lp, lq, lq_top, betas)
        return zip(
            betas, (-means).tolist(), (-variances).tolist(), log_phi, kls.tolist(), means.tolist()
        )

    def warp(h: float):
        # the logit of H on its range grows like beta at both ends
        if not lo_t < h < hi_t:
            return None
        return math.log(h - lo_t) - math.log(hi_t - h), 1.0 / (h - lo_t) + 1.0 / (hi_t - h)

    # H falls as beta grows from H(p || q) at beta = 0, so each lane
    # searches only the root's side of 0
    h0 = -float(_log_q_moments(lp, lq)[1])
    lanes = [_lane(1.0 if t < h0 else -1.0, t, False, warp, TargetOutOfRange) for t in ts]
    return _solutions(_lockstep(evaluate, lanes))
