"""Verification oracles for the pooling solve.

Two independent routes to the pooled value, used to audit
:func:`losspool.solver.solve_pool`.  Each takes a block, a list of loss
vectors with one :class:`PoolingConfig` each, and reports per instance:

* :func:`maximize_primal` maximises ``w . l`` over the feasible set, the
  intersection of the weight box ``[0, tau]^n`` and the p-norm ball of
  radius ``gamma``, with one exact projection of a point far along ``l``.
  The objective is linear and the set convex and compact, so that
  projection tends to a maximiser as the point recedes; at ``1e12`` times
  the set size it lands on one within rounding.  The projection brackets
  its multiplier from a closed-form upper end, narrows it by Illinois steps
  and returns the candidate at the feasible end, so the point the ascent
  scores lies in the set exactly.  The instances of each ``p`` are packed
  into one vector and searched in lockstep; norms are per-segment
  reductions.
* :func:`scan_dual_alpha` minimises the dual objective along the path
  ``lam(alpha) = max(l - alpha, 0)`` by a golden-section search over
  ``alpha`` in units of the top loss.  The objective falls, then rises along
  this path, so the search keeps the minimiser, which meets the primal
  optimum.  Every instance is packed into one vector and searched in
  lockstep, one evaluation of all segments per step.

:func:`kkt_residual` checks a dual vector against the optimality fixed
point.  None of this shares code or structure with the closed-form solver,
which supplies only the config types, the input check and
:func:`solve_pool`; that is the point.  The references that check the
oracles themselves live with the tests: the scalar dual path value, the
dual bound at any ``lam``, the one-segment projection and its bisection and
Dykstra references.  The step size and stop widths are module constants,
set to what the audit runs.  This module is verification tooling, not part
of the library surface proper, but the command line exposes it for audits.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .solver import PoolingConfig, ResolvedPooling, as_loss_vector, solve_pool

__all__ = [
    "OracleReport",
    "AuditRow",
    "AuditSummary",
    "maximize_primal",
    "scan_dual_alpha",
    "stable_qnorm",
    "kkt_residual",
    "random_instance",
    "run_audit",
]

# Stop width of the bracket on the projection's Lagrange multiplier,
# relative to the larger of 1 and its upper end.
_BALL_TOL = 1.0e-12

# How far along the losses the ascent's target lies, relative to the set size.
_ASCENT_STEP = 1.0e12

# The dual scan's golden-section ratio, and its stop width in units of the top loss.
_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0
_ALPHA_TOL = 1.0e-13


@dataclass
class OracleReport:
    """Outcome of one oracle call on a block, per instance.

    ``value`` holds each instance's independent estimate of the pooled loss.
    ``weights`` lists the feasible primal points found (``None`` for the
    dual scan, which produces no primal iterate).
    ``max_constraint_violation`` is measured on each returned point; the
    ascent's points are feasible exactly, and the scan has none, so it reads
    0.  ``iterations`` counts the instances for the ascent and the
    evaluations summed over the instances for the scan.
    """

    value: np.ndarray
    weights: list[np.ndarray] | None
    iterations: int
    max_constraint_violation: np.ndarray


def _segments(sizes):
    """Where each segment of a packed vector starts, and each entry's segment."""
    return np.cumsum(sizes) - sizes, np.repeat(np.arange(len(sizes)), sizes)


def _qnorms(x, q, segments=(np.zeros(1, dtype=np.intp), 0)):
    """:func:`stable_qnorm` of each segment of the non-negative packed ``x``
    (by default, of ``x`` whole), with ``q`` a scalar or one per segment."""
    starts, seg = segments
    top = np.maximum.reduceat(x, starts)
    scale = np.where(top > 0.0, top, 1.0)
    powers = (x / scale[seg]) ** (q[seg] if np.ndim(q) else q)
    return top * np.add.reduceat(powers, starts) ** (1.0 / q)


def stable_qnorm(x: np.ndarray, q: float) -> float:
    """``||x||_q`` for ``q >= 1`` (the max-norm at ``inf``), scaled to avoid overflow/underflow.

    The one-segment case of the segment norm: ``np.add.reduceat`` sums each
    segment alone, so its norm has the same bits wherever it is packed.
    """
    return float(_qnorms(np.abs(np.asarray(x, dtype=np.float64)), q)[0])


def _shrink_to_ball_surface(b: np.ndarray, nu, p: float) -> np.ndarray:
    """Solve ``x + nu * p * x**(p-1) = b`` coordinatewise for ``x >= 0``.

    This is the stationarity condition of the projection at multiplier
    ``nu``, a scalar or one per coordinate.  Newton iterations run on ``g(y)
    = y**k + c * y - b`` with ``x = y**k``, ``k = 1 / (p-1)`` below p = 2,
    and on ``g(y) = c * y**k + y - b`` with ``x = y``, ``k = p - 1`` above,
    where ``c = nu * p``.  As ``k > 1``, ``g`` is convex and increasing, and
    from the seed where either term alone meets ``b``, whichever is smaller,
    ``g >= 0``: the iterates stay on one side of the root without
    safeguarding.  Each coordinate stops on its own, after its first step
    below 1e-15 relative.  ``b >= 0`` is not masked, since a zero entry
    seeds at 0 and takes zero Newton steps.
    """
    c = nu * p
    if not np.any(c):
        return b.copy()
    if p == 2.0:
        return b / (1.0 + c)
    k = 1.0 / (p - 1.0) if p < 2.0 else p - 1.0
    y = np.minimum(b ** (1.0 / k), b / c) if p < 2.0 else np.minimum(b, (b / c) ** (1.0 / k))
    live = True
    for _ in range(100):
        yk1 = y ** (k - 1.0)
        if p < 2.0:
            step = (yk1 * y + c * y - b) / (k * yk1 + c)
        else:
            step = (c * yk1 * y + y - b) / (c * k * yk1 + 1.0)
        y, live = np.where(live, y - step, y), live & (step > 1e-15 * np.maximum(y, 1e-300))
        if not live.any():
            break
    return y**k if p < 2.0 else y


def _project_segments(v, sizes, params):
    """Exact Euclidean projection of each segment (the next ``sizes[b]``
    entries) of the packed non-negative ``v`` onto the box ``[0, tau[b]]``
    intersect the p-norm ball of radius ``gamma[b]``, with ``params.gamma``
    and ``params.tau`` one per segment.

    Dualising only the ball constraint makes the projection separable.  In
    units of the radius, ``u = v / gamma``, the box-constrained minimiser per
    coordinate for a multiplier ``nu`` is ``min(gamma * shrink(u, nu), tau)``,
    and the norm of that candidate does not increase in ``nu``.  Narrowing a
    bracket on ``nu`` until the norm meets ``gamma`` yields the exact joint
    projection (strong duality; the intersection has interior).  The point
    clipped to the box, the candidate at ``nu = 0``, comes first: inside the
    ball it is the projection; outside, its excess serves when the search
    walks down to ``nu = 0``.  In radius units the cap is ``tau / gamma =
    m**(-1/p)``, so the multiplier that pushes an entry down to it stays in
    float64 range at any p.  The search starts at ``||u||_q / p``, the
    ball-only multiplier of a far point and an upper end, and narrows the
    bracket by Illinois steps (false position, halving the value at an end
    kept twice in a row) down to the relative width ``_BALL_TOL``.  The
    result is the candidate at the upper end, where :func:`stable_qnorm`
    measured the norm at most ``gamma``, so :func:`constraint_violation`
    reads exactly 0 on it.  With ``tau = inf`` this projects onto the ball
    alone.  A ``ValueError`` rejects a segment outside the set whose
    ``||v||_q / gamma`` leaves float64 range.  Each segment keeps its own
    bracket, and a closed one is evaluated at its upper end again, so a
    segment's result does not depend on the rest of the block.
    """
    segments = _segments(sizes)
    seg, p = segments[1], params.p
    gamma, tau = params.gamma[seg], params.tau[seg]
    out = np.minimum(v, tau)
    f_clipped = _qnorms(out, p, segments) - params.gamma
    if not (search := f_clipped > 0.0).all():  # a clip inside the ball is the projection
        if search.any():
            subset = params._replace(gamma=params.gamma[search], tau=params.tau[search])
            out[search[seg]] = _project_segments(v[search[seg]], sizes[search], subset)
        return out
    with np.errstate(over="ignore", invalid="ignore"):  # reads inf or nan
        u = v / gamma
        nu0 = _qnorms(u, p / (p - 1.0), segments) / p
    if not np.isfinite(nu0).all():
        raise ValueError("projection needs a point whose q-norm over gamma is finite")
    feasible = np.empty_like(u)  # each segment's candidate at its upper end

    def excess(nu):
        """``||min(gamma * shrink(u, nu), tau)||_p - gamma``, the candidate kept if <= 0."""
        w = np.minimum(gamma * _shrink_to_ball_surface(u, nu[seg], p), tau)
        f = _qnorms(w, p, segments) - params.gamma
        np.copyto(feasible, w, where=(f <= 0.0)[seg])
        return f

    # Bracket each root, excess > 0 at lo and <= 0 at hi.  A segment with
    # excess <= 0 at nu0 probes nu0 / 4 once, above the lower end nu = 0; one
    # with excess > 0 walks up by 4 until it has an upper end.
    f0 = excess(nu0)
    up = f0 > 0.0
    lo, f_lo = np.where(up, nu0, 0.0), np.where(up, f0, f_clipped)
    hi, f_hi = np.where(up, math.inf, nu0), f0
    probe = True
    while np.any(probe):
        nu = np.where(probe, np.where(up, 4.0 * lo, hi / 4.0), hi)
        f = excess(nu)
        lo, f_lo = np.where(f > 0.0, nu, lo), np.where(f > 0.0, f, f_lo)
        hi, f_hi = np.where(f <= 0.0, nu, hi), np.where(f <= 0.0, f, f_hi)
        up = probe = np.isinf(hi)
    # ``kept`` is the side (1 = lo, -1 = hi) the last step moved.  A step
    # stays half the stop width inside either end, so a step that lands next
    # to the root closes the bracket on the next evaluation; an exact zero of
    # the excess is the root.
    kept = np.zeros_like(lo)
    while (active := hi - lo > (width := _BALL_TOL * np.maximum(1.0, hi))).any():
        nu = hi - f_hi * (hi - lo) / (f_hi - f_lo)
        inside = np.minimum(np.maximum(nu, lo + 0.5 * width), hi - 0.5 * width)
        nu = np.where(active, np.where((lo <= nu) & (nu <= hi), inside, 0.5 * (lo + hi)), hi)
        f = excess(nu)
        side = np.sign(f)
        halve = np.where(side == kept, 0.5, 1.0)
        lo, f_lo = np.where(side >= 0.0, nu, lo), np.where(side > 0.0, f, halve * f_lo)
        hi, f_hi = np.where(side <= 0.0, nu, hi), np.where(side < 0.0, f, halve * f_hi)
        kept = side
    return feasible


def constraint_violation(w: np.ndarray, params: ResolvedPooling) -> float:
    """Worst violation of ``0 <= w <= tau`` and ``||w||_p <= gamma``."""
    neg = float(np.maximum(-w, 0.0).max(initial=0.0))
    over_cap = float(np.maximum(w - params.tau, 0.0).max(initial=0.0))
    over_ball = max(stable_qnorm(w, params.p) - params.gamma, 0.0)
    return max(neg, over_cap, over_ball)


def _instances(losses, configs):
    """A block's loss vectors and their resolved configs, one per vector."""
    vectors = [as_loss_vector(x) for x in losses]
    return vectors, [c.resolve(x.size) for c, x in zip(configs, vectors, strict=True)]


def maximize_primal(losses, configs) -> OracleReport:
    """Maximise ``w . l`` over the weight family by one far projection, for
    each loss vector in the list ``losses`` with its config in ``configs``.

    Projects the target ``w0 + t * (l / ||l||_2)``, where ``w0`` is the
    uniform weighting ``1/n`` and ``t = _ASCENT_STEP * gamma``, ``1e12``
    times the set size; the direction is taken in power-of-two units of the
    top loss, where its norm neither over- nor underflows, and the increment
    is formed in the order ``(_ASCENT_STEP * gamma) * (l / ||l||_2)``.  The
    targets of each ``p`` are projected in one lockstep search of a packed
    vector (:func:`_project_segments`).  The projection ``w_t`` of a target
    satisfies ``(target - w_t) . (w - w_t) <= 0`` for every feasible ``w``.
    As ``w0`` is feasible, for a maximiser ``w*`` this gives ``l . w* - l .
    w_t <= ||l||_2 * D**2 / t``, with ``D`` the diameter of the set: one
    projection lands on the maximiser within about 1e-12 relative, so there
    is nothing left for further steps of a projected gradient ascent to
    gain.  ``w_t`` is feasible exactly, so the value is a lower bound on the
    pooled loss.  Each instance's report has the same bits whatever else the
    block holds; one iteration per instance.  Requires finite ``p > 1``.
    """
    vectors, params = _instances(losses, configs)
    if not all(1.0 < pr.p < math.inf for pr in params):
        raise ValueError("maximize_primal needs finite p > 1")

    weights = [None] * len(vectors)
    value, violation = np.empty(len(vectors)), np.empty(len(vectors))
    for p in dict.fromkeys(pr.p for pr in params):
        group = [i for i, pr in enumerate(params) if pr.p == p]
        sizes = np.array([vectors[i].size for i in group])
        starts, seg = segments = _segments(sizes)
        table = np.array([(params[i].gamma, params[i].tau) for i in group])
        grouped = params[group[0]]._replace(gamma=table[:, 0], tau=table[:, 1])
        packed = np.concatenate([vectors[i] for i in group])
        # All-zero losses give no direction; the uniform start is then the target.
        unit = np.ldexp(packed, -np.frexp(np.maximum.reduceat(packed, starts))[1][seg])
        norm = _qnorms(unit, 2.0, segments)
        step = (_ASCENT_STEP * grouped.gamma[seg]) * (unit / np.where(norm > 0.0, norm, 1.0)[seg])
        w = _project_segments(1.0 / sizes[seg] + step, sizes, grouped)
        for i, part in zip(group, np.split(w, starts[1:])):
            weights[i], value[i] = part, part @ vectors[i]
            violation[i] = constraint_violation(part, params[i])
    return OracleReport(
        value=value, weights=weights, iterations=len(vectors), max_constraint_violation=violation
    )


def _dual_path(v, alpha, params, segments):
    """The dual objective ``sum(tau * max(v - alpha, 0)) + gamma * ||min(v, alpha)||_q``
    of each segment of the packed ``v``, with ``alpha``, ``tau``, ``gamma``
    and ``q`` one per segment."""
    starts, seg = segments
    lam_sum = np.add.reduceat(params.tau[seg] * np.maximum(v - alpha[seg], 0.0), starts)
    return lam_sum + params.gamma * _qnorms(np.minimum(v, alpha[seg]), params.q, segments)


def scan_dual_alpha(losses, configs) -> OracleReport:
    """Minimise the dual objective along the threshold path, for each loss
    vector in the list ``losses`` with its config in ``configs``.

    In units of the top loss (1 for a top of 0), where no evaluation
    overflows, a golden-section search narrows the threshold's range [0, 1]
    to the width ``_ALPHA_TOL``, keeping the side of the smaller of its two
    probes.  The slope is ``|J_alpha| * (gamma * (alpha /
    ||min(l, alpha)||_q)**(q-1) - tau)`` with ``J_alpha = {u : l(u) >
    alpha}``, and its bracket never decreases in alpha: the objective falls,
    then rises, so the search keeps the minimiser, and a missed minimum can
    only read high.  Reports the top times the smallest value evaluated, the
    ends 0 and 1 included (the pooled value), and the points evaluated.
    Every instance is packed into one vector and searched in lockstep; each
    segment keeps its own bracket and stops on its own (a closed one is
    evaluated at its upper end again), so its value has the same bits
    whatever else the block holds.
    """
    vectors, params = _instances(losses, configs)
    table = np.array([(pr.tau, pr.gamma, pr.q) for pr in params])
    packed = params[0]._replace(tau=table[:, 0], gamma=table[:, 1], q=table[:, 2])
    starts, seg = segments = _segments(np.array([x.size for x in vectors]))
    values = np.concatenate(vectors)
    top = np.maximum.reduceat(values, starts)
    v = values / np.where(top > 0.0, top, 1.0)[seg]

    lo, hi = np.zeros(len(vectors)), np.ones(len(vectors))
    x1, x2 = hi - _INV_PHI, lo + _INV_PHI
    f_lo, f_hi, f1, f2 = (_dual_path(v, a, packed, segments) for a in (lo, hi, x1, x2))
    best, evals = np.minimum(np.minimum(f_lo, f_hi), np.minimum(f1, f2)), 4 * len(vectors)
    while (active := hi - lo > _ALPHA_TOL).any():
        left = active & (f1 <= f2)  # the minimiser lies in [lo, x2], else in [x1, hi]
        right = active & ~left
        lo, x1, f1 = np.where(right, x1, lo), np.where(right, x2, x1), np.where(right, f2, f1)
        hi, x2, f2 = np.where(left, x2, hi), np.where(left, x1, x2), np.where(left, f1, f2)
        step = _INV_PHI * (hi - lo)
        probe = np.where(left, hi - step, np.where(right, lo + step, hi))
        f = _dual_path(v, probe, packed, segments)
        x1, f1 = np.where(left, probe, x1), np.where(left, f, f1)
        x2, f2 = np.where(right, probe, x2), np.where(right, f, f2)
        best = np.minimum(best, f)  # a closed segment's hi was evaluated before
        evals += int(active.sum())
    return OracleReport(
        value=top * best, weights=None, iterations=evals,
        max_constraint_violation=np.zeros(len(vectors)),
    )


def kkt_residual(lam, losses, config: PoolingConfig) -> float:
    """Sup-norm residual of the dual fixed point ``lam = max(l - m**(-1/q) * ||l - lam||_q, 0)``."""
    values = as_loss_vector(losses)
    params = config.resolve(values.size)
    lam_arr = np.asarray(lam, dtype=np.float64)
    if lam_arr.shape != values.shape:
        raise ValueError("lam and losses must have the same shape")
    alpha = params.m ** (-1.0 / params.q) * stable_qnorm(values - lam_arr, params.q)
    fixed = np.maximum(values - alpha, 0.0)
    return float(np.max(np.abs(lam_arr - fixed)))


# ---------------------------------------------------------------------------
# Randomised audit: solver against both oracles.

_AUDIT_P_CHOICES = (1.1, 1.3, 1.7, 2.0, 4.0)

# Largest constraint violation a passing ascent may leave.
MAX_VIOLATION = 1e-8

# Most instances the audit draws, ascends and scans in one block.
_AUDIT_BLOCK = 1000


def random_instance(rng: np.random.Generator, max_n: int = 50):
    """Draw one audit instance: losses (uniform or lognormal) and a config."""
    n = int(rng.integers(1, max_n + 1))
    if rng.random() < 0.5:
        losses = rng.uniform(0.0, 1.0, size=n)
    else:
        losses = rng.lognormal(mean=0.0, sigma=1.0, size=n)
    p = float(rng.choice(_AUDIT_P_CHOICES))
    m = float(rng.uniform(1.0, n)) if n > 1 else 1.0
    return losses, PoolingConfig(p=p, m=m)


@dataclass
class AuditRow:
    index: int
    n: int
    p: float
    m: float
    solver_value: float
    ascent_value: float
    scan_value: float
    ascent_rel_err: float
    scan_rel_err: float
    kkt_residual: float
    constraint_violation: float
    passed: bool


@dataclass
class AuditSummary:
    rows: list[AuditRow] = field(default_factory=list)
    elapsed_seconds: float = 0.0
    # The checks each row must pass: AuditRow field -> largest passing value.
    tolerances: dict[str, float] = field(default_factory=dict)

    @property
    def all_passed(self) -> bool:
        return all(row.passed for row in self.rows)

    @property
    def worst(self) -> dict[str, float]:
        """The largest value of each checked field over the rows."""
        return {
            key: max((getattr(row, key) for row in self.rows), default=0.0)
            for key in self.tolerances
        }


def rel_err(a: float, b: float) -> float:
    """|a - b| over the larger magnitude; equal values agree, a NaN never does."""
    return 0.0 if a == b else abs(a - b) / float(np.maximum(abs(a), abs(b)))


def run_audit(
    instances: int = 500,
    seed: int = 0,
    rel_tol: float = 1e-4,
    kkt_tol: float = 1e-6,
) -> AuditSummary:
    """Compare the solver against both oracles on seeded random instances.

    A row passes when both oracle values agree with the solver within
    ``rel_tol``, the ascent's weights violate no constraint by more than
    ``MAX_VIOLATION``, and the solver's dual satisfies the KKT fixed point
    within ``kkt_tol`` (checked on max-normalized losses).  Both oracles run
    on blocks of at most ``_AUDIT_BLOCK`` instances, one call each per block.
    """
    rng = np.random.default_rng(seed)
    summary = AuditSummary(tolerances={
        "ascent_rel_err": rel_tol, "scan_rel_err": rel_tol,
        "kkt_residual": kkt_tol, "constraint_violation": MAX_VIOLATION,
    })
    started = time.perf_counter()
    for first in range(0, instances, _AUDIT_BLOCK):
        drawn = [random_instance(rng) for _ in range(min(_AUDIT_BLOCK, instances - first))]
        ascent = maximize_primal(*zip(*drawn))  # the block's losses, then its configs
        scan = scan_dual_alpha(*zip(*drawn))
        for k, (losses, config) in enumerate(drawn):
            outcome, scan_value = solve_pool(losses, config), float(scan.value[k])
            pooled, ascent_value = outcome.pooled_loss, float(ascent.value[k])
            scale = float(losses.max())
            kkt = kkt_residual(outcome.dual / scale, losses / scale, config) if scale > 0.0 else 0.0
            row = AuditRow(
                index=first + k, n=losses.size, p=config.p, m=float(config.m),
                solver_value=pooled, ascent_value=ascent_value, scan_value=scan_value,
                ascent_rel_err=rel_err(pooled, ascent_value),
                scan_rel_err=rel_err(pooled, scan_value), kkt_residual=kkt,
                constraint_violation=float(ascent.max_constraint_violation[k]), passed=False,
            )
            row.passed = all(getattr(row, key) <= tol for key, tol in summary.tolerances.items())
            summary.rows.append(row)
    summary.elapsed_seconds = time.perf_counter() - started
    return summary
