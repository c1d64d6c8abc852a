"""Verification oracles for the pooling solve.

Two independent routes to the pooled value, used to audit
:func:`losspool.solver.solve_pool`:

* :func:`maximize_primal` climbs the feasible set directly: gradient ascent
  on ``w . l`` with exact projections (:func:`project_feasible`) onto the
  intersection of the weight box ``[0, tau]^n`` and the p-norm ball of
  radius ``gamma``.  The objective is linear and the set convex and compact,
  so the fixed point of the project-and-step map is a global maximiser.
* :func:`scan_dual_alpha` walks the dual path ``lam(alpha) = max(l - alpha,
  0)`` over a dense threshold grid and refines the best bracket by golden
  section.  The dual objective is unimodal along this path and meets the
  primal value at the optimum.

Neither route shares code or structure with the closed-form solver; that is
the point.  :func:`project_feasible_dykstra` checks the projection itself by
alternating the box with the same projection run with the cap lifted.  The
iteration counts, step size and grid size are module constants, set to what
the audit runs.  This module is verification tooling, not part of the library
surface proper, but the command line exposes it for audits.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .solver import (
    PoolingConfig,
    ResolvedPooling,
    as_loss_vector,
    solve_pool,
    stable_qnorm,
)

__all__ = [
    "OracleReport",
    "AuditRow",
    "AuditSummary",
    "maximize_primal",
    "scan_dual_alpha",
    "kkt_residual",
    "project_feasible",
    "project_feasible_dykstra",
    "random_instance",
    "run_audit",
]

# Alternating projections stop once a full cycle moves the iterate no more
# than this (sup norm), or after this many cycles.
DYKSTRA_MOVEMENT_TOL = 1.0e-10
_DYKSTRA_MAX_CYCLES = 4000

# Bisection width (relative to the bracket) for the projection's Lagrange
# multiplier.
_BALL_TOL = 1.0e-12

# Projected gradient ascent: iteration budget, stall threshold (sup norm) and
# step size relative to the set size.
_ASCENT_ITERS = 5000
_ASCENT_MOVEMENT_TOL = 1.0e-9
_ASCENT_STEP = 1.0e4

# Threshold grid points of the dual scan before golden-section refinement.
_SCAN_GRID_SIZE = 1024


@dataclass
class OracleReport:
    """Outcome of one oracle run.

    ``value`` is the oracle's independent estimate of the pooled loss.
    ``weights`` is the feasible primal point found (``None`` for the dual
    scan, which produces no primal iterate).  ``alpha`` is only set by the
    dual scan.  ``max_constraint_violation`` is measured on the returned
    point and should sit at rounding level.
    """

    value: float
    weights: np.ndarray | None
    iterations: int
    converged: bool
    max_constraint_violation: float
    alpha: float | None = None


def _shrink_to_ball_surface(b: np.ndarray, nu: float, p: float) -> np.ndarray:
    """Solve ``x + nu * p * x**(p-1) = b`` coordinatewise for ``x >= 0``.

    This is the stationarity condition of the projection at multiplier
    ``nu``.  Newton iterations run on a convex reformulation so they stay on
    one side of the root and need no safeguarding.
    """
    c = nu * p
    if c == 0.0:
        return b.copy()
    x = np.zeros_like(b)
    pos = b > 0
    if not np.any(pos):
        return x
    bp = b[pos]
    if p == 2.0:
        x[pos] = bp / (1.0 + c)
        return x
    if p < 2.0:
        # Substitute u = x**(p-1); g(u) = u**r + c*u - b with r = 1/(p-1) > 1
        # is convex and increasing, and both seeds below sit at g >= 0.
        r = 1.0 / (p - 1.0)
        u = np.minimum(bp ** (1.0 / r), bp / c)
        for _ in range(100):
            ur1 = u ** (r - 1.0)
            g = ur1 * u + c * u - bp
            step = g / (r * ur1 + c)
            u_new = u - step
            if np.all(step <= 1e-15 * np.maximum(u, 1e-300)):
                u = u_new
                break
            u = u_new
        x[pos] = u**r
        return x
    # p > 2: f(x) = x + c*x**(p-1) - b is convex in x directly.
    xx = np.minimum(bp, (bp / c) ** (1.0 / (p - 1.0)))
    for _ in range(100):
        xp2 = xx ** (p - 2.0)
        f = xx + c * xp2 * xx - bp
        step = f / (1.0 + c * (p - 1.0) * xp2)
        xx_new = xx - step
        if np.all(step <= 1e-15 * np.maximum(xx, 1e-300)):
            xx = xx_new
            break
        xx = xx_new
    x[pos] = xx
    return x


def _restore_feasible(x: np.ndarray, params: ResolvedPooling) -> np.ndarray:
    """Clip to the box and rescale into the ball; cheap exact feasibility."""
    w = np.clip(x, 0.0, params.tau)
    norm = stable_qnorm(w, params.p)
    if norm > params.gamma:
        w = w * (params.gamma / norm)
    return w


def project_feasible(
    point: np.ndarray, params: ResolvedPooling, state: dict | None = None
) -> np.ndarray:
    """Exact Euclidean projection onto box intersect p-norm ball.

    Dualising only the ball constraint makes the projection separable: for a
    multiplier ``nu`` the box-constrained minimiser per coordinate is
    ``clip(shrink(v, nu), 0, tau)`` with a scaled-shrinkage map, and the norm
    of that candidate is monotone in ``nu``.  Bisecting ``nu`` until the norm
    meets ``gamma`` therefore yields the exact joint projection (strong
    duality; the intersection has interior).  With ``tau = inf`` this is the
    projection of a non-negative point onto the p-norm ball alone.
    ``state`` caches the multiplier across calls for a tight starting
    bracket.
    """
    if not (1.0 < params.p < math.inf):
        raise ValueError(f"projection needs finite p > 1, got {params.p!r}")
    v = np.maximum(np.asarray(point, dtype=np.float64), 0.0)

    def candidate(nu: float) -> np.ndarray:
        return np.minimum(_shrink_to_ball_surface(v, nu, params.p), params.tau)

    w0 = candidate(0.0)
    if stable_qnorm(w0, params.p) <= params.gamma:
        return w0

    def excess(nu: float) -> float:
        return stable_qnorm(candidate(nu), params.p) - params.gamma

    lo, hi = 0.0, 1.0
    if state is not None and state.get("nu", 0.0) > 0.0:
        hint = state["nu"]
        lo, hi = hint / 4.0, hint * 4.0
        if excess(lo) < 0.0:
            lo = 0.0
        while excess(hi) > 0.0:
            hi *= 4.0
    else:
        while excess(hi) > 0.0:
            hi *= 4.0
    while hi - lo > _BALL_TOL * max(1.0, hi):
        mid = 0.5 * (lo + hi)
        if excess(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    nu = 0.5 * (lo + hi)
    if state is not None:
        state["nu"] = nu
    return candidate(nu)


def project_feasible_dykstra(point: np.ndarray, params: ResolvedPooling) -> np.ndarray:
    """Reference joint projection by Dykstra alternating projections.

    Kept as a check on :func:`project_feasible`: it alternates the box
    ``[0, tau]^n`` with the p-norm ball, and the ball step is the joint
    projection with the cap lifted (``tau = inf``).  That step only ever sees
    non-negative points, the box output plus a correction that the ball
    projection leaves non-negative, so lifting the cap is exact there.
    Converges for any input but burns down its corrections only linearly
    when the point is far outside the sets, so it is unsuitable as the
    ascent workhorse; the loop stops once a full cycle neither moves the
    iterate nor leaves a gap between the box view and the ball view (both
    at most ``DYKSTRA_MOVEMENT_TOL``).
    """
    x = np.asarray(point, dtype=np.float64)
    ball = params._replace(tau=math.inf)
    box_corr = np.zeros_like(x)
    ball_corr = np.zeros_like(x)
    ball_state: dict = {}
    prev = None
    for _ in range(_DYKSTRA_MAX_CYCLES):
        shifted = x + box_corr
        y = np.clip(shifted, 0.0, params.tau)
        box_corr = shifted - y
        shifted = y + ball_corr
        x = project_feasible(shifted, ball, state=ball_state)
        ball_corr = shifted - x
        gap = float(np.max(np.abs(y - x)))
        if (
            prev is not None
            and gap <= DYKSTRA_MOVEMENT_TOL
            and float(np.max(np.abs(x - prev))) <= DYKSTRA_MOVEMENT_TOL
        ):
            break
        prev = x
    return x


def constraint_violation(w: np.ndarray, params: ResolvedPooling) -> float:
    """Worst violation of ``0 <= w <= tau`` and ``||w||_p <= gamma``."""
    neg = float(np.maximum(-w, 0.0).max(initial=0.0))
    over_cap = float(np.maximum(w - params.tau, 0.0).max(initial=0.0))
    over_ball = max(stable_qnorm(w, params.p) - params.gamma, 0.0)
    return max(neg, over_cap, over_ball)


def maximize_primal(losses, config: PoolingConfig) -> OracleReport:
    """Projected gradient ascent on ``w . l`` over the weight family.

    The gradient is the loss vector itself, so each iteration steps along it
    and projects back with :func:`project_feasible`.  The step is the
    constant ``_ASCENT_STEP = 1e4`` relative to the set size: the increment
    is ``_ASCENT_STEP * gamma * l / ||l||_2``.  A fixed point of the
    step-and-project map satisfies the variational optimality condition of
    the linear objective over the convex compact feasible set for any
    positive step, so large steps are not just admissible but make the
    iteration contract hard; this one lands within rounding of the maximiser
    in a handful of iterations.  Stops when the iterate stalls or the value
    stops improving, or after ``_ASCENT_ITERS`` iterations, and reports the
    best feasible value seen.  Requires finite ``p > 1``.
    """
    values = as_loss_vector(losses)
    params = config.resolve(values.size)
    if not (1.0 < params.p < math.inf):
        raise ValueError("maximize_primal needs finite p > 1")

    norm = float(np.linalg.norm(values))
    if norm == 0.0:
        w = np.full(values.size, 1.0 / values.size)
        return OracleReport(
            value=0.0,
            weights=w,
            iterations=0,
            converged=True,
            max_constraint_violation=constraint_violation(w, params),
        )
    increment = (_ASCENT_STEP * params.gamma / norm) * values

    w = np.full(values.size, 1.0 / values.size)
    best_w = _restore_feasible(w, params)
    best_val = float(best_w @ values)
    state: dict = {}
    converged = False
    stall = 0
    used = 0
    for used in range(1, _ASCENT_ITERS + 1):
        w_new = project_feasible(w + increment, params, state=state)
        candidate = _restore_feasible(w_new, params)
        val = float(candidate @ values)
        if val > best_val * (1.0 + 1e-12):
            best_val = val
            best_w = candidate
            stall = 0
        else:
            stall += 1
        movement = float(np.max(np.abs(w_new - w)))
        w = w_new
        if movement <= _ASCENT_MOVEMENT_TOL or stall >= 8:
            converged = True
            break
    return OracleReport(
        value=best_val,
        weights=best_w,
        iterations=used,
        converged=converged,
        max_constraint_violation=constraint_violation(best_w, params),
    )


def _dual_path_value(alpha: float, values: np.ndarray, params: ResolvedPooling) -> float:
    lam_sum = float(np.maximum(values - alpha, 0.0).sum())
    return params.tau * lam_sum + params.gamma * stable_qnorm(
        np.minimum(values, alpha), params.q
    )


def scan_dual_alpha(losses, config: PoolingConfig) -> OracleReport:
    """Minimise the dual objective along the threshold path.

    Evaluates ``g(max(l - alpha, 0))`` on ``_SCAN_GRID_SIZE`` points over
    ``[0, max(losses)]``, then golden-sections the bracket around the grid
    minimum.  Along this path the dual objective is unimodal, and its
    minimum equals the pooled value.  Requires ``p > 1``.
    """
    values = as_loss_vector(losses)
    params = config.resolve(values.size)
    if math.isinf(params.q):
        raise ValueError("scan_dual_alpha needs p > 1 (finite conjugate exponent)")

    top = float(values.max())
    if top == 0.0:
        return OracleReport(
            value=0.0, weights=None, iterations=1, converged=True,
            max_constraint_violation=0.0, alpha=0.0,
        )

    alphas = np.linspace(0.0, top, _SCAN_GRID_SIZE)
    gvals = np.array([_dual_path_value(a, values, params) for a in alphas])
    k = int(np.argmin(gvals))
    lo = alphas[max(k - 1, 0)]
    hi = alphas[min(k + 1, _SCAN_GRID_SIZE - 1)]

    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc = _dual_path_value(c, values, params)
    fd = _dual_path_value(d, values, params)
    evals = _SCAN_GRID_SIZE + 2
    while b - a > 1e-13 * max(1.0, top):
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = _dual_path_value(c, values, params)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = _dual_path_value(d, values, params)
        evals += 1
    alpha_best = 0.5 * (a + b)
    value = min(_dual_path_value(alpha_best, values, params), float(gvals[k]))
    evals += 1
    return OracleReport(
        value=value,
        weights=None,
        iterations=evals,
        converged=True,
        max_constraint_violation=0.0,
        alpha=alpha_best,
    )


def kkt_residual(lam, losses, config: PoolingConfig) -> float:
    """Sup-norm residual of the dual fixed point ``lam = max(l - m**(-1/q) * ||l - lam||_q, 0)``."""
    values = as_loss_vector(losses)
    params = config.resolve(values.size)
    if math.isinf(params.q):
        raise ValueError("kkt_residual needs p > 1 (finite conjugate exponent)")
    lam_arr = np.asarray(lam, dtype=np.float64)
    if lam_arr.shape != values.shape:
        raise ValueError("lam and losses must have the same shape")
    alpha = params.m ** (-1.0 / params.q) * stable_qnorm(values - lam_arr, params.q)
    fixed = np.maximum(values - alpha, 0.0)
    return float(np.max(np.abs(lam_arr - fixed)))


# ---------------------------------------------------------------------------
# Randomised audit: solver against both oracles.

_AUDIT_P_CHOICES = (1.1, 1.3, 1.7, 2.0, 4.0)


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

    @property
    def all_passed(self) -> bool:
        return all(row.passed for row in self.rows)

    @property
    def worst_ascent_err(self) -> float:
        return max((r.ascent_rel_err for r in self.rows), default=0.0)

    @property
    def worst_scan_err(self) -> float:
        return max((r.scan_rel_err for r in self.rows), default=0.0)

    @property
    def worst_kkt(self) -> float:
        return max((r.kkt_residual for r in self.rows), default=0.0)

    @property
    def worst_violation(self) -> float:
        return max((r.constraint_violation for r in self.rows), default=0.0)


def rel_err(a: float, b: float) -> float:
    """|a - b| over a floor-guarded magnitude."""
    return abs(a - b) / max(abs(a), abs(b), 1e-12)


def run_audit(
    instances: int = 500,
    seed: int = 0,
    rel_tol: float = 1e-4,
    kkt_tol: float = 1e-6,
) -> AuditSummary:
    """Compare the solver against both oracles on seeded random instances.

    A row passes when both oracle values agree with the solver within
    ``rel_tol``, the ascent converged with feasible weights, and the
    solver's dual satisfies the KKT fixed point within ``kkt_tol`` (checked
    on max-normalized losses).
    """
    rng = np.random.default_rng(seed)
    summary = AuditSummary()
    started = time.perf_counter()
    for idx in range(instances):
        losses, config = random_instance(rng)
        outcome = solve_pool(losses, config)
        ascent = maximize_primal(losses, config)
        scan = scan_dual_alpha(losses, config)
        err_a = rel_err(outcome.pooled_loss, ascent.value)
        err_s = rel_err(outcome.pooled_loss, scan.value)
        scale = float(losses.max())
        kkt = (
            kkt_residual(outcome.dual / scale, losses / scale, config)
            if scale > 0.0
            else 0.0
        )
        summary.rows.append(
            AuditRow(
                index=idx,
                n=losses.size,
                p=config.p,
                m=float(config.m),
                solver_value=outcome.pooled_loss,
                ascent_value=ascent.value,
                scan_value=scan.value,
                ascent_rel_err=err_a,
                scan_rel_err=err_s,
                kkt_residual=kkt,
                constraint_violation=ascent.max_constraint_violation,
                passed=(
                    err_a <= rel_tol
                    and err_s <= rel_tol
                    and kkt <= kkt_tol
                    and ascent.converged
                    and ascent.max_constraint_violation <= 1e-8
                ),
            )
        )
    summary.elapsed_seconds = time.perf_counter() - started
    return summary
