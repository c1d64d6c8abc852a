"""Helpers shared by the test modules (not collected as tests)."""

import math

import numpy as np

from losspool import oracle


def eta(alpha, losses, q, m):
    """Root function of the pooling threshold, for finite ``q >= 1``.

    For ``J_alpha = {u : l(u) > alpha}`` this returns

        (m - |J_alpha|) * alpha**q - sum_{u not in J_alpha} l(u)**q.

    The solver's ``alpha_star`` is the largest root: ``eta`` is negative below
    it and positive above it (once the prefix condition holds).
    """
    values = np.asarray(losses, dtype=np.float64)
    above = values > alpha
    return float((m - np.count_nonzero(above)) * alpha**q - np.sum(values[~above] ** q))


def project_feasible_bisect(point, params, state=None):
    """The joint projection with the multiplier found by halving its bracket.

    The reference for :func:`losspool.oracle.project_feasible`: the same
    candidate map and stop width, with bisection in place of the Illinois
    step.  It calls the oracle's ``_shrink_to_ball_surface`` through the
    module, so a patched counter there sees both loops.
    """
    if not (1.0 < params.p < math.inf):
        raise ValueError(f"projection needs finite p > 1, got {params.p!r}")
    v = np.maximum(np.asarray(point, dtype=np.float64), 0.0)

    def candidate(nu):
        return np.minimum(oracle._shrink_to_ball_surface(v, nu, params.p), params.tau)

    w0 = candidate(0.0)
    if oracle.stable_qnorm(w0, params.p) <= params.gamma:
        return w0

    def excess(nu):
        return oracle.stable_qnorm(candidate(nu), params.p) - params.gamma

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
    while hi - lo > oracle._BALL_TOL * max(1.0, hi):
        mid = 0.5 * (lo + hi)
        if excess(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    nu = 0.5 * (lo + hi)
    if state is not None:
        state["nu"] = nu
    return candidate(nu)
