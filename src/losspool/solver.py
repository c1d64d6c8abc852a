"""Adaptive loss pooling over a batch of per-pixel losses.

The pooling operator replaces the usual mean over per-pixel losses with the
worst case over a family of weightings

    pool(l) = max { w . l  :  ||w||_p <= gamma,  ||w||_inf <= tau,  w >= 0 },

where the budget ``gamma = n ** (-1/q)`` (``q`` conjugate to ``p``) and the
cap ``tau = gamma * m ** (-1/p)`` are chosen so that the uniform weighting
``1/n`` is always feasible.  The pooled value is therefore an upper bound on
the plain mean, and the parameter ``m`` (between 1 and ``n``) controls how
concentrated the optimal weighting may get: at least ``ceil(m)`` pixels
receive positive weight whenever all losses are positive, and ``m = n``
recovers the mean exactly.

The maximiser has a water-filling structure.  There is a threshold
``alpha_star >= 0`` such that pixels with loss above the threshold sit at the
cap ``tau`` (the "support"), while the rest get the shrunk weight
``tau * (l / alpha_star) ** (q - 1)``.  :func:`solve_pool` finds the
threshold exactly in ``O(n log n)`` by sorting the losses and scanning a
running root function, see :func:`eta`.  The scan sums in logarithms, so
it stays exact for every ``p`` in ``(1, inf]`` and for losses spanning the
whole float64 range; ``p = 1`` selects the top ``m`` losses by comparison
alone.  The optimal weights are also the gradient of the pooled value with
respect to the losses, wherever the support does not change.

Everything here is plain numpy on 1-D float64 arrays.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

__all__ = [
    "PoolingConfig",
    "ResolvedPooling",
    "SolveOutcome",
    "as_loss_vector",
    "derive_parameters",
    "eta",
    "solve_pool",
    "dual_objective",
    "stable_qnorm",
]

# q beyond this swaps to the top-floor(m) path of p = 1.  The scan's pooled
# value stays exact there, but the weights raise l / alpha_star to the power
# q - 1, so their rounding grows with q: with the cap lifted, the worst
# |w . l - pooled| / pooled over 200 random instances was 3e-13 at q = 1e4,
# 4e-10 at q = 1e7 and 3e-7 at q = 1e10, while the pooled value stayed
# within 4e-16 of a 60-digit reference.  The swap is not exact either: on the
# same instances top-m is up to 2e-4 off the scan's value at q = 2e4.
Q_CAP = 1.0e4


def as_loss_vector(values) -> np.ndarray:
    """Validate and convert ``values`` to a 1-D float64 loss vector.

    Losses must be non-empty, finite and non-negative.  Raises ``ValueError``
    otherwise.
    """
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != 1:
        arr = arr.reshape(-1) if arr.ndim == 0 else arr
    if arr.ndim != 1:
        raise ValueError(f"losses must be one-dimensional, got shape {arr.shape}")
    if arr.size == 0:
        raise ValueError("losses must contain at least one entry")
    if not np.all(np.isfinite(arr)):
        raise ValueError("losses must be finite")
    if np.any(arr < 0):
        raise ValueError("losses must be non-negative")
    return arr


class ResolvedPooling(NamedTuple):
    """Pooling parameters resolved against a concrete batch size ``n``.

    ``q`` is the conjugate exponent ``p / (p - 1)`` (``inf`` when ``p = 1``,
    ``1.0`` when ``p = inf``), ``gamma`` the p-norm budget and ``tau`` the
    per-pixel weight cap.  ``m = (gamma / tau) ** p`` is the effective
    minimum support size.
    """

    p: float
    n: int
    m: float
    q: float
    gamma: float
    tau: float


def derive_parameters(
    p: float,
    n: int,
    m: float | None = None,
    m_fraction: float | None = None,
) -> ResolvedPooling:
    """Resolve ``(p, m)`` against a batch of ``n`` losses.

    Exactly one of ``m`` (absolute, must land in ``[1, n]``) or
    ``m_fraction`` (relative to ``n``, clamped into ``[1, n]`` after scaling)
    must be given.

    Parameters
    ----------
    p : norm exponent in ``[1, inf]``.
    n : number of pooled entries, ``n >= 1``.
    m : absolute minimum support size.
    m_fraction : support size as a fraction of ``n``, in ``[0, 1]``.

    Returns
    -------
    ResolvedPooling with ``q``, ``gamma``, ``tau`` filled in.
    """
    if not (isinstance(n, (int, np.integer)) and n >= 1):
        raise ValueError(f"n must be a positive integer, got {n!r}")
    n = int(n)
    if not (p >= 1.0):
        raise ValueError(f"p must satisfy p >= 1, got {p!r}")
    if (m is None) == (m_fraction is None):
        raise ValueError("exactly one of m and m_fraction must be given")
    if m_fraction is not None:
        if not (0.0 <= m_fraction <= 1.0):
            raise ValueError(f"m_fraction must lie in [0, 1], got {m_fraction!r}")
        m_res = min(max(m_fraction * n, 1.0), float(n))
    else:
        m_res = float(m)
        if not (1.0 <= m_res <= n):
            raise ValueError(f"m must lie in [1, n] = [1, {n}], got {m!r}")

    if math.isinf(p):
        # Dual exponent 1; cap and budget coincide, pooling is the plain mean.
        return ResolvedPooling(p=p, n=n, m=m_res, q=1.0, gamma=1.0 / n, tau=1.0 / n)
    if p == 1.0:
        return ResolvedPooling(p=p, n=n, m=m_res, q=math.inf, gamma=1.0, tau=1.0 / m_res)

    q = p / (p - 1.0)
    if q > Q_CAP:
        warnings.warn(
            f"p = {p:g} gives conjugate exponent q = {q:.3g} beyond {Q_CAP:g}; "
            "treating as p = 1 (hard top-m selection)",
            RuntimeWarning,
            stacklevel=2,
        )
        return ResolvedPooling(p=p, n=n, m=m_res, q=math.inf, gamma=1.0, tau=1.0 / m_res)
    gamma = float(n) ** (-1.0 / q)
    if m_res == n:
        # gamma * n ** (-1/p) == 1/n algebraically; write it exactly.
        tau = 1.0 / n
    else:
        tau = gamma * m_res ** (-1.0 / p)
    return ResolvedPooling(p=p, n=n, m=m_res, q=q, gamma=gamma, tau=tau)


@dataclass(frozen=True)
class PoolingConfig:
    """Pooling strength, valid for any batch size.

    ``m`` is the absolute support parameter; ``m_fraction`` expresses it as a
    fraction of the batch (resolved per call, which is what a trainer wants
    when crop sizes vary).  Exactly one of the two must be set.
    """

    p: float
    m: float | None = None
    m_fraction: float | None = None

    def __post_init__(self) -> None:
        if not (self.p >= 1.0):
            raise ValueError(f"p must satisfy p >= 1, got {self.p!r}")
        if (self.m is None) == (self.m_fraction is None):
            raise ValueError("exactly one of m and m_fraction must be given")
        if self.m is not None and not (self.m >= 1.0):
            raise ValueError(f"m must satisfy m >= 1, got {self.m!r}")
        if self.m_fraction is not None and not (0.0 <= self.m_fraction <= 1.0):
            raise ValueError(f"m_fraction must lie in [0, 1], got {self.m_fraction!r}")

    def resolve(self, n: int) -> ResolvedPooling:
        """Derive ``(q, gamma, tau, m)`` for a batch of ``n`` losses."""
        return derive_parameters(self.p, n, m=self.m, m_fraction=self.m_fraction)


@dataclass(frozen=True)
class SolveOutcome:
    """Result of one pooling solve.

    Attributes
    ----------
    pooled_loss : the maximised weighted loss (upper bound on the mean).
    alpha_star : threshold separating capped pixels from shrunk ones.
    support : original indices of pixels pooled at the cap ``tau``.
    weights : optimal weighting, same length and order as the input losses.
    dual : optimal dual vector ``max(l - alpha_star, 0)``.
    params : the resolved pooling parameters the solve ran with.
    """

    pooled_loss: float
    alpha_star: float
    support: np.ndarray
    weights: np.ndarray
    dual: np.ndarray
    params: ResolvedPooling


def eta(alpha: float, losses, q: float, m: float) -> float:
    """Root function of the pooling threshold.

    For ``J_alpha = {u : l(u) > alpha}`` this returns

        (m - |J_alpha|) * alpha**q - sum_{u not in J_alpha} l(u)**q.

    The optimal threshold is the largest root.  ``eta`` is negative below it
    and positive above it (once the prefix condition holds), which is what
    the solve loop scans for.  ``q`` must be finite and at least 1.
    """
    if not (alpha >= 0.0):
        raise ValueError(f"alpha must be non-negative, got {alpha!r}")
    if not (1.0 <= q < math.inf):
        raise ValueError(f"q must be finite and >= 1, got {q!r}")
    values = as_loss_vector(losses)
    above = values > alpha
    below = values[~above]
    return float((m - np.count_nonzero(above)) * alpha**q - np.sum(below**q))


def stable_qnorm(x: np.ndarray, q: float) -> float:
    """``||x||_q`` for finite ``q >= 1``, scaled to avoid overflow/underflow."""
    ax = np.abs(np.asarray(x, dtype=np.float64))
    top = float(ax.max(initial=0.0))
    if top == 0.0:
        return 0.0
    return top * float(np.sum((ax / top) ** q)) ** (1.0 / q)


def solve_pool(losses, config: PoolingConfig) -> SolveOutcome:
    """Maximise the weighted loss over the pooling family.

    For ``p = 1`` (and for ``q`` beyond ``Q_CAP``) the ``floor(m)`` largest
    losses are capped and the fractional part of ``m`` is spread over the
    losses tied at the next value; otherwise the threshold comes from the
    log-domain scan of :func:`_solve_threshold_scan`.  Both work on the
    losses as given, so any positive loss, down to the smallest subnormal,
    stays distinct from zero.  All-zero losses give the all-zero outcome;
    ``p = inf`` and ``m = n`` give the plain mean with uniform weights.  The
    returned weighting is feasible, its inner product with the losses equals
    ``pooled_loss``, and ``pooled_loss >= mean(losses)``.  ``alpha_star`` is
    ``inf`` when the threshold lies beyond float64 range; the pooled value
    and the weights stay finite.
    """
    values = as_loss_vector(losses)
    params = config.resolve(values.size)
    n = values.size

    if not values.any():
        zero = np.zeros(n)
        return SolveOutcome(
            pooled_loss=0.0,
            alpha_star=0.0,
            support=np.empty(0, dtype=np.intp),
            weights=zero,
            dual=zero.copy(),
            params=params,
        )

    if math.isinf(params.q):
        alpha_star, support, weights, below = _solve_hard_top(values, params)
    else:
        alpha_star, support, weights, below = _solve_threshold_scan(values, params)

    if math.isinf(params.p) or params.m == n:
        # The cap equals the uniform weight here, so the optimum is the plain
        # mean; computing it directly keeps the upper bound exact at the
        # boundary and the weights exactly uniform.
        # The mean is taken on losses scaled down by a power of two only when
        # their sum could pass the float64 maximum, so it cannot overflow and
        # keeps its bytes everywhere else.
        weights = np.full(n, 1.0 / n)
        k = max(0, math.frexp(float(values.max()))[1] + (n - 1).bit_length() - 1024)
        pooled = math.ldexp(float(np.ldexp(values, -k).mean()), k)
    else:
        # Scaling by tau first keeps every partial sum below the largest
        # loss (tau * |support| <= 1), so it cannot overflow.
        pooled = float((params.tau * values[support]).sum()) + below

    dual = np.maximum(values - alpha_star, 0.0)
    return SolveOutcome(
        pooled_loss=pooled,
        alpha_star=alpha_star,
        support=support,
        weights=weights,
        dual=dual,
        params=params,
    )


def _solve_threshold_scan(values: np.ndarray, params: ResolvedPooling):
    """Largest root of :func:`eta` by an ascending scan, for finite q.

    With the losses sorted ascending as ``s``, ``c_k = m - n + k`` and
    ``A_k = s_1**q + ... + s_k**q``, the scan stops at the first ``k`` with
    ``c_k > A_k / s_k**q``; the losses from ``k`` on are capped.  ``A_k`` is
    accumulated as ``log A_k`` from ``q log s`` (``np.logaddexp``), so no
    power of a loss under- or overflows whatever ``q`` and the spread of the
    losses, and the ratio ``A_k / s_k**q`` lies in ``[1, k]``.  Zero losses
    add nothing to ``A_k`` and never stop the scan, so they are sliced off
    before the log.

    Returns ``(alpha, support_indices, weights, below)``, where ``below`` is
    the pooled share ``tau * (m - |support|) * alpha`` of the losses under
    the cap.
    """
    n, m, q, tau = params.n, params.m, params.q, params.tau

    order = np.argsort(values, kind="stable")
    s = values[order]
    zeros = int(np.searchsorted(s, 0.0, side="right"))
    top = float(s[-1])
    # Logs relative to the largest loss keep every exp() argument below
    # log(n): alpha's rounding then does not depend on the magnitude of the
    # losses, and alpha = top * exp(...) overflows to inf without an error.
    log_s = np.log(s[zeros:]) - math.log(top)
    log_powers = q * log_s
    log_prefix = np.logaddexp.accumulate(log_powers)
    counts = (m - n) + np.arange(zeros + 1, n + 1)
    # A c_k <= 0 never passes, as A_k / s_k**q >= 1.
    hits = np.flatnonzero(counts > np.exp(log_prefix - log_powers))
    # Sorted position of the smallest capped loss (n: nothing is capped).
    stop = zeros + int(hits[0]) if hits.size else n
    shrunk = stop - zeros  # positive losses under the cap
    rest = m - (n - stop)  # m - |support| > 0
    log_a = log_prefix[shrunk - 1] if shrunk else -math.inf
    log_alpha = (log_a - math.log(rest)) / q  # log(alpha / top), <= log(n)

    support = np.sort(order[stop:])
    weights = np.zeros(n)
    weights[support] = tau
    weights[order[zeros:stop]] = tau * np.exp(
        (q - 1.0) * (log_s[:shrunk] - log_alpha)
    )
    ratio = math.exp(log_alpha)  # alpha / top
    # alpha may pass the float64 maximum and become inf; the pooled share
    # tau * rest * alpha is at most the largest loss, and multiplying by top
    # last keeps it finite.
    return ratio * top, support, weights, tau * rest * ratio * top


def _solve_hard_top(values: np.ndarray, params: ResolvedPooling):
    """p = 1 limit: cap the floor(m) largest losses, split the remainder.

    The fractional part of ``m`` spreads uniformly over the pixels tied at
    the threshold (none if the threshold is zero).  Returns
    ``(alpha, support_indices, weights, below)`` like
    :func:`_solve_threshold_scan`.
    """
    n, m, tau = params.n, params.m, params.tau
    k = int(math.floor(m))
    k = min(k, n)

    order = np.argsort(values, kind="stable")
    s = values[order]
    support = np.sort(order[n - k:])
    alpha = float(s[n - k - 1]) if n - k >= 1 else 0.0

    weights = np.zeros(n)
    weights[support] = tau
    frac = m - k
    if frac > 0.0 and alpha > 0.0:
        lo = int(np.searchsorted(s, alpha, side="left"))
        tied = order[lo: n - k]
        weights[tied] = tau * frac / tied.size
    return alpha, support, weights, tau * frac * alpha


def dual_objective(lam, losses, config: PoolingConfig) -> float:
    """Dual bound ``tau * sum(lam) + gamma * ||l - lam||_q``.

    Finite for any ``lam >= 0``; minimised (over the non-negative orthant) by
    ``max(l - alpha_star, 0)``, where it meets the pooled value.  Requires
    ``p > 1`` so that ``q`` is finite.
    """
    values = as_loss_vector(losses)
    params = config.resolve(values.size)
    if math.isinf(params.q):
        raise ValueError("dual_objective requires p > 1 (finite conjugate exponent)")
    lam_arr = np.asarray(lam, dtype=np.float64)
    if lam_arr.shape != values.shape:
        raise ValueError(
            f"lam has shape {lam_arr.shape}, losses have shape {values.shape}"
        )
    if not np.all(np.isfinite(lam_arr)) or np.any(lam_arr < 0):
        raise ValueError("lam must be finite and non-negative")
    return params.tau * float(lam_arr.sum()) + params.gamma * stable_qnorm(
        values - lam_arr, params.q
    )
