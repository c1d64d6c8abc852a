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
``tau * (l / alpha_star) ** (q - 1)``.  With ``J_alpha = {u : l(u) > alpha}``,
the threshold is the largest root of

    (m - |J_alpha|) * alpha**q = sum of l(u)**q over u not in J_alpha,

and :func:`solve_pool` finds it exactly in ``O(n log n)`` by sorting the
losses and scanning them in order.  The scan sums in logarithms, so it stays
exact for every finite ``p > 1`` and for losses spanning the whole float64
range; ``p = 1`` selects the top ``m`` losses by comparison alone, and
``p = inf`` caps every loss.
The optimal weights are also the gradient of the pooled value with respect
to the losses, wherever the support does not change.

Everything here is plain numpy on 1-D float64 arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

__all__ = [
    "PoolingConfig",
    "ResolvedPooling",
    "SolveOutcome",
    "as_loss_vector",
    "solve_pool",
]

def as_loss_vector(values) -> np.ndarray:
    """Validate and convert ``values`` to a 1-D float64 loss vector.

    Losses must be non-empty, finite and non-negative.  Raises ``ValueError``
    otherwise.
    """
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim == 0:
        arr = arr.reshape(1)
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
        """Resolve ``(q, gamma, tau, m)`` against a batch of ``n >= 1`` losses.

        An absolute ``m`` must not exceed ``n``; ``m_fraction`` is scaled by
        ``n`` and clamped into ``[1, n]``.
        """
        if not (isinstance(n, (int, np.integer)) and n >= 1):
            raise ValueError(f"n must be a positive integer, got {n!r}")
        n = int(n)
        p = self.p
        if self.m_fraction is not None:
            m = min(max(self.m_fraction * n, 1.0), float(n))
        else:
            m = float(self.m)
            if m > n:
                raise ValueError(f"m must lie in [1, n] = [1, {n}], got {self.m!r}")

        if math.isinf(p):
            # Dual exponent 1; cap and budget coincide, so every pixel is
            # capped (m = n) and pooling is the plain mean.
            return ResolvedPooling(p=p, n=n, m=float(n), q=1.0, gamma=1.0 / n, tau=1.0 / n)
        if p == 1.0:
            return ResolvedPooling(p=p, n=n, m=m, q=math.inf, gamma=1.0, tau=1.0 / m)

        q = p / (p - 1.0)
        gamma = float(n) ** (-1.0 / q)
        if m == n:
            # gamma * n ** (-1/p) == 1/n algebraically; write it exactly.
            tau = 1.0 / n
        else:
            tau = gamma * m ** (-1.0 / p)
        return ResolvedPooling(p=p, n=n, m=m, q=q, gamma=gamma, tau=tau)


@dataclass(frozen=True)
class SolveOutcome:
    """Result of one pooling solve.

    Attributes
    ----------
    pooled_loss : the maximised weighted loss (upper bound on the mean).
    alpha_star : threshold separating capped pixels from shrunk ones.
    support : original indices of pixels pooled at the cap ``tau``, ascending.
    weights : optimal weighting, same length and order as the input losses.
    dual : optimal dual vector ``max(l - alpha_star, 0)``.
    """

    pooled_loss: float
    alpha_star: float
    support: np.ndarray
    weights: np.ndarray
    dual: np.ndarray


def solve_pool(losses, config: PoolingConfig, sizes=None) -> SolveOutcome | np.ndarray:
    """Maximise the weighted loss over the pooling family.

    For ``p = 1`` the ``floor(m)`` largest losses are capped and the
    fractional part of ``m`` is spread over the losses tied at the next
    value; ``p = inf`` resolves ``m`` to ``n``, so every loss is capped and
    ``alpha_star`` is 0.  Otherwise the threshold comes from the log-domain
    scan of :func:`_solve_threshold_scan`.  Both paths work on the losses as
    given, so any positive loss, down to the smallest subnormal, stays
    distinct from zero.  All-zero losses give the all-zero outcome;
    ``p = inf`` and ``m = n`` give the plain mean with uniform weights.  The
    returned weighting is feasible, its inner product with the losses equals
    ``pooled_loss``, and ``pooled_loss >= mean(losses)``.  ``alpha_star`` is
    ``inf`` when the threshold lies beyond float64 range; the pooled value
    and the weights stay finite.

    ``sizes`` splits the losses into consecutive segments of ``sizes[b]``
    losses, each pooled on its own with ``m`` resolved against its own
    length (segments of equal length share one resolved parameter set).  The
    call then returns only the weights, a float64 array indexed like
    ``losses`` whose slice for each segment is bit for bit the ``weights`` of
    that segment's own call.  The segments are padded to the longest:
    ``len(sizes) * max(sizes)`` losses.
    """
    values = as_loss_vector(losses)
    if sizes is None:
        # One row: the loss vector itself, with scalar parameters.
        params = config.resolve(values.size)
        n, m, q, tau, padded = values.size, params.m, params.q, params.tau, values
    else:
        n = np.array(sizes)
        if n.ndim != 1 or n.dtype.kind not in "iu" or (n < 1).any() or n.sum() != values.size:
            raise ValueError(
                f"sizes must be positive integers summing to len(losses), got {sizes!r}"
            )
        lengths, n = n.tolist(), n[:, None]
        longest = max(lengths)
        # One row per segment, right-aligned behind zero padding that sorts
        # before every positive loss; the row parameters are columns.
        resolved = {size: config.resolve(size) for size in dict.fromkeys(lengths)}
        rows = [resolved[size] for size in lengths]
        m, q, tau = np.array([[r.m] for r in rows]), rows[0].q, np.array([[r.tau] for r in rows])
        keep = (np.arange(longest) >= longest - n).ravel()
        padded = np.zeros((n.size, longest))
        padded.ravel()[keep] = values
    N = padded.shape[-1]
    # Routed on p, as q is also 1.0 for finite p >= 2**53.
    hard_top = config.p in (1.0, math.inf)
    # Flat positions of each row's losses in ascending order.  The top-m path
    # splits a tie group by position, so it sorts stably (padding first).  The
    # scan stops at a tie group's first loss and weighs tied losses alike, so
    # the order within a tie group cannot change its result.
    order = np.argsort(padded, axis=-1, kind="stable" if hard_top else "quicksort")
    order += _row_starts(padded)
    s = padded.ravel()[order]
    solve = _solve_hard_top if hard_top else _solve_threshold_scan
    stop, alpha, below, shrunk = solve(s, n, m, q, tau)
    capped = np.arange(N) >= stop
    # The cap equals the uniform weight 1/n here, so the optimum is the plain
    # mean; computing it directly keeps the upper bound exact at the
    # boundary and the weights exactly uniform.
    mean = (s[..., -1:] > 0) & (m == n)
    weights = np.empty(padded.size)
    np.copyto(shrunk, tau, where=capped | mean)
    weights[order] = shrunk
    if sizes is not None:
        return weights[keep]
    in_support = np.empty(N, dtype=bool)
    in_support[order] = capped
    del order, shrunk
    dual = values - alpha
    np.maximum(dual, 0.0, out=dual)
    support = np.flatnonzero(in_support)
    if mean[0]:
        # The mean is taken on losses scaled down by a power of two only when
        # their sum could pass the float64 maximum, so it cannot overflow and
        # keeps its bytes everywhere else.
        k = max(0, math.frexp(s[-1])[1] + (n - 1).bit_length() - 1024)
        pooled = math.ldexp(float(np.ldexp(values, -k).mean()), k)
    else:
        # Scaling by tau (the support's weight) first keeps every partial sum
        # below the largest loss (tau * |support| <= 1), so it cannot overflow.
        pooled = float((values[support] * weights[support]).sum()) + float(below[0])
    return SolveOutcome(
        pooled_loss=pooled, alpha_star=float(alpha[0]), support=support, weights=weights, dual=dual
    )


def _row_starts(rows):
    """Flat position of each row's first entry, a per-row value (0 for one row)."""
    return 0 if rows.ndim == 1 else np.arange(0, rows.size, rows.shape[-1])[:, None]


def _each(f, values):
    """``f`` on each per-row value: ``math`` rounds as numpy's ufuncs do not."""
    return np.array([f(x) for x in values.ravel().tolist()]).reshape(values.shape)


def _solve_threshold_scan(s, n, m, q, tau):
    """Largest root of the threshold equation by an ascending scan, for finite q.

    The threshold ``alpha`` solves ``(m - |J|) * alpha**q = sum(l**q)`` over
    the losses not in ``J``, the set of losses above ``alpha``.  With a
    row's losses sorted ascending as ``s``, ``c_k = m - n + k`` and
    ``A_k = s_1**q + ... + s_k**q``, the scan stops at the first ``k`` with
    ``c_k > A_k / s_k**q``; the losses from ``k`` on are capped.  ``A_k`` is
    accumulated as ``log A_k`` from ``q log s`` (``np.logaddexp``), so no
    power of a loss under- or overflows whatever ``q`` and the spread of the
    losses, and the ratio ``A_k / s_k**q`` lies in ``[1, k]``.  Zero losses
    and padding have ``log s = -inf``: they add nothing to ``A_k`` and never
    stop the scan.

    The weights ``tau * (s_i / alpha)**(q - 1)`` are taken relative to the
    pivot ``s_k``, the largest loss under the cap.  With ``r_i = log(s_i /
    s_k)`` and ``rho = sum(exp(q r_i)) = A_k / s_k**q``, ``log(s_k / alpha)
    = (log(m - |support|) - log rho) / q``.  Where ``s_i >= s_k / 2``,
    ``s_i - s_k`` is exact and ``r_i`` is its ``log1p``, so the rounding of
    the weights does not grow with ``q``.

    ``s`` is one sorted row, or sorted rows; ``n``, ``m`` and ``tau`` are
    scalars, or columns.  Returns per row, on a last axis of length 1, the
    sorted position of the smallest capped loss, the threshold and the pooled
    share ``tau * (m - |support|) * alpha`` under the cap, then the weights
    of the losses under the cap in sorted order.  Per-row logs and exps are
    ``math`` calls, as ``np.log`` and ``np.exp`` round differently.
    """
    N = s.shape[-1]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        # Logs relative to the largest loss keep every exp() argument below
        # log(n): alpha's rounding then does not depend on the magnitude of
        # the losses, and alpha = top * exp(...) overflows to inf without an
        # error.
        top = s[..., -1:]
        log_s = np.log(s)
        log_s -= _each(lambda t: math.log(t) if t > 0 else 0.0, top)
        log_powers = q * log_s
        log_prefix = np.logaddexp.accumulate(log_powers, axis=-1)
        # c_k in one float buffer: each integer is exact, then one add.
        counts = np.arange(1.0, N + 1.0) - (N - n)
        counts += m - n
        # A c_k <= 0 never passes, as A_k / s_k**q >= 1.  The ratios
        # A_k / s_k**q go into log_powers' buffer, the weights into log_s'.
        hits = counts > np.exp(np.subtract(log_prefix, log_powers, out=log_powers), out=log_powers)
        # c_k - A_k / s_k**q is one value across a tie group: test its first.
        hits[..., 1:] &= s[..., 1:] != s[..., :-1]
        stop = np.where(hits.any(axis=-1, keepdims=True), hits.argmax(axis=-1, keepdims=True), N)
        rest = m - (N - stop)  # m - |support| > 0
        log_rest = _each(math.log, rest)
        pivot = _row_starts(s) + stop - 1
        log_a = np.where(stop > 0, log_prefix.ravel()[pivot], -np.inf)
        del log_prefix, hits
        log_alpha = (log_a - log_rest) / q
        ratio = _each(math.exp, log_alpha)  # alpha / top
        s_k = s.ravel()[pivot]
        log_s -= log_s.ravel()[pivot]
        gap = np.subtract(s, s_k, out=log_powers)
        np.log1p(np.divide(gap, s_k, out=gap), out=log_s, where=s >= 0.5 * s_k)
        # A sequential sum, so zero padding before a row keeps rho's bits;
        # exp() may overflow above the pivot, past where rho is read.
        rho = np.exp(np.multiply(log_s, q, out=log_powers), out=log_powers)
        rho = np.cumsum(rho, axis=-1, out=rho).ravel()[pivot]
        log_s += (log_rest - _each(math.log, rho)) / q
        log_s *= q - 1.0
        shrunk = np.multiply(np.exp(log_s, out=log_s), tau, out=log_s)
        shrunk[s <= 0] = 0.0
        # alpha may pass the float64 maximum and become inf; the pooled share
        # tau * rest * alpha is at most the largest loss, and multiplying by
        # top last keeps it finite.
        alpha, below = ratio * top, tau * rest * ratio * top
    return stop, alpha, below, shrunk


def _solve_hard_top(s, n, m, q, tau):
    """p = 1 limit, and p = inf (m = n): cap the floor(m) largest losses, split the remainder.

    The fractional part of ``m`` spreads uniformly over the pixels tied at
    the threshold (none if the threshold is zero).  A row without a positive
    loss caps nothing.  Takes and returns what :func:`_solve_threshold_scan` does.
    """
    N = s.shape[-1]
    k = np.where(s[..., -1:] > 0, np.minimum(np.floor(m), n), 0).astype(np.intp)
    stop = N - k
    alpha = np.where(k < n, s.ravel()[_row_starts(s) + stop - 1], 0.0)
    frac = m - k
    tied = (s == alpha) & (np.arange(N) < stop) & ((frac > 0.0) & (alpha > 0.0))
    share = tau * frac / np.maximum(tied.sum(axis=-1, keepdims=True), 1)
    return stop, alpha, tau * frac * alpha, np.where(tied, share, 0.0)
