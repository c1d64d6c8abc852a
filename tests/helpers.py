"""Helpers shared by the test modules (not collected as tests)."""

import numpy as np


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
