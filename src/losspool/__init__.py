"""Adaptive loss pooling for long-tail segmentation training."""

from .solver import (
    PoolingConfig,
    ResolvedPooling,
    SolveOutcome,
    as_loss_vector,
    derive_parameters,
    dual_objective,
    eta,
    solve_pool,
    stable_qnorm,
)

__all__ = [
    "PoolingConfig",
    "ResolvedPooling",
    "SolveOutcome",
    "as_loss_vector",
    "derive_parameters",
    "dual_objective",
    "eta",
    "solve_pool",
    "stable_qnorm",
]

__version__ = "0.1.0"
