"""Adaptive loss pooling for long-tail segmentation training."""

from .solver import (
    PoolingConfig,
    ResolvedPooling,
    SolveOutcome,
    as_loss_vector,
    solve_pool,
)

__all__ = [
    "PoolingConfig",
    "ResolvedPooling",
    "SolveOutcome",
    "as_loss_vector",
    "solve_pool",
]

__version__ = "0.1.0"
