"""Loss functions used across the reproduction."""

from __future__ import annotations

from .tensor import Tensor


def mse_loss(prediction: Tensor, target: Tensor) -> Tensor:
    """Mean squared error (paper Sec. IV-C: R-GCN reward-regression loss)."""
    target_t = target if isinstance(target, Tensor) else Tensor(target)
    diff = prediction - target_t
    return (diff * diff).mean()

