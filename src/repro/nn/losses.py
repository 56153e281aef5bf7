"""Loss functions used across the reproduction."""

from __future__ import annotations

import numpy as np

from .tensor import Tensor, gather, log_softmax


def mse_loss(prediction: Tensor, target: Tensor) -> Tensor:
    """Mean squared error (paper Sec. IV-C: R-GCN reward-regression loss)."""
    target_t = target if isinstance(target, Tensor) else Tensor(target)
    diff = prediction - target_t
    return (diff * diff).mean()


def cross_entropy(logits: Tensor, labels: np.ndarray) -> Tensor:
    """Cross entropy over integer class labels."""
    log_probs = log_softmax(logits, axis=-1)
    picked = gather(log_probs, np.asarray(labels, dtype=np.int64))
    return -picked.mean()
