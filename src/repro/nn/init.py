"""Weight initialization schemes (Kaiming / Xavier / bound-uniform).

Draws happen in float64 (so the random stream is identical across dtype
policies) and are cast to the active default dtype on the way out.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from .tensor import default_dtype


def kaiming_uniform(rng: np.random.Generator, shape: Tuple[int, ...], fan_in: int) -> np.ndarray:
    """He-uniform initialization, matching PyTorch's default for conv/linear."""
    bound = np.sqrt(6.0 / fan_in)
    return rng.uniform(-bound, bound, size=shape).astype(default_dtype(), copy=False)


def xavier_uniform(rng: np.random.Generator, shape: Tuple[int, ...], fan_in: int, fan_out: int) -> np.ndarray:
    """Glorot-uniform initialization (used for GNN relation weights)."""
    bound = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, size=shape).astype(default_dtype(), copy=False)


def uniform_bound(rng: np.random.Generator, shape: Tuple[int, ...], fan_in: int) -> np.ndarray:
    """PyTorch-style bias initialization: U(-1/sqrt(fan_in), 1/sqrt(fan_in))."""
    bound = 1.0 / np.sqrt(fan_in) if fan_in > 0 else 0.0
    return rng.uniform(-bound, bound, size=shape).astype(default_dtype(), copy=False)
