"""Numpy-backed neural-network substrate (autograd, layers, optimizers).

This subpackage substitutes for PyTorch in the paper's stack, so the
networks need only numpy (README "Fast NN core").
"""

from . import functional
from .init import kaiming_uniform, uniform_bound, xavier_uniform
from .layers import (
    Conv2d,
    ConvTranspose2d,
    Linear,
    Module,
    ReLU,
    Sequential,
    mlp,
)
from .losses import mse_loss
from .optim import Adam, Optimizer
from .serialization import load_module, save_module
from .tensor import (
    Tensor,
    concatenate,
    default_dtype,
    dtype_scope,
    gather,
    is_grad_enabled,
    log_softmax,
    no_grad,
    set_default_dtype,
    take,
    where,
)

__all__ = [
    "Adam",
    "Conv2d",
    "ConvTranspose2d",
    "Linear",
    "Module",
    "Optimizer",
    "ReLU",
    "Sequential",
    "Tensor",
    "concatenate",
    "default_dtype",
    "dtype_scope",
    "functional",
    "gather",
    "is_grad_enabled",
    "kaiming_uniform",
    "load_module",
    "log_softmax",
    "mlp",
    "mse_loss",
    "no_grad",
    "set_default_dtype",
    "take",
    "uniform_bound",
    "where",
    "xavier_uniform",
]
