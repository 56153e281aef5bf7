"""Numpy-backed neural-network substrate (autograd, layers, optimizers).

This subpackage substitutes for PyTorch in the paper's stack, so the
networks need only numpy (README "Fast NN core").
"""

from . import functional
from .init import kaiming_uniform, uniform_bound, xavier_uniform
from .layers import (
    Conv2d,
    ConvTranspose2d,
    Flatten,
    Linear,
    Module,
    ReLU,
    Sequential,
    mlp,
)
from .functional import segment_mean, segment_softmax
from .losses import mse_loss
from .optim import SGD, Adam, Optimizer
from .serialization import load_module, save_module
from .tensor import (
    Tensor,
    concatenate,
    default_dtype,
    dtype_scope,
    enable_grad,
    gather,
    index_add,
    is_grad_enabled,
    log_softmax,
    no_grad,
    ones,
    segment_sum,
    set_default_dtype,
    softmax,
    stack,
    take,
    tensor,
    where,
    zeros,
)

__all__ = [
    "Adam",
    "Conv2d",
    "ConvTranspose2d",
    "Flatten",
    "Linear",
    "Module",
    "Optimizer",
    "ReLU",
    "SGD",
    "Sequential",
    "Tensor",
    "concatenate",
    "default_dtype",
    "dtype_scope",
    "enable_grad",
    "functional",
    "gather",
    "index_add",
    "is_grad_enabled",
    "kaiming_uniform",
    "load_module",
    "log_softmax",
    "mlp",
    "mse_loss",
    "no_grad",
    "ones",
    "segment_mean",
    "segment_softmax",
    "segment_sum",
    "set_default_dtype",
    "softmax",
    "stack",
    "take",
    "tensor",
    "uniform_bound",
    "where",
    "xavier_uniform",
    "zeros",
]
