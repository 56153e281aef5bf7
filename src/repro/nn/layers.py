"""Neural-network layers built on the autograd engine.

Provides a small ``Module`` hierarchy mirroring the PyTorch API surface the
paper relies on: ``Linear``, ``Conv2d``, ``ConvTranspose2d``, ``ReLU`` and
``Sequential``.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from . import functional as F
from .init import kaiming_uniform, uniform_bound
from .tensor import Tensor


class Module:
    """Base class: tracks parameters and sub-modules by attribute."""

    def __init__(self) -> None:
        self._parameters: Dict[str, Tensor] = {}
        self._modules: Dict[str, "Module"] = {}

    def __setattr__(self, name, value):
        if isinstance(value, Tensor) and value.requires_grad:
            self.__dict__.setdefault("_parameters", {})[name] = value
        elif isinstance(value, Module):
            self.__dict__.setdefault("_modules", {})[name] = value
        object.__setattr__(self, name, value)

    def parameters(self) -> List[Tensor]:
        params = list(self._parameters.values())
        for module in self._modules.values():
            params.extend(module.parameters())
        return params

    def named_parameters(self, prefix: str = "") -> Iterator[Tuple[str, Tensor]]:
        for name, p in self._parameters.items():
            yield (f"{prefix}{name}", p)
        for mod_name, module in self._modules.items():
            yield from module.named_parameters(prefix=f"{prefix}{mod_name}.")

    @property
    def dtype(self) -> np.dtype:
        """Dtype of this module's parameters (the active default if none)."""
        for _, p in self.named_parameters():
            return p.data.dtype
        from .tensor import default_dtype

        return default_dtype()

    def state_dict(self) -> Dict[str, np.ndarray]:
        """Parameter arrays, copied, in the module's own dtype (no upcast)."""
        return {name: p.data.copy() for name, p in self.named_parameters()}

    def load_state_dict(self, state: Dict[str, np.ndarray]) -> None:
        """Load parameters, casting to each parameter's existing dtype.

        A float32 module loading a float64 checkpoint (or vice versa) keeps
        its own dtype — save/load round trips never silently upcast.
        """
        own = dict(self.named_parameters())
        missing = set(own) - set(state)
        unexpected = set(state) - set(own)
        if missing or unexpected:
            raise KeyError(f"state dict mismatch: missing={sorted(missing)}, unexpected={sorted(unexpected)}")
        for name, p in own.items():
            value = np.asarray(state[name])
            if value.shape != p.data.shape:
                raise ValueError(f"shape mismatch for {name}: {value.shape} vs {p.data.shape}")
            p.data = np.array(value, dtype=p.data.dtype)

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)

    def forward(self, *args, **kwargs):  # pragma: no cover - abstract
        raise NotImplementedError


class Linear(Module):
    """Affine layer ``y = x @ W.T + b``."""

    def __init__(self, in_features: int, out_features: int, rng: Optional[np.random.Generator] = None):
        super().__init__()
        rng = rng or np.random.default_rng()
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Tensor(kaiming_uniform(rng, (out_features, in_features), fan_in=in_features), requires_grad=True)
        self.bias = Tensor(uniform_bound(rng, (out_features,), fan_in=in_features), requires_grad=True)

    def forward(self, x: Tensor) -> Tensor:
        return F.linear(x, self.weight, self.bias)


class Conv2d(Module):
    """2D convolution layer (NCHW)."""

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_size: int,
        stride: int = 1,
        padding: int = 0,
        rng: Optional[np.random.Generator] = None,
    ):
        super().__init__()
        rng = rng or np.random.default_rng()
        fan_in = in_channels * kernel_size * kernel_size
        self.stride = stride
        self.padding = padding
        self.weight = Tensor(
            kaiming_uniform(rng, (out_channels, in_channels, kernel_size, kernel_size), fan_in=fan_in),
            requires_grad=True,
        )
        self.bias = Tensor(uniform_bound(rng, (out_channels,), fan_in=fan_in), requires_grad=True)

    def forward(self, x: Tensor) -> Tensor:
        return F.conv2d(x, self.weight, self.bias, stride=self.stride, padding=self.padding)


class ConvTranspose2d(Module):
    """Transposed 2D convolution layer (NCHW, PyTorch weight layout)."""

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_size: int,
        stride: int = 1,
        padding: int = 0,
        rng: Optional[np.random.Generator] = None,
    ):
        super().__init__()
        rng = rng or np.random.default_rng()
        fan_in = in_channels * kernel_size * kernel_size
        self.stride = stride
        self.padding = padding
        self.weight = Tensor(
            kaiming_uniform(rng, (in_channels, out_channels, kernel_size, kernel_size), fan_in=fan_in),
            requires_grad=True,
        )
        self.bias = Tensor(uniform_bound(rng, (out_channels,), fan_in=fan_in), requires_grad=True)

    def forward(self, x: Tensor) -> Tensor:
        return F.conv_transpose2d(x, self.weight, self.bias, stride=self.stride, padding=self.padding)


class ReLU(Module):
    def forward(self, x: Tensor) -> Tensor:
        return x.relu()


class Sequential(Module):
    def __init__(self, *modules: Module):
        super().__init__()
        self._sequence: List[Module] = []
        for i, module in enumerate(modules):
            setattr(self, f"layer{i}", module)
            self._sequence.append(module)

    def forward(self, x: Tensor) -> Tensor:
        for module in self._sequence:
            x = module(x)
        return x


def mlp(
    sizes: Sequence[int],
    rng: Optional[np.random.Generator] = None,
) -> Sequential:
    """Fully-connected network with ReLU between layers, linear output."""
    rng = rng or np.random.default_rng()
    layers: List[Module] = []
    for i in range(len(sizes) - 1):
        layers.append(Linear(sizes[i], sizes[i + 1], rng=rng))
        if i < len(sizes) - 2:
            layers.append(ReLU())
    return Sequential(*layers)
