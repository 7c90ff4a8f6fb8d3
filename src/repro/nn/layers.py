"""Trainable layers with explicit forward/backward passes.

Layers hold their parameters (``params``) and accumulated gradients
(``grads``) as dicts of arrays; forward passes cache whatever backward
needs. Gradients *accumulate* across backward calls until
``zero_grad()`` — stability training (paper §9.1) relies on this, since
its loss backpropagates two related inputs through the same weights.
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

from .functional import (
    conv2d_backward,
    conv2d_forward,
    depthwise_conv2d_backward,
    depthwise_conv2d_forward,
    global_avg_pool_backward,
    global_avg_pool_forward,
)

__all__ = [
    "Layer",
    "Conv2D",
    "DepthwiseConv2D",
    "BatchNorm2D",
    "ReLU6",
    "ReLU",
    "Dense",
    "GlobalAvgPool",
    "Flatten",
]


class Layer:
    """Base class for trainable layers."""

    def __init__(self) -> None:
        self.params: Dict[str, np.ndarray] = {}
        self.grads: Dict[str, np.ndarray] = {}
        self._cache = None

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        raise NotImplementedError

    def backward(self, dy: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def zero_grad(self) -> None:
        for key, value in self.params.items():
            self.grads[key] = np.zeros_like(value)

    def _accumulate(self, key: str, grad: np.ndarray) -> None:
        if key not in self.grads:
            self.grads[key] = np.zeros_like(self.params[key])
        self.grads[key] += grad.astype(self.params[key].dtype, copy=False)

    @property
    def num_params(self) -> int:
        return int(sum(p.size for p in self.params.values()))


def _he_init(rng: np.random.Generator, shape, fan_in: int) -> np.ndarray:
    std = np.sqrt(2.0 / fan_in)
    return rng.normal(0.0, std, shape).astype(np.float32)


class Conv2D(Layer):
    """Standard 2-D convolution, NCHW, square kernel."""

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel: int,
        stride: int = 1,
        pad: int | None = None,
        bias: bool = True,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        # Deterministic fallback for layers constructed standalone (unit
        # tests, ad-hoc probes). Every real model path threads the rng
        # from micro_mobilenet's seed, so this literal never reaches
        # capture results.
        rng = rng or np.random.default_rng(0)
        self.stride = stride
        self.pad = pad if pad is not None else kernel // 2
        fan_in = in_channels * kernel * kernel
        self.params["weight"] = _he_init(
            rng, (out_channels, in_channels, kernel, kernel), fan_in
        )
        if bias:
            self.params["bias"] = np.zeros(out_channels, dtype=np.float32)

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        y, self._cache = conv2d_forward(
            x, self.params["weight"], self.params.get("bias"), self.stride, self.pad
        )
        return y

    def backward(self, dy: np.ndarray) -> np.ndarray:
        dx, dw, db = conv2d_backward(dy, self._cache)
        self._accumulate("weight", dw)
        if "bias" in self.params:
            self._accumulate("bias", db)
        return dx


class DepthwiseConv2D(Layer):
    """Depthwise (per-channel) convolution — MobileNet's workhorse."""

    def __init__(
        self,
        channels: int,
        kernel: int = 3,
        stride: int = 1,
        pad: int | None = None,
        bias: bool = True,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        # Deterministic fallback for layers constructed standalone (unit
        # tests, ad-hoc probes). Every real model path threads the rng
        # from micro_mobilenet's seed, so this literal never reaches
        # capture results.
        rng = rng or np.random.default_rng(0)
        self.stride = stride
        self.pad = pad if pad is not None else kernel // 2
        self.params["weight"] = _he_init(rng, (channels, kernel, kernel), kernel * kernel)
        if bias:
            self.params["bias"] = np.zeros(channels, dtype=np.float32)

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        y, self._cache = depthwise_conv2d_forward(
            x, self.params["weight"], self.params.get("bias"), self.stride, self.pad
        )
        return y

    def backward(self, dy: np.ndarray) -> np.ndarray:
        dx, dw, db = depthwise_conv2d_backward(dy, self._cache)
        self._accumulate("weight", dw)
        if "bias" in self.params:
            self._accumulate("bias", db)
        return dx


class BatchNorm2D(Layer):
    """Batch normalization over (N, H, W) per channel, with running stats."""

    def __init__(self, channels: int, momentum: float = 0.9, eps: float = 1e-5) -> None:
        super().__init__()
        self.momentum = momentum
        self.eps = eps
        self.params["gamma"] = np.ones(channels, dtype=np.float32)
        self.params["beta"] = np.zeros(channels, dtype=np.float32)
        self.running_mean = np.zeros(channels, dtype=np.float32)
        self.running_var = np.ones(channels, dtype=np.float32)

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        if training:
            mean = x.mean(axis=(0, 2, 3))
            var = x.var(axis=(0, 2, 3))
            self.running_mean = (
                self.momentum * self.running_mean + (1 - self.momentum) * mean
            ).astype(np.float32)
            self.running_var = (
                self.momentum * self.running_var + (1 - self.momentum) * var
            ).astype(np.float32)
        else:
            mean = self.running_mean
            var = self.running_var
        inv_std = 1.0 / np.sqrt(var + self.eps)
        x_hat = (x - mean[None, :, None, None]) * inv_std[None, :, None, None]
        self._cache = (x_hat, inv_std, training, x.shape)
        return (
            self.params["gamma"][None, :, None, None] * x_hat
            + self.params["beta"][None, :, None, None]
        )

    def backward(self, dy: np.ndarray) -> np.ndarray:
        x_hat, inv_std, training, x_shape = self._cache
        n, c, h, w = x_shape
        m = n * h * w
        dgamma = (dy * x_hat).sum(axis=(0, 2, 3))
        dbeta = dy.sum(axis=(0, 2, 3))
        self._accumulate("gamma", dgamma)
        self._accumulate("beta", dbeta)
        gamma = self.params["gamma"][None, :, None, None]
        if not training:
            return dy * gamma * inv_std[None, :, None, None]
        dx_hat = dy * gamma
        term1 = dx_hat
        term2 = dx_hat.mean(axis=(0, 2, 3), keepdims=True)
        term3 = x_hat * (dx_hat * x_hat).mean(axis=(0, 2, 3), keepdims=True)
        return inv_std[None, :, None, None] * (term1 - term2 - term3)


class ReLU6(Layer):
    """min(max(x, 0), 6) — MobileNetV2's activation."""

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        self._cache = (x > 0) & (x < 6)
        return np.clip(x, 0.0, 6.0)

    def backward(self, dy: np.ndarray) -> np.ndarray:
        return dy * self._cache


class ReLU(Layer):
    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        self._cache = x > 0
        return np.maximum(x, 0.0)

    def backward(self, dy: np.ndarray) -> np.ndarray:
        return dy * self._cache


class Dense(Layer):
    """Fully connected layer over (N, F) inputs."""

    def __init__(
        self,
        in_features: int,
        out_features: int,
        bias: bool = True,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        # Deterministic fallback for layers constructed standalone (unit
        # tests, ad-hoc probes). Every real model path threads the rng
        # from micro_mobilenet's seed, so this literal never reaches
        # capture results.
        rng = rng or np.random.default_rng(0)
        self.params["weight"] = _he_init(rng, (out_features, in_features), in_features)
        if bias:
            self.params["bias"] = np.zeros(out_features, dtype=np.float32)

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        self._cache = x
        y = x @ self.params["weight"].T
        if "bias" in self.params:
            y += self.params["bias"]
        return y

    def backward(self, dy: np.ndarray) -> np.ndarray:
        x = self._cache
        self._accumulate("weight", dy.T @ x)
        if "bias" in self.params:
            self._accumulate("bias", dy.sum(axis=0))
        return dy @ self.params["weight"]


class GlobalAvgPool(Layer):
    """(N, C, H, W) -> (N, C)."""

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        y, self._cache = global_avg_pool_forward(x)
        return y

    def backward(self, dy: np.ndarray) -> np.ndarray:
        return global_avg_pool_backward(dy, self._cache)


class Flatten(Layer):
    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        self._cache = x.shape
        return x.reshape(x.shape[0], -1)

    def backward(self, dy: np.ndarray) -> np.ndarray:
        return dy.reshape(self._cache)
