"""Layers shared by the encoder, prompt re-calibration, and refinement stages.

Every layer is a Module that owns named Parameters (dotted paths, unique per
model). Module.parameters() derives the registry from the layer's attributes
in assignment order, so the order __init__ builds a layer in is the order of
the optimizer and checkpoint layouts; no layer lists its parameters by hand.
Each layer names each parameter once, through `param`, from one source: a
seeded Generator when training, a checkpoint's TableSource when loading (both
float32), or grad-check's float64 NoiseSource (gradcheck.py).
"""

from __future__ import annotations

import math
from typing import Iterator

import numpy as np
from scipy.special import ndtr, ndtri

from .tensor import Parameter, Tensor, attention, feed_forward, layer_norm, linear, mul

INIT_STD = 0.02


def trunc_normal(rng: np.random.Generator, shape, std: float = INIT_STD) -> np.ndarray:
    """Normal(0, std) truncated to two standard deviations, by inverse-CDF
    sampling in float64 and rounded once to float32."""
    return (std * ndtri(rng.uniform(ndtr(-2.0), ndtr(2.0), size=shape))).astype(np.float32)


def param(source, name: str, shape: tuple, std: float = INIT_STD, fill=None) -> Parameter:
    """The parameter `name` from its layer's source: drawn from a Generator (filled with `fill`
    instead when given, drawing nothing), or taken from any other source by name and shape."""
    if not isinstance(source, np.random.Generator):
        return source(name, shape)
    data = trunc_normal(source, shape, std) if fill is None else np.full(shape, fill, np.float32)
    return Parameter(name, data, copy=False)


def expand_rows(token: Tensor, batch: int) -> Tensor:
    """Broadcast a (1, T, d) learned token block to (batch, T, d), differentiably."""
    ones = Tensor(np.ones((batch, 1, 1), dtype=token.dtype))
    return mul(ones, token)


class Module:
    """Base of every layer; its registry is read from the instance attributes."""

    def _members(self) -> Iterator:
        """Attribute values in assignment order, lists flattened one level."""
        for value in vars(self).values():
            yield from value if isinstance(value, list) else (value,)

    def _walk(self) -> Iterator[Parameter]:
        for member in self._members():
            if isinstance(member, Parameter):
                yield member
            elif isinstance(member, Module):
                yield from member._walk()

    def parameters(self) -> list[Parameter]:
        """Every Parameter under this layer, once each (a shared one is listed
        where it is first reached), in attribute-assignment order."""
        return list(dict.fromkeys(self._walk()))

    def zero_output_projections(self) -> None:
        """Zero the output projection of every attention (wo) and feed-forward
        (fc2) sub-layer; a residual block then passes its input through."""
        for member in self._members():
            if isinstance(member, Module):
                member.zero_output_projections()


class Linear(Module):
    # Weights are fan-in scaled rather than flat 0.02: at desk widths (d=64)
    # the flat convention sits ~6x below unit gain, attenuating signal through
    # every projection and stalling from-scratch training. Tokens and prompts
    # keep INIT_STD.
    def __init__(self, name: str, d_in: int, d_out: int, source, with_bias: bool = True):
        self.weight = param(source, f"{name}.weight", (d_in, d_out), std=1.0 / math.sqrt(d_in))
        self.bias = param(source, f"{name}.bias", (d_out,), fill=0.0) if with_bias else None

    def __call__(self, x: Tensor) -> Tensor:
        return linear(x, self.weight, self.bias)

    def zero_(self) -> None:
        self.weight.assign(np.zeros_like(self.weight.data))
        if self.bias is not None:
            self.bias.assign(np.zeros_like(self.bias.data))


class LayerNorm(Module):
    def __init__(self, name: str, dim: int, source):
        self.gamma = param(source, f"{name}.gamma", (dim,), fill=1.0)
        self.beta = param(source, f"{name}.beta", (dim,), fill=0.0)

    def __call__(self, x: Tensor) -> Tensor:
        return layer_norm(x, self.gamma, self.beta)


class MultiHeadAttention(Module):
    """Scaled dot-product attention over the last two axes (tokens, features).

    Queries may come from a different sequence than keys/values, which covers
    both self- and cross-attention.
    """

    def __init__(self, name: str, dim: int, heads: int, source):
        self.heads = heads
        self.wq = Linear(f"{name}.wq", dim, dim, source)
        # a key bias shifts every score of a query equally; softmax ignores it,
        # so it would be a parameter with an identically zero gradient
        self.wk = Linear(f"{name}.wk", dim, dim, source, with_bias=False)
        self.wv = Linear(f"{name}.wv", dim, dim, source)
        self.wo = Linear(f"{name}.wo", dim, dim, source)

    def __call__(self, queries: Tensor, keys_values: Tensor) -> Tensor:
        out, _ = attention(self.wq(queries), self.wk(keys_values), self.wv(keys_values), self.heads)
        return self.wo(out)

    def zero_output_projections(self) -> None:
        self.wo.zero_()


class FeedForward(Module):
    """fc1, GELU, fc2 as one tape entry (tensor.feed_forward)."""

    def __init__(self, name: str, dim: int, mult: int, source):
        self.fc1 = Linear(f"{name}.fc1", dim, dim * mult, source)
        self.fc2 = Linear(f"{name}.fc2", dim * mult, dim, source)

    def __call__(self, x: Tensor) -> Tensor:
        return feed_forward(x, self.fc1.weight, self.fc1.bias, self.fc2.weight, self.fc2.bias)

    def zero_output_projections(self) -> None:
        self.fc2.zero_()
