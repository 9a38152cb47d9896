"""Layers shared by the encoder, prompt re-calibration, and refinement stages.

Every layer is a Module that owns named Parameters (dotted paths, unique per
model). Module.parameters() derives the registry from the layer's attributes
in assignment order, so the order __init__ builds a layer in is the order of
the optimizer and checkpoint layouts; no layer lists its parameters by hand.
"""

from __future__ import annotations

import math
from typing import Iterator, Optional

import numpy as np
from scipy.special import ndtr, ndtri

from .errors import ConfigurationError
from .tensor import Parameter, Tensor, attention, gelu, layer_norm, linear, mul

INIT_STD = 0.02


def trunc_normal(rng: np.random.Generator, shape, std: float = INIT_STD) -> np.ndarray:
    """Normal(0, std) truncated to two standard deviations, by inverse-CDF sampling."""
    return std * ndtri(rng.uniform(ndtr(-2.0), ndtr(2.0), size=shape))


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
    def __init__(self, name: str, d_in: int, d_out: int, rng: np.random.Generator,
                 dtype=np.float32, with_bias: bool = True):
        self.weight = Parameter(
            f"{name}.weight", trunc_normal(rng, (d_in, d_out), std=1.0 / math.sqrt(d_in)), dtype=dtype
        )
        self.bias = Parameter(f"{name}.bias", np.zeros(d_out), dtype=dtype) if with_bias else None

    def __call__(self, x: Tensor) -> Tensor:
        return linear(x, self.weight, self.bias)

    def zero_(self) -> None:
        self.weight.assign(np.zeros_like(self.weight.data))
        if self.bias is not None:
            self.bias.assign(np.zeros_like(self.bias.data))


class LayerNorm(Module):
    def __init__(self, name: str, dim: int, dtype=np.float32):
        self.gamma = Parameter(f"{name}.gamma", np.ones(dim), dtype=dtype)
        self.beta = Parameter(f"{name}.beta", np.zeros(dim), dtype=dtype)

    def __call__(self, x: Tensor) -> Tensor:
        return layer_norm(x, self.gamma, self.beta)


class MultiHeadAttention(Module):
    """Scaled dot-product attention over the last two axes (tokens, features).

    Queries may come from a different sequence than keys/values, which covers
    both self- and cross-attention. Setting capture_attention stashes the most
    recent post-softmax weights (detached) for inspection.
    """

    def __init__(self, name: str, dim: int, heads: int, rng: np.random.Generator,
                 dtype=np.float32):
        if dim % heads != 0:
            raise ConfigurationError(f"{name}: dim {dim} not divisible by heads {heads}")
        self.heads = heads
        self.wq = Linear(f"{name}.wq", dim, dim, rng, dtype)
        # a key bias shifts every score of a query equally; softmax ignores it,
        # so it would be a parameter with an identically zero gradient
        self.wk = Linear(f"{name}.wk", dim, dim, rng, dtype, with_bias=False)
        self.wv = Linear(f"{name}.wv", dim, dim, rng, dtype)
        self.wo = Linear(f"{name}.wo", dim, dim, rng, dtype)
        self.capture_attention = False
        self.last_attention: Optional[np.ndarray] = None

    def __call__(self, queries: Tensor, keys_values: Tensor) -> Tensor:
        out, weights = attention(self.wq(queries), self.wk(keys_values), self.wv(keys_values),
                                 self.heads)
        if self.capture_attention:
            self.last_attention = weights.copy()
        return self.wo(out)

    def zero_output_projections(self) -> None:
        self.wo.zero_()


class FeedForward(Module):
    def __init__(self, name: str, dim: int, mult: int, rng: np.random.Generator,
                 dtype=np.float32):
        self.fc1 = Linear(f"{name}.fc1", dim, dim * mult, rng, dtype)
        self.fc2 = Linear(f"{name}.fc2", dim * mult, dim, rng, dtype)

    def __call__(self, x: Tensor) -> Tensor:
        return self.fc2(gelu(self.fc1(x)))

    def zero_output_projections(self) -> None:
        self.fc2.zero_()
