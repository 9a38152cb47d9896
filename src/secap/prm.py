"""Prompt re-calibration: adapt a learned prompt bank to each image's
view-invariant feature.

Three calibration routes exist (attention, addition, concatenation); all
end by re-adding the raw prompts, so a zeroed module passes the bank
through untouched.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigurationError, DimensionError
from .nn import FeedForward, Module, MultiHeadAttention, expand_rows, trunc_normal
from .tensor import Parameter, Tensor, add, concat, reshape

VARIANTS = ("attn", "add", "cat")


class PromptBank(Module):
    """L learnable d-dimensional prompt vectors."""

    def __init__(self, prompts: Parameter):
        if prompts.data.ndim != 2 or prompts.data.shape[0] < 1:
            raise ConfigurationError(f"prompt bank needs an L x d matrix, got {prompts.data.shape}")
        self.prompts = prompts

    @property
    def length(self) -> int:
        return self.prompts.data.shape[0]

    @property
    def dim(self) -> int:
        return self.prompts.data.shape[1]


def init_prompts(length: int, dim: int, seed: int, dtype=np.float32,
                 name: str = "prm.prompts") -> PromptBank:
    """Seeded truncated-normal bank; every value lies within two sigma."""
    if length < 1 or dim < 1:
        raise ConfigurationError(f"prompt bank needs positive dimensions, got {length}x{dim}")
    rng = np.random.default_rng(seed)
    return PromptBank(Parameter(name, trunc_normal(rng, (length, dim)), dtype=dtype))


class PRM(Module):
    def __init__(self, bank: PromptBank, variant: str, heads: int, ffn_mult: int,
                 rng: np.random.Generator, dtype=np.float32, name: str = "prm"):
        if variant not in VARIANTS:
            raise ConfigurationError(f"unknown calibration variant {variant!r}; pick one of {VARIANTS}")
        self.bank = bank
        self.variant = variant
        d = bank.dim
        if variant == "attn":
            self.ca = MultiHeadAttention(f"{name}.ca", d, heads, rng, dtype)
        self.sa = MultiHeadAttention(f"{name}.sa", d, heads, rng, dtype)
        self.ffn = FeedForward(f"{name}.ffn", d, ffn_mult, rng, dtype)

    def __call__(self, x_inv: Tensor) -> Tensor:
        if x_inv.ndim != 2 or x_inv.shape[1] != self.bank.dim:
            raise DimensionError(
                f"expected x_inv of shape B x {self.bank.dim}, got {x_inv.shape}")
        b = x_inv.shape[0]
        d = self.bank.dim
        length = self.bank.length
        prompts = expand_rows(reshape(self.bank.prompts.tensor, (1, length, d)), b)
        x_row = reshape(x_inv, (b, 1, d))
        if self.variant == "cat":  # prompts attend over [prompts; x_inv]; no x_inv row is kept
            h = self.sa(prompts, concat([prompts, x_row], axis=1))
        else:
            h = self.ca(prompts, x_row) if self.variant == "attn" else add(prompts, x_row)
            h = self.sa(h, h)
        return add(self.ffn(h), prompts)
