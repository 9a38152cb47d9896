"""Prompt re-calibration: adapt L learned d-dimensional prompts to each
image's view-invariant feature.

Three calibration routes exist (attention, addition, concatenation); all
end by re-adding the raw prompts, so a zeroed module passes the prompts
through untouched.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigurationError, DimensionError
from .nn import FeedForward, Module, MultiHeadAttention, expand_rows
from .tensor import Parameter, Tensor, add, concat, narrow, reshape

VARIANTS = ("attn", "add", "cat")


class PRM(Module):
    def __init__(self, prompts: Parameter, variant: str, heads: int, ffn_mult: int,
                 rng: np.random.Generator, name: str = "prm"):
        if prompts.ndim != 2 or prompts.shape[0] < 1:
            raise ConfigurationError(f"prompts must be an L x d matrix, got {prompts.shape}")
        if variant not in VARIANTS:
            raise ConfigurationError(f"unknown calibration variant {variant!r}; pick one of {VARIANTS}")
        self.prompts = prompts
        self.variant = variant
        d = prompts.shape[1]
        if variant == "attn":
            self.ca = MultiHeadAttention(f"{name}.ca", d, heads, rng)
        self.sa = MultiHeadAttention(f"{name}.sa", d, heads, rng)
        self.ffn = FeedForward(f"{name}.ffn", d, ffn_mult, rng)

    def __call__(self, x_inv: Tensor) -> Tensor:
        length, d = self.prompts.shape
        if x_inv.ndim != 2 or x_inv.shape[1] != d:
            raise DimensionError(f"expected x_inv of shape B x {d}, got {x_inv.shape}")
        b = x_inv.shape[0]
        bank = reshape(self.prompts, (1, length, d))
        x_row = reshape(x_inv, (b, 1, d))
        if self.variant == "attn":
            # ca has one key, so every prompt row gets the same update and sa then
            # sees identical rows: calibrate one row per image, broadcast it to L
            h = self.ca(expand_rows(narrow(bank, 1, 0, 1), b), x_row)
            return add(self.ffn(self.sa(h, h)), bank)
        prompts = expand_rows(bank, b)
        if self.variant == "cat":  # prompts attend over [prompts; x_inv]; no x_inv row is kept
            h = self.sa(prompts, concat([prompts, x_row], axis=1))
        else:
            h = add(prompts, x_row)
            h = self.sa(h, h)
        return add(self.ffn(h), prompts)
