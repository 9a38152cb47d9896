"""Local feature refinement: two two-way attention blocks let calibrated
prompts and patch tokens update each other, then a fusion stage reads one
refined local feature out through a learnable output token.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionError
from .nn import FeedForward, Module, MultiHeadAttention, expand_rows, trunc_normal
from .tensor import Parameter, Tensor, add, concat, narrow, reshape

NUM_TWO_WAY_BLOCKS = 2


class TwoWayBlock(Module):
    """Prompt-to-image then image-to-prompt attention, residual on each stream."""

    def __init__(self, name: str, dim: int, heads: int, ffn_mult: int,
                 rng: np.random.Generator, dtype=np.float32):
        self.sa = MultiHeadAttention(f"{name}.sa", dim, heads, rng, dtype)
        self.ca_p2i = MultiHeadAttention(f"{name}.ca_p2i", dim, heads, rng, dtype)
        self.ffn_p = FeedForward(f"{name}.ffn_p", dim, ffn_mult, rng, dtype)
        self.ca_i2p = MultiHeadAttention(f"{name}.ca_i2p", dim, heads, rng, dtype)

    def __call__(self, f_p: Tensor, f_local: Tensor) -> tuple[Tensor, Tensor]:
        if f_p.shape[-1] != f_local.shape[-1]:
            raise DimensionError(
                f"prompt and local feature dims disagree: {f_p.shape} vs {f_local.shape}")
        h = self.sa(f_p, f_p)
        h = self.ca_p2i(h, f_local)
        f_p_out = add(self.ffn_p(h), f_p)
        f_local_out = add(self.ca_i2p(f_local, f_p_out), f_local)
        return f_p_out, f_local_out


class Fusion(Module):
    """Decode one vector from [out_token; prompts] attending over the image
    tokens. Deliberately residual-free: a zeroed final layer yields zero."""

    def __init__(self, name: str, dim: int, heads: int, ffn_mult: int,
                 rng: np.random.Generator, dtype=np.float32):
        self.out_token = Parameter(f"{name}.out_token", trunc_normal(rng, (1, 1, dim)), dtype=dtype)
        self.ca = MultiHeadAttention(f"{name}.ca", dim, heads, rng, dtype)
        self.sa = MultiHeadAttention(f"{name}.sa", dim, heads, rng, dtype)
        self.ffn = FeedForward(f"{name}.ffn", dim, ffn_mult, rng, dtype)

    def __call__(self, f_p: Tensor, f_i: Tensor) -> Tensor:
        b, _, d = f_p.shape
        seq = concat([expand_rows(self.out_token, b), f_p], axis=1)
        h = self.ca(seq, f_i)
        # only the output token's row is read out, so it alone queries [out_token; prompts]
        h = self.sa(narrow(h, 1, 0, 1), h)
        return reshape(self.ffn(h), (b, d))

    def zero_final_ffn(self) -> None:
        self.ffn.fc2.zero_()


class LFRM(Module):
    def __init__(self, dim: int, heads: int, ffn_mult: int,
                 rng: np.random.Generator, dtype=np.float32, name: str = "lfrm"):
        self.blocks = [TwoWayBlock(f"{name}.two_way.{i}", dim, heads, ffn_mult, rng, dtype)
                       for i in range(NUM_TWO_WAY_BLOCKS)]
        self.fusion = Fusion(f"{name}.fusion", dim, heads, ffn_mult, rng, dtype)

    def __call__(self, p_re: Tensor, x_local: Tensor) -> Tensor:
        f_p, f_i = p_re, x_local
        for block in self.blocks:
            f_p, f_i = block(f_p, f_i)
        return self.fusion(f_p, f_i)
