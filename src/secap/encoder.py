"""ViT-style encoder that splits its class token into view-invariant and
view-related parts.

Token layout is [Cls, View, patch tokens...]; after every transformer block
the Cls slot is re-decoupled as Cls <- Cls - View, so the final Cls already
is the view-invariant feature. With the view token disabled the layout
shrinks to [Cls, patches...] and no decoupling happens.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ConfigurationError, ContractError, DimensionError
from .nn import (
    FeedForward, LayerNorm, Linear, Module, MultiHeadAttention, expand_rows, trunc_normal,
)
from .tensor import Parameter, Tensor, add, concat, narrow, reshape, sub

DEFAULT_STRIDE = 16
OLP_STRIDE = 12


@dataclass(frozen=True)
class EncoderConfig:
    image_h: int = 256
    image_w: int = 128
    patch: int = 16
    stride: Optional[int] = None  # None resolves to 16, or 12 with overlap on
    embed_dim: int = 768
    depth: int = 12
    heads: int = 12
    ffn_mult: int = 4
    olp_enabled: bool = False
    vdt_enabled: bool = True

    def __post_init__(self):
        if self.stride is None:
            object.__setattr__(self, "stride", OLP_STRIDE if self.olp_enabled else DEFAULT_STRIDE)
        if self.heads < 1 or self.ffn_mult < 1:
            raise ConfigurationError(f"heads and ffn_mult must be >= 1, got {self.heads} and {self.ffn_mult}")
        if self.embed_dim % self.heads != 0:
            raise ConfigurationError(
                f"embed_dim {self.embed_dim} not divisible by heads {self.heads}")
        if self.stride < 1 or self.patch < 1:
            raise ConfigurationError("patch and stride must be positive")
        if self.image_h < self.patch or self.image_w < self.patch:
            raise ConfigurationError(
                f"image {self.image_h}x{self.image_w} smaller than one {self.patch}px patch")

    @property
    def grid(self) -> tuple[int, int]:
        nh = (self.image_h - self.patch) // self.stride + 1
        nw = (self.image_w - self.patch) // self.stride + 1
        return nh, nw

    @property
    def num_patches(self) -> int:
        nh, nw = self.grid
        return nh * nw

    @property
    def num_special(self) -> int:
        return 2 if self.vdt_enabled else 1


@dataclass
class EncoderOutput:
    x_inv: Tensor                  # B x d view-invariant feature
    view_feat: Optional[Tensor]    # B x d view-related feature; None without VDT
    x_local: Tensor                # B x P x d patch tokens


def tokenize(images: np.ndarray, cfg: EncoderConfig) -> np.ndarray:
    """Cut B x C x H x W images into row-major raster patches, flattened per patch."""
    images = np.asarray(images)
    if images.ndim != 4:
        raise DimensionError(f"expected B x C x H x W images, got shape {images.shape}")
    b, c, h, w = images.shape
    if h != cfg.image_h or w != cfg.image_w:
        raise DimensionError(
            f"image size {h}x{w} does not match configured {cfg.image_h}x{cfg.image_w}")
    if h < cfg.patch or w < cfg.patch:
        raise DimensionError(f"image {h}x{w} smaller than one {cfg.patch}px patch")
    windows = np.lib.stride_tricks.sliding_window_view(
        images, (cfg.patch, cfg.patch), axis=(2, 3))[:, :, ::cfg.stride, ::cfg.stride]
    nh, nw = cfg.grid
    # (B, C, nh, nw, ph, pw) -> (B, nh, nw, C, ph, pw) -> (B, P, C*ph*pw)
    patches = windows.transpose(0, 2, 3, 1, 4, 5).reshape(b, nh * nw, c * cfg.patch * cfg.patch)
    return np.ascontiguousarray(patches)


class EncoderBlock(Module):
    """Pre-norm transformer block: x + MHSA(LN(x)), then + FFN(LN(.))."""

    def __init__(self, name: str, cfg: EncoderConfig, rng: np.random.Generator, dtype):
        self.norm1 = LayerNorm(f"{name}.norm1", cfg.embed_dim, dtype)
        self.attn = MultiHeadAttention(f"{name}.attn", cfg.embed_dim, cfg.heads, rng, dtype)
        self.norm2 = LayerNorm(f"{name}.norm2", cfg.embed_dim, dtype)
        self.ffn = FeedForward(f"{name}.ffn", cfg.embed_dim, cfg.ffn_mult, rng, dtype)

    def __call__(self, x: Tensor) -> Tensor:
        h = self.norm1(x)
        x = add(x, self.attn(h, h))
        return add(x, self.ffn(self.norm2(x)))


def decouple_step(x: Tensor) -> Tensor:
    """Cls <- Cls - View; the view and patch tokens pass through unchanged."""
    if x.ndim != 3 or x.shape[1] < 2:
        raise ContractError(f"decoupling needs at least [Cls, View] tokens, got shape {x.shape}")
    cls_tok = narrow(x, 1, 0, 1)
    view_tok = narrow(x, 1, 1, 1)
    rest = narrow(x, 1, 2, x.shape[1] - 2)
    return concat([sub(cls_tok, view_tok), view_tok, rest], axis=1)


class Encoder(Module):
    def __init__(self, cfg: EncoderConfig, rng: np.random.Generator, dtype=np.float32):
        self.cfg = cfg
        self.dtype = dtype
        d = cfg.embed_dim
        patch_dim = 3 * cfg.patch * cfg.patch
        self.proj = Linear("encoder.proj", patch_dim, d, rng, dtype)
        self.cls_token = Parameter("encoder.cls", trunc_normal(rng, (1, 1, d)), dtype=dtype)
        self.view_token = (Parameter("encoder.view", trunc_normal(rng, (1, 1, d)), dtype=dtype)
                           if cfg.vdt_enabled else None)
        self.pos = Parameter(
            "encoder.pos", trunc_normal(rng, (cfg.num_patches + cfg.num_special, d)), dtype=dtype)
        self.blocks = [EncoderBlock(f"encoder.blocks.{i}", cfg, rng, dtype)
                       for i in range(cfg.depth)]

    def embed(self, tokens: np.ndarray) -> Tensor:
        """Project raster patches and prepend the learned special tokens."""
        b, p, _ = tokens.shape
        if p + self.cfg.num_special != self.pos.data.shape[0]:
            raise ConfigurationError(
                f"{p} patch tokens do not fit a positional table of "
                f"{self.pos.data.shape[0]} rows; re-derive positions for this stride")
        patch_emb = self.proj(Tensor(tokens.astype(self.dtype, copy=False)))
        parts = [expand_rows(self.cls_token, b)]
        if self.view_token is not None:
            parts.append(expand_rows(self.view_token, b))
        parts.append(patch_emb)
        return add(concat(parts, axis=1), self.pos)

    def encode(self, images: np.ndarray) -> EncoderOutput:
        x = self.embed(tokenize(images, self.cfg))
        for block in self.blocks:
            x = block(x)
            if self.cfg.vdt_enabled:
                x = decouple_step(x)
        d = self.cfg.embed_dim
        b = x.shape[0]
        x_inv = reshape(narrow(x, 1, 0, 1), (b, d))
        if self.cfg.vdt_enabled:
            view_feat = reshape(narrow(x, 1, 1, 1), (b, d))
        else:
            view_feat = None
        x_local = narrow(x, 1, self.cfg.num_special, self.cfg.num_patches)
        return EncoderOutput(x_inv=x_inv, view_feat=view_feat, x_local=x_local)
