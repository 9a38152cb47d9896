"""ViT-style encoder that splits its class token into view-invariant and
view-related parts.

Token layout is [Cls, View, patch tokens...]; after every transformer block
the Cls slot is re-decoupled as Cls <- Cls - View, so the final Cls already
is the view-invariant feature. Built without the view token, the layout
shrinks to [Cls, patches...] and no decoupling happens.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Optional

import numpy as np

from .errors import ConfigurationError, ContractError, DimensionError
from .nn import (
    FeedForward, LayerNorm, Linear, Module, MultiHeadAttention, expand_rows, param,
)
from .tensor import Tensor, add, concat, narrow, record, reshape

DEFAULT_STRIDE = 16
OLP_STRIDE = 12


# the value types each annotated field type takes: a float field takes an int,
# but a bool is refused as a number and anything but a bool as a flag
_FIELD_TYPES = {"int": (int,), "bool": (bool,), "float": (int, float)}


def check_field_types(cfg) -> None:
    """Require each int, bool or float field of a config dataclass to hold a value of that type."""
    for f in fields(cfg):
        value = getattr(cfg, f.name)
        if f.type in _FIELD_TYPES and type(value) not in _FIELD_TYPES[f.type]:
            raise ConfigurationError(f"{f.name} must be of type {f.type}, got {value!r}")


@dataclass(frozen=True)
class EncoderConfig:
    image_h: int = 256
    image_w: int = 128
    patch: int = 16
    embed_dim: int = 768
    depth: int = 12
    heads: int = 12
    ffn_mult: int = 4
    olp_enabled: bool = False

    def __post_init__(self):
        check_field_types(self)
        if self.embed_dim < 1 or self.depth < 1:
            raise ConfigurationError(f"embed_dim and depth must be >= 1, got {self.embed_dim} and {self.depth}")
        if self.heads < 1 or self.ffn_mult < 1:
            raise ConfigurationError(f"heads and ffn_mult must be >= 1, got {self.heads} and {self.ffn_mult}")
        if self.embed_dim % self.heads != 0:
            raise ConfigurationError(
                f"embed_dim {self.embed_dim} not divisible by heads {self.heads}")
        if self.patch < self.stride:  # windows would skip the pixels between them
            raise ConfigurationError(f"patch {self.patch} is smaller than its stride {self.stride}")
        if self.image_h < self.patch or self.image_w < self.patch:
            raise ConfigurationError(
                f"image {self.image_h}x{self.image_w} smaller than one {self.patch}px patch")

    @property
    def stride(self) -> int:
        """Patch stride: overlapping (TransReID's sliding window) with olp_enabled."""
        return OLP_STRIDE if self.olp_enabled else DEFAULT_STRIDE

    @property
    def image_shape(self) -> tuple[int, int, int]:  # (C, H, W) of every image the model takes
        return 3, self.image_h, self.image_w

    @property
    def grid(self) -> tuple[int, int]:
        nh = (self.image_h - self.patch) // self.stride + 1
        nw = (self.image_w - self.patch) // self.stride + 1
        return nh, nw

    @property
    def num_patches(self) -> int:
        nh, nw = self.grid
        return nh * nw


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
    windows = np.lib.stride_tricks.sliding_window_view(
        images, (cfg.patch, cfg.patch), axis=(2, 3))[:, :, ::cfg.stride, ::cfg.stride]
    nh, nw = cfg.grid
    # (B, C, nh, nw, ph, pw) -> (B, nh, nw, C, ph, pw) -> (B, P, C*ph*pw)
    patches = windows.transpose(0, 2, 3, 1, 4, 5).reshape(b, nh * nw, c * cfg.patch * cfg.patch)
    return np.ascontiguousarray(patches)


class EncoderBlock(Module):
    """Pre-norm transformer block: x + MHSA(LN(x)), then + FFN(LN(.))."""

    def __init__(self, name: str, cfg: EncoderConfig, source):
        self.norm1 = LayerNorm(f"{name}.norm1", cfg.embed_dim, source)
        self.attn = MultiHeadAttention(f"{name}.attn", cfg.embed_dim, cfg.heads, source)
        self.norm2 = LayerNorm(f"{name}.norm2", cfg.embed_dim, source)
        self.ffn = FeedForward(f"{name}.ffn", cfg.embed_dim, cfg.ffn_mult, source)

    def __call__(self, x: Tensor) -> Tensor:
        h = self.norm1(x)
        x = add(x, self.attn(h, h))
        return add(x, self.ffn(self.norm2(x)))


def decouple_step(x: Tensor) -> Tensor:
    """Cls <- Cls - View as one tape entry; the view and patch tokens pass through unchanged."""
    if x.ndim != 3 or x.shape[1] < 2:
        raise ContractError(f"decoupling needs at least [Cls, View] tokens, got shape {x.shape}")
    out = x.data.copy()
    out[:, 0] -= x.data[:, 1]

    def rule(g):
        gx = g.copy()
        gx[:, 1] -= g[:, 0]
        return (gx,)

    return record(out, (x,), rule)


class Encoder(Module):
    def __init__(self, cfg: EncoderConfig, source, with_view: bool = True):
        self.cfg = cfg
        self.num_special = 2 if with_view else 1
        d = cfg.embed_dim
        self.proj = Linear("encoder.proj", 3 * cfg.patch * cfg.patch, d, source)
        self.cls_token = param(source, "encoder.cls", (1, 1, d))
        self.view_token = param(source, "encoder.view", (1, 1, d)) if with_view else None
        self.pos = param(source, "encoder.pos", (cfg.num_patches + self.num_special, d))
        self.blocks = [EncoderBlock(f"encoder.blocks.{i}", cfg, source) for i in range(cfg.depth)]

    def embed(self, tokens: np.ndarray) -> Tensor:
        """Project raster patches and prepend the learned special tokens."""
        b = tokens.shape[0]
        patch_emb = self.proj(Tensor(tokens.astype(self.proj.weight.dtype, copy=False)))
        parts = [expand_rows(self.cls_token, b)]
        if self.view_token is not None:
            parts.append(expand_rows(self.view_token, b))
        parts.append(patch_emb)
        return add(concat(parts, axis=1), self.pos)

    def encode(self, images: np.ndarray) -> EncoderOutput:
        x = self.embed(tokenize(images, self.cfg))
        for block in self.blocks:
            x = block(x)
            if self.view_token is not None:
                x = decouple_step(x)
        d = self.cfg.embed_dim
        b = x.shape[0]
        x_inv = reshape(narrow(x, 1, 0, 1), (b, d))
        view_feat = reshape(narrow(x, 1, 1, 1), (b, d)) if self.view_token is not None else None
        x_local = narrow(x, 1, self.num_special, self.cfg.num_patches)
        return EncoderOutput(x_inv=x_inv, view_feat=view_feat, x_local=x_local)
