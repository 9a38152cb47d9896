"""The assembled retrieval model: encoder, prompt calibration, local
refinement, and classifier heads, with switchable component ablations.

Ablations build only the components they use, so the parameter registry
always matches what the optimizer updates:
  none     full pipeline
  no-prm   static prompts feed refinement directly (no calibration block)
  no-vdt   encoder without the view token; no view or orthogonality terms
  no-lfrm  global branch only, prompts and refinement dropped
  baseline plain encoder, global branch only (no VDT, PRM, or refinement)
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from .encoder import Encoder, EncoderConfig, EncoderOutput
from .errors import ConfigurationError
from .lfrm import LFRM
from .losses import (
    Heads, LossParts, LossWeights, id_ce_loss, orthogonality_loss,
    soft_triplet_loss, total_loss, view_ce_loss,
)
from .nn import Module, expand_rows, trunc_normal
from .prm import PRM
from .tensor import Parameter, Tensor, reshape

ABLATIONS = ("none", "no-prm", "no-vdt", "no-lfrm", "baseline")


@dataclass(frozen=True)
class ModelConfig:
    encoder: EncoderConfig = field(default_factory=EncoderConfig)
    num_ids: int = 2
    num_views: int = 2
    prompt_len: int = 64
    prm_variant: str = "attn"
    ablate: str = "none"
    seed: int = 0

    def __post_init__(self):
        if self.ablate not in ABLATIONS:
            raise ConfigurationError(f"unknown ablation {self.ablate!r}; pick one of {ABLATIONS}")
        if self.prompt_len < 1:
            raise ConfigurationError(f"prompt length must be positive, got {self.prompt_len}")
        if self.ablate in ("no-vdt", "baseline") and self.encoder.vdt_enabled:
            object.__setattr__(self, "encoder", replace(self.encoder, vdt_enabled=False))

    @property
    def uses_vdt(self) -> bool:
        return self.encoder.vdt_enabled

    @property
    def uses_lfrm(self) -> bool:
        return self.ablate not in ("no-lfrm", "baseline")

    @property
    def uses_prm(self) -> bool:
        return self.uses_lfrm and self.ablate != "no-prm"


@dataclass
class ModelOutput:
    x_inv: Tensor
    view_feat: Optional[Tensor]
    local_feat: Optional[Tensor]


class SeCapModel(Module):
    def __init__(self, cfg: ModelConfig, dtype=np.float32):
        self.cfg = cfg
        self.dtype = dtype
        d = cfg.encoder.embed_dim
        self.encoder = Encoder(cfg.encoder, np.random.default_rng([cfg.seed, 0]), dtype)
        self.prompts: Optional[Parameter] = None
        self.prm: Optional[PRM] = None
        self.lfrm: Optional[LFRM] = None
        if cfg.uses_lfrm:
            self.prompts = Parameter(
                "prm.prompts", trunc_normal(np.random.default_rng([cfg.seed, 1]), (cfg.prompt_len, d)),
                dtype=dtype)
            if cfg.uses_prm:
                self.prm = PRM(self.prompts, cfg.prm_variant, cfg.encoder.heads,
                               cfg.encoder.ffn_mult, np.random.default_rng([cfg.seed, 2]), dtype)
            self.lfrm = LFRM(d, cfg.encoder.heads, cfg.encoder.ffn_mult,
                             np.random.default_rng([cfg.seed, 3]), dtype)
        self.heads = Heads(d, cfg.num_ids, cfg.num_views,
                           np.random.default_rng([cfg.seed, 4]), dtype,
                           with_local=cfg.uses_lfrm, with_view=cfg.uses_vdt)

    def forward(self, images: np.ndarray) -> ModelOutput:
        enc: EncoderOutput = self.encoder.encode(images)
        local_feat = None
        if self.lfrm is not None:
            b = enc.x_inv.shape[0]
            d = self.cfg.encoder.embed_dim
            prompts = reshape(self.prompts, (1, self.cfg.prompt_len, d))
            p_re = self.prm(enc.x_inv) if self.prm is not None else expand_rows(prompts, b)
            local_feat = self.lfrm(p_re, enc.x_local)
        return ModelOutput(x_inv=enc.x_inv, view_feat=enc.view_feat, local_feat=local_feat)

    def compute_losses(self, images: np.ndarray, id_labels: np.ndarray,
                       view_labels: np.ndarray, weights: LossWeights
                       ) -> tuple[Tensor, LossParts]:
        out = self.forward(images)
        parts = LossParts(
            id_g=id_ce_loss(out.x_inv, id_labels, self.heads.id_global),
            tri_g=soft_triplet_loss(out.x_inv, id_labels),
        )
        if out.local_feat is not None:
            parts.id_l = id_ce_loss(out.local_feat, id_labels, self.heads.id_local)
            parts.tri_l = soft_triplet_loss(out.local_feat, id_labels)
        if out.view_feat is not None:
            parts.view = view_ce_loss(out.view_feat, view_labels, self.heads.view)
            parts.orth = orthogonality_loss(out.x_inv, out.view_feat)
        return total_loss(parts, weights), parts

    def inference_features(self, images: np.ndarray) -> np.ndarray:
        """Concatenated [invariant, refined-local] rows; no augmentation, no grads."""
        out = self.forward(images)
        if out.local_feat is None:
            return out.x_inv.data.copy()
        return np.concatenate([out.x_inv.data, out.local_feat.data], axis=1)
