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

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .encoder import Encoder, EncoderConfig, EncoderOutput, check_field_types
from .errors import ConfigurationError
from .lfrm import LFRM
from .losses import (
    Heads, LossParts, LossWeights, ce_loss, orthogonality_loss, soft_triplet_loss, total_loss,
)
from .nn import Module, expand_rows, param
from .prm import ATTN_DROPPED_PARAMETERS, PRM, VARIANTS
from .tensor import Tensor, reshape

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
        check_field_types(self)
        if self.ablate not in ABLATIONS:
            raise ConfigurationError(f"unknown ablation {self.ablate!r}; pick one of {ABLATIONS}")
        if self.prm_variant not in VARIANTS:  # under every ablation, even those that build no PRM
            raise ConfigurationError(f"unknown calibration variant {self.prm_variant!r}; pick one of {VARIANTS}")
        if self.num_ids < 1:
            raise ConfigurationError(f"need at least one identity class, got {self.num_ids}")
        if self.uses_vdt and self.num_views < 2:
            raise ConfigurationError(f"the view head needs at least two view classes, got {self.num_views}")
        if self.prompt_len < 1:
            raise ConfigurationError(f"prompt length must be positive, got {self.prompt_len}")
        if self.seed < 0:  # numpy seeds are non-negative
            raise ConfigurationError(f"seed must be >= 0, got {self.seed}")

    @property
    def uses_vdt(self) -> bool:
        return self.ablate not in ("no-vdt", "baseline")

    @property
    def uses_lfrm(self) -> bool:
        return self.ablate not in ("no-lfrm", "baseline")

    @property
    def uses_prm(self) -> bool:
        return self.uses_lfrm and self.ablate != "no-prm"

    @property
    def dropped_parameters(self) -> tuple[str, ...]:
        """Names the layers ask a source for and the model drops; a table or noise source skips them."""
        return ATTN_DROPPED_PARAMETERS if self.uses_prm and self.prm_variant == "attn" else ()


@dataclass
class ModelOutput:
    x_inv: Tensor
    view_feat: Optional[Tensor]
    local_feat: Optional[Tensor]


class SeCapModel(Module):
    def __init__(self, cfg: ModelConfig, source=None):
        """Build `cfg`'s layers: component i draws from stream [seed, i], or all take from `source`
        (a checkpoint's TableSource, or grad-check's NoiseSource)."""
        self.cfg = cfg
        e, d = cfg.encoder, cfg.encoder.embed_dim
        sources = [np.random.default_rng([cfg.seed, i]) for i in range(5)] if source is None else [source] * 5
        self.encoder = Encoder(e, sources[0], with_view=cfg.uses_vdt)
        self.prompts = param(sources[1], "prm.prompts", (cfg.prompt_len, d)) if cfg.uses_lfrm else None
        self.prm = PRM(self.prompts, cfg.prm_variant, d, e.heads, e.ffn_mult, sources[2]) if cfg.uses_prm else None
        self.lfrm = LFRM(d, e.heads, e.ffn_mult, sources[3]) if cfg.uses_lfrm else None
        self.heads = Heads(d, cfg.num_ids, cfg.num_views, sources[4], with_local=cfg.uses_lfrm, with_view=cfg.uses_vdt)

    def forward(self, images: np.ndarray) -> ModelOutput:
        enc: EncoderOutput = self.encoder.encode(images)
        local_feat = None
        if self.lfrm is not None:
            if self.prm is not None:
                p_re = self.prm(enc.x_inv)
            else:
                prompts = reshape(self.prompts, (1, self.cfg.prompt_len, self.cfg.encoder.embed_dim))
                p_re = expand_rows(prompts, enc.x_inv.shape[0])
            local_feat = self.lfrm(p_re, enc.x_local)
        return ModelOutput(x_inv=enc.x_inv, view_feat=enc.view_feat, local_feat=local_feat)

    def compute_losses(self, images: np.ndarray, id_labels: np.ndarray,
                       view_labels: np.ndarray, weights: LossWeights
                       ) -> tuple[Tensor, LossParts]:
        out = self.forward(images)
        parts = LossParts(
            id_g=ce_loss(out.x_inv, id_labels, self.heads.id_global),
            tri_g=soft_triplet_loss(out.x_inv, id_labels),
        )
        if out.local_feat is not None:
            parts.id_l = ce_loss(out.local_feat, id_labels, self.heads.id_local)
            parts.tri_l = soft_triplet_loss(out.local_feat, id_labels)
        if out.view_feat is not None:
            parts.view = ce_loss(out.view_feat, view_labels, self.heads.view)
            parts.orth = orthogonality_loss(out.x_inv, out.view_feat)
        return total_loss(parts, weights), parts

    def inference_features(self, images: np.ndarray) -> np.ndarray:
        """Concatenated [invariant, refined-local] rows; no augmentation, no grads."""
        out = self.forward(images)
        if out.local_feat is None:
            return out.x_inv.data.copy()
        return np.concatenate([out.x_inv.data, out.local_feat.data], axis=1)
