"""Identity, triplet, view, and orthogonality objectives with their
weighted combination.

Global terms score the view-invariant feature, local terms the refined
local feature; the view and orthogonality terms push viewpoint information
out of the invariant half.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Optional

import numpy as np

from .errors import ConfigurationError, ContractError, DimensionError
from .nn import Linear, Module
from .tensor import (
    Tensor, add, clamp_min, linear, log_softmax_lastdim, mul, reshape, softplus, sub,
    swapaxes, tabs, take_pairs, tmean, tsqrt, tsum,
)


@dataclass(frozen=True)
class LossWeights:
    alpha: float = 1.0   # global identity + triplet
    beta: float = 1.0    # local identity + triplet
    lam: float = 0.001   # view classification + orthogonality

    def __post_init__(self):
        if not all(0.0 <= w < np.inf for w in (self.alpha, self.beta, self.lam)):
            raise ConfigurationError(f"loss weights must be finite and non-negative, got {self}")


class Heads(Module):
    """Classifier heads over the learned features."""

    def __init__(self, dim: int, num_ids: int, num_views: int,
                 rng: np.random.Generator, with_local: bool = True, with_view: bool = True):
        if num_ids < 1:
            raise ConfigurationError(f"need at least one identity class, got {num_ids}")
        if with_view and num_views < 2:
            raise ConfigurationError(f"need at least two view classes, got {num_views}")
        self.id_global = Linear("heads.id_global", dim, num_ids, rng)
        self.id_local = Linear("heads.id_local", dim, num_ids, rng) if with_local else None
        self.view = Linear("heads.view", dim, num_views, rng) if with_view else None


def ce_loss(features: Tensor, labels: np.ndarray, classifier: Linear) -> Tensor:
    """Mean softmax cross-entropy of `classifier` on `features`."""
    logits = classifier(features)
    labels = np.asarray(labels)
    n, num_classes = logits.shape
    if labels.shape != (n,):
        raise DimensionError(f"expected {n} labels, got shape {labels.shape}")
    if labels.min() < 0 or labels.max() >= num_classes:
        raise ContractError(
            f"label outside [0, {num_classes}): {labels.min()}..{labels.max()}")
    logp = log_softmax_lastdim(logits)
    picked = take_pairs(logp, np.arange(n), labels.astype(np.intp))
    return mul(tsum(picked), Tensor(np.asarray(-1.0 / n, dtype=logp.dtype)))


def pairwise_euclidean(features: Tensor) -> Tensor:
    """All-pairs Euclidean distances, differentiably.

    The sqrt argument is floored so coincident points cannot produce infinite
    gradients; the diagonal is masked to exactly zero after the sqrt, which
    zeroes its value and its gradient, keeping self-distances honest.
    """
    b = features.shape[0]
    sq = tsum(mul(features, features), axis=1, keepdims=True)          # B x 1
    cross = linear(features, swapaxes(features, 0, 1))                 # B x B
    d2 = add(sub(sq, mul(cross, Tensor(np.asarray(2.0, dtype=features.dtype)))),
             reshape(sq, (1, b)))
    off_diag = Tensor((1.0 - np.eye(b)).astype(features.dtype))
    return mul(tsqrt(clamp_min(d2, 1e-12)), off_diag)


def soft_triplet_loss(features: Tensor, labels: np.ndarray) -> Tensor:
    """Batch-hard mining with the smooth margin ln(1 + exp(d_ap - d_an)).

    Hardest positive is the max distance over same-identity rows (the anchor's
    own zero never wins unless it is the only positive, which keeps batches
    with a lone image of some identity well-defined); hardest negative is the
    min over different-identity rows.
    """
    labels = np.asarray(labels)
    b = features.shape[0]
    if labels.shape != (b,):
        raise DimensionError(f"expected {b} labels, got shape {labels.shape}")
    if np.unique(labels).size < 2:
        raise ContractError("triplet mining needs at least two identities in the batch")

    dist = pairwise_euclidean(features)
    raw = dist.data
    same = labels[:, None] == labels[None, :]
    pos_idx = np.where(same, raw, -np.inf).argmax(axis=1)
    neg_idx = np.where(same, np.inf, raw).argmin(axis=1)
    anchors = np.arange(b)
    d_ap = take_pairs(dist, anchors, pos_idx)
    d_an = take_pairs(dist, anchors, neg_idx)
    return tmean(softplus(sub(d_ap, d_an)))


def orthogonality_loss(x_inv: Tensor, view_feat: Tensor) -> Tensor:
    """Mean over the batch of the L1 overlap between the two features."""
    if x_inv.shape != view_feat.shape:
        raise DimensionError(
            f"feature shapes disagree: {x_inv.shape} vs {view_feat.shape}")
    return tmean(tsum(tabs(mul(x_inv, view_feat)), axis=1))


@dataclass
class LossParts:
    id_g: Tensor
    tri_g: Tensor
    id_l: Optional[Tensor] = None
    tri_l: Optional[Tensor] = None
    view: Optional[Tensor] = None
    orth: Optional[Tensor] = None

    def scalars(self) -> dict[str, float]:
        """Each part's value by field name; an absent part reads 0.0."""
        out = {}
        for f in fields(self):
            part = getattr(self, f.name)
            out[f.name] = float(part.item()) if part is not None else 0.0
        return out


def total_loss(parts: LossParts, w: LossWeights) -> Tensor:
    """alpha*(global id + triplet) + beta*(local) + lambda*(view + orthogonality).

    An ablated branch is absent as a pair and contributes exactly zero.
    """
    total = None
    for first, second, weight in ((parts.id_g, parts.tri_g, w.alpha),
                                  (parts.id_l, parts.tri_l, w.beta),
                                  (parts.view, parts.orth, w.lam)):
        if first is None:
            continue
        term = mul(add(first, second), Tensor(np.asarray(weight, dtype=first.dtype)))
        total = term if total is None else add(total, term)
    if total is None:
        raise ContractError("no loss terms present")
    return total
