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

from .encoder import check_field_types
from .errors import ConfigurationError, ContractError, DimensionError
from .nn import Linear, Module
from .tensor import Tensor, add, mul, record


@dataclass(frozen=True)
class LossWeights:
    alpha: float = 1.0   # global identity + triplet
    beta: float = 1.0    # local identity + triplet
    lam: float = 0.001   # view classification + orthogonality

    def __post_init__(self):
        check_field_types(self)
        if not all(0.0 <= w < np.inf for w in (self.alpha, self.beta, self.lam)):
            raise ConfigurationError(f"loss weights must be finite and non-negative, got {self}")


class Heads(Module):
    """Classifier heads over the learned features."""

    def __init__(self, dim: int, num_ids: int, num_views: int, source,
                 with_local: bool = True, with_view: bool = True):
        self.id_global = Linear("heads.id_global", dim, num_ids, source)
        self.id_local = Linear("heads.id_local", dim, num_ids, source) if with_local else None
        self.view = Linear("heads.view", dim, num_views, source) if with_view else None


def ce_loss(features: Tensor, labels: np.ndarray, classifier: Linear) -> Tensor:
    """Mean softmax cross-entropy of `classifier` on `features`, as one tape entry."""
    logits = classifier(features)
    labels = np.asarray(labels)
    n, num_classes = logits.shape
    if labels.shape != (n,):
        raise DimensionError(f"expected {n} labels, got shape {labels.shape}")
    if labels.min() < 0 or labels.max() >= num_classes:
        raise ContractError(
            f"label outside [0, {num_classes}): {labels.min()}..{labels.max()}")
    shifted = logits.data - logits.data.max(axis=-1, keepdims=True)
    logp = shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    rows, labels = np.arange(n), labels.astype(np.intp)
    scale = np.asarray(-1.0 / n, dtype=logp.dtype)

    def rule(g):
        g_logp = np.zeros_like(logp)
        g_logp[rows, labels] += g * scale
        return (g_logp - np.exp(logp) * g_logp.sum(axis=-1, keepdims=True),)

    return record(logp[rows, labels].sum() * scale, (logits,), rule)


def pairwise_euclidean(features: np.ndarray):
    """All-pairs Euclidean distances between the rows of `features`, and their
    pullback from d loss / d distances to d loss / d features.

    Squared distances come from the Gram matrix, |a|^2 - 2 a.b + |b|^2, floored
    at 1e-12 before the sqrt so coincident points keep a finite gradient; the
    diagonal is masked to exactly zero after the sqrt.
    """
    b = features.shape[0]
    ft = np.ascontiguousarray(features.T)  # contiguous: BLAS picks its kernel, so its rounding, by layout
    sq = (features * features).sum(axis=1, keepdims=True)
    two = np.asarray(2.0, dtype=features.dtype)
    d2 = sq - (features @ ft) * two + sq.reshape(1, b)
    floored = d2 > 1e-12
    root = np.sqrt(np.maximum(d2, 1e-12))
    off_diag = (1.0 - np.eye(b)).astype(features.dtype)

    def pullback(g):  # Gram rows, Gram columns, then the norms' term twice: summed in that order
        g_d2 = g * off_diag * 0.5 / root * floored
        g_sq = g_d2.sum(axis=0, keepdims=True).reshape(b, 1) + g_d2.sum(axis=1, keepdims=True)
        g_gram = -g_d2 * two
        g_norms = g_sq * features
        return g_gram @ ft.T, (features.T @ g_gram).T, g_norms, g_norms

    return root * off_diag, pullback


def soft_triplet_loss(features: Tensor, labels: np.ndarray) -> Tensor:
    """Batch-hard mining with the smooth margin ln(1 + exp(d_ap - d_an)), as one tape entry.

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

    dist, pullback = pairwise_euclidean(features.data)
    same = labels[:, None] == labels[None, :]
    pos_idx = np.where(same, dist, -np.inf).argmax(axis=1)
    neg_idx = np.where(same, np.inf, dist).argmin(axis=1)
    anchors = np.arange(b)
    margin = dist[anchors, pos_idx] - dist[anchors, neg_idx]
    e = np.exp(-np.abs(margin))  # in (0, 1]: no overflow for any margin
    softplus = np.maximum(margin, 0.0) + np.log1p(e)
    inv_b = np.asarray(1.0 / b, dtype=softplus.dtype)

    def rule(g):
        g_margin = g * inv_b * np.where(margin >= 0, 1.0 / (1.0 + e), e / (1.0 + e))  # sigmoid
        g_dist = np.zeros_like(dist)
        g_dist[anchors, pos_idx] += g_margin
        g_dist[anchors, neg_idx] -= g_margin
        return pullback(g_dist)

    return record(softplus.sum() * inv_b, (features,) * 4, rule)


def orthogonality_loss(x_inv: Tensor, view_feat: Tensor) -> Tensor:
    """Mean over the batch of the L1 overlap between the two features, as one tape entry."""
    if x_inv.shape != view_feat.shape:
        raise DimensionError(
            f"feature shapes disagree: {x_inv.shape} vs {view_feat.shape}")
    prod = x_inv.data * view_feat.data
    inv_b = np.asarray(1.0 / x_inv.shape[0], dtype=prod.dtype)

    def rule(g):  # broadcast, times sign, times the other input: the composed chain's order
        g_prod = np.broadcast_to(g * inv_b, prod.shape) * np.sign(prod)
        return (g_prod * view_feat.data if x_inv.requires_grad else None,
                g_prod * x_inv.data if view_feat.requires_grad else None)

    return record(np.abs(prod).sum(axis=1).sum() * inv_b, (x_inv, view_feat), rule)


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
