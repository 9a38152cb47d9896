import math

import numpy as np
import pytest

from secap.errors import ConfigurationError, ContractError, DimensionError
from secap.losses import (
    Heads, LossParts, LossWeights, ce_loss, orthogonality_loss,
    pairwise_euclidean, soft_triplet_loss, total_loss,
)
from secap.nn import Linear
from secap.tensor import Parameter, Tensor, backward, mul, recording, tsum


def zero_classifier(d, classes, rng):
    clf = Linear("clf", d, classes, rng).astype(np.float64)
    clf.zero_()
    return clf


def logit_classifier(log_probs, rng):
    """Identity-consuming classifier whose logits are fixed per class."""
    d = 1
    clf = Linear("clf", d, len(log_probs), rng).astype(np.float64)
    clf.weight.assign(np.zeros((d, len(log_probs))))
    clf.bias.assign(np.asarray(log_probs, dtype=np.float64))
    return clf


def brute_force_soft_triplet(features: np.ndarray, labels: np.ndarray) -> float:
    """Independent enumeration: per anchor, scan every positive and negative."""
    n = len(labels)
    total = 0.0
    for i in range(n):
        d_ap = max(math.dist(features[i], features[j])
                   for j in range(n) if labels[j] == labels[i])
        d_an = min(math.dist(features[i], features[j])
                   for j in range(n) if labels[j] != labels[i])
        total += math.log1p(math.exp(d_ap - d_an))
    return total / n


class TestIdentityCE:
    def test_uniform_two_classes(self, rng):
        feats = Tensor(rng.standard_normal((4, 8)))
        loss = ce_loss(feats, np.array([0, 1, 0, 1]), zero_classifier(8, 2, rng))
        assert abs(loss.item() - math.log(2)) < 1e-6

    def test_confident_correct_prediction(self, rng):
        clf = logit_classifier([1000.0, 0.0], rng)
        feats = Tensor(np.ones((3, 1)))
        loss = ce_loss(feats, np.zeros(3, dtype=int), clf)
        assert loss.item() < 1e-6

    def test_hand_probabilities(self, rng):
        clf = logit_classifier(np.log([0.25, 0.75]), rng)
        loss = ce_loss(Tensor(np.ones((1, 1))), np.array([1]), clf)
        assert abs(loss.item() - (-math.log(0.75))) < 1e-6

    def test_label_out_of_range(self, rng):
        with pytest.raises(ContractError):
            ce_loss(Tensor(np.ones((1, 4))), np.array([5]), zero_classifier(4, 2, rng))


class TestViewCE:
    def test_uniform_two_views(self, rng):
        loss = ce_loss(Tensor(np.ones((2, 4))), np.array([0, 1]),
                       zero_classifier(4, 2, rng))
        assert abs(loss.item() - math.log(2)) < 1e-6

    def test_uniform_three_views(self, rng):
        loss = ce_loss(Tensor(np.ones((3, 4))), np.array([0, 1, 2]),
                       zero_classifier(4, 3, rng))
        assert abs(loss.item() - math.log(3)) < 1e-6

    def test_perfect_prediction(self, rng):
        clf = logit_classifier([0.0, 1000.0], rng)
        loss = ce_loss(Tensor(np.ones((2, 1))), np.array([1, 1]), clf)
        assert loss.item() < 1e-6


class TestSoftTriplet:
    def test_zero_margin_batch(self):
        feats = Tensor(np.ones((4, 3), dtype=np.float64))
        loss = soft_triplet_loss(feats, np.array([0, 0, 1, 1]))
        assert abs(loss.item() - math.log(2)) < 1e-9

    def test_well_separated_batch(self):
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 11.0], [1.0, 11.0]])
        loss = soft_triplet_loss(Tensor(pts), np.array([0, 0, 1, 1]))
        assert abs(loss.item() - math.log1p(math.exp(-10.0))) < 1e-9

    def test_hand_batch_matches_enumeration(self):
        pts = np.array([[0.0, 0.0], [3.0, 4.0], [1.0, 1.0], [-2.0, 5.0]])
        labels = np.array([0, 0, 1, 1])
        loss = soft_triplet_loss(Tensor(pts), labels)
        assert abs(loss.item() - brute_force_soft_triplet(pts, labels)) < 1e-10

    def test_random_micro_batches_match_enumeration(self, rng):
        for _ in range(100):
            n = int(rng.integers(2, 9))
            labels = rng.integers(0, 3, n)
            if np.unique(labels).size < 2:
                continue
            pts = rng.standard_normal((n, 4))
            loss = soft_triplet_loss(Tensor(pts), labels)
            assert abs(loss.item() - brute_force_soft_triplet(pts, labels)) < 1e-10

    def test_lone_image_identity_is_well_defined(self):
        pts = np.array([[0.0], [5.0], [6.0]])
        labels = np.array([0, 1, 1])
        # anchor 0 has no other positive; its hardest positive distance is 0
        expected = brute_force_soft_triplet(pts, labels)
        loss = soft_triplet_loss(Tensor(pts), labels)
        assert abs(loss.item() - expected) < 1e-10

    def test_single_identity_rejected(self):
        with pytest.raises(ContractError):
            soft_triplet_loss(Tensor(np.zeros((4, 2))), np.array([3, 3, 3, 3]))

    def test_gradient_flows_through_mined_pairs(self):
        pts = Tensor(np.array([[0.0, 0.0], [3.0, 4.0], [1.0, 1.0], [-2.0, 5.0]]),
                     requires_grad=True)
        with recording():
            backward(soft_triplet_loss(pts, np.array([0, 0, 1, 1])))
        assert pts.grad is not None and np.abs(pts.grad).max() > 0

    def test_pairwise_distances_match_scipy_style_loops(self, rng):
        pts = rng.standard_normal((5, 3))
        dist = pairwise_euclidean(Tensor(pts)).data
        for i in range(5):
            for j in range(5):
                assert abs(dist[i, j] - math.dist(pts[i], pts[j])) < 1e-6

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_diagonal_is_exactly_zero_in_value_and_gradient(self, dtype):
        # norms near 3e4 and two pairs of duplicate rows: |a|^2 - 2 a.a + |a|^2 rounds
        # off zero on the diagonal, so only the mask after the sqrt zeroes it
        pts = (np.random.default_rng(3).standard_normal((6, 8)) * 1e4).astype(dtype)
        pts[1], pts[4] = pts[0], pts[2]
        sq = (pts * pts).sum(axis=1)
        assert (np.diag(sq[:, None] - 2 * (pts @ pts.T) + sq[None, :]) > 1e-12).any()
        x = Tensor(pts, requires_grad=True)
        with recording():
            dist = pairwise_euclidean(x)
            assert np.all(np.diag(dist.data) == 0.0)
            backward(tsum(mul(dist, Tensor(np.eye(6, dtype=dtype)))))
        assert np.all(x.grad == 0.0)
        x.zero_grad()
        with recording():
            backward(tsum(pairwise_euclidean(x)))
        assert np.isfinite(x.grad).all() and np.abs(x.grad).max() > 0


class TestOrthogonality:
    def test_zero_invariant_feature(self):
        loss = orthogonality_loss(Tensor(np.zeros((2, 3))), Tensor(np.ones((2, 3))))
        assert loss.item() == 0.0

    def test_hand_values(self):
        loss = orthogonality_loss(Tensor(np.array([[1.0, 2.0]])),
                                  Tensor(np.array([[3.0, -4.0]])))
        assert loss.item() == 11.0

    def test_all_ones(self):
        loss = orthogonality_loss(Tensor(np.ones((1, 4))), Tensor(np.ones((1, 4))))
        assert loss.item() == 4.0

    def test_symmetry(self, rng):
        a = Tensor(rng.standard_normal((3, 5)))
        b = Tensor(rng.standard_normal((3, 5)))
        assert orthogonality_loss(a, b).item() == orthogonality_loss(b, a).item()

    def test_absolute_homogeneity(self, rng):
        a = rng.standard_normal((3, 5))
        b = rng.standard_normal((3, 5))
        base = orthogonality_loss(Tensor(a), Tensor(b)).item()
        scaled = orthogonality_loss(Tensor(-2.5 * a), Tensor(b)).item()
        assert abs(scaled - 2.5 * base) < 1e-12

    def test_shape_mismatch(self):
        with pytest.raises(DimensionError):
            orthogonality_loss(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 4))))


def const_part(value):
    return Tensor(np.asarray(value, dtype=np.float64))


class TestTotalLoss:
    def test_all_parts_one(self):
        parts = LossParts(id_g=const_part(1.0), tri_g=const_part(1.0),
                          id_l=const_part(1.0), tri_l=const_part(1.0),
                          view=const_part(1.0), orth=const_part(1.0))
        total = total_loss(parts, LossWeights())
        assert abs(total.item() - 4.002) < 1e-12

    def test_zero_lambda_zeroes_view_gradients(self, rng):
        with recording():
            w = Parameter("viewpart", rng.standard_normal(3))
            parts = LossParts(id_g=const_part(1.0), tri_g=const_part(1.0),
                              view=tsum(mul(w, w)), orth=const_part(0.5))
            backward(total_loss(parts, LossWeights(lam=0.0)))
        np.testing.assert_array_equal(w.grad, 0.0)

    def test_lambda_only(self):
        parts = LossParts(id_g=const_part(9.0), tri_g=const_part(9.0),
                          view=const_part(0.25), orth=const_part(0.5))
        total = total_loss(parts, LossWeights(alpha=0.0, beta=0.0, lam=1.0))
        assert abs(total.item() - 0.75) < 1e-12

    def test_absent_parts_contribute_zero(self):
        parts = LossParts(id_g=const_part(2.0), tri_g=const_part(3.0))
        total = total_loss(parts, LossWeights())
        assert abs(total.item() - 5.0) < 1e-12

    def test_scalars_report_absent_parts_as_zero(self):
        parts = LossParts(id_g=const_part(2.0), tri_g=const_part(3.0))
        s = parts.scalars()
        assert s["id_l"] == 0.0 and s["view"] == 0.0
        assert s["id_g"] == 2.0

    def test_negative_weight_rejected(self):
        with pytest.raises(ConfigurationError):
            LossWeights(alpha=-1.0)


class TestHeads:
    def test_view_head_needs_two_classes(self, rng):
        with pytest.raises(ConfigurationError):
            Heads(8, 4, 1, rng)

    def test_ablated_heads_register_fewer_parameters(self, rng):
        full = {p.name for p in Heads(8, 4, 2, rng).parameters()}
        slim = {p.name for p in Heads(8, 4, 2, rng, with_local=False, with_view=False).parameters()}
        assert slim < full
        assert not any("local" in n or "view" in n for n in slim)
