import math

import numpy as np
import pytest

from secap.errors import ConfigurationError, ContractError, DimensionError
from secap.gradcheck import NoiseSource, check_parameter_gradients, finite_diff_check
from secap.losses import (
    Heads, LossParts, LossWeights, ce_loss, orthogonality_loss,
    pairwise_euclidean, soft_triplet_loss, total_loss,
)
from secap.model import ModelConfig
from secap.nn import Linear
from secap.tensor import Parameter, Tensor, backward, mul, recording, tape, tsum


def zero_classifier(d, classes):
    clf = Linear("clf", d, classes, NoiseSource(0))
    clf.zero_()
    return clf


def logit_classifier(log_probs):
    """Identity-consuming classifier whose logits are fixed per class."""
    d = 1
    clf = Linear("clf", d, len(log_probs), NoiseSource(0))
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
        loss = ce_loss(feats, np.array([0, 1, 0, 1]), zero_classifier(8, 2))
        assert abs(loss.item() - math.log(2)) < 1e-6

    def test_confident_correct_prediction(self):
        clf = logit_classifier([1000.0, 0.0])
        feats = Tensor(np.ones((3, 1)))
        loss = ce_loss(feats, np.zeros(3, dtype=int), clf)
        assert loss.item() < 1e-6

    def test_hand_probabilities(self):
        clf = logit_classifier(np.log([0.25, 0.75]))
        loss = ce_loss(Tensor(np.ones((1, 1))), np.array([1]), clf)
        assert abs(loss.item() - (-math.log(0.75))) < 1e-6

    def test_label_out_of_range(self):
        with pytest.raises(ContractError):
            ce_loss(Tensor(np.ones((1, 4))), np.array([5]), zero_classifier(4, 2))

    # labels at both ends of the class range, one class twice
    LABELS = np.array([0, 4, 2, 4, 0])

    def test_one_entry_after_the_classifier(self, rng):
        feats = Tensor(rng.standard_normal((5, 3)), requires_grad=True)
        with recording():
            ce_loss(feats, self.LABELS, Linear("clf", 3, 5, rng))
            assert [e.backward_rule.__qualname__.split(".")[0] for e in tape().entries] == [
                "linear", "ce_loss"]

    def test_feature_gradient_matches_central_differences(self, rng):
        clf = Linear("clf", 3, 5, NoiseSource(0))
        feats = Tensor(rng.standard_normal((5, 3)) * 2.0)
        assert finite_diff_check(lambda t: ce_loss(t, self.LABELS, clf), feats) < 1e-7

    def test_classifier_gradients_match_central_differences(self, rng):
        clf = Linear("clf", 3, 5, NoiseSource(0))
        feats = Tensor(rng.standard_normal((5, 3)))
        worst, name, _ = check_parameter_gradients(
            clf.parameters(), lambda: ce_loss(feats, self.LABELS, clf), coords_per_param=0)
        assert worst < 1e-7, name


class TestViewCE:
    def test_uniform_two_views(self):
        loss = ce_loss(Tensor(np.ones((2, 4))), np.array([0, 1]),
                       zero_classifier(4, 2))
        assert abs(loss.item() - math.log(2)) < 1e-6

    def test_uniform_three_views(self):
        loss = ce_loss(Tensor(np.ones((3, 4))), np.array([0, 1, 2]),
                       zero_classifier(4, 3))
        assert abs(loss.item() - math.log(3)) < 1e-6

    def test_perfect_prediction(self):
        clf = logit_classifier([0.0, 1000.0])
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

    @staticmethod
    def check(pts, labels, **kw):
        return finite_diff_check(lambda t: soft_triplet_loss(t, labels), Tensor(pts), **kw)

    def test_gradient_matches_central_differences(self, rng):
        pts = rng.standard_normal((9, 4))
        assert self.check(pts, np.repeat([0, 1, 2], 3)) < 1e-7

    def test_lone_image_identity_gradient(self, rng):
        # anchor 0's hardest positive is its own zero distance
        pts = rng.standard_normal((5, 3))
        assert self.check(pts, np.array([0, 1, 1, 2, 2])) < 1e-7

    def test_coincident_points_under_the_floor(self, rng):
        # rows 0 and 1 coincide and are each other's hardest positive: their
        # squared distance sits under the 1e-12 floor, so that pair carries no
        # gradient; probes of 1e-7 keep it under the floor. Identities 1 and 2
        # are each other's nearest negatives, so the duplicates tie in no mining
        pts = np.array([[0.0, 0.0, 0.0], [0.0, 0.0, 0.0], [1.0, 0.1, 0.0], [1.1, -0.1, 0.05],
                        [1.3, 0.0, 0.1], [1.2, 0.2, -0.1]]) + 0.02 * rng.standard_normal((6, 3))
        pts[1] = pts[0]
        dist, _ = pairwise_euclidean(pts)
        assert dist[0, 1] == dist[1, 0] == 1e-6
        assert self.check(pts, np.array([0, 0, 1, 1, 2, 2]), eps=1e-7) < 1e-6

    def test_tied_distances_in_mining(self, rng):
        # rows 3 and 4 are duplicates of identity 1, so each anchor of identity 0
        # sees them tied as negatives; the first row wins, and the loss has no
        # derivative along either duplicate alone
        pts = rng.standard_normal((6, 3))
        pts[3:5] = pts[0] + 0.1 * rng.standard_normal(3)  # the nearest negatives of anchor 0
        labels = np.array([0, 0, 0, 1, 1, 2])
        dist, _ = pairwise_euclidean(pts)
        assert dist[0, 3] == dist[0, 4]
        untied = [i for i in range(pts.size) if i // 3 not in (3, 4)]
        assert self.check(pts, labels, coords=untied) < 1e-7
        # moving both duplicates together keeps the tie: that derivative exists,
        # and the two rows' gradients sum to it
        x = Tensor(pts, requires_grad=True)
        with recording():
            backward(soft_triplet_loss(x, labels))
        eps = 1e-5
        for k in range(3):
            step = np.zeros_like(pts)
            step[3:5, k] = eps
            numeric = (soft_triplet_loss(Tensor(pts + step), labels).item()
                       - soft_triplet_loss(Tensor(pts - step), labels).item()) / (2 * eps)
            assert abs(x.grad[3, k] + x.grad[4, k] - numeric) < 1e-8

    def test_one_entry_listing_the_features_once_per_gradient_term(self, rng):
        x = Tensor(rng.standard_normal((4, 3)), requires_grad=True)
        with recording():
            soft_triplet_loss(x, np.array([0, 0, 1, 1]))
            entry, = tape().entries
            assert entry.inputs == (x,) * 4

    def test_gradient_flows_through_mined_pairs(self):
        pts = Tensor(np.array([[0.0, 0.0], [3.0, 4.0], [1.0, 1.0], [-2.0, 5.0]]),
                     requires_grad=True)
        with recording():
            backward(soft_triplet_loss(pts, np.array([0, 0, 1, 1])))
        assert pts.grad is not None and np.abs(pts.grad).max() > 0

    def test_pairwise_distances_match_scipy_style_loops(self, rng):
        pts = rng.standard_normal((5, 3))
        dist, _ = pairwise_euclidean(pts)
        for i in range(5):
            for j in range(5):
                assert abs(dist[i, j] - math.dist(pts[i], pts[j])) < 1e-6

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_coincident_features_give_a_finite_triplet_gradient(self, dtype):
        # norms near 3e4 and two pairs of duplicate rows: |a|^2 - 2 a.b + |b|^2 rounds
        # off zero between coincident rows, and the mask after the sqrt is all that
        # zeroes the diagonal
        pts = (np.random.default_rng(3).standard_normal((6, 8)) * 1e4).astype(dtype)
        pts[1], pts[4] = pts[0], pts[2]
        sq = (pts * pts).sum(axis=1)
        assert (np.diag(sq[:, None] - 2 * (pts @ pts.T) + sq[None, :]) > 1e-12).any()
        dist, _ = pairwise_euclidean(pts)
        assert np.all(np.diag(dist) == 0.0)
        x = Tensor(pts, requires_grad=True)
        with recording():
            backward(soft_triplet_loss(x, np.array([0, 0, 1, 2, 1, 2])))
        assert x.grad.dtype == dtype
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

    @staticmethod
    def away_from_zero(rng, shape):
        """Entries at least 0.5 from zero, so no product sits on |.|'s kink."""
        x = rng.standard_normal(shape)
        return np.sign(x) * (0.5 + np.abs(x))

    @pytest.mark.parametrize("slot", [0, 1])
    def test_gradient_matches_central_differences(self, rng, slot):
        other = Tensor(self.away_from_zero(rng, (4, 3)))
        x = Tensor(self.away_from_zero(rng, (4, 3)))

        def f(t):
            return orthogonality_loss(*((t, other) if slot == 0 else (other, t)))

        assert finite_diff_check(f, x) < 1e-8

    def test_one_entry_over_both_features(self, rng):
        a = Tensor(rng.standard_normal((3, 2)), requires_grad=True)
        b = Tensor(rng.standard_normal((3, 2)), requires_grad=True)
        with recording():
            orthogonality_loss(a, b)
            entry, = tape().entries
            assert entry.inputs == (a, b)


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
    def test_view_head_needs_two_classes(self):
        # the rule lives in ModelConfig, and binds only where a view head is built
        with pytest.raises(ConfigurationError, match="view head needs at least two view classes"):
            ModelConfig(num_views=1)
        assert ModelConfig(num_views=1, ablate="no-vdt").num_views == 1

    def test_ablated_heads_register_fewer_parameters(self, rng):
        full = {p.name for p in Heads(8, 4, 2, rng).parameters()}
        slim = {p.name for p in Heads(8, 4, 2, rng, with_local=False, with_view=False).parameters()}
        assert slim < full
        assert not any("local" in n or "view" in n for n in slim)
