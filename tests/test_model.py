from collections import Counter

import numpy as np
import pytest

from secap.encoder import EncoderConfig
from secap.errors import ConfigurationError
from secap.gradcheck import check_parameter_gradients
from secap.losses import LossWeights
from secap.model import ABLATIONS, ModelConfig, SeCapModel
from secap.prm import VARIANTS
from secap.tensor import recording, tape

MICRO_ENC = dict(image_h=16, image_w=16, embed_dim=16, depth=1, heads=2, ffn_mult=2)


def micro_cfg(**kw):
    enc = EncoderConfig(**MICRO_ENC)
    merged = dict(encoder=enc, num_ids=2, num_views=2, prompt_len=4, seed=0)
    merged.update(kw)
    return ModelConfig(**merged)


def _attn(prefix):
    return [f"{prefix}.{w}.{k}" for w, k in (("wq", "weight"), ("wq", "bias"), ("wk", "weight"),
                                              ("wv", "weight"), ("wv", "bias"),
                                              ("wo", "weight"), ("wo", "bias"))]


def _ffn(prefix):
    return [f"{prefix}.{fc}.{k}" for fc in ("fc1", "fc2") for k in ("weight", "bias")]


def expected_layout(ablate, variant):
    """The checkpoint's parameter order for a depth-1 model, as the layers
    listed it by hand before the registry was derived from attributes."""
    vdt = ablate not in ("no-vdt", "baseline")
    lfrm = ablate not in ("no-lfrm", "baseline")
    names = ["encoder.proj.weight", "encoder.proj.bias", "encoder.cls",
             *(["encoder.view"] if vdt else []), "encoder.pos",
             "encoder.blocks.0.norm1.gamma", "encoder.blocks.0.norm1.beta",
             *_attn("encoder.blocks.0.attn"),
             "encoder.blocks.0.norm2.gamma", "encoder.blocks.0.norm2.beta",
             *_ffn("encoder.blocks.0.ffn")]
    if lfrm:
        names.append("prm.prompts")
        if ablate != "no-prm":
            names += [*(_attn("prm.ca") if variant == "attn" else []), *_attn("prm.sa"), *_ffn("prm.ffn")]
        for i in range(2):
            block = f"lfrm.two_way.{i}"
            names += [*_attn(f"{block}.sa"), *_attn(f"{block}.ca_p2i"), *_ffn(f"{block}.ffn_p"),
                      *_attn(f"{block}.ca_i2p")]
        names += ["lfrm.fusion.out_token", *_attn("lfrm.fusion.ca"), *_attn("lfrm.fusion.sa"),
                  *_ffn("lfrm.fusion.ffn")]
    names += ["heads.id_global.weight", "heads.id_global.bias"]
    if lfrm:
        names += ["heads.id_local.weight", "heads.id_local.bias"]
    if vdt:
        names += ["heads.view.weight", "heads.view.bias"]
    return names


def micro_batch(rng, b=4):
    images = rng.standard_normal((b, 3, 16, 16))
    ids = np.arange(b) % 2
    views = (np.arange(b) // 2) % 2
    return images, ids, views


class TestRegistry:
    def test_names_unique(self):
        model = SeCapModel(micro_cfg())
        names = [p.name for p in model.parameters()]
        assert len(names) == len(set(names))

    def test_same_seed_bit_identical(self):
        a = SeCapModel(micro_cfg())
        b = SeCapModel(micro_cfg())
        for pa, pb in zip(a.parameters(), b.parameters()):
            assert pa.name == pb.name
            assert pa.data.tobytes() == pb.data.tobytes()

    def test_different_seed_differs(self):
        a = SeCapModel(micro_cfg())
        b = SeCapModel(micro_cfg(seed=1))
        assert any(pa.data.tobytes() != pb.data.tobytes()
                   for pa, pb in zip(a.parameters(), b.parameters()))

    @pytest.mark.parametrize("ablate", ABLATIONS)
    def test_every_parameter_receives_gradient(self, ablate, rng):
        model = SeCapModel(micro_cfg(ablate=ablate), dtype=np.float64)
        images, ids, views = micro_batch(rng)
        with recording():
            total, _ = model.compute_losses(images, ids, views, LossWeights())
            from secap.tensor import backward
            backward(total)
        missing = [p.name for p in model.parameters() if p.grad is None]
        assert not missing, missing

    @pytest.mark.parametrize("variant", VARIANTS)
    @pytest.mark.parametrize("ablate", ABLATIONS)
    def test_parameter_order_is_the_checkpoint_layout(self, ablate, variant):
        model = SeCapModel(micro_cfg(ablate=ablate, prm_variant=variant))
        assert [p.name for p in model.parameters()] == expected_layout(ablate, variant)

    def test_unknown_ablation_rejected(self):
        with pytest.raises(ConfigurationError):
            micro_cfg(ablate="no-encoder")


class TestAblationStructure:
    def test_full_model_has_all_parts(self, rng):
        model = SeCapModel(micro_cfg())
        images, ids, views = micro_batch(rng)
        _, parts = model.compute_losses(images, ids, views, LossWeights())
        assert parts.id_l is not None and parts.view is not None

    def test_no_prm_keeps_bank_without_calibration(self, rng):
        model = SeCapModel(micro_cfg(ablate="no-prm"))
        assert model.prm is None and model.prompts is not None and model.lfrm is not None
        names = {p.name for p in model.parameters()}
        assert "prm.prompts" in names
        assert not any(".sa." in n and n.startswith("prm") for n in names)

    def test_no_vdt_drops_view_terms(self, rng):
        model = SeCapModel(micro_cfg(ablate="no-vdt"))
        images, ids, views = micro_batch(rng)
        _, parts = model.compute_losses(images, ids, views, LossWeights())
        assert parts.view is None and parts.orth is None
        assert parts.id_l is not None  # local branch still active

    def test_no_lfrm_drops_local_terms(self, rng):
        model = SeCapModel(micro_cfg(ablate="no-lfrm"))
        images, ids, views = micro_batch(rng)
        _, parts = model.compute_losses(images, ids, views, LossWeights())
        assert parts.id_l is None and parts.tri_l is None
        assert parts.view is not None  # decoupling still active

    def test_baseline_keeps_only_global_terms(self, rng):
        model = SeCapModel(micro_cfg(ablate="baseline"))
        images, ids, views = micro_batch(rng)
        _, parts = model.compute_losses(images, ids, views, LossWeights())
        assert parts.id_l is None and parts.view is None
        assert parts.id_g is not None and parts.tri_g is not None


class TestInference:
    def test_feature_dim_doubles_with_local_branch(self, rng):
        images, _, _ = micro_batch(rng)
        full = SeCapModel(micro_cfg()).inference_features(images)
        slim = SeCapModel(micro_cfg(ablate="baseline")).inference_features(images)
        assert full.shape == (4, 32)
        assert slim.shape == (4, 16)

    def test_inference_leaves_tape_empty(self, rng):
        from secap.tensor import tape
        images, _, _ = micro_batch(rng)
        SeCapModel(micro_cfg()).inference_features(images)
        assert not tape().entries

    def test_forward_outside_a_scope_records_nothing(self, rng):
        images, _, _ = micro_batch(rng)
        out = SeCapModel(micro_cfg()).forward(images)
        assert not tape().entries
        assert not out.x_inv.requires_grad and not out.local_feat.requires_grad

    def test_duplicate_images_give_identical_rows(self, rng):
        images, _, _ = micro_batch(rng, b=2)
        doubled = np.concatenate([images, images], axis=0)
        feats = SeCapModel(micro_cfg()).inference_features(doubled)
        np.testing.assert_array_equal(feats[:2], feats[2:])


class TestTapeBudget:
    # one micro forward: 11 attention calls (1 encoder, 2 PRM, 8 LFRM), each
    # four linear entries and one attention entry, with no head split or softmax
    EXPECTED = {
        "add": 15, "attention": 11, "clamp_min": 2, "concat": 3, "gelu": 5,
        "layer_norm": 2, "linear": 60, "log_softmax_lastdim": 3, "mul": 22,
        "narrow": 7, "neg": 3, "reshape": 6, "softplus": 2, "sub": 5,
        "swapaxes": 4, "tabs": 1, "take_pairs": 7, "tsqrt": 2, "tsum": 9,
    }

    # bytes of every recorded output; fusion's sa and FFN keep only the output
    # token's row, where the full [out_token; prompts] sequence took 90,908
    EXPECTED_BYTES = 82_716

    def test_entries_per_op(self, rng):
        images, ids, views = micro_batch(rng)
        with recording():
            SeCapModel(micro_cfg()).compute_losses(images, ids, views, LossWeights())
            counts = Counter(e.backward_rule.__qualname__.split(".")[0] for e in tape().entries)
            assert dict(counts) == self.EXPECTED
            assert sum(counts.values()) == 169

    def test_recorded_output_bytes(self, rng):
        images, ids, views = micro_batch(rng)
        with recording():
            SeCapModel(micro_cfg()).compute_losses(images, ids, views, LossWeights())
            assert sum(e.output.data.nbytes for e in tape().entries) == self.EXPECTED_BYTES


class TestMicroBatchGradient:
    @staticmethod
    def worst_error(rng, **cfg):
        """Whole-model analytic gradients vs central differences, tiny config."""
        from secap.gradcheck import randomize_for_gradcheck
        # two patches: with one, fusion.ca has a single key and emits identical
        # rows, so fusion.sa's query and key gradients are zero by construction
        enc = EncoderConfig(**{**MICRO_ENC, "image_w": 32})
        model = SeCapModel(micro_cfg(encoder=enc, **cfg), dtype=np.float64)
        randomize_for_gradcheck(model.parameters(), seed=2)
        images = rng.standard_normal((2, 3, 16, 32))
        ids = np.array([0, 1])
        views = np.array([0, 1])
        weights = LossWeights()

        def loss_fn():
            total, _ = model.compute_losses(images, ids, views, weights)
            return total

        worst, name, _ = check_parameter_gradients(
            model.parameters(), loss_fn, coords_per_param=3, seed=11)
        return worst, name

    def test_full_loss_two_image_batch(self, rng):
        worst, name = self.worst_error(rng)
        assert worst < 1e-4, name

    @pytest.mark.parametrize("variant", ["add", "cat"])
    def test_full_loss_other_prm_variants(self, rng, variant):
        worst, name = self.worst_error(rng, prm_variant=variant)
        assert worst < 1e-4, name
