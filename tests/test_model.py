import hashlib
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import secap.tensor
from secap.encoder import EncoderConfig
from secap.errors import ConfigurationError
from secap.gradcheck import NoiseSource, check_parameter_gradients
from secap.losses import LossWeights
from secap.model import ABLATIONS, ModelConfig, SeCapModel
from secap.optim import SGD
from secap.prm import VARIANTS
from secap.tensor import backward, recording, tape

MICRO_ENC = dict(image_h=16, image_w=16, embed_dim=16, depth=1, heads=2, ffn_mult=2)


def micro_cfg(**kw):
    enc = EncoderConfig(**MICRO_ENC)
    merged = dict(encoder=enc, num_ids=2, num_views=2, prompt_len=4, seed=0)
    merged.update(kw)
    return ModelConfig(**merged)


def _value_output(prefix):
    return [f"{prefix}.{w}.{k}" for w in ("wv", "wo") for k in ("weight", "bias")]


def _attn(prefix):
    return [f"{prefix}.wq.weight", f"{prefix}.wq.bias", f"{prefix}.wk.weight", *_value_output(prefix)]


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
            # PRM `attn` keeps only the value and output projections of its two attentions
            names += [*(_value_output("prm.ca") + _value_output("prm.sa") if variant == "attn"
                        else _attn("prm.sa")), *_ffn("prm.ffn")]
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


def registry_digest(model):
    """SHA-256 of every parameter's name, shape and bytes, in registry order."""
    h = hashlib.sha256()
    for p in model.parameters():
        h.update(f"{p.name}{p.shape}".encode())
        h.update(p.data.tobytes())
    return h.hexdigest()


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
        cfg = micro_cfg(ablate=ablate)
        model = SeCapModel(cfg, NoiseSource(0, cfg.dropped_parameters))
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

    # SHA-256 of every parameter's name, shape and bytes as training draws them: a change that
    # reorders or re-seeds the draws fails here (criterion 8 only compares two runs of one tree)
    @pytest.mark.parametrize("ablate, variant, digest", [
        ("none", "attn", "242c6beddb2827d7a4f121ea8aff846ea6d76e7da41b5c562fa48ae5b1cf6f0a"),
        ("none", "add", "b9979dc2a3bad9846e1ff2ecb4ee18f803fdb1dedc3f3dd3ec5d85a18b70b7ee"),
        ("none", "cat", "b9979dc2a3bad9846e1ff2ecb4ee18f803fdb1dedc3f3dd3ec5d85a18b70b7ee"),
        ("no-prm", "attn", "bc712d5a1c7b23bc9744cfb5c4ed4b87b264e403587af64a4c15889aa48bc420"),
        ("no-vdt", "attn", "9f676f20dd38f96b797282f60d10020ea8e391808ae88e6df7572c5c87b461f8"),
        ("no-lfrm", "attn", "0084ed7bf33253dd5ff79502fedcee45a853280eaaee9fec8f228ed283ca2415"),
        ("baseline", "attn", "ff9b6367e31b7c2b896647cc86198235e3325aaedcac7163fafd769a4b7d63d7"),
    ])
    def test_initial_draws_are_pinned(self, ablate, variant, digest):
        assert registry_digest(SeCapModel(micro_cfg(ablate=ablate, prm_variant=variant, num_ids=3, seed=7))) == digest

    # the same, for the float64 models grad-check draws: a shifted noise stream fails here
    @pytest.mark.parametrize("ablate, variant, digest", [
        ("none", "attn", "7b69d143c82165da24b59fb13661dd821967d68a7874762fa3756a5b0747239c"),
        ("none", "add", "136d977499412a700570f7e7da72f2711794cb6285f7d023139b733cd5385856"),
        ("none", "cat", "136d977499412a700570f7e7da72f2711794cb6285f7d023139b733cd5385856"),
        ("no-prm", "attn", "d557b054e5ba5787c76a803be13ba25d36d50ce8f768db5ef3206e9e30f43772"),
        ("no-vdt", "attn", "c98ce6b7927d481f763e2d646041be1f8452f21dcd26dd98f05abe45b692f2a0"),
        ("no-lfrm", "attn", "79375ed14bfd02812ae169f7bb13fcd5cb24a22c805fc7bfb1a18f29fe4c6314"),
        ("baseline", "attn", "46062f72de9e9b4f31b664d64881099fe9ea00da5490814aa1bb99145d59e533"),
    ])
    def test_noise_source_draws_are_pinned(self, ablate, variant, digest):
        cfg = micro_cfg(ablate=ablate, prm_variant=variant, num_ids=3, seed=7)
        assert registry_digest(SeCapModel(cfg, NoiseSource(7, cfg.dropped_parameters))) == digest

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
    # one micro forward: 9 attention calls (1 encoder, 8 LFRM), each four linear
    # entries and one attention entry, with no head split or softmax; PRM `attn`
    # is a chain of four linear entries, with no bank narrow or row broadcast.
    # Each cross-entropy and each soft triplet is one entry after its classifier,
    # where their composed chains took 4 and 17. The view decoupling and the
    # orthogonality loss are one entry each, where their chains took 5 each
    # (3 narrow, sub, concat; mul, tabs, tsum, and tmean's tsum and mul). Each of
    # the 5 FFNs is one feed_forward entry, where fc1, gelu and fc2 took 3
    EXPECTED = {
        "add": 13, "attention": 9, "ce_loss": 3, "concat": 2, "decouple_step": 1,
        "feed_forward": 5, "layer_norm": 2, "linear": 44, "mul": 6, "narrow": 4,
        "orthogonality_loss": 1, "reshape": 5, "soft_triplet_loss": 2,
    }

    # bytes of every recorded output; fusion's sa and FFN keep only the output
    # token's row, where the full [out_token; prompts] sequence took 90,908;
    # PRM `attn` runs its chain on one row per image, where the two attentions
    # over all L rows took 82,460 and over one row 71,772; the composed losses
    # took 69,776; the composed decoupling (1,792) and orthogonality chain (536)
    # took 67,500, where their single entries hold 768 and 4; the 5 FFNs' fc1 and
    # GELU outputs (6,656 bytes each kind) left the tape with their entries, which
    # took 65,944 (feed_forward keeps fc1's output and Phi in its rule instead)
    EXPECTED_BYTES = 52_632

    def test_entries_per_op(self, rng):
        images, ids, views = micro_batch(rng)
        with recording():
            SeCapModel(micro_cfg()).compute_losses(images, ids, views, LossWeights())
            counts = Counter(e.backward_rule.__qualname__.split(".")[0] for e in tape().entries)
            assert dict(counts) == self.EXPECTED
            assert sum(counts.values()) == 97

    def test_recorded_output_bytes(self, rng):
        images, ids, views = micro_batch(rng)
        with recording():
            SeCapModel(micro_cfg()).compute_losses(images, ids, views, LossWeights())
            assert sum(e.output.data.nbytes for e in tape().entries) == self.EXPECTED_BYTES


def test_arrays_alive_after_a_recorded_forward():
    """Every numpy buffer a recorded forward leaves alive: op outputs, which EXPECTED_BYTES counts,
    and the arrays rules hold. Each of the 4 layer_norm rules keeps its row means (B x T) but not
    x-hat (B x T x d): for B = 4 images of T = 4 tokens and d = 16, 3,840 bytes below the 141,260
    left when the rules kept x-hat."""
    model = SeCapModel(ModelConfig(encoder=EncoderConfig(image_h=32, image_w=16, embed_dim=16, depth=2, heads=2),
                                   num_ids=2, prompt_len=4, prm_variant="attn", seed=1))
    images = np.random.default_rng(1).standard_normal((4, 3, 32, 16)).astype(np.float32)
    ids, views = np.arange(4) % 2, (np.arange(4) // 2) % 2
    tracemalloc.start()
    try:
        with recording():
            model.compute_losses(images, ids, views, LossWeights())
            snapshot = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    numpy_only = snapshot.filter_traces([tracemalloc.DomainFilter(True, np.lib.tracemalloc_domain)])
    assert sum(trace.size for trace in numpy_only.traces) == 137_420


class TestOptimizerHook:
    """Training updates each parameter from backward's on_leaf hook (SGD.update) as soon as its
    gradient is complete; the bytes must be those of backward followed by SGD.step()."""

    DESK = EncoderConfig(image_h=64, image_w=32, embed_dim=64, depth=2, heads=4)

    @pytest.mark.parametrize("ablate,variant", [("none", v) for v in VARIANTS]
                             + [(a, "attn") for a in ABLATIONS if a != "none"])
    def test_two_hooked_desk_steps_equal_backward_then_step(self, ablate, variant, rng):
        batches = rng.standard_normal((2, 16, 3, 64, 32)).astype(np.float32)
        ids, views = np.repeat(np.arange(8), 2), np.tile([0, 1], 8)  # P = 8, K = 2
        states = []
        for hooked in (False, True):
            model = SeCapModel(ModelConfig(encoder=self.DESK, num_ids=16, prompt_len=8,
                                           ablate=ablate, prm_variant=variant))
            opt = SGD(model.parameters(), lr=8e-3, momentum=0.9, weight_decay=1e-4)
            for images in batches:
                with recording(on_leaf=opt.update if hooked else None):
                    total, _ = model.compute_losses(images, ids, views, LossWeights())
                    backward(total)
                opt.step()
            states.append([p.data.tobytes() for p in model.parameters()]
                          + [v.tobytes() for v in opt._velocity.values()])
        assert states[0] == states[1]

    def test_no_prm_parameters_reach_the_hook_once_after_their_earliest_entry(self, rng):
        model = SeCapModel(micro_cfg(ablate="no-prm"))
        images, ids, views = micro_batch(rng)
        handed = []  # (parameter name, entries left on the tape)
        with recording(on_leaf=lambda p: handed.append((p.name, len(tape().entries)))):
            total, _ = model.compute_losses(images, ids, views, LossWeights())
            earliest = {}
            for index, entry in enumerate(tape().entries):
                for t in entry.inputs:
                    if getattr(t, "name", None):
                        earliest.setdefault(t.name, index)
            readers = [i for i, e in enumerate(tape().entries) if model.prompts in e.inputs]
            backward(total)
        assert readers and earliest["prm.prompts"] == readers[0]
        assert sorted(handed) == sorted(earliest.items())
        assert sorted(name for name, _ in handed) == sorted(p.name for p in model.parameters())


def test_every_tensor_op_is_recorded_by_some_micro_model(rng):
    """An op that no model configuration records is dead code. Exempt: the
    plumbing, which is no op, and `tsum`, which the gradient tests reduce with."""
    exempt = {"Tensor", "Parameter", "recording", "backward", "record", "tsum"}
    images, ids, views = micro_batch(rng)
    recorded = set()
    for variant, ablate in [(v, "none") for v in VARIANTS] + [("attn", a) for a in ABLATIONS]:
        with recording():
            SeCapModel(micro_cfg(prm_variant=variant, ablate=ablate)).compute_losses(
                images, ids, views, LossWeights())
            recorded.update(e.backward_rule.__qualname__.split(".")[0] for e in tape().entries)
    assert sorted(set(secap.tensor.__all__) - exempt - recorded) == []


class TestMicroBatchGradient:
    @staticmethod
    def worst_error(rng, **cfg):
        """Whole-model analytic gradients vs central differences, tiny config."""
        # two patches: with one, fusion.ca has a single key and emits identical
        # rows, so fusion.sa's query and key gradients are zero by construction
        model_cfg = micro_cfg(encoder=EncoderConfig(**{**MICRO_ENC, "image_w": 32}), **cfg)
        model = SeCapModel(model_cfg, NoiseSource(2, model_cfg.dropped_parameters))
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


# micro field menus; a config refuses 12 < stride without olp, 6 % 4, no identity,
# fewer than two views under VDT and "mean", and accepts the rest
ENCODER_VALUES = dict(image_h=[16, 24, 32], image_w=[16, 32], patch=[16, 12], embed_dim=[8, 12, 6],
                      depth=[1, 2], heads=[2, 1, 4], ffn_mult=[1, 2], olp_enabled=[False, True])
MODEL_VALUES = dict(num_ids=[2, 1, 3, 0], num_views=[2, 3, 1, 0], prompt_len=[1, 3],
                    prm_variant=[*VARIANTS, "mean"], ablate=list(ABLATIONS), seed=[0, 7])


@settings(max_examples=120)
@given(enc=st.fixed_dictionaries({k: st.sampled_from(v) for k, v in ENCODER_VALUES.items()}),
       model=st.fixed_dictionaries({k: st.sampled_from(v) for k, v in MODEL_VALUES.items()}))
def test_every_config_that_constructs_builds_and_runs(enc, model):
    try:
        cfg = ModelConfig(encoder=EncoderConfig(**enc), **model)
    except ConfigurationError:
        return
    net = SeCapModel(cfg)
    images = np.random.default_rng(0).standard_normal((2, 3, enc["image_h"], enc["image_w"])).astype(np.float32)
    feats = net.inference_features(images)
    assert feats.shape == (2, enc["embed_dim"] * (2 if cfg.uses_lfrm else 1))
    assert np.isfinite(feats).all()
    if cfg.num_ids >= 2:
        total, _ = net.compute_losses(images, np.array([0, 1]), np.array([0, 1]), LossWeights())
        assert np.isfinite(total.item())
