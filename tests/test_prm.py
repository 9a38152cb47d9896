import numpy as np
import pytest

from secap.encoder import EncoderConfig
from secap.errors import ConfigurationError
from secap.gradcheck import NoiseSource, finite_diff_check
from secap.losses import LossWeights
from secap.model import ABLATIONS, ModelConfig, SeCapModel
from secap.nn import MultiHeadAttention, expand_rows, param, trunc_normal
from secap.prm import ATTN_DROPPED_PARAMETERS, PRM, VARIANTS
from secap.tensor import Tensor, add, backward, concat, mul, narrow, recording, reshape, tsum

L, D, HEADS = 8, 16, 2


def make_prm(variant, source, length=L, heads=HEADS):
    """A PRM over `length` prompts drawn from default_rng(5) beside a Generator, or drawn first
    from `source` itself when it is a NoiseSource, so that a float64 PRM is float64 throughout."""
    prompts_source = np.random.default_rng(5) if isinstance(source, np.random.Generator) else source
    return PRM(param(prompts_source, "prm.prompts", (length, D)), variant, D, heads, 2, source)


def model_prompts(seed, prompt_len=L):
    enc = EncoderConfig(image_h=16, image_w=16, embed_dim=D, depth=1, heads=HEADS)
    return SeCapModel(ModelConfig(encoder=enc, prompt_len=prompt_len, seed=seed)).prompts


class TestInitPrompts:
    """SeCapModel draws its L x d prompts with trunc_normal from the seed pair [seed, 1]."""

    def test_same_seed_bit_identical(self):
        a, b = model_prompts(11), model_prompts(11)
        assert a.data.tobytes() == b.data.tobytes()
        assert a.data.tobytes() != model_prompts(12).data.tobytes()

    def test_drawn_from_the_prompt_seed_pair(self):
        expected = trunc_normal(np.random.default_rng([3, 1]), (L, D)).astype(np.float32)
        assert model_prompts(3).data.tobytes() == expected.tobytes()

    def test_scalar_count(self):
        cfg = ModelConfig()
        assert cfg.prompt_len * cfg.encoder.embed_dim == 49152  # 64 prompts of width 768
        assert model_prompts(0).shape == (L, D)

    def test_two_sigma_truncation(self):
        assert np.all(np.abs(model_prompts(0, prompt_len=4096).data) <= 0.04)

    def test_bad_sizes_rejected(self):
        with pytest.raises(ConfigurationError):
            ModelConfig(prompt_len=0)


class TestCalibration:
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_output_shape(self, variant, rng):
        prm = make_prm(variant, rng)
        out = prm(Tensor(rng.standard_normal((4, D)).astype(np.float32)))
        assert out.shape == (4, L, D)

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_zeroed_module_broadcasts_bank_exactly(self, variant, rng):
        prm = make_prm(variant, rng)
        prm.zero_output_projections()
        out = prm(Tensor(rng.standard_normal((3, D)).astype(np.float32)))
        expected = np.broadcast_to(prm.prompts.data, (3, L, D))
        assert out.data.tobytes() == np.ascontiguousarray(expected).tobytes()

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_output_depends_on_input_feature(self, variant, rng):
        prm = make_prm(variant, NoiseSource(0))
        x = rng.standard_normal((2, D))
        base = prm(Tensor(x)).data
        moved = prm(Tensor(x + 0.1)).data
        assert np.abs(moved - base).max() > 1e-8

    def test_unknown_variant_rejected(self):
        # refused by the config under every ablation, including those that build no PRM
        for ablate in ABLATIONS:
            with pytest.raises(ConfigurationError, match="unknown calibration variant 'mean'"):
                ModelConfig(prm_variant="mean", ablate=ablate)

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_prompt_gradient_matches_central_differences(self, variant, rng):
        prm = make_prm(variant, NoiseSource(0))
        x_inv = Tensor(rng.standard_normal((2, D)))

        # finite_diff_check perturbs the Parameter's own buffer in place
        err = finite_diff_check(lambda prompts: tsum(prm(x_inv)), prm.prompts)
        assert err < 1e-5

    def test_parameters_cover_only_used_layers(self, rng):
        names = {p.name for p in make_prm("add", rng).parameters()}
        assert "prm.prompts" in names
        assert not any(".ca." in n for n in names)
        attn_names = {p.name for p in make_prm("attn", rng).parameters()}
        assert any(".ca." in n for n in attn_names)


def full_sequence_cat(prm, x_inv):
    """Oracle: calibrate every row of [prompts; x_inv], then drop the x_inv row."""
    b, d = x_inv.shape
    length = prm.prompts.shape[0]
    prompts = expand_rows(reshape(prm.prompts, (1, length, d)), b)
    seq = concat([prompts, reshape(x_inv, (b, 1, d))], axis=1)
    h = narrow(prm.sa(seq, seq), 1, 0, length)
    return add(prm.ffn(h), prompts)


def relative_error(new, old):
    return np.abs(new - old).max() / np.abs(old).max()


def gradients(prm, x_inv, out, probe):
    """Every parameter's and the input's gradient of sum(out * probe), flattened."""
    leaves = prm.parameters() + [x_inv]
    for t in leaves:
        t.zero_grad()
    backward(tsum(mul(out, probe)))
    return np.concatenate([t.grad.ravel() for t in leaves])


# (B, L, heads): single batch row, single prompt, 1 and 2 heads
ORACLE_SHAPES = [(1, 1, 1), (1, 1, 2), (1, 8, 1), (3, 1, 2), (2, 8, 2)]


class TestCatMatchesFullSequence:
    @pytest.mark.parametrize("dtype,rtol", [(np.float64, 1e-12), (np.float32, 1e-6)])
    @pytest.mark.parametrize("b,length,heads", ORACLE_SHAPES)
    def test_output(self, b, length, heads, dtype, rtol, rng):
        prm = make_prm("cat", rng if dtype == np.float32 else NoiseSource(0), length, heads)
        x_inv = Tensor(rng.standard_normal((b, D)).astype(dtype))
        out = prm(x_inv)
        assert out.shape == (b, length, D) and out.dtype == dtype
        assert relative_error(out.data, full_sequence_cat(prm, x_inv).data) <= rtol

    @pytest.mark.parametrize("b,length,heads", ORACLE_SHAPES)
    def test_gradients(self, b, length, heads, rng):
        prm = make_prm("cat", NoiseSource(0), length, heads)
        x_inv = Tensor(rng.standard_normal((b, D)), requires_grad=True)
        probe = Tensor(rng.standard_normal((b, length, D)))
        with recording():
            new = gradients(prm, x_inv, prm(x_inv), probe)
            old = gradients(prm, x_inv, full_sequence_cat(prm, x_inv), probe)
        assert relative_error(new, old) <= 1e-12


def full_attention_pair(prm, heads, source):
    """The two attentions PRM `attn` stands for: each around the route's own value and
    output projections, with query and key projections freshly drawn from `source`."""
    d = prm.prompts.shape[1]
    ca_wv, ca_wo, sa_wv, sa_wo = prm.chain
    pair = []
    for name, wv, wo in (("ca", ca_wv, ca_wo), ("sa", sa_wv, sa_wo)):
        mha = MultiHeadAttention(f"prm.{name}", d, heads, source)
        mha.wv, mha.wo = wv, wo
        pair.append(mha)
    return pair


def full_bank_attn(prm, ca, sa, x_inv):
    """Oracle: calibrate all L prompt rows of every image, B x L rows in all."""
    b, d = x_inv.shape
    length = prm.prompts.shape[0]
    prompts = expand_rows(reshape(prm.prompts, (1, length, d)), b)
    h = ca(prompts, reshape(x_inv, (b, 1, d)))
    return add(prm.ffn(sa(h, h)), prompts)


class TestAttnMatchesFullBank:
    @pytest.mark.parametrize("dtype,rtol", [(np.float64, 1e-12), (np.float32, 1e-6)])
    @pytest.mark.parametrize("b,length,heads", ORACLE_SHAPES)
    def test_output(self, b, length, heads, dtype, rtol, rng):
        source = rng if dtype == np.float32 else NoiseSource(0)
        prm = make_prm("attn", source, length, heads)
        ca, sa = full_attention_pair(prm, heads, source)
        x_inv = Tensor(rng.standard_normal((b, D)).astype(dtype))
        out = prm(x_inv)
        assert out.shape == (b, length, D) and out.dtype == dtype
        assert relative_error(out.data, full_bank_attn(prm, ca, sa, x_inv).data) <= rtol

    @pytest.mark.parametrize("b,length,heads", ORACLE_SHAPES)
    def test_gradients(self, b, length, heads, rng):
        source = NoiseSource(0)
        prm = make_prm("attn", source, length, heads)
        ca, sa = full_attention_pair(prm, heads, source)
        x_inv = Tensor(rng.standard_normal((b, D)), requires_grad=True)
        probe = Tensor(rng.standard_normal((b, length, D)))
        with recording():
            new = gradients(prm, x_inv, prm(x_inv), probe)
            old = gradients(prm, x_inv, full_bank_attn(prm, ca, sa, x_inv), probe)
        assert relative_error(new, old) <= 1e-12


class TestAttnCollapse:
    """Full attentions that cross-attend the prompts to x_inv alone have one
    key, so every softmax weight is 1 and every prompt row gets the same
    update. The self-attention then sees L identical rows, so the output is the
    prompts plus one broadcast vector per image, and the query and key
    projections of both attentions never receive a gradient, whatever their
    values: PRM `attn` keeps only the projection chain."""

    @pytest.mark.parametrize("dtype,rtol", [(np.float64, 1e-12), (np.float32, 1e-6)])
    @pytest.mark.parametrize("b,length,heads", ORACLE_SHAPES)
    def test_output_is_bank_plus_one_vector_per_image(self, b, length, heads, dtype, rtol, rng):
        source = rng if dtype == np.float32 else NoiseSource(0)
        prm = make_prm("attn", source, length, heads)
        ca, sa = full_attention_pair(prm, heads, source)
        x_inv = Tensor(rng.standard_normal((b, D)).astype(dtype))
        g = prm.ffn(sa.wo(sa.wv(ca.wo(ca.wv(x_inv))))).data
        oracle = prm.prompts.data[None, :, :] + g[:, None, :]
        out = full_bank_attn(prm, ca, sa, x_inv).data
        assert out.dtype == dtype
        assert relative_error(out, oracle) <= rtol

    @pytest.mark.parametrize("b,length,heads", ORACLE_SHAPES)
    def test_query_and_key_projections_get_no_gradient(self, b, length, heads, rng):
        source = NoiseSource(0)
        prm = make_prm("attn", source, length, heads)
        ca, sa = full_attention_pair(prm, heads, source)
        x_inv = Tensor(rng.standard_normal((b, D)), requires_grad=True)
        probe = Tensor(rng.standard_normal((b, length, D)))
        with recording():
            backward(tsum(mul(full_bank_attn(prm, ca, sa, x_inv), probe)))
        dropped = [p for mha in (ca, sa) for p in mha.wq.parameters() + mha.wk.parameters()]
        assert tuple(p.name for p in dropped) == ATTN_DROPPED_PARAMETERS
        assert all(p.grad is not None and not np.any(p.grad) for p in dropped)

    def test_chain_holds_the_four_kept_projections(self, rng):
        names = [p.name for layer in make_prm("attn", rng).chain for p in layer.parameters()]
        assert names == [f"prm.{a}.{w}.{k}" for a in ("ca", "sa") for w in ("wv", "wo")
                         for k in ("weight", "bias")]


@pytest.mark.parametrize("variant", VARIANTS)
def test_desk_step_trains_every_parameter(variant, rng):
    desk = EncoderConfig(image_h=64, image_w=32, embed_dim=64, depth=2, heads=4)
    model = SeCapModel(ModelConfig(encoder=desk, num_ids=16, prompt_len=8, prm_variant=variant))
    images = rng.standard_normal((64, 3, 64, 32)).astype(np.float32)
    ids = np.repeat(np.arange(16), 4)  # P = 16 identities, K = 4 images each
    views = np.tile([0, 1], 32)
    with recording():
        total, _ = model.compute_losses(images, ids, views, LossWeights())
        backward(total)
    assert [p.name for p in model.parameters() if not np.any(p.grad)] == []
