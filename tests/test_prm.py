import numpy as np
import pytest

from secap.encoder import EncoderConfig
from secap.errors import ConfigurationError, DimensionError
from secap.gradcheck import finite_diff_check
from secap.losses import LossWeights
from secap.model import ModelConfig, SeCapModel
from secap.nn import expand_rows, trunc_normal
from secap.prm import PRM, VARIANTS
from secap.tensor import Parameter, Tensor, add, backward, concat, mul, narrow, recording, reshape, tsum

L, D, HEADS = 8, 16, 2


def make_prompts(length=L, seed=5, dtype=np.float32):
    return Parameter("prm.prompts", trunc_normal(np.random.default_rng(seed), (length, D)), dtype=dtype)


def make_prm(variant, rng, dtype=np.float32, seed=5):
    return PRM(make_prompts(L, seed, dtype), variant, HEADS, 2, rng, dtype)


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
        prm = make_prm(variant, rng, dtype=np.float64)
        x = rng.standard_normal((2, D))
        base = prm(Tensor(x)).data
        moved = prm(Tensor(x + 0.1)).data
        assert np.abs(moved - base).max() > 1e-8

    def test_dim_mismatch_rejected(self, rng):
        prm = make_prm("attn", rng)
        with pytest.raises(DimensionError):
            prm(Tensor(np.zeros((2, D + 1), dtype=np.float32)))

    def test_unknown_variant_rejected(self, rng):
        with pytest.raises(ConfigurationError):
            PRM(make_prompts(), "mean", HEADS, 2, rng)

    def test_bank_requires_matrix(self, rng):
        for shape in [(2, 3, 4), (D,), (0, D)]:
            with pytest.raises(ConfigurationError):
                PRM(Parameter("p", np.zeros(shape)), "attn", HEADS, 2, rng)

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_prompt_gradient_matches_central_differences(self, variant, rng):
        prm = make_prm(variant, rng, dtype=np.float64)
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
        prm = PRM(make_prompts(length, dtype=dtype), "cat", heads, 2, rng, dtype)
        x_inv = Tensor(rng.standard_normal((b, D)).astype(dtype))
        out = prm(x_inv)
        assert out.shape == (b, length, D) and out.dtype == dtype
        assert relative_error(out.data, full_sequence_cat(prm, x_inv).data) <= rtol

    @pytest.mark.parametrize("b,length,heads", ORACLE_SHAPES)
    def test_gradients(self, b, length, heads, rng):
        prm = PRM(make_prompts(length, dtype=np.float64), "cat", heads, 2, rng, np.float64)
        x_inv = Tensor(rng.standard_normal((b, D)), requires_grad=True)
        probe = Tensor(rng.standard_normal((b, length, D)))
        with recording():
            new = gradients(prm, x_inv, prm(x_inv), probe)
            old = gradients(prm, x_inv, full_sequence_cat(prm, x_inv), probe)
        assert relative_error(new, old) <= 1e-12


class TestAttnCollapse:
    """PRM `attn` cross-attends the prompts to x_inv alone: one key, so every
    softmax weight is 1 and every prompt row gets the same update. The
    self-attention then sees L identical rows, so the output is the prompts plus
    one broadcast vector per image, and the query and key projections of both
    attentions never receive a gradient."""

    DEAD = ["prm.ca.wq.weight", "prm.ca.wq.bias", "prm.ca.wk.weight",
            "prm.sa.wq.weight", "prm.sa.wq.bias", "prm.sa.wk.weight"]

    @pytest.mark.parametrize("dtype,rtol", [(np.float64, 1e-12), (np.float32, 1e-6)])
    @pytest.mark.parametrize("b,length,heads", ORACLE_SHAPES)
    def test_output_is_bank_plus_one_vector_per_image(self, b, length, heads, dtype, rtol, rng):
        prm = PRM(make_prompts(length, dtype=dtype), "attn", heads, 2, rng, dtype)
        x_inv = Tensor(rng.standard_normal((b, D)).astype(dtype))
        g = prm.ffn(prm.sa.wo(prm.sa.wv(prm.ca.wo(prm.ca.wv(x_inv))))).data
        oracle = prm.prompts.data[None, :, :] + g[:, None, :]
        out = prm(x_inv).data
        assert out.dtype == dtype
        assert relative_error(out, oracle) <= rtol

    def test_desk_step_trains_every_parameter_but_the_six_projections(self, rng):
        desk = EncoderConfig(image_h=64, image_w=32, embed_dim=64, depth=2, heads=4)
        model = SeCapModel(ModelConfig(encoder=desk, num_ids=16, prompt_len=8))
        images = rng.standard_normal((64, 3, 64, 32)).astype(np.float32)
        ids = np.repeat(np.arange(16), 4)  # P = 16 identities, K = 4 images each
        views = np.tile([0, 1], 32)
        with recording():
            total, _ = model.compute_losses(images, ids, views, LossWeights())
            backward(total)
        dead = [p.name for p in model.parameters() if not np.any(p.grad)]
        assert dead == self.DEAD
