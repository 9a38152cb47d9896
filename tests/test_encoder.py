import numpy as np
import pytest

from secap.encoder import Encoder, EncoderConfig, decouple_step, tokenize
from secap.errors import ConfigurationError, ContractError, DimensionError
from secap.gradcheck import check_parameter_gradients
from secap.tensor import Tensor, add, mul, tsum

TOY = dict(image_h=64, image_w=32, embed_dim=64, depth=2, heads=4)


def toy_cfg(**kw):
    merged = {**TOY, **kw}
    return EncoderConfig(**merged)


def toy_images(rng, b=2, cfg=None):
    cfg = cfg or toy_cfg()
    return rng.standard_normal((b, 3, cfg.image_h, cfg.image_w)).astype(np.float32)


class TestConfig:
    def test_default_token_count(self):
        assert EncoderConfig().num_patches == 128  # (256/16)*(128/16)

    def test_overlap_token_count(self):
        cfg = EncoderConfig(olp_enabled=True)
        assert cfg.stride == 12
        assert cfg.grid == (21, 10)
        assert cfg.num_patches == 210

    def test_single_patch(self):
        cfg = EncoderConfig(image_h=16, image_w=16, embed_dim=64, heads=4)
        assert cfg.num_patches == 1

    def test_token_count_closed_form_sweep(self, rng):
        for _ in range(50):
            patch = int(rng.integers(4, 17))
            stride = int(rng.integers(1, patch + 1))
            h = patch + int(rng.integers(0, 40))
            w = patch + int(rng.integers(0, 40))
            cfg = EncoderConfig(image_h=h, image_w=w, patch=patch, stride=stride,
                                embed_dim=8, heads=2, depth=1)
            nh = (h - patch) // stride + 1
            nw = (w - patch) // stride + 1
            assert cfg.num_patches == nh * nw

    def test_image_smaller_than_patch_rejected(self):
        with pytest.raises(ConfigurationError):
            EncoderConfig(image_h=8, image_w=8, embed_dim=8, heads=2)

    def test_heads_must_divide_dim(self):
        with pytest.raises(ConfigurationError):
            EncoderConfig(embed_dim=10, heads=3)


class TestTokenize:
    def test_raster_order(self):
        cfg = toy_cfg(depth=1)
        img = np.zeros((1, 3, 64, 32), dtype=np.float32)
        nh, nw = cfg.grid
        for r in range(nh):
            for c in range(nw):
                img[0, :, r * 16:(r + 1) * 16, c * 16:(c + 1) * 16] = r * nw + c
        tokens = tokenize(img, cfg)
        assert tokens.shape == (1, 8, 3 * 16 * 16)
        np.testing.assert_array_equal(tokens[0].mean(axis=1), np.arange(8))

    def test_overlapping_windows_share_pixels(self):
        cfg = EncoderConfig(image_h=28, image_w=16, patch=16, stride=12,
                            embed_dim=8, heads=2, depth=1)
        img = np.arange(1 * 3 * 28 * 16, dtype=np.float32).reshape(1, 3, 28, 16)
        tokens = tokenize(img, cfg)
        assert tokens.shape == (1, 2, 768)
        first = tokens[0, 0].reshape(3, 16, 16)
        second = tokens[0, 1].reshape(3, 16, 16)
        np.testing.assert_array_equal(first[:, 12:, :], second[:, :4, :])

    def test_size_mismatch_rejected(self):
        with pytest.raises(DimensionError):
            tokenize(np.zeros((1, 3, 32, 32), dtype=np.float32), toy_cfg())

    def test_rank_mismatch_rejected(self):
        with pytest.raises(DimensionError):
            tokenize(np.zeros((3, 64, 32), dtype=np.float32), toy_cfg())


class TestEmbed:
    def test_output_shape(self, rng):
        enc = Encoder(toy_cfg(), rng)
        out = enc.embed(tokenize(toy_images(rng), toy_cfg()))
        assert out.shape == (2, 8 + 2, 64)

    def test_zero_image_zero_projection_keeps_token_inits(self, rng):
        cfg = toy_cfg()
        enc = Encoder(cfg, rng)
        enc.proj.zero_()
        enc.pos.assign(np.zeros_like(enc.pos.data))
        out = enc.embed(tokenize(np.zeros((1, 3, 64, 32), dtype=np.float32), cfg))
        np.testing.assert_array_equal(out.data[0, 0], enc.cls_token.data[0, 0])
        np.testing.assert_array_equal(out.data[0, 1], enc.view_token.data[0, 0])
        np.testing.assert_array_equal(out.data[0, 2:], 0.0)

    def test_stale_positions_rejected(self, rng):
        enc = Encoder(toy_cfg(), rng)
        olp = toy_cfg(olp_enabled=True, depth=1)
        tokens = tokenize(toy_images(rng, cfg=olp), olp)
        with pytest.raises(ConfigurationError):
            enc.embed(tokens)


class TestEncoderBlock:
    def test_zeroed_projections_make_identity(self, rng):
        enc = Encoder(toy_cfg(depth=1), rng)
        enc.blocks[0].zero_output_projections()
        x = Tensor(rng.standard_normal((2, 10, 64)).astype(np.float32))
        out = enc.blocks[0](x)
        assert out.data.tobytes() == x.data.tobytes()

    def test_shape_preserved(self, rng):
        enc = Encoder(toy_cfg(depth=1), rng)
        x = Tensor(rng.standard_normal((2, 10, 64)).astype(np.float32))
        assert enc.blocks[0](x).shape == (2, 10, 64)

    def test_attention_rows_sum_to_one(self, rng):
        enc = Encoder(toy_cfg(depth=1), rng)
        enc.blocks[0].attn.capture_attention = True
        enc.blocks[0](Tensor(rng.standard_normal((2, 10, 64)).astype(np.float32)))
        attn = enc.blocks[0].attn.last_attention
        assert attn.shape == (2, 4, 10, 10)
        np.testing.assert_allclose(attn.sum(axis=-1), 1.0, atol=1e-6)


class TestDecoupleStep:
    def test_equal_tokens_zero_cls(self, rng):
        x = rng.standard_normal((1, 3, 4)).astype(np.float64)
        x[0, 0] = x[0, 1]
        out = decouple_step(Tensor(x))
        np.testing.assert_array_equal(out.data[0, 0], 0.0)

    def test_hand_values(self):
        x = np.zeros((1, 2, 2))
        x[0, 0] = [1.0, 2.0]
        x[0, 1] = [0.5, 0.5]
        out = decouple_step(Tensor(x))
        np.testing.assert_array_equal(out.data[0, 0], [0.5, 1.5])
        np.testing.assert_array_equal(out.data[0, 1], [0.5, 0.5])

    def test_locals_bit_identical(self, rng):
        x = rng.standard_normal((2, 6, 8)).astype(np.float32)
        out = decouple_step(Tensor(x))
        assert out.data[:, 2:].tobytes() == x[:, 2:].tobytes()

    def test_too_few_tokens(self):
        with pytest.raises(ContractError):
            decouple_step(Tensor(np.zeros((1, 1, 4))))


class TestEncode:
    def test_toy_shapes(self, rng):
        enc = Encoder(toy_cfg(), rng)
        out = enc.encode(toy_images(rng))
        assert out.x_inv.shape == (2, 64)
        assert out.view_feat.shape == (2, 64)
        assert out.x_local.shape == (2, 8, 64)

    def test_zero_blocks_equal_inits_give_zero_invariant(self, rng):
        # one decoupling pass: Cls - View == 0 when both start identical
        cfg = toy_cfg(depth=1)
        enc = Encoder(cfg, rng)
        enc.zero_output_projections()
        enc.pos.assign(np.zeros_like(enc.pos.data))
        enc.view_token.assign(enc.cls_token.data.copy())
        out = enc.encode(toy_images(rng, b=1, cfg=cfg))
        np.testing.assert_array_equal(out.x_inv.data, 0.0)

    def test_zero_inits_stay_zero_at_depth_two(self, rng):
        cfg = toy_cfg()
        enc = Encoder(cfg, rng)
        enc.zero_output_projections()
        enc.pos.assign(np.zeros_like(enc.pos.data))
        enc.cls_token.assign(np.zeros_like(enc.cls_token.data))
        enc.view_token.assign(np.zeros_like(enc.view_token.data))
        out = enc.encode(toy_images(rng, b=1, cfg=cfg))
        np.testing.assert_array_equal(out.x_inv.data, 0.0)

    def test_invariant_plus_view_equals_undecoupled_cls(self, rng):
        cfg = toy_cfg()
        enc = Encoder(cfg, rng)
        images = toy_images(rng)
        x = enc.embed(tokenize(images, cfg))
        for block in enc.blocks:
            x = block(x)
            pre_cls = x.data[:, 0].copy()
            x = decouple_step(x)
        out = enc.encode(images)
        np.testing.assert_allclose(out.x_inv.data + out.view_feat.data, pre_cls, atol=1e-5)

    def test_vdt_disabled_has_no_view_feature(self, rng):
        cfg = toy_cfg(vdt_enabled=False)
        enc = Encoder(cfg, rng)
        out = enc.encode(toy_images(rng, cfg=cfg))
        assert out.view_feat is None
        assert out.x_local.shape == (2, 8, 64)

    def test_patch_permutation_covariance_without_positions(self, rng):
        cfg = toy_cfg(depth=1, stride=16)
        enc = Encoder(cfg, rng, dtype=np.float64)
        enc.pos.assign(np.zeros_like(enc.pos.data))
        img = rng.standard_normal((1, 3, 64, 32))
        perm = rng.permutation(8)
        permuted = np.empty_like(img)
        nh, nw = cfg.grid
        for dst, src in enumerate(perm):
            rs, cs = divmod(int(src), nw)
            rd, cd = divmod(dst, nw)
            permuted[0, :, rd * 16:(rd + 1) * 16, cd * 16:(cd + 1) * 16] = \
                img[0, :, rs * 16:(rs + 1) * 16, cs * 16:(cs + 1) * 16]
        base = enc.encode(img)
        moved = enc.encode(permuted)
        np.testing.assert_allclose(moved.x_local.data[0], base.x_local.data[0][perm], atol=1e-10)
        np.testing.assert_allclose(moved.x_inv.data, base.x_inv.data, atol=1e-10)


class TestEncoderGradients:
    def test_parameter_gradients_match_central_differences(self, rng):
        cfg = EncoderConfig(image_h=16, image_w=16, embed_dim=16, depth=1, heads=2,
                            ffn_mult=2)
        enc = Encoder(cfg, np.random.default_rng(7), dtype=np.float64)
        images = rng.standard_normal((2, 3, 16, 16))

        def loss_fn():
            out = enc.encode(images)
            return add(add(tsum(mul(out.x_inv, out.x_inv)), tsum(mul(out.x_local, out.x_local))),
                       tsum(mul(out.view_feat, out.view_feat)))

        worst, name, _ = check_parameter_gradients(
            enc.parameters(), loss_fn, coords_per_param=4, seed=3)
        assert worst < 1e-4, name
