import numpy as np
import pytest

from secap.errors import DimensionError
from secap.gradcheck import check_parameter_gradients
from secap.lfrm import LFRM, Fusion, TwoWayBlock
from secap.tensor import Tensor, mul, tsum

L, P, D, HEADS = 6, 8, 16, 2


def streams(rng, b=2, dtype=np.float32):
    f_p = Tensor(rng.standard_normal((b, L, D)).astype(dtype))
    f_i = Tensor(rng.standard_normal((b, P, D)).astype(dtype))
    return f_p, f_i


class TestTwoWayBlock:
    def test_zeroed_projections_identity_on_both_streams(self, rng):
        block = TwoWayBlock("b", D, HEADS, 2, rng)
        block.zero_output_projections()
        f_p, f_i = streams(rng)
        out_p, out_i = block(f_p, f_i)
        assert out_p.data.tobytes() == f_p.data.tobytes()
        assert out_i.data.tobytes() == f_i.data.tobytes()

    def test_shapes_preserved(self, rng):
        block = TwoWayBlock("b", D, HEADS, 2, rng)
        f_p, f_i = streams(rng)
        out_p, out_i = block(f_p, f_i)
        assert out_p.shape == (2, L, D)
        assert out_i.shape == (2, P, D)

    def test_gradient_reaches_both_inputs(self, rng):
        block = TwoWayBlock("b", D, HEADS, 2, rng, dtype=np.float64)
        f_p, f_i = streams(rng, dtype=np.float64)
        base_p, base_i = block(f_p, f_i)
        bump_p, _ = block(Tensor(f_p.data + 1e-3), f_i)
        _, bump_i = block(f_p, Tensor(f_i.data + 1e-3))
        assert np.abs(bump_p.data - base_p.data).max() > 1e-9
        assert np.abs(bump_i.data - base_i.data).max() > 1e-9

    def test_dim_mismatch_rejected(self, rng):
        block = TwoWayBlock("b", D, HEADS, 2, rng)
        with pytest.raises(DimensionError):
            block(Tensor(np.zeros((2, L, D), dtype=np.float32)),
                  Tensor(np.zeros((2, P, D + 2), dtype=np.float32)))


class TestFusion:
    def test_output_shape(self, rng):
        fusion = Fusion("f", D, HEADS, 2, rng)
        f_p, f_i = streams(rng)
        assert fusion(f_p, f_i).shape == (2, D)

    def test_zero_final_layer_gives_exact_zero(self, rng):
        fusion = Fusion("f", D, HEADS, 2, rng)
        fusion.zero_final_ffn()
        f_p, f_i = streams(rng)
        out = fusion(f_p, f_i)
        assert not out.data.any()

    def test_internal_sequence_includes_out_token(self, rng):
        fusion = Fusion("f", D, HEADS, 2, rng)
        fusion.sa.capture_attention = True
        f_p, f_i = streams(rng)
        fusion(f_p, f_i)
        assert fusion.sa.last_attention.shape == (2, HEADS, L + 1, L + 1)

    def test_invariant_to_image_token_permutation(self, rng):
        fusion = Fusion("f", D, HEADS, 2, rng, dtype=np.float64)
        f_p, f_i = streams(rng, dtype=np.float64)
        base = fusion(f_p, f_i).data
        perm = rng.permutation(P)
        moved = fusion(f_p, Tensor(f_i.data[:, perm])).data
        np.testing.assert_allclose(moved, base, atol=1e-5)


class TestLFRM:
    def test_end_to_end_shape_and_block_count(self, rng):
        lfrm = LFRM(D, HEADS, 2, rng)
        assert len(lfrm.blocks) == 2
        f_p, f_i = streams(rng)
        assert lfrm(f_p, f_i).shape == (2, D)

    def test_deterministic_repeat(self, rng):
        lfrm = LFRM(D, HEADS, 2, rng)
        f_p, f_i = streams(rng)
        a = lfrm(f_p, f_i).data
        b = lfrm(f_p, f_i).data
        assert a.tobytes() == b.tobytes()

    def test_fully_zeroed_module_passes_prompts_to_fusion_unchanged(self, rng):
        lfrm = LFRM(D, HEADS, 2, rng)
        for block in lfrm.blocks:
            block.zero_output_projections()
        lfrm.fusion.zero_final_ffn()
        f_p, f_i = streams(rng)
        assert not lfrm(f_p, f_i).data.any()

    def test_parameter_gradients_match_central_differences(self, rng):
        lfrm = LFRM(D, HEADS, 2, np.random.default_rng(9), dtype=np.float64)
        f_p, f_i = streams(rng, dtype=np.float64)
        # linear functional keeps gradients O(1)-conditioned at tiny init scale
        probe = Tensor(rng.standard_normal((2, D)))

        def loss_fn():
            return tsum(mul(lfrm(f_p, f_i), probe))

        worst, name, _ = check_parameter_gradients(
            lfrm.parameters(), loss_fn, coords_per_param=4, seed=2)
        assert worst < 1e-4, name
