import numpy as np
import pytest

from secap.errors import DimensionError
from secap.gradcheck import check_parameter_gradients
from secap.lfrm import LFRM, Fusion, TwoWayBlock
from secap.nn import expand_rows
from secap.tensor import Tensor, backward, concat, mul, narrow, recording, reshape, tape, tsum

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
        block = TwoWayBlock("b", D, HEADS, 2, rng).astype(np.float64)
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
        fusion.ffn.zero_output_projections()
        f_p, f_i = streams(rng)
        out = fusion(f_p, f_i)
        assert not out.data.any()

    def test_internal_sequence_includes_out_token(self, rng):
        # the output token is the only query; it attends over [out_token; prompts]
        fusion = Fusion("f", D, HEADS, 2, rng)
        f_p, f_i = streams(rng)
        with recording():
            fusion(f_p, f_i)
            ca, sa = [e for e in tape().entries if e.backward_rule.__qualname__.startswith("attention.")]
            queries, keys, _ = sa.inputs
            assert ca.output.shape == (2, L + 1, D)
            assert queries.shape == (2, 1, D) and keys.shape == (2, L + 1, D)

    def test_ffn_runs_on_the_output_token_alone(self, rng, monkeypatch):
        fusion = Fusion("f", D, HEADS, 2, rng)
        seen = []
        ffn = fusion.ffn

        def spy(x):
            seen.append(x.shape)
            return ffn(x)

        monkeypatch.setattr(fusion, "ffn", spy)
        f_p, f_i = streams(rng, b=3)
        fusion(f_p, f_i)
        assert seen == [(3, 1, D)]

    def test_invariant_to_image_token_permutation(self, rng):
        fusion = Fusion("f", D, HEADS, 2, rng).astype(np.float64)
        f_p, f_i = streams(rng, dtype=np.float64)
        base = fusion(f_p, f_i).data
        perm = rng.permutation(P)
        moved = fusion(f_p, Tensor(f_i.data[:, perm])).data
        np.testing.assert_allclose(moved, base, atol=1e-5)


def full_sequence_fusion(fusion, f_p, f_i):
    """Oracle: every row of [out_token; prompts] runs through sa and the FFN,
    then only the output token's row is kept."""
    b, _, d = f_p.shape
    seq = concat([expand_rows(fusion.out_token, b), f_p], axis=1)
    h = fusion.ca(seq, f_i)
    h = fusion.ffn(fusion.sa(h, h))
    return reshape(narrow(h, 1, 0, 1), (b, d))


def relative_error(new, old):
    return np.abs(new - old).max() / np.abs(old).max()


def gradients(fusion, f_p, f_i, out, probe):
    """Every parameter's and input's gradient of sum(out * probe), flattened."""
    leaves = fusion.parameters() + [f_p, f_i]
    for t in leaves:
        t.zero_grad()
    backward(tsum(mul(out, probe)))
    return np.concatenate([t.grad.ravel() for t in leaves])


# (B, L, P, heads): single batch row, single prompt, single image token, 1 and 2 heads
ORACLE_SHAPES = [(1, 1, 1, 1), (1, 1, 1, 2), (1, 6, 8, 1), (2, 1, 8, 2), (3, 4, 1, 2), (2, 6, 8, 2)]


class TestFusionMatchesFullSequence:
    @pytest.mark.parametrize("dtype,rtol", [(np.float64, 1e-12), (np.float32, 1e-6)])
    @pytest.mark.parametrize("b,length,patches,heads", ORACLE_SHAPES)
    def test_output(self, b, length, patches, heads, dtype, rtol, rng):
        fusion = Fusion("f", D, heads, 2, rng).astype(dtype)
        f_p = Tensor(rng.standard_normal((b, length, D)).astype(dtype))
        f_i = Tensor(rng.standard_normal((b, patches, D)).astype(dtype))
        out = fusion(f_p, f_i)
        assert out.shape == (b, D) and out.dtype == dtype
        assert relative_error(out.data, full_sequence_fusion(fusion, f_p, f_i).data) <= rtol

    @pytest.mark.parametrize("b,length,patches,heads", ORACLE_SHAPES)
    def test_gradients(self, b, length, patches, heads, rng):
        fusion = Fusion("f", D, heads, 2, rng).astype(np.float64)
        f_p = Tensor(rng.standard_normal((b, length, D)), requires_grad=True)
        f_i = Tensor(rng.standard_normal((b, patches, D)), requires_grad=True)
        probe = Tensor(rng.standard_normal((b, D)))
        with recording():
            new = gradients(fusion, f_p, f_i, fusion(f_p, f_i), probe)
            old = gradients(fusion, f_p, f_i, full_sequence_fusion(fusion, f_p, f_i), probe)
        assert relative_error(new, old) <= 1e-12


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
        lfrm.fusion.ffn.zero_output_projections()
        f_p, f_i = streams(rng)
        assert not lfrm(f_p, f_i).data.any()

    def test_parameter_gradients_match_central_differences(self, rng):
        lfrm = LFRM(D, HEADS, 2, np.random.default_rng(9)).astype(np.float64)
        f_p, f_i = streams(rng, dtype=np.float64)
        # linear functional keeps gradients O(1)-conditioned at tiny init scale
        probe = Tensor(rng.standard_normal((2, D)))

        def loss_fn():
            return tsum(mul(lfrm(f_p, f_i), probe))

        worst, name, _ = check_parameter_gradients(
            lfrm.parameters(), loss_fn, coords_per_param=4, seed=2)
        assert worst < 1e-4, name
