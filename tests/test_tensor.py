import ast
import math
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import scipy.special

import secap.tensor
from secap.encoder import decouple_step
from secap.errors import ConfigurationError, ContractError, DimensionError, NumericError
from secap.gradcheck import NoiseSource, check_parameter_gradients, finite_diff_check
from secap.losses import ce_loss, orthogonality_loss
from secap.nn import Linear
from secap.optim import SGD, cosine_lr
from secap.tensor import (
    Parameter, Tensor, add, attention, backward, concat, feed_forward, layer_norm, linear, mul,
    narrow, record, recording, reshape, tape, tsum,
)


def t64(data, requires_grad=False):
    return Tensor(np.asarray(data, dtype=np.float64), requires_grad=requires_grad)


def np_softmax(x):
    e = np.exp(x - x.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def attention_softmax(x):
    """Row softmax of a matrix taken through the fused attention op: with one
    head of width 1, q = 1 and k = the row, the scores are the row itself."""
    n, m = x.shape
    q = Tensor(np.ones((n, 1, 1), dtype=x.dtype))
    kv = Tensor(x.reshape(n, m, 1))
    return attention(q, kv, kv, 1)[1][:, 0, 0]


class TestCoreSurface:
    def test_every_exported_name_is_imported_by_another_module(self):
        """The autodiff core exports only what the rest of the package uses.

        `tsum` is the exception: no layer reduces through it, but the gradient
        tests here reduce to a scalar with it."""
        src = Path(secap.tensor.__file__).parent
        imported = set()
        for path in src.glob("*.py"):
            if path.name == "tensor.py":
                continue
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module == "tensor":
                    imported.update(alias.name for alias in node.names)
        assert sorted(set(secap.tensor.__all__) - imported) == ["tsum"]


class TestConstruction:
    def test_python_lists_default_to_float32(self):
        assert Tensor([1.0, 2.0]).dtype == np.float32
        assert Tensor([1, 2, 3]).dtype == np.float32

    def test_numpy_float64_is_preserved(self):
        assert Tensor(np.zeros(3, dtype=np.float64)).dtype == np.float64

    def test_copy_false_adopts_only_a_c_ordered_float_array(self):
        """copy=False takes the caller's C-ordered float array as the tensor's own, rank 0
        included, and copies anything else to C order; the default never aliases the caller."""
        arr = np.arange(6, dtype=np.float32).reshape(2, 3)
        assert Tensor(arr, copy=False).data is arr
        assert not np.shares_memory(Tensor(arr).data, arr)
        transposed = Tensor(arr.T, copy=False).data
        assert transposed.flags.c_contiguous and np.array_equal(transposed, arr.T)
        scalar = np.array(2.0)
        assert Tensor(scalar, copy=False).data is scalar

    def test_item_rejects_non_scalar(self):
        with pytest.raises(ContractError):
            Tensor([1.0, 2.0]).item()


class TestElementwise:
    def test_add_hand_value(self):
        out = add(Tensor([1.0, 2.0]), Tensor([3.0, 4.0]))
        np.testing.assert_array_equal(out.data, [4.0, 6.0])

    def test_mul_scalar_broadcast(self):
        out = mul(Tensor([1.0, 2.0, 3.0]), Tensor([2.0]))
        np.testing.assert_array_equal(out.data, [2.0, 4.0, 6.0])

    def test_non_broadcastable_shapes_raise(self):
        with pytest.raises(DimensionError):
            add(Tensor(np.zeros((2, 3))), Tensor(np.zeros((4, 5))))

    def test_broadcast_gradient_sums_over_expanded_axes(self):
        b = t64(np.ones((1, 3)), requires_grad=True)
        a = t64(np.ones((4, 3)), requires_grad=True)
        with recording():
            backward(tsum(add(a, b)))
        np.testing.assert_array_equal(b.grad, np.full((1, 3), 4.0))
        np.testing.assert_array_equal(a.grad, np.ones((4, 3)))


class TestMatmul:
    """Matrix products, which linear takes without a bias."""

    def test_identity(self):
        a = Tensor([[1.0, 2.0], [3.0, 4.0]])
        eye = Tensor(np.eye(2, dtype=np.float32))
        np.testing.assert_array_equal(linear(a, eye).data, a.data)

    def test_hand_product(self):
        out = linear(Tensor([[1.0, 2.0], [3.0, 4.0]]), Tensor([[5.0, 6.0], [7.0, 8.0]]))
        np.testing.assert_array_equal(out.data, [[19.0, 22.0], [43.0, 50.0]])

    def test_inner_dim_mismatch_names_shapes(self):
        with pytest.raises(DimensionError, match=r"\(2, 3\)"):
            linear(Tensor(np.zeros((2, 3))), Tensor(np.zeros((4, 5))))

    def test_rank_one_operand_rejected(self):
        with pytest.raises(DimensionError):
            linear(Tensor([1.0, 2.0]), Tensor(np.zeros((2, 2))))


class TestLinear:
    TOL = 1e-6

    @pytest.mark.parametrize("lead", [(5,), (2, 5), (2, 3, 5)], ids=["rank2", "rank3", "rank4"])
    @pytest.mark.parametrize("with_bias", [True, False], ids=["bias", "nobias"])
    def test_matches_central_differences(self, rng, lead, with_bias):
        x0 = rng.standard_normal((*lead, 4))
        w0 = rng.standard_normal((4, 3))
        b0 = rng.standard_normal(3)
        readout = Tensor(rng.standard_normal((*lead, 3)))

        def loss(x, w, b=None):
            return tsum(mul(linear(x, w, b if with_bias else None), readout))

        out = linear(t64(x0), t64(w0), t64(b0) if with_bias else None)
        np.testing.assert_allclose(out.data, x0 @ w0 + (b0 if with_bias else 0.0), rtol=1e-12)
        assert finite_diff_check(lambda t: loss(t, t64(w0), t64(b0)), t64(x0)) < self.TOL
        # x is a constant here, as images are
        assert finite_diff_check(lambda t: loss(t64(x0), t, t64(b0)), t64(w0)) < self.TOL
        if with_bias:
            assert finite_diff_check(lambda t: loss(t64(x0), t64(w0), t), t64(b0)) < self.TOL

    def test_one_tape_entry_and_no_gradient_for_a_constant_input(self, rng):
        x = t64(rng.standard_normal((2, 3, 4)))
        w = t64(rng.standard_normal((4, 3)), requires_grad=True)
        b = t64(rng.standard_normal(3), requires_grad=True)
        with recording():
            out = linear(x, w, b)
            assert len(tape().entries) == 1
            gx, gw, gb = tape().entries[0].backward_rule(np.ones(out.shape))
            assert gx is None and gw.shape == (4, 3) and gb.shape == (3,)

    def test_shape_errors(self):
        w = Tensor(np.zeros((4, 3)))
        with pytest.raises(DimensionError):
            linear(Tensor(np.zeros(4)), w)
        with pytest.raises(DimensionError, match=r"\(2, 5\)"):
            linear(Tensor(np.zeros((2, 5))), w)
        with pytest.raises(DimensionError, match="bias"):
            linear(Tensor(np.zeros((2, 4))), w, Tensor(np.zeros(4)))


class TestShapeOps:
    def test_concat_single_input_is_identity(self):
        a = Tensor([[1.0, 2.0]])
        np.testing.assert_array_equal(concat([a], axis=0).data, a.data)

    def test_concat_prepends_token(self, rng):
        cls = Tensor(rng.standard_normal((1, 8)))
        seq = Tensor(rng.standard_normal((5, 8)))
        assert concat([cls, seq], axis=0).shape == (6, 8)

    def test_concat_split_round_trip_bit_exact(self, rng):
        parts = [rng.standard_normal((n, 4)).astype(np.float32) for n in (1, 3, 2)]
        joined = concat([Tensor(p) for p in parts], axis=0)
        back = [narrow(joined, 0, start, n) for start, n in ((0, 1), (1, 3), (4, 2))]
        for p, b in zip(parts, back):
            assert p.tobytes() == b.data.tobytes()

    def test_concat_dim_mismatch(self):
        with pytest.raises(DimensionError):
            concat([Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 4)))], axis=0)

    def test_concat_axis_out_of_range(self):
        with pytest.raises(DimensionError):
            concat([Tensor(np.zeros((2, 3)))], axis=5)

    def test_narrow_out_of_bounds(self):
        with pytest.raises(DimensionError):
            narrow(Tensor(np.zeros((3, 4))), axis=1, start=2, length=5)


class TestSoftmax:
    """The softmax inside the fused attention op, read through its weights."""

    def test_uniform(self):
        np.testing.assert_allclose(attention_softmax(np.zeros((1, 2))), [[0.5, 0.5]])

    def test_hand_values(self):
        out = attention_softmax(np.array([[1.0, 2.0, 3.0]]))
        np.testing.assert_allclose(out, [[0.09003057, 0.24472847, 0.66524096]], atol=1e-4)

    def test_shift_invariance(self, rng):
        x = rng.standard_normal((4, 7))
        a = attention_softmax(x)
        b = attention_softmax(x + 123.0)
        np.testing.assert_allclose(a, b, atol=1e-6)
        np.testing.assert_allclose(a, np_softmax(x), atol=1e-12)

    def test_rows_sum_to_one(self, rng):
        for _ in range(20):
            x = rng.standard_normal((3, 5)) * 10.0
            np.testing.assert_allclose(attention_softmax(x).sum(axis=-1), 1.0, atol=1e-6)


class TestAttention:
    @staticmethod
    def composite(q, k, v, heads):
        """The unfused op sequence, each step a contiguous copy: head split,
        k transpose, scores, scale, max-shifted softmax, weights times v, head
        merge. The oracle for the fused forward."""
        b, tq, d = q.shape
        hd = d // heads

        def split(x):
            return np.ascontiguousarray(x.reshape(b, x.shape[1], heads, hd).transpose(0, 2, 1, 3))

        qh, kh, vh = split(q), split(k), split(v)
        scores = np.matmul(qh, np.ascontiguousarray(np.swapaxes(kh, -1, -2)))
        scores = scores * np.asarray(1.0 / math.sqrt(hd), dtype=q.dtype)
        e = np.exp(scores - scores.max(axis=-1, keepdims=True))
        p = e / e.sum(axis=-1, keepdims=True)
        out = np.ascontiguousarray(np.matmul(p, vh).transpose(0, 2, 1, 3)).reshape(b, tq, d)
        return out, p

    SHAPES = {"self": (2, 5, 5, 8, 2), "cross": (2, 4, 7, 8, 2), "one_key": (2, 4, 1, 8, 2)}

    def qkv(self, rng, case, dtype=np.float64):
        b, tq, tk, d, _ = self.SHAPES[case]
        return (rng.standard_normal((b, tq, d)).astype(dtype),
                rng.standard_normal((b, tk, d)).astype(dtype),
                rng.standard_normal((b, tk, d)).astype(dtype))

    @pytest.mark.parametrize("case", ["self", "cross", "one_key"])
    @pytest.mark.parametrize("slot", [0, 1, 2])
    def test_matches_central_differences(self, rng, case, slot):
        heads = self.SHAPES[case][-1]
        arrays = self.qkv(rng, case)
        readout = Tensor(rng.standard_normal(arrays[0].shape))

        def f(t):
            args = [t if i == slot else Tensor(a) for i, a in enumerate(arrays)]
            return tsum(mul(attention(*args, heads)[0], readout))

        assert finite_diff_check(f, t64(arrays[slot])) < 1e-6

    # float32 is bit-equal; float64 BLAS rounds the strided head views of the
    # fused op and the contiguous copies of the composite apart in the last bit
    @pytest.mark.parametrize("dtype,rtol", [(np.float32, 0.0), (np.float64, 1e-13)])
    @pytest.mark.parametrize("case", ["self", "cross", "one_key"])
    def test_forward_matches_composite(self, rng, case, dtype, rtol):
        heads = self.SHAPES[case][-1]
        q, k, v = self.qkv(rng, case, dtype)
        out, weights = attention(Tensor(q), Tensor(k), Tensor(v), heads)
        ref_out, ref_weights = self.composite(q, k, v, heads)
        assert out.dtype == dtype and weights.dtype == dtype
        np.testing.assert_allclose(out.data, ref_out, rtol=rtol, atol=0.0)
        np.testing.assert_allclose(weights, ref_weights, rtol=rtol, atol=0.0)

    def test_head_split_merge_round_trip(self, rng):
        # one key: every weight is exactly 1, so each output row is v's row
        q, k, v = self.qkv(rng, "one_key", np.float32)
        out, weights = attention(Tensor(q), Tensor(k), Tensor(v), 2)
        assert np.all(weights == 1.0)
        np.testing.assert_array_equal(out.data, np.broadcast_to(v, q.shape))

    @pytest.mark.parametrize("tracked", [(True, False, False), (False, True, False),
                                         (False, False, True), (True, True, True)])
    def test_one_entry_whose_rule_skips_constant_inputs(self, rng, tracked):
        arrays = self.qkv(rng, "cross")
        with recording():
            out, _ = attention(*(Tensor(a, requires_grad=r) for a, r in zip(arrays, tracked)), 2)
            entry, = tape().entries
            grads = entry.backward_rule(np.ones(out.shape))
            assert [g is not None for g in grads] == list(tracked)
            for g, a in zip(grads, arrays):
                assert g is None or g.shape == a.shape

    @staticmethod
    def reduced_max_reference(q, k, v, heads, g):
        """The fused op's forward and backward as they were when every row took
        its softmax maximum with numpy's row reduction: output, weights, and
        the gradients of q, k and v for the output gradient g."""
        b, _, d = q.shape
        head_dim = d // heads
        scale = 1.0 / math.sqrt(head_dim)

        def split(x):
            return x.reshape(b, x.shape[1], heads, head_dim).transpose(0, 2, 1, 3)

        def merge(x):
            return x.transpose(0, 2, 1, 3).reshape(b, x.shape[2], d)

        qh, kh, vh = split(q), split(k), split(v)
        p = np.matmul(qh, kh.swapaxes(-1, -2)) * scale
        p -= p.max(axis=-1, keepdims=True)
        np.exp(p, out=p)
        p /= p.sum(axis=-1, keepdims=True)
        go = split(g)
        gv = merge(np.matmul(p.swapaxes(-1, -2), go))
        gp = np.matmul(go, vh.swapaxes(-1, -2))
        gs = p * (gp - (gp * p).sum(axis=-1, keepdims=True)) * scale
        gq, gk = merge(np.matmul(gs, kh)), merge(np.matmul(gs.swapaxes(-1, -2), qh))
        return merge(np.matmul(p, vh)), p, (gq, gk, gv)

    @staticmethod
    def special_rows(rng, keys):
        """One row of scores per case, `keys` wide: plain, a NaN, +inf, -inf,
        both infinities, all -inf, zeros of both signs, and zeros with negatives."""
        rows = rng.standard_normal((8, keys))
        col = rng.integers(0, keys, size=8)
        rows[1, col[1]] = np.nan
        rows[2, col[2]] = np.inf
        rows[3, col[3]] = -np.inf
        rows[4, col[4]], rows[4, -1 - col[4]] = np.inf, -np.inf
        rows[5] = -np.inf
        rows[6] = np.where(rng.integers(0, 2, size=keys) == 1, 0.0, -0.0)
        rows[7] = -np.abs(rows[7])
        rows[7, col[7]], rows[7, -1 - col[7]] = 0.0, -0.0
        return rows

    @pytest.mark.parametrize("keys", range(1, 21))
    def test_bit_equal_to_the_reduced_row_max(self, rng, keys):
        # head 0's scores are k's first column (q is 1 on a head width of 1,
        # so the scale is 1); numpy's matmul makes no -0 there, so signed
        # zeros are checked on _softmax_rows below
        q = np.ones((8, 1, 2))
        k = np.zeros((8, keys, 2))
        k[:, :, 0] = self.special_rows(rng, keys)
        k[:, :, 1] = rng.standard_normal((8, keys))
        v = rng.standard_normal((8, keys, 2))
        g = rng.standard_normal((8, 1, 2))
        with np.errstate(invalid="ignore"):
            ref_out, ref_weights, ref_grads = self.reduced_max_reference(q, k, v, 2, g)
            with recording():
                tensors = [Tensor(a, requires_grad=True) for a in (q, k, v)]
                out, weights = attention(*tensors, 2)
                entry, = tape().entries
                grads = entry.backward_rule(g)
            for x in (np.zeros((8, keys)), self.special_rows(rng, keys)):  # signed zeros, straight in
                assert secap.tensor._softmax_rows(x.copy()).tobytes() == np_softmax(x).tobytes()
        assert out.data.tobytes() == ref_out.tobytes() and weights.tobytes() == ref_weights.tobytes()
        for grad, ref in zip(grads, ref_grads):
            assert grad.dtype == np.float64 and grad.tobytes() == ref.tobytes()

    def test_shape_errors(self):
        x = Tensor(np.zeros((2, 3, 8)))
        with pytest.raises(DimensionError, match="heads"):
            attention(x, x, x, 3)
        with pytest.raises(DimensionError):
            attention(x, Tensor(np.zeros((2, 3, 4))), Tensor(np.zeros((2, 3, 4))), 2)
        with pytest.raises(DimensionError):
            attention(x, x, Tensor(np.zeros((2, 4, 8))), 2)
        with pytest.raises(DimensionError):
            attention(Tensor(np.zeros((3, 8))), x, x, 2)


class TestLayerNorm:
    def gamma_beta(self, d, g=1.0, b=0.0):
        return t64(np.full(d, g)), t64(np.full(d, b))

    def test_constant_slice_maps_to_zero(self):
        gamma, beta = self.gamma_beta(3)
        out = layer_norm(t64([5.0, 5.0, 5.0]), gamma, beta)
        np.testing.assert_allclose(out.data, 0.0, atol=1e-3)

    def test_two_point_slice(self):
        gamma, beta = self.gamma_beta(2)
        out = layer_norm(t64([1.0, 3.0]), gamma, beta)
        np.testing.assert_allclose(out.data, [-1.0, 1.0], atol=1e-5)

    def test_affine_only(self):
        gamma, beta = self.gamma_beta(2, g=0.0, b=7.0)
        out = layer_norm(t64([1.0, 3.0]), gamma, beta)
        np.testing.assert_array_equal(out.data, [7.0, 7.0])

    def test_mismatched_affine_shapes(self):
        gamma, beta = self.gamma_beta(3)
        with pytest.raises(DimensionError):
            layer_norm(t64([[1.0, 2.0]]), gamma, beta)

    def test_normalizes_mean_and_variance(self, rng):
        gamma, beta = self.gamma_beta(16)
        x = t64(rng.standard_normal((4, 16)) * 3.0 + 5.0)
        y = layer_norm(x, gamma, beta).data
        np.testing.assert_allclose(y.mean(axis=-1), 0.0, atol=1e-7)
        np.testing.assert_allclose(y.var(axis=-1), 1.0, atol=1e-4)

    @staticmethod
    def composite(x, gamma, beta, eps=1e-5):
        """The formula as separate tape ops: the oracle for the fused op."""
        def rsqrt(a):  # the one step the op set has no op for
            inv = 1.0 / np.sqrt(a.data)
            return record(inv, (a,), lambda g: (g * -0.5 * inv * inv * inv,))

        def mean(a):  # over the last axis, kept
            inv_d = Tensor(np.asarray(1.0 / a.shape[-1], dtype=a.dtype))
            return mul(tsum(a, axis=-1, keepdims=True), inv_d)

        xc = add(x, mul(mean(x), Tensor(np.asarray(-1.0, dtype=x.dtype))))
        var = mean(mul(xc, xc))
        inv_std = rsqrt(add(var, Tensor(np.asarray(eps, dtype=x.dtype))))
        return add(mul(mul(xc, inv_std), gamma), beta)

    @pytest.mark.parametrize("dtype,rtol", [(np.float64, 1e-10), (np.float32, 1e-4)])
    def test_fused_matches_composite_values_and_gradients(self, rng, dtype, rtol):
        x0 = (rng.standard_normal((2, 3, 8)) * 2.0 + 1.0).astype(dtype)
        g0 = (1.0 + 0.3 * rng.standard_normal(8)).astype(dtype)
        b0 = rng.standard_normal(8).astype(dtype)
        readout = Tensor(rng.standard_normal((2, 3, 8)).astype(dtype))
        results = []
        for fn in (layer_norm, self.composite):
            x, g, b = (Tensor(a, requires_grad=True) for a in (x0, g0, b0))
            with recording():
                y = fn(x, g, b)
                backward(tsum(mul(y, readout)))
            results.append((y.data, x.grad, g.grad, b.grad))
        for fused, oracle in zip(*results):
            assert fused.dtype == dtype
            np.testing.assert_allclose(fused, oracle, rtol=rtol, atol=rtol)

    def test_one_tape_entry(self, rng):
        x = t64(rng.standard_normal((3, 4)), requires_grad=True)
        gamma, beta = self.gamma_beta(4)
        with recording():
            layer_norm(x, gamma, beta)
            assert len(tape().entries) == 1


def gelu_through_ffn(x):
    """GELU of a vector through the fused op: one hidden unit between 1 x 1 identity weights.
    x * 1 is exact and -0.0 is the additive identity that keeps the sign of a zero."""
    one, zero = np.ones((1, 1), x.dtype), np.full(1, -0.0, x.dtype)
    return feed_forward(Tensor(x.reshape(-1, 1), requires_grad=True),
                        Tensor(one), Tensor(zero), Tensor(one), Tensor(zero))


def gelu_ref(a):
    """The unfused GELU op: float32 Phi from the blocked rational erf, and its rule."""
    data, phi = secap.tensor._gelu_f32(a.data)

    def gelu(g):
        return (g * (phi + a.data * (np.exp(a.data * -0.5 * a.data) / math.sqrt(2.0 * math.pi))),)

    return record(data, (a,), gelu)


class TestGelu:
    def test_zero(self):
        assert secap.tensor._gelu_f32(np.zeros(1, np.float32))[0][0] == 0.0
        assert gelu_through_ffn(np.zeros(1, np.float32)).data[0, 0] == 0.0

    def test_unit_input(self):
        assert abs(gelu_through_ffn(np.array([1.0])).data[0, 0] - 0.8413447) < 1e-3

    def test_deep_negative_tail(self):
        assert abs(gelu_through_ffn(np.array([-10.0])).data[0, 0]) < 1e-6

    @staticmethod
    def phi64(x):
        return 0.5 * (1.0 + scipy.special.erf(x.astype(np.float64) / math.sqrt(2.0)))

    @pytest.mark.parametrize("blocks, extra", [(0, 1), (1, -1), (1, 0), (1, 1), (3, 77)],
                             ids=["one", "block-1", "block", "block+1", "three-blocks-and-tail"])
    def test_float32_phi_within_3e7_across_block_boundaries(self, blocks, extra):
        n = blocks * secap.tensor._GELU_BLOCK + extra
        x = np.linspace(-8.0, 8.0, n, dtype=np.float32)
        out, phi = secap.tensor._gelu_f32(x)
        assert phi.dtype == np.float32 and phi.shape == x.shape
        assert np.abs(phi - self.phi64(x)).max() <= 3e-7
        np.testing.assert_array_equal(out, x * phi)
        np.testing.assert_array_equal(gelu_through_ffn(x).data[:, 0], out)

    def test_float32_special_values_match_float64_path(self):
        x = np.array([np.nan, np.inf, -np.inf, 0.0, -0.0], dtype=np.float64)
        with np.errstate(invalid="ignore"):
            got, _ = secap.tensor._gelu_f32(x.astype(np.float32))
            want = x * self.phi64(x)  # the float64 path's formula
        assert got.dtype == np.float32
        np.testing.assert_array_equal(got, want.astype(np.float32))
        assert np.array_equal(np.signbit(got), np.signbit(want))

    def test_float32_backward_is_the_reference_formula(self, rng):
        x = rng.standard_normal(4 * 10 * 33).astype(np.float32) * np.float32(3.0)
        g = rng.standard_normal((x.size, 1)).astype(np.float32)
        _, phi = secap.tensor._gelu_f32(x)
        with recording():
            gelu_through_ffn(x)
            got = tape().entries[0].backward_rule(g)[0][:, 0]
        pdf = np.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)
        want = g[:, 0] * (phi + x * pdf)
        assert got.dtype == np.float32
        np.testing.assert_array_equal(got, want)

    def test_float32_nan_is_named_under_debug_checks(self, monkeypatch):
        monkeypatch.setattr(secap.tensor, "_debug_checks", True)
        with np.errstate(invalid="ignore"), \
                pytest.raises(NumericError, match=r"op 'feed_forward' at index \(1, 0\)"):
            gelu_through_ffn(np.array([1.0, np.nan], dtype=np.float32))


class TestFeedForward:
    TOL = 1e-6

    @staticmethod
    def weights(rng, d=6, hidden=24, dtype=np.float32):
        shapes = [("fc1.weight", (d, hidden)), ("fc1.bias", (hidden,)),
                  ("fc2.weight", (hidden, d)), ("fc2.bias", (d,))]
        return [Parameter(name, rng.standard_normal(shape).astype(dtype) / math.sqrt(shape[0]))
                for name, shape in shapes]

    @pytest.mark.parametrize("shape", [(2, 5, 6), (7, 6)], ids=["rank3", "rank2"])
    @pytest.mark.parametrize("x_grad", [True, False], ids=["x-grad", "x-constant"])
    def test_bit_equal_to_the_unfused_chain(self, rng, shape, x_grad):
        ws = self.weights(rng)
        x = Tensor(rng.standard_normal(shape).astype(np.float32) * np.float32(2.0), requires_grad=x_grad)
        readout = Tensor(rng.standard_normal(shape).astype(np.float32))
        chains = [lambda x: feed_forward(x, *ws),
                  lambda x: linear(gelu_ref(linear(x, ws[0], ws[1])), ws[2], ws[3])]
        results = []
        for chain in chains:
            for t in (x, *ws):
                t.zero_grad()
            with recording():
                y = chain(x)
                backward(tsum(mul(y, readout)))
            results.append([y.data, x.grad, *(w.grad for w in ws)])
        fused, unfused = results
        assert (fused[1] is None) == (not x_grad) and (unfused[1] is None) == (not x_grad)
        for got, want in zip(fused, unfused):
            if want is not None:
                assert got.dtype == np.float32 and got.shape == want.shape
                np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("slot", range(5), ids=["x", "w1", "b1", "w2", "b2"])
    def test_matches_central_differences(self, rng, slot):
        x0 = rng.standard_normal((2, 3, 4))
        leaves = [x0] + [w.data for w in self.weights(rng, d=4, hidden=8, dtype=np.float64)]
        readout = Tensor(rng.standard_normal((2, 3, 4)))

        def loss(t):
            args = [t if i == slot else t64(v) for i, v in enumerate(leaves)]
            return tsum(mul(feed_forward(*args), readout))

        assert finite_diff_check(loss, t64(leaves[slot])) < self.TOL

    def test_one_tape_entry_and_no_gradient_for_a_constant_input(self, rng):
        x = Tensor(rng.standard_normal((3, 6)).astype(np.float32))
        with recording():
            out = feed_forward(x, *self.weights(rng))
            assert len(tape().entries) == 1
            assert tape().entries[0].backward_rule.__qualname__.startswith("feed_forward.")
            grads = tape().entries[0].backward_rule(np.ones(out.shape, np.float32))
            assert grads[0] is None and [g.shape for g in grads[1:]] == [(6, 24), (24,), (24, 6), (6,)]

    @pytest.mark.parametrize("slot, shape", [(1, (5, 24)), (2, (23,)), (3, (23, 6)), (4, (5,))],
                             ids=["w1", "b1", "w2", "b2"])
    def test_shape_errors_are_dimension_errors(self, rng, slot, shape):
        args = [Tensor(np.zeros((3, 6), np.float32))] + self.weights(rng)
        args[slot] = Tensor(np.zeros(shape, np.float32))
        with pytest.raises(DimensionError, match=r"feed_forward.*" + re.escape(str(shape))):
            feed_forward(*args)

    def test_keeps_two_hidden_size_arrays_and_none_after_backward(self, rng):
        """One recorded entry holds fc1's output and Phi, and no GELU output."""
        rows, hidden = 2048, 512
        ws = self.weights(rng, d=4, hidden=hidden)
        x = Tensor(rng.standard_normal((rows, 4)).astype(np.float32), requires_grad=True)
        size = rows * hidden * 4  # bytes of one float32 hidden-size array
        tracemalloc.start()
        try:
            with recording():
                y = feed_forward(x, *ws)
                held, _ = tracemalloc.get_traced_memory()
                backward(tsum(y))
            del y
            left, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert 2 * size <= held < 2.5 * size
        assert left < 0.5 * size


class TestBackward:
    def test_sum_gradient_is_ones(self):
        x = t64([1.0, 2.0, 3.0], requires_grad=True)
        with recording():
            backward(tsum(x))
        np.testing.assert_array_equal(x.grad, [1.0, 1.0, 1.0])

    def test_sum_of_squares_gradient(self):
        x = t64([1.0, 2.0], requires_grad=True)
        with recording():
            backward(tsum(mul(x, x)))
        np.testing.assert_allclose(x.grad, [2.0, 4.0])

    def test_second_backward_without_recording_raises(self):
        x = t64([1.0], requires_grad=True)
        with recording():
            loss = tsum(mul(x, x))
            backward(loss)
            with pytest.raises(ContractError):
                backward(loss)

    def test_non_scalar_loss_rejected(self):
        x = t64([1.0, 2.0], requires_grad=True)
        y = mul(x, x)
        with pytest.raises(ContractError):
            backward(y)

    def test_reused_tensor_accumulates(self):
        x = t64([3.0], requires_grad=True)
        with recording():
            backward(tsum(add(mul(x, x), x)))  # d/dx (x^2 + x) = 2x + 1
        np.testing.assert_allclose(x.grad, [7.0])

    def test_only_leaves_get_grad(self):
        w = t64([1.0, 2.0], requires_grad=True)
        c = t64([3.0, 4.0])
        with recording():
            h = mul(w, c)
            backward(tsum(mul(h, h)))
        np.testing.assert_allclose(w.grad, 2.0 * w.data * c.data ** 2)
        assert c.grad is None  # constant operand
        assert h.grad is None  # intermediate

    def test_rules_skip_constant_operands(self, rng):
        w = t64(rng.standard_normal((2, 3)), requires_grad=True)
        c = t64(rng.standard_normal((2, 3)) + 3.0)
        with recording():
            for out in (add(w, c), add(c, w), mul(c, w), concat([c, w], axis=0)):
                grads = tape().entries[-1].backward_rule(np.ones(out.shape))
                consts = [g for t, g in zip(tape().entries[-1].inputs, grads) if t is c]
                assert consts == [None]
            out = linear(c, t64(rng.standard_normal((3, 2)), requires_grad=True))
            ga, gb = tape().entries[-1].backward_rule(np.ones(out.shape))
            assert ga is None and gb.shape == (3, 2)

    def test_walk_pops_entries_before_running_their_rules(self):
        x = t64([1.0, 2.0], requires_grad=True)
        with recording():
            loss = tsum(mul(mul(x, x), t64(2.0)))
            first = tape().entries[0]
            seen = []
            rule = first.backward_rule

            def spy(g):
                seen.append(len(tape().entries))
                return rule(g)

            first.backward_rule = spy
            backward(loss)
            assert seen == [0]
            assert tape().entries == []

    def test_raising_rule_still_clears_tape(self):
        x = t64([1.0, 2.0], requires_grad=True)
        with recording():
            loss = tsum(mul(mul(x, x), x))

            def broken(g):
                raise RuntimeError("rule failed")

            tape().entries[1].backward_rule = broken
            with pytest.raises(RuntimeError):
                backward(loss)
            assert tape().entries == []
        assert x.grad is None

    def test_unreachable_tensor_untouched(self):
        x = t64([1.0], requires_grad=True)
        y = t64([1.0], requires_grad=True)
        with recording():
            _orphan = mul(y, y)
            backward(tsum(mul(x, x)))
        assert y.grad is None

    def test_nothing_records_outside_a_scope(self):
        x = t64([1.0], requires_grad=True)
        y = mul(x, x)
        assert not y.requires_grad
        assert not tape().entries

    def test_requires_grad_propagates(self):
        a = t64([1.0], requires_grad=True)
        b = t64([2.0])
        with recording():
            assert add(a, b).requires_grad
            assert not add(b, b).requires_grad

    def test_constant_graph_appends_nothing(self):
        a = t64([1.0])
        with recording():
            _ = add(mul(a, a), a)
            assert not tape().entries


class TestRecordingScope:
    def test_tape_is_one_object_holding_the_scope_entries(self):
        """The benchmark tracer caches tape() once and reads .entries on every layer call."""
        before = tape()
        entries = before.entries
        x = t64([1.0, 2.0], requires_grad=True)
        with recording():
            assert tape() is before and tape().entries is entries
            y = mul(x, x)
            loss = tsum(y)
            assert [e.output for e in tape().entries] == [y, loss]
        assert tape() is before and tape().entries is entries and entries == []

    def test_raising_block_leaves_tape_empty_and_recording_off(self):
        x = t64([1.0], requires_grad=True)
        with pytest.raises(RuntimeError, match="aborted"):
            with recording():
                mul(x, x)
                assert tape().recording and len(tape().entries) == 1
                raise RuntimeError("aborted")
        assert tape().entries == [] and not tape().recording
        assert not mul(x, x).requires_grad

    def test_backward_outside_a_scope_raises(self):
        x = t64([1.0], requires_grad=True)
        with pytest.raises(ContractError, match=r"recording\(\)"):
            backward(tsum(mul(x, x)))
        assert x.grad is None

    def test_scopes_do_not_nest(self):
        with recording():
            with pytest.raises(ContractError, match="nest"):
                with recording():
                    pass
            assert tape().recording
        assert not tape().recording


class TestOnLeaf:
    """backward hands each leaf to the scope's on_leaf once, right after the walk runs the
    leaf's earliest entry, the first point at which its gradient is complete."""

    def spied_tape(self, events):
        """w is read by entries 0, 3 and 4, u by entry 2 only; every rule logs its index."""
        w, u, c = t64([1.0, -2.0], requires_grad=True), t64([0.5, 3.0], requires_grad=True), t64([2.0, 2.0])
        y = mul(w, c)               # 0
        y = add(y, c)               # 1
        y = mul(add(y, u), w)       # 2 (add) and 3 (mul)
        y = add(y, w)               # 4 (w's third reader)
        loss = tsum(y)              # 5

        def logged(rule, index):
            def run(g):
                events.append(("rule", index))
                return rule(g)
            return run

        for index, entry in enumerate(tape().entries):
            entry.backward_rule = logged(entry.backward_rule, index)
        return w, u, loss

    def test_each_leaf_once_right_after_its_earliest_entry(self):
        events, names = [], {}
        # a leaf's event holds the number of entries left on the tape when it was handed over
        with recording(on_leaf=lambda leaf: events.append((names[id(leaf)], len(tape().entries)))):
            w, u, loss = self.spied_tape(events)
            names.update({id(w): "w", id(u): "u"})
            backward(loss)
        assert events == [("rule", 5), ("rule", 4), ("rule", 3), ("rule", 2), ("u", 2),
                          ("rule", 1), ("rule", 0), ("w", 0)]

    def test_without_on_leaf_grads_match_the_hooked_walk(self, rng):
        w0 = rng.standard_normal((3, 4)).astype(np.float32)
        x = Tensor(rng.standard_normal((5, 3)).astype(np.float32))
        handed = []
        grads = []
        for hook in (None, lambda leaf: handed.append(leaf.grad.copy())):
            w = Parameter("w", w0)
            w.grad = np.ones_like(w0)  # backward adds to a gradient already held
            with recording(on_leaf=hook):
                h = linear(x, w)  # w is read here and by the last mul
                backward(add(tsum(mul(h, h)), tsum(mul(w, w))))
            grads.append(w.grad)
        assert grads[0].dtype == np.float32 and grads[0].tobytes() == grads[1].tobytes()
        assert len(handed) == 1 and handed[0].tobytes() == grads[0].tobytes()

    def test_unreachable_leaf_is_not_handed_over(self):
        x, y = t64([1.0], requires_grad=True), t64([1.0], requires_grad=True)
        handed = []
        with recording(on_leaf=handed.append):
            _orphan = mul(y, y)
            backward(tsum(mul(x, x)))
        assert handed == [x] and y.grad is None

    def test_scope_forgets_its_hook_on_exit(self):
        x = t64([1.0], requires_grad=True)
        with pytest.raises(RuntimeError, match="aborted"):
            with recording(on_leaf=lambda leaf: None):
                assert tape().on_leaf is not None
                raise RuntimeError("aborted")
        assert tape().on_leaf is None
        with recording():
            backward(tsum(mul(x, x)))
        np.testing.assert_array_equal(x.grad, [2.0])

    def test_raising_hook_still_clears_tape(self):
        x = t64([1.0, 2.0], requires_grad=True)

        def broken(leaf):
            raise RuntimeError("hook failed")

        with recording(on_leaf=broken):
            loss = tsum(mul(mul(x, x), t64(2.0)))
            with pytest.raises(RuntimeError, match="hook failed"):
                backward(loss)
            assert tape().entries == []


class TestParameter:
    def test_is_a_tensor_that_requires_grad(self):
        p = Parameter("w", np.zeros((2, 3)))
        assert isinstance(p, Tensor) and p.requires_grad and p.name == "w"

    def test_assign_rejects_a_shape_change(self):
        p = Parameter("w", np.zeros((2, 3), dtype=np.float32))
        with pytest.raises(DimensionError, match="parameter w"):
            p.assign(np.zeros((3, 2)))
        assert p.shape == (2, 3)

    def test_assign_casts_to_the_parameter_dtype(self):
        p = Parameter("w", np.zeros(3, dtype=np.float32))
        p.assign(np.array([0.1, 1e-3, -2.5], dtype=np.float64))
        assert p.dtype == np.float32
        assert p.data.tobytes() == np.array([0.1, 1e-3, -2.5], dtype=np.float32).tobytes()

    def test_assign_copies_a_read_only_source(self):
        src = np.arange(6.0).reshape(2, 3)
        src.setflags(write=False)
        p = Parameter("w", np.zeros((2, 3)))
        p.assign(src)
        assert p.data is not src and p.data.flags.writeable and p.data.flags.c_contiguous
        p.data[0, 0] = 9.0  # in-place probes, as the gradient checks make, stay off the source
        assert src[0, 0] == 0.0

    def test_fed_straight_to_linear_gets_grad(self, rng):
        w = Parameter("w", rng.standard_normal((3, 2)))
        b = Parameter("b", rng.standard_normal(2))
        x = t64(rng.standard_normal((4, 3)))
        with recording():
            backward(tsum(linear(x, w, b)))
        np.testing.assert_allclose(w.grad, np.broadcast_to(x.data.sum(axis=0)[:, None], (3, 2)))
        np.testing.assert_array_equal(b.grad, [4.0, 4.0])
        assert x.grad is None


class TestSGD:
    def make_param(self, value):
        return Parameter("w", np.asarray(value, dtype=np.float64))

    def test_zero_lr_is_byte_noop(self):
        p = self.make_param([1.0, -0.0, 2.5])
        before = p.data.tobytes()
        p.grad = np.array([1.0, 2.0, 3.0])
        SGD([p], lr=0.0).step()
        assert p.data.tobytes() == before

    def test_plain_step(self):
        p = self.make_param([1.0])
        p.grad = np.array([2.0])
        SGD([p], lr=0.1, momentum=0.0).step()
        np.testing.assert_allclose(p.data, [0.8])

    def test_momentum_unrolled_two_steps(self):
        p = self.make_param([0.0])
        opt = SGD([p], lr=1.0, momentum=0.9)
        for _ in range(2):
            p.grad = np.array([1.0])
            opt.step()
        np.testing.assert_allclose(p.data, [-2.9])

    def test_missing_grad_raises(self):
        p = self.make_param([1.0])
        with pytest.raises(ContractError):
            SGD([p], lr=0.1).step()

    def test_grads_cleared_after_step(self):
        p = self.make_param([1.0])
        p.grad = np.array([1.0])
        SGD([p], lr=0.1).step()
        assert p.grad is None

    def test_duplicate_names_rejected(self):
        a, b = self.make_param([1.0]), self.make_param([2.0])
        with pytest.raises(ConfigurationError):
            SGD([a, b], lr=0.1)

    def test_weight_decay_pulls_toward_zero(self):
        p = self.make_param([10.0])
        p.grad = np.array([0.0])
        SGD([p], lr=0.1, momentum=0.0, weight_decay=0.5).step()
        np.testing.assert_allclose(p.data, [9.5])


    def test_refused_step_changes_nothing(self):
        a, b = Parameter("a", np.array([1.0, 2.0])), Parameter("b", np.array([3.0]))
        opt = SGD([a, b], lr=0.1, momentum=0.9, weight_decay=0.01)
        a.grad, b.grad = np.array([0.5, -0.5]), np.array([1.0])
        opt.step()  # velocities are no longer zero
        before = [x.tobytes() for x in (a.data, b.data, *opt._velocity.values())]
        a.grad = np.array([2.0, 2.0])
        with pytest.raises(ContractError, match="parameter b has no gradient"):
            opt.step()
        assert [x.tobytes() for x in (a.data, b.data, *opt._velocity.values())] == before
        assert a.grad is not None

    def test_step_accepts_what_update_applied_in_this_step_only(self):
        a, b = Parameter("a", np.array([1.0])), Parameter("b", np.array([3.0]))
        opt = SGD([a, b], lr=0.1)
        a.grad, b.grad = np.array([1.0]), np.array([1.0])
        opt.update(a)
        assert a.grad is None and a.data.tolist() == [0.9]
        opt.step()
        assert b.grad is None and b.data.tolist() == [2.9]
        a.grad = np.array([1.0])
        opt.update(a)
        with pytest.raises(ContractError, match="parameter b has no gradient"):
            opt.step()  # a was updated in this step, b got nothing: refused, and a stays updated
        assert b.data.tolist() == [2.9] and a.data[0] != 0.9

    def test_update_refuses_a_stranger_and_a_missing_gradient(self):
        p = self.make_param([1.0])
        opt = SGD([p], lr=0.1)
        with pytest.raises(ContractError, match="not registered or has no gradient"):
            opt.update(p)
        stranger = Parameter("x", np.ones(1))
        stranger.grad = np.ones(1)
        with pytest.raises(ContractError, match="not registered or has no gradient"):
            opt.update(stranger)
        assert stranger.data.tolist() == [1.0]

    @pytest.mark.parametrize("weight_decay", [0.0, 1e-4])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("size", [1, SGD.BLOCK - 1, SGD.BLOCK, SGD.BLOCK + 1, 3 * SGD.BLOCK + 7])
    def test_update_is_bit_equal_to_the_unblocked_formula(self, rng, size, dtype, weight_decay):
        p = Parameter("w", rng.standard_normal((size,)).astype(dtype))
        opt = SGD([p], lr=8e-3, momentum=0.9, weight_decay=weight_decay)
        ref_p, ref_v = p.data.copy(), np.zeros_like(p.data)
        for _ in range(2):
            g = rng.standard_normal(size).astype(dtype)
            p.grad = g.copy()
            opt.update(p)
            if weight_decay:  # the formula the update replaced, with its temporaries
                g = g + weight_decay * ref_p
            ref_v *= 0.9
            ref_v += g
            ref_p = ref_p - 8e-3 * ref_v
            assert p.data.dtype == dtype and p.grad is None
            assert p.data.tobytes() == ref_p.tobytes()
            assert opt._velocity["w"].tobytes() == ref_v.tobytes()

    def test_zero_lr_update_keeps_the_bytes_across_blocks(self, rng):
        p = Parameter("w", rng.standard_normal(3 * SGD.BLOCK + 7).astype(np.float32))
        before = p.data.tobytes()
        p.grad = rng.standard_normal(p.shape).astype(np.float32)
        SGD([p], lr=0.0, weight_decay=1e-4).update(p)
        assert p.data.tobytes() == before

    def test_hooked_step_peaks_below_unhooked_by_half_the_gradients(self, rng):
        """Updating each weight as backward finishes it frees its gradient during the walk:
        a chain of wide weights on one row holds little tape and large gradients."""
        ws = [Parameter(f"w{i}", rng.standard_normal((256, 256)).astype(np.float32) / 16.0)
              for i in range(8)]
        x = Tensor(rng.standard_normal((1, 256)).astype(np.float32))
        opt = SGD(ws, lr=1e-3)

        def step_peak(on_leaf):
            tracemalloc.start()
            try:
                with recording(on_leaf=on_leaf):
                    h = x
                    for w in ws:
                        h = linear(h, w)
                    backward(tsum(h))
                opt.step()
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        step_peak(None)  # the optimizer's one scratch buffer is made here, outside the comparison
        unhooked, hooked = step_peak(None), step_peak(opt.update)
        assert unhooked - hooked >= 0.5 * sum(w.data.nbytes for w in ws)


class TestCosineSchedule:
    def test_endpoints_exact(self):
        assert cosine_lr(0, 100, 8e-3, 1.6e-6) == 8e-3
        assert cosine_lr(100, 100, 8e-3, 1.6e-6) == 1.6e-6

    def test_midpoint(self):
        mid = cosine_lr(50, 100, 8e-3, 1.6e-6)
        np.testing.assert_allclose(mid, (8e-3 + 1.6e-6) / 2.0, rtol=1e-12)

    def test_monotone_decay(self):
        values = [cosine_lr(s, 200, 1e-2, 1e-6) for s in range(201)]
        assert all(a >= b for a, b in zip(values, values[1:]))

    def test_warmup_ramps_to_peak(self):
        values = [cosine_lr(s, 100, 1e-2, 1e-6, warmup_steps=5) for s in range(5)]
        assert values[-1] == 1e-2
        assert all(a < b for a, b in zip(values, values[1:]))
        assert cosine_lr(100, 100, 1e-2, 1e-6, warmup_steps=5) == 1e-6


class TestFiniteDiff:
    def test_sum_of_squares(self, rng):
        x = t64(rng.standard_normal(5))
        assert finite_diff_check(lambda t: tsum(mul(t, t)), x) < 1e-7

    def test_softmax_cross_entropy(self, rng):
        features = t64(rng.standard_normal((4, 6)))
        classifier = Linear("clf", 6, 5, NoiseSource(0))
        labels = rng.integers(0, 5, 4)
        assert finite_diff_check(lambda t: ce_loss(t, labels, classifier), features) < 1e-6

    def test_float32_input_rejected(self):
        with pytest.raises(ContractError):
            finite_diff_check(lambda t: tsum(t), Tensor([1.0, 2.0]))

    def test_non_scalar_output_rejected(self):
        with pytest.raises(ContractError):
            finite_diff_check(lambda t: mul(t, t), t64([1.0, 2.0]))


class TestPerOpGradients:
    """Central-difference sweep over every differentiable op, f64, fixed seeds."""

    TOL = 1e-6

    def test_binary_ops(self, rng):
        a0 = rng.standard_normal((3, 4))
        b0 = rng.standard_normal((3, 4))
        for op in (add, mul):
            for slot in range(2):
                def f(t, op=op, slot=slot):
                    other = Tensor(b0 if slot == 0 else a0)
                    out = op(t, other) if slot == 0 else op(other, t)
                    return tsum(mul(out, out))
                base = a0 if slot == 0 else rng.standard_normal((3, 4))
                assert finite_diff_check(f, t64(base)) < self.TOL, (op.__name__, slot)

    def test_broadcast_binary(self, rng):
        bias = t64(rng.standard_normal((1, 4)))
        full = Tensor(rng.standard_normal((5, 4)))
        assert finite_diff_check(lambda t: tsum(mul(add(full, t), add(full, t))), bias) < self.TOL

    def test_matmul_both_slots(self, rng):
        a0 = rng.standard_normal((2, 3))
        b0 = rng.standard_normal((3, 4))
        assert finite_diff_check(lambda t: tsum(linear(t, Tensor(b0))), t64(a0)) < self.TOL
        assert finite_diff_check(lambda t: tsum(mul(linear(Tensor(a0), t), t64(2.0))), t64(b0)) < self.TOL

    def test_shape_ops(self, rng):
        x0 = rng.standard_normal((2, 3, 4))
        q0 = rng.standard_normal((2, 3, 4))
        cases = [
            # v's head split and merge: the permutations of the fused op
            lambda t: tsum(mul(attention(Tensor(q0), Tensor(x0), t, 2)[0], t64(1.5))),
            lambda t: tsum(mul(reshape(t, (6, 4)), reshape(t, (6, 4)))),
            lambda t: tsum(mul(narrow(t, 1, 1, 2), t64(3.0))),
            lambda t: tsum(mul(concat([t, t], axis=0), t64(2.0))),
        ]
        for i, f in enumerate(cases):
            assert finite_diff_check(f, t64(x0)) < self.TOL, i

    def test_reductions(self, rng):
        x0 = rng.standard_normal((3, 5))
        cases = [
            lambda t: tsum(mul(t, t)),
            lambda t: tsum(mul(tsum(t, axis=0), t64(2.0))),
            lambda t: tsum(mul(tsum(t, axis=1, keepdims=True), t)),
        ]
        for i, f in enumerate(cases):
            assert finite_diff_check(f, t64(x0)) < self.TOL, i

    def test_nonlinearities(self, rng):
        x0 = rng.standard_normal((2, 5))
        ones = Tensor(np.ones((2, 1, 1)))
        w1, b1, w2, b2 = (t64(rng.standard_normal(shape)) for shape in ((5, 8), (8,), (8, 5), (5,)))
        cases = [
            # softmax(t) . x0 per row: attention with q = 1, k = t and v = x0
            (lambda t: tsum(attention(ones, reshape(t, (2, 5, 1)), Tensor(x0.reshape(2, 5, 1)), 1)[0]),
             x0),
            (lambda t: tsum(feed_forward(t, w1, b1, w2, b2)), x0),
        ]
        for i, (f, base) in enumerate(cases):
            assert finite_diff_check(f, t64(base)) < self.TOL, i

    def test_layer_norm_all_slots(self, rng):
        x0 = rng.standard_normal((3, 8))
        g0 = rng.standard_normal(8)
        b0 = rng.standard_normal(8)
        assert finite_diff_check(
            lambda t: tsum(mul(layer_norm(t, t64(g0), t64(b0)), Tensor(x0))), t64(x0)) < self.TOL
        assert finite_diff_check(
            lambda t: tsum(mul(layer_norm(t64(x0), t, t64(b0)), Tensor(x0))), t64(g0)) < self.TOL
        assert finite_diff_check(
            lambda t: tsum(mul(layer_norm(t64(x0), t64(g0), t), Tensor(x0))), t64(b0)) < self.TOL


class TestParameterGradientSweep:
    def test_two_parameter_model(self, rng):
        w = Parameter("w", rng.standard_normal((3, 2)))
        b = Parameter("b", rng.standard_normal(2))
        x = Tensor(rng.standard_normal((5, 3)).astype(np.float64))

        def loss_fn():
            h = linear(x, w, b)
            return tsum(mul(h, h))

        worst, name, per_param = check_parameter_gradients(
            [w, b], loss_fn, coords_per_param=0)
        assert worst < 1e-6
        assert set(per_param) == {"w", "b"}
        assert name in per_param

    def test_float32_parameters_rejected(self):
        w = Parameter("w", np.zeros(2, dtype=np.float32))
        with pytest.raises(ContractError):
            check_parameter_gradients([w], lambda: tsum(w))


class TestDebugChecks:
    def test_nan_raises_when_enabled(self, monkeypatch):
        monkeypatch.setattr(secap.tensor, "_debug_checks", True)
        with np.errstate(invalid="ignore"), \
                pytest.raises(NumericError, match=r"op 'mul' at index \(1,\)"):
            mul(Tensor([1.0, np.inf]), Tensor([1.0, 0.0]))

    def test_nan_query_names_attention(self, rng, monkeypatch):
        q = rng.standard_normal((1, 3, 4))
        q[0, 2, 1] = np.nan
        kv = Tensor(rng.standard_normal((1, 5, 4)))
        monkeypatch.setattr(secap.tensor, "_debug_checks", True)
        with pytest.raises(NumericError, match=r"op 'attention' at index \(0, 2, 0\)"):
            attention(Tensor(q), kv, kv, 2)

    def test_inf_names_decouple_step(self, monkeypatch):
        x = np.ones((1, 3, 2))
        x[0, 1, 0] = np.inf  # the view token: Cls - View is -inf
        monkeypatch.setattr(secap.tensor, "_debug_checks", True)
        with pytest.raises(NumericError, match=r"op 'decouple_step' at index \(0, 0, 0\)"):
            decouple_step(Tensor(x))

    def test_inf_names_orthogonality_loss(self, monkeypatch):
        x_inv = np.ones((3, 2))
        x_inv[1, 0] = np.inf
        monkeypatch.setattr(secap.tensor, "_debug_checks", True)
        with pytest.raises(NumericError, match=r"op 'orthogonality_loss' at index \(\)"):
            orthogonality_loss(Tensor(x_inv), Tensor(np.ones((3, 2))))

    def test_nan_passes_silently_when_disabled(self, monkeypatch):
        monkeypatch.setattr(secap.tensor, "_debug_checks", False)
        with np.errstate(invalid="ignore"):
            out = mul(Tensor([np.inf]), Tensor([0.0]))
        assert np.isnan(out.data[0])

    def test_environment_variable_enables_the_check(self):
        src = str(Path(secap.tensor.__file__).parents[1])
        code = ("import numpy as np; from secap.tensor import Tensor, mul\n"
                "with np.errstate(invalid='ignore'): mul(Tensor([np.inf]), Tensor([0.0]))")
        for value, fails in (("1", True), ("0", False)):
            env = {**os.environ, "SECAP_DEBUG_NAN": value, "PYTHONPATH": src}
            proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
            assert (proc.returncode != 0) == fails, proc.stderr
            assert ("op 'mul'" in proc.stderr) == fails
