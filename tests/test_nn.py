"""Shared layers: initialization, the parameter registry, the Linear op and
multi-head attention."""

import ast
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

import secap.nn
from secap.nn import Linear, Module, MultiHeadAttention, trunc_normal
from secap.tensor import Parameter, Tensor, recording, tape


def scipy_trunc_normal(seed, shape, std):
    return stats.truncnorm.rvs(-2.0, 2.0, scale=std, size=shape,
                               random_state=np.random.default_rng(seed))


class TestTruncNormal:
    @pytest.mark.parametrize("seed", [0, 1, 7])
    @pytest.mark.parametrize("shape,std", [((64, 256), 1 / 8), ((384, 1536), 384 ** -0.5),
                                           ((1, 1, 64), 0.02), ((3, 5), 0.02)])
    def test_float32_equal_to_scipy_truncnorm(self, seed, shape, std):
        ours = trunc_normal(np.random.default_rng(seed), shape, std)
        ref = scipy_trunc_normal(seed, shape, std)
        np.testing.assert_array_equal(ours.astype(np.float32), ref.astype(np.float32))

    def test_paper_width_within_one_float32_ulp_of_scipy(self):
        # scipy evaluates the same inverse CDF in log space; at this size a
        # handful of values (one for seed 0) round to the neighbouring float32
        shape, std = (768, 3072), 768 ** -0.5
        ours = trunc_normal(np.random.default_rng(0), shape, std).astype(np.float32)
        ref = scipy_trunc_normal(0, shape, std).astype(np.float32)
        np.testing.assert_array_max_ulp(ours, ref, maxulp=1)
        assert np.mean(ours != ref) < 1e-5

    def test_truncated_at_two_std(self):
        x = trunc_normal(np.random.default_rng(3), (100_000,), 0.5)
        assert np.abs(x).max() <= 1.0
        assert abs(x.std() - 0.5 * 0.8796) < 0.005  # std of N(0,1) cut at +-2


class TestModule:
    def test_parameter_reached_twice_is_listed_once(self, rng):
        class Pair(Module):
            def __init__(self):
                self.first = Linear("first", 2, 2, rng)
                self.tied = Parameter("tied", np.zeros(2))
                self.second = [Linear("second", 2, 2, rng)]
                self.second[0].bias = self.tied  # the same object, held by two layers

        pair = Pair()
        assert [p.name for p in pair.parameters()] == [
            "first.weight", "first.bias", "tied", "second.weight"]

    def test_no_layer_lists_its_own_parameters(self):
        """Module.parameters() is the one registry; no layer writes its own."""
        src = Path(secap.nn.__file__).parent
        overrides = []
        for path in src.glob("*.py"):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.ClassDef) and node.name != "Module":
                    overrides += [f"{path.name}:{node.name}" for item in node.body
                                  if isinstance(item, ast.FunctionDef) and item.name == "parameters"]
        assert overrides == []
        assert not hasattr(secap.nn, "collect_parameters")

    def test_no_layer_constructor_takes_a_dtype(self):
        """Layers and tensors take no dtype; the parameter source is the one precision switch."""
        src = Path(secap.nn.__file__).parent
        takers = []
        for path in src.glob("*.py"):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.ClassDef):
                    takers += [f"{path.name}:{node.name}" for item in node.body
                               if isinstance(item, ast.FunctionDef) and item.name == "__init__"
                               and "dtype" in [a.arg for a in item.args.args + item.args.kwonlyargs]]
        assert takers == []


class TestLinearLayer:
    @pytest.mark.parametrize("with_bias", [True, False])
    def test_one_tape_entry_per_call(self, rng, with_bias):
        layer = Linear("fc", 4, 3, rng, with_bias=with_bias)
        x = rng.standard_normal((2, 5, 4)).astype(np.float32)
        with recording():
            out = layer(Tensor(x))
            assert len(tape().entries) == 1
        expected = x @ layer.weight.data + (layer.bias.data if with_bias else 0.0)
        np.testing.assert_allclose(out.data, expected, rtol=1e-6)


class TestMultiHeadAttention:
    def test_four_projections_and_one_attention_entry(self, rng):
        mha = MultiHeadAttention("attn", 8, 2, rng)
        x = Tensor(rng.standard_normal((2, 3, 8)).astype(np.float32))
        kv = Tensor(rng.standard_normal((2, 5, 8)).astype(np.float32))
        with recording():
            out = mha(x, kv)
            ops = [e.backward_rule.__qualname__.split(".")[0] for e in tape().entries]
            assert ops == ["linear", "linear", "linear", "attention", "linear"]
        assert out.shape == (2, 3, 8)
