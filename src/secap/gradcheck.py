"""Central-difference verification of analytic gradients, and the grad-check recipe.

All checks run in float64: central differences with eps = 1e-5 lose too
many bits in float32 to separate real bugs from roundoff, so a checked
model takes its parameters from NoiseSource, which draws them in float64.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import ContractError
from .losses import LossWeights
from .model import ModelConfig, SeCapModel
from .tensor import Parameter, Tensor, backward, recording


class NoiseSource:
    """Grad-check's parameter source: each parameter is drawn once, in float64, from one default_rng(seed)
    stream in the order the layers ask; a name in `dropped` draws nothing and stands in as None. Backward
    rules do not depend on the evaluation point, so checks run at ~1/sqrt(fan_in) scales: at the tiny
    production init scale deep paths carry gradients near 1e-12, where central differences are roundoff."""

    def __init__(self, seed: int = 0, dropped: Sequence[str] = ()):
        self.rng, self.dropped = np.random.default_rng(seed), dropped

    def __call__(self, name: str, shape: tuple) -> Optional[Parameter]:
        if name in self.dropped:
            return None
        noise = self.rng.standard_normal(shape)
        kind = name.rsplit(".", 1)[-1]
        if kind == "gamma":
            data = 1.0 + 0.1 * noise
        elif kind in ("bias", "beta"):
            data = 0.1 * noise
        elif len(shape) == 2:
            # unit-gain matrices: smaller shrinks deep-path gradients into the
            # central-difference noise floor, larger saturates the norm-free
            # refinement path's softmaxes into locally flat (unfalsifiable) spots
            data = noise / np.sqrt(shape[0])
        else:
            data = 0.25 * noise
        return Parameter(name, data, copy=False)


def _analytic_gradients(loss_fn: Callable[[], Tensor],
                        leaves: Sequence[Tensor]) -> list[Optional[np.ndarray]]:
    """Flat d loss / d leaf from one recorded pass, None where a leaf does not
    reach the loss; the leaves are left without a gradient."""
    for t in leaves:
        t.zero_grad()
    with recording():
        out = loss_fn()
        if out.data.size != 1:
            raise ContractError(f"checked function must return a scalar, got shape {out.shape}")
        backward(out)
    grads = [None if t.grad is None else t.grad.reshape(-1) for t in leaves]
    for t in leaves:
        t.zero_grad()
    return grads


def _central_difference(loss_fn: Callable[[], Tensor], flat: np.ndarray, i: int, eps: float) -> float:
    """(f(x + eps e_i) - f(x - eps e_i)) / (2 eps), perturbing `flat` in place and restoring it."""
    orig = flat[i]
    flat[i] = orig + eps
    f_plus = loss_fn().item()
    flat[i] = orig - eps
    f_minus = loss_fn().item()
    flat[i] = orig
    return (f_plus - f_minus) / (2.0 * eps)


def finite_diff_check(f: Callable[[Tensor], Tensor], x: Tensor,
                      eps: float = 1e-5,
                      coords: Optional[Sequence[int]] = None) -> float:
    """Max relative error between analytic and central-difference gradients.

    `f` maps x to a scalar tensor. `coords` selects flat indices of x to
    probe; None probes every coordinate.
    """
    if x.dtype != np.float64:
        raise ContractError(f"gradient checking requires float64 input, got {x.dtype}")
    x.requires_grad = True
    loss_fn = partial(f, x)
    analytic, = _analytic_gradients(loss_fn, [x])
    if analytic is None:
        raise ContractError("analytic gradient missing: input does not reach the output")

    flat = x.data.reshape(-1)
    indices = range(flat.size) if coords is None else coords
    worst = 0.0
    for i in indices:
        a, numeric = float(analytic[i]), _central_difference(loss_fn, flat, i, eps)
        worst = max(worst, abs(a - numeric) / (abs(a) + abs(numeric) + 1e-12))
    return worst


def check_parameter_gradients(params: Sequence[Parameter],
                              loss_fn: Callable[[], Tensor],
                              coords_per_param: int = 6,
                              seed: int = 0) -> tuple[float, str, dict[str, float]]:
    """Check every parameter of a model against central differences.

    `loss_fn` closes over the parameters and a fixed batch. With
    coords_per_param == 0 every coordinate of every parameter is probed;
    otherwise that many flat indices are drawn per parameter from a seeded
    generator. Returns (max error, worst parameter name, per-parameter map).

    Error is vector-relative per parameter: the largest probe discrepancy
    normalized by the gradient's infinity norm. Coordinate-wise ratios would
    flag coordinates whose true gradient sits at the central-difference
    roundoff floor (|loss| * ulp / eps) even when the backward pass is exact.
    """
    for p in params:
        if p.dtype != np.float64:
            raise ContractError(f"gradient checking requires float64 parameters ({p.name} is {p.dtype})")
    grads = _analytic_gradients(loss_fn, params)

    rng = np.random.default_rng(seed)
    per_param: dict[str, float] = {}
    worst, worst_name = 0.0, ""
    for p, analytic in zip(params, grads):
        flat = p.data.reshape(-1)
        n = flat.size
        if analytic is None:
            analytic = np.zeros(n)
        if coords_per_param <= 0 or coords_per_param >= n:
            indices = np.arange(n)
        else:
            indices = rng.choice(n, size=coords_per_param, replace=False)
        discrepancy = 0.0
        scale = float(np.abs(analytic).max()) if n else 0.0
        for i in indices:
            numeric = _central_difference(loss_fn, flat, i, 1e-5)
            discrepancy = max(discrepancy, abs(float(analytic[i]) - numeric))
            scale = max(scale, abs(numeric))
        err = discrepancy / max(scale, 1e-12)
        per_param[p.name] = err
        if err > worst:
            worst, worst_name = err, p.name
    return worst, worst_name, per_param


def check_model_gradients(cfg: ModelConfig, coords_per_param: int) -> tuple[float, str]:
    """The grad-check recipe: `cfg`'s model drawn from NoiseSource(cfg.seed), four images drawn from
    [seed, 999] (identities 0011, views 0101), the default loss weights, and `coords_per_param`
    probes per parameter. Returns the worst error and its parameter's name."""
    model = SeCapModel(cfg, NoiseSource(cfg.seed, cfg.dropped_parameters))
    images = np.random.default_rng([cfg.seed, 999]).uniform(0.0, 1.0, size=(4, *cfg.encoder.image_shape))
    id_labels, view_labels = np.array([0, 0, 1, 1]), np.array([0, 1, 0, 1])

    def loss_fn():
        total, _ = model.compute_losses(images, id_labels, view_labels, LossWeights())
        return total

    worst, worst_name, _ = check_parameter_gradients(model.parameters(), loss_fn, coords_per_param, seed=cfg.seed)
    return worst, worst_name
