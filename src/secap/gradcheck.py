"""Central-difference verification of analytic gradients.

All checks run in float64: central differences with eps = 1e-5 lose too
many bits in float32 to separate real bugs from roundoff.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence

import numpy as np

from .errors import ContractError
from .tensor import Parameter, Tensor, backward, recording


def _relative_error(analytic: float, numeric: float) -> float:
    return abs(analytic - numeric) / (abs(analytic) + abs(numeric) + 1e-12)


def randomize_for_gradcheck(params: Sequence[Parameter], seed: int = 0) -> None:
    """Move parameters to a generic well-conditioned point before checking.

    At the tiny production init scale, deep multiplicative paths carry
    gradients around 1e-12 where central differences are pure roundoff, so a
    relative comparison is meaningless there. Backward rules do not depend on
    the evaluation point; checks run at ~1/sqrt(fan_in) scales instead.
    """
    rng = np.random.default_rng(seed)
    for p in params:
        shape = p.shape
        noise = rng.standard_normal(shape)
        name = p.name.rsplit(".", 1)[-1]
        if name == "gamma":
            p.assign(1.0 + 0.1 * noise)
        elif name in ("bias", "beta"):
            p.assign(0.1 * noise)
        elif len(shape) == 2:
            # unit-gain matrices: smaller shrinks deep-path gradients into the
            # central-difference noise floor, larger saturates the norm-free
            # refinement path's softmaxes into locally flat (unfalsifiable) spots
            p.assign(noise / np.sqrt(shape[0]))
        else:
            p.assign(0.25 * noise)


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
    x.zero_grad()
    with recording():
        out = f(x)
        if out.data.size != 1:
            raise ContractError(f"checked function must return a scalar, got shape {out.shape}")
        backward(out)
    if x.grad is None:
        raise ContractError("analytic gradient missing: input does not reach the output")
    analytic = x.grad.reshape(-1).copy()

    flat = x.data.reshape(-1)
    indices = range(flat.size) if coords is None else coords
    worst = 0.0
    for i in indices:
        orig = flat[i]
        flat[i] = orig + eps
        f_plus = f(x).item()
        flat[i] = orig - eps
        f_minus = f(x).item()
        flat[i] = orig
        numeric = (f_plus - f_minus) / (2.0 * eps)
        worst = max(worst, _relative_error(float(analytic[i]), numeric))
    return worst


def check_parameter_gradients(params: Sequence[Parameter],
                              loss_fn: Callable[[], Tensor],
                              eps: float = 1e-5,
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
        p.zero_grad()

    with recording():
        out = loss_fn()
        if out.data.size != 1:
            raise ContractError(f"loss function must return a scalar, got shape {out.shape}")
        backward(out)
    analytic = {}
    for p in params:
        analytic[p.name] = np.zeros(p.size) if p.grad is None else p.grad.reshape(-1).copy()
        p.zero_grad()

    rng = np.random.default_rng(seed)
    per_param: dict[str, float] = {}
    worst, worst_name = 0.0, ""
    for p in params:
        flat = p.data.reshape(-1)
        n = flat.size
        if coords_per_param <= 0 or coords_per_param >= n:
            indices = np.arange(n)
        else:
            indices = rng.choice(n, size=coords_per_param, replace=False)
        discrepancy = 0.0
        scale = float(np.abs(analytic[p.name]).max()) if n else 0.0
        for i in indices:
            orig = flat[i]
            flat[i] = orig + eps
            f_plus = loss_fn().item()
            flat[i] = orig - eps
            f_minus = loss_fn().item()
            flat[i] = orig
            numeric = (f_plus - f_minus) / (2.0 * eps)
            discrepancy = max(discrepancy, abs(float(analytic[p.name][i]) - numeric))
            scale = max(scale, abs(numeric))
        err = discrepancy / max(scale, 1e-12)
        per_param[p.name] = err
        if err > worst:
            worst, worst_name = err, p.name
    return worst, worst_name, per_param
