"""Plain SGD with classical momentum and a cosine learning-rate schedule."""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .errors import ConfigurationError, ContractError
from .tensor import Parameter


class SGD:
    """v <- momentum * v + (grad + weight_decay * p); p <- p - lr * v, in place.

    update(p) applies one parameter's step as soon as its gradient is complete,
    e.g. from backward through `recording(on_leaf=opt.update)`; step() applies
    it to every parameter that still holds a gradient. Each parameter's
    gradient is dropped once it is applied.
    """

    BLOCK = 1 << 15  # values per block: a block's buffer stays in a 2 MB L2

    def __init__(self, params: Sequence[Parameter], lr: float,
                 momentum: float = 0.9, weight_decay: float = 0.0):
        self.params = list(params)
        if len({p.name for p in self.params}) != len(self.params):
            raise ConfigurationError("optimizer received duplicate parameter names")
        self.lr = float(lr)
        self.momentum = float(momentum)
        self.weight_decay = float(weight_decay)
        self._velocity = {p.name: np.zeros_like(p.data) for p in self.params}
        self._updated: set[str] = set()  # names update() applied since the last step()
        self._scratch: dict[np.dtype, np.ndarray] = {}

    def update(self, p: Parameter) -> None:
        """Apply p's step in place, block by block through one reused buffer, with the numpy ops
        of the unblocked formula in its order (so its bits), and drop p.grad."""
        v = self._velocity.get(getattr(p, "name", None))
        if v is None or p.grad is None:
            raise ContractError(f"cannot update {p!r}: it is not registered or has no gradient")
        g, data = p.grad.reshape(-1), p.data.reshape(-1)
        v = v.reshape(-1)
        buf = self._scratch.get(data.dtype)
        if buf is None:
            buf = self._scratch[data.dtype] = np.empty(self.BLOCK, data.dtype)
        for start in range(0, data.size, self.BLOCK):
            stop = min(start + self.BLOCK, data.size)
            pb, vb, tb = data[start:stop], v[start:stop], buf[:stop - start]
            vb *= self.momentum
            if self.weight_decay:
                np.multiply(pb, self.weight_decay, out=tb)
                tb += g[start:stop]
                vb += tb
            else:
                vb += g[start:stop]
            np.multiply(vb, self.lr, out=tb)
            pb -= tb
        p.grad = None
        self._updated.add(p.name)

    def step(self) -> None:
        """Update every parameter that still holds a gradient. Every parameter must have got one
        in this step, held or applied by update(); if one did not, ContractError names it before
        this call changes anything."""
        for p in self.params:
            if p.grad is None and p.name not in self._updated:
                raise ContractError(f"parameter {p.name} has no gradient; every registered parameter must be used")
        for p in self.params:
            if p.grad is not None:
                self.update(p)
        self._updated.clear()


def cosine_lr(step: int, total_steps: int, lr_max: float, lr_min: float,
              warmup_steps: int = 0) -> float:
    """Half-cosine decay from lr_max to lr_min, optional linear warmup.

    step 0 (post warmup) returns exactly lr_max; step == total_steps returns
    exactly lr_min (cos(pi) == -1.0 in IEEE double). TrainConfig holds the
    rules on its arguments: lr_min <= lr_max, and at least one step.
    """
    if step < warmup_steps:
        return lr_max * (step + 1) / warmup_steps
    t = step - warmup_steps
    span = max(total_steps - warmup_steps, 1)
    t = min(t, span)
    return lr_min + 0.5 * (lr_max - lr_min) * (1.0 + math.cos(math.pi * t / span))
