"""Plain SGD with classical momentum and a cosine learning-rate schedule."""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .errors import ConfigurationError, ContractError
from .tensor import Parameter


class SGD:
    """v <- momentum * v + grad; p <- p - lr * v. Grads are cleared by step()."""

    def __init__(self, params: Sequence[Parameter], lr: float,
                 momentum: float = 0.9, weight_decay: float = 0.0):
        self.params = list(params)
        if len({p.name for p in self.params}) != len(self.params):
            raise ConfigurationError("optimizer received duplicate parameter names")
        self.lr = float(lr)
        self.momentum = float(momentum)
        self.weight_decay = float(weight_decay)
        self._velocity = {p.name: np.zeros_like(p.data) for p in self.params}

    def zero_grad(self) -> None:
        for p in self.params:
            p.zero_grad()

    def step(self) -> None:
        for p in self.params:
            g = p.grad
            if g is None:
                raise ContractError(f"parameter {p.name} has no gradient; every registered parameter must be used")
            if self.weight_decay:
                g = g + self.weight_decay * p.data
            v = self._velocity[p.name]
            v *= self.momentum
            v += g
            p.assign(p.data - self.lr * v)
        self.zero_grad()


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
