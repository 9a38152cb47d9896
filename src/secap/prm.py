"""Prompt re-calibration: adapt L learned d-dimensional prompts to each
image's view-invariant feature.

Three calibration routes exist (attention, addition, concatenation); all
end by re-adding the raw prompts, so a zeroed module passes the prompts
through untouched.

The attention route attends over the single key x_inv, so both softmaxes
are 1 and each attention reduces to wo(wv(.)): the route is the projection
chain ca.wv, ca.wo, sa.wv, sa.wo, then the FFN, broadcast over the prompt
rows. Older `attn` checkpoints also hold the six query and key tensors
(ATTN_DROPPED_PARAMETERS); loading drops them.
"""

from __future__ import annotations

from .nn import FeedForward, Module, MultiHeadAttention, expand_rows
from .tensor import Parameter, Tensor, add, concat, reshape

VARIANTS = ("attn", "add", "cat")

ATTN_DROPPED_PARAMETERS = ("prm.ca.wq.weight", "prm.ca.wq.bias", "prm.ca.wk.weight",
                           "prm.sa.wq.weight", "prm.sa.wq.bias", "prm.sa.wk.weight")


class PRM(Module):
    def __init__(self, prompts: Parameter, variant: str, d: int, heads: int, ffn_mult: int, source):
        self.prompts = prompts
        self.variant = variant
        if variant == "attn":
            # wq and wk are drawn and dropped, so every later tensor keeps its initial values
            ca = MultiHeadAttention("prm.ca", d, heads, source)
            sa = MultiHeadAttention("prm.sa", d, heads, source)
            self.chain = [ca.wv, ca.wo, sa.wv, sa.wo]
        else:
            self.sa = MultiHeadAttention("prm.sa", d, heads, source)
        self.ffn = FeedForward("prm.ffn", d, ffn_mult, source)

    def __call__(self, x_inv: Tensor) -> Tensor:
        length, d = self.prompts.shape
        b = x_inv.shape[0]
        bank = reshape(self.prompts, (1, length, d))
        x_row = reshape(x_inv, (b, 1, d))
        if self.variant == "attn":  # one calibrated row per image, broadcast to all L
            for layer in self.chain:
                x_row = layer(x_row)
            return add(self.ffn(x_row), bank)
        prompts = expand_rows(bank, b)
        if self.variant == "cat":  # prompts attend over [prompts; x_inv]; no x_inv row is kept
            h = self.sa(prompts, concat([prompts, x_row], axis=1))
        else:
            h = add(prompts, x_row)
            h = self.sa(h, h)
        return add(self.ffn(h), prompts)
