"""Dense tensors with reverse-mode automatic differentiation.

Data lives in contiguous row-major numpy buffers (float32 by default,
float64 for gradient checking). Inside a `with recording():` block every
differentiable op appends one entry to the process-global tape, and
backward() walks it once in reverse and consumes it. Outside a block no op
records; leaving one, normally or by raising, empties the tape. There are
no retained graphs.

Backward does only the work the loss needs: a rule returns None for an input
that does not require a gradient (images, constants), each entry is popped as
the walk reaches it, and an op output's gradient is dropped once its entry
has run. Gradients therefore land on leaves only, the tensors no recorded op
produced (parameters and checked inputs); intermediates never get .grad. A
leaf's gradient is complete once the walk has run the leaf's earliest entry:
backward sets .grad there and hands the leaf to the scope's `on_leaf`, so an
optimizer can update each parameter and drop its gradient during the walk.

A rule keeps only the arrays its formula reads that the tape does not
already hold: layer_norm rebuilds x-hat from its input, feed_forward GELU's
output from fc1's output and Phi, each with the forward's own ops, so the
gradients keep their bits.
"""

from __future__ import annotations

import contextlib
import math
import os
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import ContractError, DimensionError, NumericError

__all__ = [
    "Tensor", "Parameter", "recording", "backward", "record",
    "add", "mul", "linear", "attention", "reshape",
    "concat", "narrow", "tsum", "layer_norm", "feed_forward",
]

DEFAULT_DTYPE = np.float32
SHORT_ROW_KEYS = 16  # attention rows up to one 64-byte line of float32 (see _softmax_rows)

# scan every op result for NaN/Inf and name the op that made it; off by default
_debug_checks = os.environ.get("SECAP_DEBUG_NAN", "") not in ("", "0")


class TapeEntry:
    __slots__ = ("inputs", "output", "backward_rule")

    def __init__(self, inputs, output, backward_rule):
        self.inputs = inputs          # tuple of Tensor
        self.output = output          # Tensor
        self.backward_rule = backward_rule  # grad_out ndarray -> per-input grads


class Tape:
    """Ordered record of differentiable ops; consumed by backward()."""

    def __init__(self):
        self.entries: list[TapeEntry] = []
        self.recording = False
        self.on_leaf: Optional[Callable[[Tensor], None]] = None


_TAPE = Tape()


def tape() -> Tape:
    """The one tape: the same object, with the same entries list, in and out of scopes."""
    return _TAPE


@contextlib.contextmanager
def recording(on_leaf: Optional[Callable[[Tensor], None]] = None):
    """Record differentiable ops inside the block; on exit, normal or by
    raising, recording is off and the tape is empty. Blocks do not nest.
    backward() inside the block calls on_leaf(leaf) once per leaf, as soon as
    the leaf's .grad is complete (e.g. `recording(on_leaf=opt.update)`)."""
    if _TAPE.recording:
        raise ContractError("recording() is already active; scopes do not nest")
    _TAPE.recording = True
    _TAPE.on_leaf = on_leaf
    try:
        yield
    finally:
        _TAPE.recording = False
        _TAPE.on_leaf = None
        _TAPE.entries.clear()


class Tensor:
    """n-dimensional array, optionally tracked for gradients."""

    __slots__ = ("data", "requires_grad", "grad")

    def __init__(self, data, requires_grad: bool = False, copy: bool = True):
        arr = np.asarray(data)
        if not (isinstance(data, np.ndarray) and arr.dtype in (np.float32, np.float64)):
            # numpy float arrays keep their precision; everything else lands in f32
            arr = arr.astype(DEFAULT_DTYPE)
        # own the buffer so a caller's later writes never reach it; copy=False adopts an array handed over
        self.data = np.array(arr, order="C") if copy else np.asarray(arr, order="C")
        self.requires_grad = bool(requires_grad)
        self.grad: Optional[np.ndarray] = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def item(self) -> float:
        if self.data.size != 1:
            raise ContractError(f"item() needs a single-element tensor, got shape {self.shape}")
        return float(self.data.reshape(-1)[0])

    def zero_grad(self) -> None:
        self.grad = None

    def __repr__(self):
        return f"Tensor(shape={self.shape}, dtype={self.data.dtype.name}, requires_grad={self.requires_grad})"


class Parameter(Tensor):
    """A named, trainable tensor. Names are unique within a model."""

    __slots__ = ("name",)

    def __init__(self, name: str, data, copy: bool = True):
        super().__init__(data, requires_grad=True, copy=copy)
        self.name = name

    def assign(self, value: np.ndarray) -> None:
        """Overwrite every value: same shape, cast to this parameter's dtype,
        and always copied, so the caller's array, read-only or not, never
        aliases the parameter and in-place probes stay off it."""
        if value.shape != self.shape:
            raise DimensionError(
                f"parameter {self.name}: cannot assign shape {value.shape} over {self.shape}")
        self.data = np.array(value, dtype=self.dtype, order="C")

    def __repr__(self):
        return f"Parameter({self.name!r}, shape={self.shape})"


def _post(arr: np.ndarray, op: str) -> None:
    bad = ~np.isfinite(arr)
    if bad.any():
        index = tuple(int(i) for i in np.argwhere(bad)[0])
        raise NumericError(f"non-finite value {arr[index]} produced by op {op!r} at index {index}")


def record(data: np.ndarray, inputs: Sequence[Tensor], backward_rule) -> Tensor:
    """The op output holding `data`, and one tape entry if recording and an input
    needs a gradient. `backward_rule` maps the output's gradient to one gradient
    (or None) per input; an input listed twice gets each, summed in list order."""
    if _debug_checks:  # op name: `linear.<locals>.rule` is linear
        _post(data, backward_rule.__qualname__.split(".")[0])
    out = Tensor.__new__(Tensor)
    out.data = np.ascontiguousarray(data)
    out.grad = None
    out.requires_grad = _TAPE.recording and any(t.requires_grad for t in inputs)
    if out.requires_grad:
        _TAPE.entries.append(TapeEntry(tuple(inputs), out, backward_rule))
    return out


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum a broadcast gradient back down to `shape`."""
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


def _column_sums(g2: np.ndarray) -> np.ndarray:
    """Sum a (rows, d) gradient over its rows as a GEMV: 2-4x faster than
    .sum(axis=0) at layer shapes."""
    return np.ones(g2.shape[0], g2.dtype) @ g2


# ---------------------------------------------------------------------------
# elementwise
# ---------------------------------------------------------------------------

def _broadcast_binary(a: Tensor, b: Tensor, fwd, op_name: str):
    try:
        data = fwd(a.data, b.data)
    except ValueError as exc:
        raise DimensionError(f"{op_name}: shapes {a.shape} and {b.shape} do not broadcast") from exc
    return data


def add(a: Tensor, b: Tensor) -> Tensor:
    data = _broadcast_binary(a, b, np.add, "add")

    def rule(g):
        return (_unbroadcast(g, a.shape) if a.requires_grad else None,
                _unbroadcast(g, b.shape) if b.requires_grad else None)

    return record(data, (a, b), rule)


def mul(a: Tensor, b: Tensor) -> Tensor:
    data = _broadcast_binary(a, b, np.multiply, "mul")

    def rule(g):
        return (_unbroadcast(g * b.data, a.shape) if a.requires_grad else None,
                _unbroadcast(g * a.data, b.shape) if b.requires_grad else None)

    return record(data, (a, b), rule)


# ---------------------------------------------------------------------------
# linear algebra and shape ops
# ---------------------------------------------------------------------------

def _affine(op: str, x: np.ndarray, w: Tensor, b: Optional[Tensor]) -> tuple[np.ndarray, np.ndarray]:
    """x flattened to rows, and x @ w (+ b) on them as one GEMM, for a rank >= 2 x whose last
    axis is w's rows and a bias, if any, of w's width."""
    if x.ndim < 2 or w.ndim != 2:
        raise DimensionError(f"{op} needs a rank >= 2 input and a matrix, got {x.shape} and {w.shape}")
    d_in, d_out = w.shape
    if x.shape[-1] != d_in:
        raise DimensionError(f"{op}: inner dimensions disagree for {x.shape} and {w.shape}")
    if b is not None and b.shape != (d_out,):
        raise DimensionError(f"{op}: bias shape {b.shape} does not match output dim {d_out}")
    x2 = x.reshape(-1, d_in)
    out = x2 @ w.data
    if b is not None:
        out += b.data
    return x2, out


def _affine_grads(g: np.ndarray, x2: Optional[np.ndarray], w: Tensor, b: Optional[Tensor], x_shape):
    """_affine's gradients from its output's gradient g: the input's in x_shape, the weight's from
    the input rows x2, and the bias's, each None where not needed (the input's: x_shape None)."""
    g2 = g.reshape(-1, w.shape[1])
    gx = (g2 @ w.data.T).reshape(x_shape) if x_shape is not None else None
    gw = x2.T @ g2 if w.requires_grad else None
    gb = _column_sums(g2) if b is not None and b.requires_grad else None
    return gx, gw, gb


def linear(x: Tensor, w: Tensor, b: Optional[Tensor] = None) -> Tensor:
    """x @ w (+ b) over the last axis of x, as one GEMM on x flattened to rows."""
    x2, out = _affine("linear", x.data, w, b)

    def rule(g):
        gx, gw, gb = _affine_grads(g, x2, w, b, x.shape if x.requires_grad else None)
        return (gx, gw) if b is None else (gx, gw, gb)

    inputs = (x, w) if b is None else (x, w, b)
    return record(out.reshape(*x.shape[:-1], w.shape[1]), inputs, rule)


def _softmax_rows(p: np.ndarray) -> np.ndarray:
    """Max-shifted softmax over the last axis, in place. Up to SHORT_ROW_KEYS keys
    a running maximum over the columns outpaces numpy's row reduction; max is
    exact, so only the sign of a zero before exp can differ, not the weights."""
    if p.shape[-1] <= SHORT_ROW_KEYS:
        row_max = p[..., :1].copy()
        for j in range(1, p.shape[-1]):
            np.maximum(row_max, p[..., j : j + 1], out=row_max)
    else:
        row_max = p.max(axis=-1, keepdims=True)
    p -= row_max
    np.exp(p, out=p)
    p /= p.sum(axis=-1, keepdims=True)
    return p


def attention(q: Tensor, k: Tensor, v: Tensor, heads: int) -> tuple[Tensor, np.ndarray]:
    """softmax(q k^T / sqrt(d / heads)) v per head, for q (B, Tq, d) and k, v (B, Tk, d).

    One tape entry. Returns the merged (B, Tq, d) output and the (B, heads, Tq, Tk)
    weights, which the backward rule holds (treat them as read-only). Backward is
    the FlashAttention formula (Dao et al. 2022) without its tiling.
    """
    if q.ndim != 3 or k.ndim != 3 or k.shape != v.shape or k.shape[::2] != q.shape[::2] \
            or heads < 1 or q.shape[2] % heads:
        raise DimensionError(f"attention: q {q.shape}, k {k.shape}, v {v.shape} with {heads} heads")
    b, _, d = q.shape
    head_dim = d // heads
    scale = 1.0 / math.sqrt(head_dim)

    def split(x):  # (B, T, d) -> (B, h, T, head_dim), a view
        return x.reshape(b, x.shape[1], heads, head_dim).transpose(0, 2, 1, 3)

    def merge(x):  # (B, h, T, head_dim) -> (B, T, d), a copy
        return x.transpose(0, 2, 1, 3).reshape(b, x.shape[2], d)

    qh, kh, vh = split(q.data), split(k.data), split(v.data)
    p = _softmax_rows(np.matmul(qh, kh.swapaxes(-1, -2)) * scale)

    def rule(g):
        go = split(g)
        gq = gk = None
        gv = merge(np.matmul(p.swapaxes(-1, -2), go)) if v.requires_grad else None
        if q.requires_grad or k.requires_grad:
            gp = np.matmul(go, vh.swapaxes(-1, -2))
            gs = p * (gp - (gp * p).sum(axis=-1, keepdims=True)) * scale
            gq = merge(np.matmul(gs, kh)) if q.requires_grad else None
            gk = merge(np.matmul(gs.swapaxes(-1, -2), qh)) if k.requires_grad else None
        return gq, gk, gv

    return record(merge(np.matmul(p, vh)), (q, k, v), rule), p


def reshape(a: Tensor, shape: Sequence[int]) -> Tensor:
    shape = tuple(shape)
    old = a.shape
    return record(a.data.reshape(shape), (a,), lambda g: (g.reshape(old),))


def concat(tensors: Sequence[Tensor], axis: int) -> Tensor:
    if not tensors:
        raise DimensionError("concat needs at least one tensor")
    ndim = tensors[0].ndim
    if not -ndim <= axis < ndim:
        raise DimensionError(f"concat axis {axis} out of range for rank {ndim}")
    axis = axis % ndim
    ref = tensors[0].shape
    for t in tensors[1:]:
        if t.ndim != ndim or any(i != axis and t.shape[i] != ref[i] for i in range(ndim)):
            raise DimensionError(f"concat: shape {t.shape} incompatible with {ref} on axis {axis}")
    data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def rule(g):
        grads = []
        for i, t in enumerate(tensors):
            idx = [slice(None)] * ndim
            idx[axis] = slice(int(offsets[i]), int(offsets[i + 1]))
            grads.append(g[tuple(idx)] if t.requires_grad else None)
        return tuple(grads)

    return record(data, tuple(tensors), rule)


def narrow(a: Tensor, axis: int, start: int, length: int) -> Tensor:
    """Contiguous slice [start, start+length) along one axis; inverse of concat."""
    if not -a.ndim <= axis < a.ndim:
        raise DimensionError(f"narrow axis {axis} out of range for rank {a.ndim}")
    axis = axis % a.ndim
    if start < 0 or length < 0 or start + length > a.shape[axis]:
        raise DimensionError(
            f"narrow [{start}, {start + length}) exceeds size {a.shape[axis]} on axis {axis}")
    idx = [slice(None)] * a.ndim
    idx[axis] = slice(start, start + length)
    idx = tuple(idx)

    def rule(g):
        full = np.zeros(a.shape, dtype=g.dtype)
        full[idx] = g
        return (full,)

    return record(a.data[idx].copy(), (a,), rule)


# ---------------------------------------------------------------------------
# reductions
# ---------------------------------------------------------------------------

def tsum(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    data = a.data.sum(axis=axis, keepdims=keepdims)

    def rule(g):
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        return (np.broadcast_to(g, a.shape).copy(),)

    return record(np.asarray(data), (a,), rule)


# ---------------------------------------------------------------------------
# nonlinearities
# ---------------------------------------------------------------------------

def layer_norm(x: Tensor, gamma: Tensor, beta: Tensor) -> Tensor:
    """Normalize each last-dim slice to zero mean / unit variance, then affine. The rule keeps
    the input array, the row means and inverse stds, and rebuilds x-hat with the forward's ops."""
    d = x.shape[-1]
    if gamma.shape != (d,) or beta.shape != (d,):
        raise DimensionError(
            f"layer_norm affine shapes {gamma.shape}/{beta.shape} do not match feature dim {d}")
    x_data = x.data  # the array itself: Parameter.assign rebinds .data
    mean = x_data.mean(axis=-1, keepdims=True)
    xc = x_data - mean
    inv_std = 1.0 / np.sqrt((xc * xc).mean(axis=-1, keepdims=True) + 1e-5)
    xhat = xc * inv_std

    def rule(g):
        xhat = (x_data - mean) * inv_std  # the forward's x-hat, whose array died with the forward
        gx = None
        if x.requires_grad:
            gh = g * gamma.data
            gx = inv_std * (gh - gh.mean(axis=-1, keepdims=True)
                            - xhat * (gh * xhat).mean(axis=-1, keepdims=True))
        g_gamma = _column_sums((g * xhat).reshape(-1, d)) if gamma.requires_grad else None
        g_beta = _column_sums(g.reshape(-1, d)) if beta.requires_grad else None
        return gx, g_gamma, g_beta

    return record(xhat * gamma.data + beta.data, (x, gamma, beta), rule)


# Eigen's float32 rational erf (generic_fast_erf_float, which XLA also uses):
# erf(z) = z P(z^2) / Q(z^2) on z clamped to [-4, 4], where float32 erf is +-1.
# Phi from it is within 2.3e-7 of float64 erf; coefficients highest power first.
_ERF_P = tuple(np.float32(c) for c in (
    -2.72614225801306e-10, 2.77068142495902e-08, -2.10102402082508e-06, -5.69250639462346e-05,
    -7.34990630326855e-04, -2.95459980854025e-03, -1.60960333262415e-02))
_ERF_Q = tuple(np.float32(c) for c in (
    -1.45660718464996e-05, -2.13374055278905e-04, -1.68282697438203e-03, -7.37332916720468e-03,
    -1.42647390514189e-02))
# halving P's coefficients is exact, so 0.5 + z (P/2) / Q is 0.5 (1 + erf(z)) to the bit
_HALF_ERF_P = tuple(c * np.float32(0.5) for c in _ERF_P)
_GELU_BLOCK = 1 << 15  # values per block: a block's buffers stay in a 2 MB L2


def _horner(coeffs, z2: np.ndarray, out: np.ndarray) -> None:
    """out = the polynomial `coeffs` (highest power first) at z2, in place."""
    np.multiply(z2, coeffs[0], out=out)
    for c in coeffs[1:-1]:
        out += c
        out *= z2
    out += coeffs[-1]


def _gelu_f32(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """x * Phi(x) and Phi(x) for float32 x, block by block with the rational erf."""
    flat = x.reshape(-1)
    out, phi = np.empty_like(flat), np.empty_like(flat)
    z, z2, q = (np.empty(min(flat.size, _GELU_BLOCK), np.float32) for _ in range(3))
    for start in range(0, flat.size, _GELU_BLOCK):
        xb = flat[start:start + _GELU_BLOCK]
        n = xb.size
        zb, z2b, qb, pb = z[:n], z2[:n], q[:n], phi[start:start + n]
        np.multiply(xb, np.float32(1.0 / math.sqrt(2.0)), out=zb)
        np.clip(zb, -4.0, 4.0, out=zb)
        np.multiply(zb, zb, out=z2b)
        _horner(_HALF_ERF_P, z2b, out=pb)
        pb *= zb
        _horner(_ERF_Q, z2b, out=qb)
        pb /= qb  # erf(z) / 2
        pb += 0.5
        np.multiply(xb, pb, out=out[start:start + n])
    return out.reshape(x.shape), phi.reshape(x.shape)


def feed_forward(x: Tensor, w1: Tensor, b1: Tensor, w2: Tensor, b2: Tensor) -> Tensor:
    """linear(gelu(linear(x, w1, b1)), w2, b2) as one tape entry, with the exact GELU x * Phi(x):
    the chain's numpy ops in its order, so its bits. float32 takes Phi from the blocked rational
    erf above; float64 (gradient checks) keeps scipy's erf, imported in its branch so that float32
    processes never load scipy. The rule keeps fc1's output h and Phi but not GELU's output, which
    backward rebuilds bit for bit as h * Phi for fc2's weight gradient: the recompute trade of
    Chen et al. 2016 at the price of one multiply.
    """
    x2, h = _affine("feed_forward", x.data, w1, b1)
    if h.dtype == np.float32:
        a, phi = _gelu_f32(h)
    else:
        from scipy.special import erf
        phi = 0.5 * (1.0 + erf(h / math.sqrt(2.0)))
        a = h * phi
    _, out = _affine("feed_forward", a, w2, b2)

    def rule(g):
        hidden_needs = x.requires_grad or w1.requires_grad or b1.requires_grad
        a = h * phi if w2.requires_grad else None
        ga, gw2, gb2 = _affine_grads(g, a, w2, b2, h.shape if hidden_needs else None)
        if ga is None:
            return None, None, None, gw2, gb2
        # GELU's gradient, ga * (Phi + h * exp(-h^2 / 2) / sqrt(2 pi)), in one buffer: a's, if any
        t = np.multiply(h, -0.5, out=a)
        t *= h
        np.exp(t, out=t)
        t /= math.sqrt(2.0 * math.pi)
        t *= h
        t += phi
        t *= ga
        del ga
        return (*_affine_grads(t, x2, w1, b1, x.shape if x.requires_grad else None), gw2, gb2)

    return record(out.reshape(*x.shape[:-1], w2.shape[1]), (x, w1, b1, w2, b2), rule)


# ---------------------------------------------------------------------------
# reverse pass
# ---------------------------------------------------------------------------

def backward(loss: Tensor) -> None:
    """Accumulate d loss / d leaf into .grad of every leaf reachable from `loss`.

    A leaf is a tensor that requires a gradient and that no recorded op
    produced. Op outputs never get .grad: each entry is popped as the walk
    reaches it, and its output's gradient is dropped once the rule has run, so
    activations and intermediate gradients are freed during the walk. A leaf is
    finished when the walk has run its earliest entry, since no entry before it
    can add to its gradient: .grad is set then, and the scope's on_leaf gets
    the leaf. Consumes the tape, also when a rule raises: a second call without
    newly recorded ops raises, and the leaves finished before the raise keep
    what they got.
    """
    if loss.data.size != 1:
        raise ContractError(f"backward needs a scalar loss, got shape {loss.shape}")
    entries = _TAPE.entries
    if not entries:
        raise ContractError("tape is empty: no op was recorded inside recording(), or backward consumed it")
    on_leaf = _TAPE.on_leaf

    def finish(tensor_: Tensor, g: np.ndarray) -> None:
        if tensor_.requires_grad:
            g = g.astype(tensor_.data.dtype, copy=False)
            tensor_.grad = g if tensor_.grad is None else tensor_.grad + g
            if on_leaf is not None:
                on_leaf(tensor_)

    # id -> index of the earliest entry that reads it; an op output maps to -1,
    # as its entries come after the one that made it
    earliest: dict[int, int] = {}
    for index, entry in enumerate(entries):
        for inp in entry.inputs:
            earliest.setdefault(id(inp), index)
        earliest[id(entry.output)] = -1

    # id -> (tensor, gradient so far); entries come in topological order, so
    # an output's gradient is complete when the walk reaches its entry
    acc: dict[int, tuple[Tensor, np.ndarray]] = {id(loss): (loss, np.ones_like(loss.data))}
    try:
        while entries:
            entry = entries.pop()
            held = acc.pop(id(entry.output), None)
            if held is not None:  # else not reachable from the loss
                for inp, g in zip(entry.inputs, entry.backward_rule(held[1])):
                    if g is None:
                        continue
                    prev = acc.get(id(inp))
                    acc[id(inp)] = (inp, g if prev is None else prev[1] + g)
            for inp in entry.inputs:  # the leaves this entry is the earliest reader of
                if earliest[id(inp)] == len(entries) and id(inp) in acc:
                    finish(*acc.pop(id(inp)))
    finally:
        _TAPE.entries.clear()

    # a leaf no entry reads: the loss itself
    for tensor_, g in acc.values():
        finish(tensor_, g)
