"""On-disk formats: raw tensors, checkpoints, and P6 PPM images.

All multi-byte integers are little-endian. Floating payloads are written
little-endian regardless of host order so files transfer between machines.
"""

from __future__ import annotations

import json
import struct
from typing import Dict, Mapping, Sequence, Tuple

import numpy as np

from .errors import CheckpointError, ParseError
from .tensor import Parameter

RTEN_MAGIC = b"RTEN"
RTEN_VERSION = 1

CKPT_MAGIC = b"SECAPCKPT"
CKPT_VERSION = 1
# the metadata JSON follows the magic, the u16 version and the u64 length
CKPT_METADATA_OFFSET = len(CKPT_MAGIC) + 2 + 8

# dtype code registry shared by .rten and the checkpoint parameter table
_DTYPE_TO_CODE = {np.dtype(np.float32): 0, np.dtype(np.float64): 1}
_CODE_TO_DTYPE = {0: np.dtype("<f4"), 1: np.dtype("<f8")}
_CODE_TO_NATIVE = {0: np.float32, 1: np.float64}


def _dtype_code(arr: np.ndarray) -> int:
    code = _DTYPE_TO_CODE.get(arr.dtype)
    if code is None:
        raise CheckpointError(f"unsupported dtype {arr.dtype}; only float32/float64 are stored")
    return code


# ---------------------------------------------------------------------------
# .rten raw tensor files


def _array_bytes(arr: np.ndarray) -> bytes:
    """One array record: dtype code, rank, dims, little-endian payload; _read_array decodes it."""
    arr = np.asarray(arr)  # ascontiguousarray would promote rank-0 to rank-1
    code = _dtype_code(arr)
    head = struct.pack(f"<BB{arr.ndim}Q", code, arr.ndim, *arr.shape)
    return head + arr.astype(_CODE_TO_DTYPE[code], copy=False, order="C").tobytes(order="C")


def rten_bytes(arr: np.ndarray) -> bytes:
    """Serialize one array: magic, version, then its array record."""
    return RTEN_MAGIC + struct.pack("<B", RTEN_VERSION) + _array_bytes(arr)


def save_rten(path, arr: np.ndarray) -> None:
    with open(path, "wb") as fh:
        fh.write(rten_bytes(arr))


class _Cursor:
    """Byte reader that reports the offset of the first malformed field."""

    def __init__(self, buf: bytes, *, label: str):
        self.buf = buf
        self.pos = 0
        self.label = label

    def take(self, n: int, what: str) -> bytes:
        if self.pos + n > len(self.buf):
            raise ParseError(f"{self.label}: truncated while reading {what}", self.pos)
        out = self.buf[self.pos : self.pos + n]
        self.pos += n
        return out

    def u8(self, what: str) -> int:
        return self.take(1, what)[0]

    def u16(self, what: str) -> int:
        return struct.unpack("<H", self.take(2, what))[0]

    def u64(self, what: str) -> int:
        return struct.unpack("<Q", self.take(8, what))[0]


def _read_array(cur: _Cursor) -> np.ndarray:
    at = cur.pos
    code = cur.u8("dtype code")
    if code not in _CODE_TO_DTYPE:
        raise ParseError(f"{cur.label}: unknown dtype code {code}", at)
    rank = cur.u8("rank")
    shape = tuple(cur.u64(f"dim {i}") for i in range(rank))
    count = 1
    for d in shape:
        count *= d
    raw = cur.take(count * _CODE_TO_DTYPE[code].itemsize, "payload")
    arr = np.frombuffer(raw, dtype=_CODE_TO_DTYPE[code]).reshape(shape)
    return arr.astype(_CODE_TO_NATIVE[code])


def load_rten(path) -> np.ndarray:
    with open(path, "rb") as fh:
        buf = fh.read()
    cur = _Cursor(buf, label=str(path))
    magic = cur.take(len(RTEN_MAGIC), "magic")
    if magic != RTEN_MAGIC:
        raise ParseError(f"{path}: bad magic {magic!r}, expected {RTEN_MAGIC!r}", 0)
    at = cur.pos
    version = cur.u8("version")
    if version != RTEN_VERSION:
        raise ParseError(f"{path}: unsupported version {version}", at)
    arr = _read_array(cur)
    if cur.pos != len(buf):
        raise ParseError(f"{path}: {len(buf) - cur.pos} trailing bytes", cur.pos)
    return arr


# ---------------------------------------------------------------------------
# Checkpoints
#
# Layout: magic, u16 version, u64 metadata length + UTF-8 JSON (sorted keys,
# canonical separators, so identical metadata gives identical bytes), u64
# parameter count, then per parameter: u16 name length, name, dtype code,
# rank, dims, payload. Parameters are written in registration order, which
# model construction fixes deterministically.


def checkpoint_bytes(params: Sequence[Parameter], metadata: Mapping) -> bytes:
    meta = json.dumps(dict(metadata), sort_keys=True, separators=(",", ":")).encode("utf-8")
    out = [CKPT_MAGIC, struct.pack("<H", CKPT_VERSION), struct.pack("<Q", len(meta)), meta]
    names = [p.name for p in params]
    if len(set(names)) != len(names):
        raise CheckpointError("duplicate parameter names in checkpoint")
    out.append(struct.pack("<Q", len(params)))
    for p in params:
        name = p.name.encode("utf-8")
        out.extend((struct.pack("<H", len(name)), name, _array_bytes(p.data)))
    return b"".join(out)


def save_checkpoint(path, params: Sequence[Parameter], metadata: Mapping) -> None:
    with open(path, "wb") as fh:
        fh.write(checkpoint_bytes(params, metadata))


def _parse_metadata(raw: bytes, *, label: str) -> dict:
    at = CKPT_METADATA_OFFSET
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"{label}: metadata is not UTF-8", at + exc.start) from None
    try:
        meta = json.loads(text)
    except json.JSONDecodeError as exc:
        bad = at + len(text[: exc.pos].encode("utf-8"))
        raise ParseError(f"{label}: metadata is not JSON ({exc.msg})", bad) from None
    if not isinstance(meta, dict):
        raise ParseError(f"{label}: metadata is not a JSON object", at)
    return meta


def load_checkpoint(path) -> Tuple[dict, Dict[str, np.ndarray]]:
    """Read a checkpoint; returns (metadata, name -> array in file order)."""
    with open(path, "rb") as fh:
        buf = fh.read()
    cur = _Cursor(buf, label=str(path))
    try:
        magic = cur.take(len(CKPT_MAGIC), "magic")
        if magic != CKPT_MAGIC:
            raise CheckpointError(f"{path}: not a checkpoint (magic {magic!r})")
        version = cur.u16("version")
        if version != CKPT_VERSION:
            raise CheckpointError(f"{path}: unsupported checkpoint version {version}")
        meta_len = cur.u64("metadata length")
        meta = _parse_metadata(cur.take(meta_len, "metadata"), label=str(path))
        count = cur.u64("parameter count")
        table: Dict[str, np.ndarray] = {}
        for _ in range(count):
            name_len = cur.u16("name length")
            at = cur.pos
            try:
                name = cur.take(name_len, "name").decode("utf-8")
            except UnicodeDecodeError as exc:
                raise ParseError(f"{path}: parameter name is not UTF-8", at + exc.start) from None
            if name in table:
                raise CheckpointError(f"{path}: duplicate parameter {name!r}")
            table[name] = _read_array(cur)
    except ParseError as exc:
        raise CheckpointError(f"{path}: corrupt checkpoint: {exc}") from exc
    if cur.pos != len(buf):
        raise CheckpointError(f"{path}: {len(buf) - cur.pos} trailing bytes")
    return meta, table


def load_into(params: Sequence[Parameter], table: Mapping[str, np.ndarray]) -> None:
    """Copy a loaded parameter table into live parameters, strictly matched."""
    names = [p.name for p in params]
    missing = [n for n in names if n not in table]
    extra = [n for n in table if n not in set(names)]
    if missing or extra:
        raise CheckpointError(
            f"parameter names do not match model: missing {missing or 'none'}, unexpected {extra or 'none'}"
        )
    for p in params:
        arr = table[p.name]
        if arr.shape != p.shape:
            raise CheckpointError(
                f"parameter {p.name!r}: checkpoint shape {arr.shape} != model shape {p.shape}"
            )
        p.assign(arr)


# ---------------------------------------------------------------------------
# P6 PPM reader (binary RGB, maxval <= 255)


def _ppm_token(buf: bytes, pos: int, label: str) -> Tuple[bytes, int]:
    # skip whitespace and '#' comments, then take one run of non-whitespace
    n = len(buf)
    while pos < n:
        c = buf[pos : pos + 1]
        if c == b"#":
            while pos < n and buf[pos : pos + 1] != b"\n":
                pos += 1
        elif c.isspace():
            pos += 1
        else:
            break
    if pos >= n:
        raise ParseError(f"{label}: truncated header", pos)
    start = pos
    while pos < n and not buf[pos : pos + 1].isspace():
        pos += 1
    return buf[start:pos], pos


def load_ppm(path) -> np.ndarray:
    """Decode binary P6 into float32 (3, H, W) scaled to [0, 1]."""
    with open(path, "rb") as fh:
        buf = fh.read()
    label = str(path)
    if buf[:2] != b"P6":
        raise ParseError(f"{label}: not a P6 file", 0)
    pos = 2
    fields = []
    for what in ("width", "height", "maxval"):
        at = pos
        tok, pos = _ppm_token(buf, pos, label)
        if not tok.isdigit():
            raise ParseError(f"{label}: non-numeric {what} {tok!r}", at)
        fields.append(int(tok))
    width, height, maxval = fields
    if width <= 0 or height <= 0:
        raise ParseError(f"{label}: empty image {width}x{height}", 2)
    if not 0 < maxval <= 255:
        # 16-bit PPMs exist but are out of scope for this reader
        raise ParseError(f"{label}: unsupported maxval {maxval}", 2)
    # exactly one whitespace byte separates the header from the raster
    if pos >= len(buf) or not buf[pos : pos + 1].isspace():
        raise ParseError(f"{label}: missing raster separator", pos)
    pos += 1
    need = width * height * 3
    if len(buf) - pos < need:
        raise ParseError(f"{label}: raster truncated ({len(buf) - pos} of {need} bytes)", len(buf))
    raster = np.frombuffer(buf, dtype=np.uint8, count=need, offset=pos)
    hwc = raster.reshape(height, width, 3).astype(np.float32) / float(maxval)
    return np.ascontiguousarray(hwc.transpose(2, 0, 1))


def save_ppm(path, image: np.ndarray) -> None:
    """Write a (3, H, W) float array in [0, 1] as binary P6, maxval 255."""
    if image.ndim != 3 or image.shape[0] != 3:
        raise CheckpointError(f"expected (3, H, W) image, got {image.shape}")
    u8 = np.clip(np.rint(np.asarray(image, dtype=np.float64) * 255.0), 0, 255).astype(np.uint8)
    _, h, w = image.shape
    with open(path, "wb") as fh:
        fh.write(b"P6\n%d %d\n255\n" % (w, h))
        fh.write(np.ascontiguousarray(u8.transpose(1, 2, 0)).tobytes())


def load_image(path) -> np.ndarray:
    """Load one image by extension: .rten float tensor or binary P6 PPM."""
    s = str(path)
    if s.endswith(".rten"):
        with np.errstate(over="ignore"):  # a value past float32 becomes inf, rejected below
            image = load_rten(path).astype(np.float32, copy=False)
        if image.ndim != 3 or image.shape[0] != 3:
            raise ParseError(f"{s}: image tensor must be rank 3 with shape (3, H, W), got {image.shape}", 0)
        if not np.isfinite(image).all():
            raise ParseError(f"{s}: {int(np.sum(~np.isfinite(image)))} non-finite pixels", 0)
        return image
    if s.endswith(".ppm"):
        return load_ppm(path)
    raise ParseError(f"{s}: unknown image extension (expected .rten or .ppm)", 0)
