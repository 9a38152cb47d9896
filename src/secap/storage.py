"""On-disk formats: raw tensors, checkpoints, and P6 PPM images.

All multi-byte integers are little-endian. Floating payloads are written
little-endian regardless of host order so files transfer between machines.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import struct
from typing import Dict, Mapping, Optional, Sequence, Tuple

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


@contextlib.contextmanager
def replacing(path, mode: str = "wb", **open_kw):
    """A file, opened with `mode`, that becomes `path` only once the block ends normally: it is
    written under a temporary name beside `path` and os.replace'd over it after the last byte.
    On any exception, KeyboardInterrupt included, the temporary is removed and `path` keeps
    what it held. No fsync: a crash of the host may still lose the new file's bytes."""
    path = os.fspath(path)
    tmp = f"{path}.{os.urandom(4).hex()}.tmp"  # same directory, so the rename is atomic
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)  # open()'s permissions
    try:
        with open(fd, mode, **open_kw) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise


# ---------------------------------------------------------------------------
# .rten raw tensor files


def _write_array(fh, arr: np.ndarray) -> None:
    """Write one array record: dtype code, rank, dims, little-endian payload; _read_array reads it."""
    code = _dtype_code(arr)
    fh.write(struct.pack(f"<BB{arr.ndim}Q", code, arr.ndim, *arr.shape))
    fh.write(arr.astype(_CODE_TO_DTYPE[code], copy=False, order="C").data)


def save_rten(path, arr: np.ndarray) -> None:
    """Write one array: magic, version, then its array record."""
    arr = np.asarray(arr)  # ascontiguousarray would promote rank-0 to rank-1
    _dtype_code(arr)  # a refused array leaves no file
    with replacing(path) as fh:
        fh.write(RTEN_MAGIC + struct.pack("<B", RTEN_VERSION))
        _write_array(fh, arr)


class _Cursor:
    """Reader of a binary stream of `size` bytes that reports the offset of the first
    malformed field, and refuses a read the rest of the stream cannot hold before making it."""

    def __init__(self, fh, size: int, *, label: str):
        self.fh, self.size, self.pos, self.label = fh, size, 0, label

    def fits(self, n: int, what: str) -> None:
        if self.pos + n > self.size:
            raise ParseError(f"{self.label}: truncated while reading {what}", self.pos)

    def take(self, n: int, what: str) -> bytes:
        self.fits(n, what)
        self.pos += n
        return self.fh.read(n)

    def uint(self, fmt: str, what: str) -> int:
        return struct.unpack("<" + fmt, self.take(struct.calcsize(fmt), what))[0]


def _read_array(cur: _Cursor) -> np.ndarray:
    """One array record, its payload read straight into an owned, writable array."""
    at = cur.pos
    code = cur.uint("B", "dtype code")
    if code not in _CODE_TO_DTYPE:
        raise ParseError(f"{cur.label}: unknown dtype code {code}", at)
    rank = cur.uint("B", "rank")
    shape = tuple(cur.uint("Q", f"dim {i}") for i in range(rank))
    cur.fits(math.prod(shape) * _CODE_TO_DTYPE[code].itemsize, "payload")  # before allocating for it
    try:  # an empty payload fits even beside a dim numpy cannot hold
        arr = np.empty(shape, _CODE_TO_DTYPE[code])
    except ValueError as exc:
        raise ParseError(f"{cur.label}: shape {shape} does not fit an array ({exc})", at) from None
    cur.pos += cur.fh.readinto(arr)
    return arr.astype(_CODE_TO_NATIVE[code], copy=False)


def load_rten(path) -> np.ndarray:
    with open(path, "rb") as fh:
        buf = fh.read()  # images are small: one read, then parsed in memory
    cur = _Cursor(io.BytesIO(buf), len(buf), label=str(path))
    magic = cur.take(len(RTEN_MAGIC), "magic")
    if magic != RTEN_MAGIC:
        raise ParseError(f"{path}: bad magic {magic!r}, expected {RTEN_MAGIC!r}", 0)
    version = cur.uint("B", "version")
    if version != RTEN_VERSION:
        raise ParseError(f"{path}: unsupported version {version}", len(RTEN_MAGIC))
    arr = _read_array(cur)
    if cur.pos != cur.size:
        raise ParseError(f"{path}: {cur.size - cur.pos} trailing bytes", cur.pos)
    return arr


# ---------------------------------------------------------------------------
# Checkpoints
#
# Layout: magic, u16 version, u64 metadata length + UTF-8 JSON (sorted keys,
# canonical separators, so identical metadata gives identical bytes), u64
# parameter count, then per parameter: u16 name length, name, dtype code,
# rank, dims, payload. Parameters are written in registration order, which
# model construction fixes deterministically.


def save_checkpoint(path, params: Sequence[Parameter], metadata: Mapping) -> None:
    """Write a checkpoint record by record; names and dtypes are checked first, so a refused save
    leaves no file, and a failed one leaves any earlier file at `path` as it was."""
    names = [p.name for p in params]
    if len(set(names)) != len(names):
        raise CheckpointError("duplicate parameter names in checkpoint")
    for p in params:
        _dtype_code(p.data)
    meta = json.dumps(dict(metadata), sort_keys=True, separators=(",", ":")).encode("utf-8")
    with replacing(path) as fh:
        fh.write(CKPT_MAGIC + struct.pack("<HQ", CKPT_VERSION, len(meta)) + meta + struct.pack("<Q", len(params)))
        for p in params:
            name = p.name.encode("utf-8")
            fh.write(struct.pack("<H", len(name)) + name)
            _write_array(fh, p.data)


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
    except ValueError:  # the one other ValueError: an integer beyond int()'s digit limit
        raise ParseError(f"{label}: metadata holds an integer of too many digits", at) from None
    except RecursionError:
        raise ParseError(f"{label}: metadata nests too deeply", at) from None
    if not isinstance(meta, dict):
        raise ParseError(f"{label}: metadata is not a JSON object", at)
    return meta


def load_checkpoint(path) -> Tuple[dict, Dict[str, np.ndarray]]:
    """Read a checkpoint; returns (metadata, name -> array in file order). The file is never held
    whole: each payload is read into a writable array of its own (safetensors' no-copy load)."""
    with open(path, "rb") as fh:
        cur = _Cursor(fh, os.fstat(fh.fileno()).st_size, label=str(path))
        try:
            magic = cur.take(len(CKPT_MAGIC), "magic")
            if magic != CKPT_MAGIC:
                raise CheckpointError(f"{path}: not a checkpoint (magic {magic!r})")
            version = cur.uint("H", "version")
            if version != CKPT_VERSION:
                raise CheckpointError(f"{path}: unsupported checkpoint version {version}")
            meta_len = cur.uint("Q", "metadata length")
            meta = _parse_metadata(cur.take(meta_len, "metadata"), label=str(path))
            count = cur.uint("Q", "parameter count")
            table: Dict[str, np.ndarray] = {}
            for _ in range(count):
                name_len = cur.uint("H", "name length")
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
    if cur.pos != cur.size:
        raise CheckpointError(f"{path}: {cur.size - cur.pos} trailing bytes")
    return meta, table


class TableSource:
    """Loading's parameter source: each parameter adopts its table entry, cast to float32, and nothing
    is drawn. Names in `dropped` are taken if present, unchecked (older `attn` tables hold them)."""

    def __init__(self, table: Dict[str, np.ndarray], dropped: Sequence[str] = ()):
        self.table, self.dropped, self.missing = table, dropped, []

    def __call__(self, name: str, shape: tuple) -> Optional[Parameter]:
        arr = self.table.pop(name, None)
        if arr is None or name in self.dropped:  # None stands in: close() refuses a model missing a name
            if name not in self.dropped:
                self.missing.append(name)
            return None
        if arr.shape != shape:
            raise CheckpointError(f"parameter {name!r}: checkpoint shape {arr.shape} != model shape {shape}")
        with np.errstate(over="ignore"):  # a float64 value past float32 becomes inf, refused below
            arr = arr.astype(np.float32, copy=False)
        if not np.isfinite(arr).all():
            raise CheckpointError(f"parameter {name!r}: {int(np.sum(~np.isfinite(arr)))} non-finite values")
        return Parameter(name, arr, copy=False)

    def close(self) -> None:
        """Refuse a table whose names are not exactly those the model took."""
        if self.missing or self.table:
            raise CheckpointError(f"parameter names do not match model: missing {self.missing or 'none'}, "
                                  f"unexpected {list(self.table) or 'none'}")


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


def load_image(path) -> np.ndarray:
    """Load one image by extension: .rten float tensor or binary P6 PPM."""
    s = str(path)
    if s.endswith(".rten"):
        with np.errstate(over="ignore"):  # a value past float32 becomes inf, rejected below
            image = load_rten(path).astype(np.float32, copy=False)
        if image.ndim != 3 or image.shape[0] != 3:
            raise ParseError(f"{s}: image tensor must be rank 3 with shape (3, H, W), got {image.shape}", 0)
        if image.size == 0:
            raise ParseError(f"{s}: empty image {image.shape[2]}x{image.shape[1]}", 0)
        if not np.isfinite(image).all():
            raise ParseError(f"{s}: {int(np.sum(~np.isfinite(image)))} non-finite pixels", 0)
        return image
    if s.endswith(".ppm"):
        return load_ppm(path)
    raise ParseError(f"{s}: unknown image extension (expected .rten or .ppm)", 0)
