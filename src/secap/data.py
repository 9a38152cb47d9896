"""Manifests, image file names, protocol splits, sampling, augmentation,
representative-query selection, and the synthetic cross-view generator.

View encoding: 0 = aerial, 1 = ground-frontal, 2 = ground-oblique. Protocols
operate on the collapsed aerial/ground pair of DEFAULT_VIEW_MAP; a record with
any other view is rejected when it is made.
"""

from __future__ import annotations

import hashlib
import math
import os
import warnings
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

import numpy as np
from scipy.spatial.distance import cdist

from .errors import ConfigurationError, ContractError, ParseError, ProtocolError
from .storage import load_image, save_rten

MANIFEST_HEADER = "#secap-manifest v1"
_INT64 = np.iinfo(np.int64)  # integer fields land in int64 arrays

AERIAL = 0
GROUND_FRONTAL = 1
GROUND_OBLIQUE = 2

# raw view id -> collapsed side (0 aerial, 1 ground)
DEFAULT_VIEW_MAP = {AERIAL: 0, GROUND_FRONTAL: 1, GROUND_OBLIQUE: 1}

PROTOCOLS = ("a2g", "g2a", "g2ag")
# protocol -> (query side, gallery sides)
PROTOCOL_SIDES = {"a2g": (0, (1,)), "g2a": (1, (0,)), "g2ag": (1, (0, 1))}


def derive_seed(*parts) -> int:
    """Stable 64-bit seed from heterogeneous parts; independent of PYTHONHASHSEED."""
    text = "|".join(str(p) for p in parts)
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little")


# ---------------------------------------------------------------------------
# Records and manifests


@dataclass(frozen=True)
class SampleRecord:
    path: str
    identity: int  # -1 marks a gallery distractor
    camera: int
    view: int
    frame: int

    def __post_init__(self):
        if self.identity < -1:
            raise ConfigurationError(f"identity must be >= -1, got {self.identity}")
        if self.camera < 0 or self.frame < 0:
            raise ConfigurationError(f"camera/frame must be non-negative, got {self.camera}/{self.frame}")
        if self.view not in DEFAULT_VIEW_MAP:
            raise ConfigurationError(f"view must be one of {sorted(DEFAULT_VIEW_MAP)}, got {self.view}")


class Manifest:
    """Ordered record collection; paths unique, records sorted by path."""

    def __init__(self, records: Iterable[SampleRecord], *, root: Optional[str] = None):
        recs = sorted(records, key=lambda r: r.path)
        seen = set()
        for r in recs:
            if r.path in seen:
                raise ConfigurationError(f"duplicate path in manifest: {r.path!r}")
            seen.add(r.path)
        self.records: Tuple[SampleRecord, ...] = tuple(recs)
        self.root = root

    def __len__(self) -> int:
        return len(self.records)

    def identities(self) -> List[int]:
        """Sorted unique non-distractor identities."""
        return sorted({r.identity for r in self.records if r.identity >= 0})

    def by_identity(self) -> Dict[int, List[SampleRecord]]:
        out: Dict[int, List[SampleRecord]] = {}
        for r in self.records:  # already path-sorted
            if r.identity >= 0:
                out.setdefault(r.identity, []).append(r)
        return out

    def subset(self, records: Iterable[SampleRecord]) -> "Manifest":
        return Manifest(records, root=self.root)

    def resolve(self, record: SampleRecord) -> str:
        return os.path.join(self.root, record.path) if self.root else record.path


def load_images(manifest: Manifest, records: Sequence[SampleRecord]) -> np.ndarray:
    """Load the records' images as one (N, C, H, W) stack; all must share one shape."""
    images = [load_image(manifest.resolve(r)) for r in records]
    for r, image in zip(records, images):
        if image.shape != images[0].shape:
            raise ParseError(
                f"{manifest.resolve(r)}: image shape {image.shape} differs from "
                f"{images[0].shape} of {manifest.resolve(records[0])}", 0)
    return np.stack(images)


def write_manifest(manifest: Manifest, path) -> None:
    lines = [MANIFEST_HEADER]
    for r in manifest.records:
        lines.append(f"{r.path}\t{r.identity}\t{r.camera}\t{r.view}\t{r.frame}")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def read_manifest(path) -> Manifest:
    """Parse a manifest; every `#` line after the header is a comment."""
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text", exc.start) from None
    lines = text.split("\n")
    if not lines or lines[0] != MANIFEST_HEADER:
        raise ParseError(f"{path}: missing header {MANIFEST_HEADER!r}", 0)
    offset = len(lines[0].encode("utf-8")) + 1
    records: List[SampleRecord] = []
    for line in lines[1:]:
        line_start = offset
        offset += len(line.encode("utf-8")) + 1
        if not line or line.startswith("#"):
            continue
        fields = line.split("\t")
        if len(fields) != 5:
            raise ParseError(f"{path}: expected 5 tab-separated fields, got {len(fields)}", line_start)
        values = []
        for i, f in enumerate(fields[1:], start=1):
            digits = f.removeprefix("-")
            # 19 digits hold every int64 and stay far below int()'s digit limit
            value = int(f) if digits.isdecimal() and len(digits) <= 19 else None
            if value is None or not _INT64.min <= value <= _INT64.max:
                col = line_start + len("\t".join(fields[:i]).encode("utf-8")) + 1
                what = "field beyond int64" if digits.isdecimal() else "non-integer field"
                raise ParseError(f"{path}: {what} {f[:24]!r}", col)
            values.append(value)
        try:
            records.append(SampleRecord(fields[0], *values))
        except ConfigurationError as exc:
            raise ParseError(f"{path}: {exc}", line_start) from exc
    root = os.path.dirname(os.path.abspath(path))
    try:
        return Manifest(records, root=root)
    except ConfigurationError as exc:
        raise ParseError(f"{path}: {exc}", 0) from exc


# ---------------------------------------------------------------------------
# Image file naming: <id>_C<camera>_<frame>.rten


def format_image_name(identity: int, camera: int, frame: int) -> str:
    if identity < 0 or camera < 0 or frame < 0:
        raise ConfigurationError("image names encode non-negative fields only")
    return f"{identity:04d}_C{camera:02d}_{frame:06d}.rten"


# ---------------------------------------------------------------------------
# Protocol splits


@dataclass(frozen=True)
class ProtocolSplit:
    name: str
    query: Tuple[SampleRecord, ...]
    gallery: Tuple[SampleRecord, ...]


def build_protocol(
    manifest: Manifest,
    protocol_name: str,
    queries: Optional[Iterable[SampleRecord]] = None,
) -> ProtocolSplit:
    """Build query/gallery record lists for one cross-view protocol.

    `queries` optionally designates the query records (typically from
    select_queries; they may span both views, and the other view's are
    ignored). Without it, every non-distractor image of the query view is a
    query. The gallery holds all images of the gallery view(s), distractors
    included, minus the designated query images; for the single-view
    protocols that subtraction never intersects. Queries whose identity never
    occurs in the gallery are dropped with a warning.
    """
    if protocol_name not in PROTOCOL_SIDES:
        raise ProtocolError(f"unknown protocol {protocol_name!r}; expected one of {PROTOCOLS}")
    q_side, g_sides = PROTOCOL_SIDES[protocol_name]
    query_pool = [r for r in manifest.records if r.identity >= 0 and DEFAULT_VIEW_MAP[r.view] == q_side]
    if queries is None:
        query = list(query_pool)
    else:
        paths = {q.path for q in queries}
        known = {r.path: r for r in manifest.records}
        for p in sorted(paths):
            if p not in known:
                raise ProtocolError(f"designated query {p!r} is not in the manifest")
            if known[p].identity < 0:
                raise ProtocolError(f"designated query {p!r} is a distractor")
        query = [r for r in query_pool if r.path in paths]

    query_paths = {r.path for r in query}
    gallery = [r for r in manifest.records
               if DEFAULT_VIEW_MAP[r.view] in g_sides and r.path not in query_paths]
    if not gallery:
        raise ProtocolError(f"{protocol_name}: empty gallery set")

    gallery_ids = {r.identity for r in gallery}
    unmatched = [r for r in query if r.identity not in gallery_ids]
    if unmatched:
        warnings.warn(
            f"{protocol_name}: dropping {len(unmatched)} query images whose identity "
            "never occurs in the gallery"
        )
        query = [r for r in query if r.identity in gallery_ids]
    if not query:
        raise ProtocolError(f"{protocol_name}: empty query set")
    return ProtocolSplit(name=protocol_name, query=tuple(query), gallery=tuple(gallery))


def pool_reads(names: Iterable[str], pool: Sequence[SampleRecord], chosen: Iterable[SampleRecord],
               identity_records: Iterable[SampleRecord]) -> Set[SampleRecord]:
    """A superset of the images of one query pool (one identity on one side)
    that protocols `names` score when `chosen` are its queries, by
    build_protocol's rules: gallery-side images unless designated, and the
    designated queries while their identity keeps a gallery image."""
    side = DEFAULT_VIEW_MAP[pool[0].view]
    reads: Set[SampleRecord] = set()
    for name in names:
        q_side, g_sides = PROTOCOL_SIDES[name]
        designated = set(chosen) if q_side == side else set()
        gallery = {r for r in identity_records if DEFAULT_VIEW_MAP[r.view] in g_sides} - designated
        reads |= gallery
        if gallery:
            reads |= designated
    return reads


# ---------------------------------------------------------------------------
# P x K batch sampling


def pk_sample(manifest: Manifest, p: int, k: int, seed) -> List[SampleRecord]:
    """P distinct identities, K images each (with replacement only when short)."""
    groups = manifest.by_identity()
    ids = sorted(groups)
    if not 1 <= p <= len(ids) or k < 1:  # the only guard for callers that hold no TrainConfig
        raise ContractError(f"need 1 <= P <= {len(ids)} identities and K >= 1, got P={p} K={k}")
    rng = np.random.default_rng(seed)
    # permutation prefix, not choice(replace=False): its identity marginal is
    # measurably cleaner under sequential seeds, which the uniformity
    # property tests at a 3-sigma bound
    chosen = rng.permutation(len(ids))[:p]
    batch: List[SampleRecord] = []
    for idx in chosen:
        recs = groups[ids[int(idx)]]
        if len(recs) >= k:
            picks = rng.permutation(len(recs))[:k]
        else:
            picks = rng.integers(0, len(recs), size=k)
        batch.extend(recs[int(j)] for j in picks)
    return batch


# ---------------------------------------------------------------------------
# Augmentation


CROP_PAD = 4                  # pixels of zero padding before the random crop
JITTER_GAIN = (0.8, 1.2)      # per-channel gain range
ERASE_PROB = 0.5              # chance of one random-erasing rectangle
ERASE_AREA = (0.02, 0.4)      # erased fraction of the image area
ERASE_ASPECT = (0.3, 3.33)    # erased rectangle's height/width ratio


def augment(image: np.ndarray, seed) -> np.ndarray:
    """Pad-and-crop, channel jitter, random erasing. Pure in (image, seed)."""
    if image.ndim != 3:
        raise ContractError(f"expected (C, H, W) image, got shape {image.shape}")
    rng = np.random.default_rng(seed)
    c, h, w = image.shape

    pad = CROP_PAD
    padded = np.zeros((c, h + 2 * pad, w + 2 * pad), dtype=image.dtype)
    padded[:, pad : pad + h, pad : pad + w] = image
    y0 = int(rng.integers(0, 2 * pad + 1))
    x0 = int(rng.integers(0, 2 * pad + 1))
    out = padded[:, y0 : y0 + h, x0 : x0 + w].copy()

    gains = rng.uniform(*JITTER_GAIN, size=c)
    out *= gains[:, None, None].astype(image.dtype)

    if rng.uniform() < ERASE_PROB:
        # resample until the rectangle fits and its rounded area stays in range
        for _ in range(50):
            frac = rng.uniform(*ERASE_AREA)
            aspect = rng.uniform(*ERASE_ASPECT)
            area = frac * h * w
            eh = max(1, int(round(np.sqrt(area * aspect))))
            ew = max(1, int(round(np.sqrt(area / aspect))))
            if eh > h or ew > w:
                continue
            lo, hi = ERASE_AREA
            if not lo <= eh * ew / (h * w) <= hi:
                continue
            ey = int(rng.integers(0, h - eh + 1))
            ex = int(rng.integers(0, w - ew + 1))
            out[:, ey : ey + eh, ex : ex + ew] = rng.uniform(size=(c, eh, ew)).astype(image.dtype)
            break
    return out


# ---------------------------------------------------------------------------
# Gradient-histogram descriptor and representative-query selection

HOG_CELL = 8  # pixels per side of a square histogram cell
HOG_BINS = 9  # unsigned orientation bins over [0, pi)


def _orientation_bins(dy: np.ndarray, dx: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Magnitude and orientation bin of each gradient (see hog_descriptor)."""
    mag = np.sqrt(dx * dx + dy * dy)
    cos = np.divide(dx, np.copysign(mag, dy), out=np.ones_like(mag), where=dy != 0)
    bin_idx = np.zeros(mag.shape, dtype=np.uint8)  # narrow counters add fastest
    for edge in np.cos(np.arange(1, HOG_BINS) * np.pi / HOG_BINS):
        bin_idx += cos <= edge
    return mag, bin_idx


def hog_descriptor(images: np.ndarray) -> np.ndarray:
    """Orientation-binned gradient histograms of a stack (N, C, H, W): square
    cells, 2x2 block L2 norm; returns (N, D), one descriptor per image.

    Bin k of B = HOG_BINS holds orientations theta in [k pi / B, (k+1) pi / B).
    Folded into the upper half-plane, a gradient has cos(theta) =
    dx / copysign(mag, dy), so its bin is the count of edge cosines
    cos(k pi / B), k >= 1, at or above that; dy == 0 is bin 0, as in
    mod(arctan2(+-0, dx), pi). On float32 images dx^2 + dy^2 can neither
    overflow nor underflow in float64, so mag needs no hypot.

    Each row is bit-equal to the descriptor of that image alone: the
    histogram adds pixels in raster order, and block norms are BLAS dots.
    """
    if images.ndim != 4:
        raise ContractError(f"expected (N, C, H, W) images, got shape {images.shape}")
    gray = np.asarray(images, dtype=np.float64).mean(axis=1)
    n, h, w = gray.shape
    hc, wc = h // HOG_CELL, w // HOG_CELL
    if hc < 1 or wc < 1:
        raise ContractError(f"image {h}x{w} smaller than one {HOG_CELL}x{HOG_CELL} cell")
    gray = gray[:, : hc * HOG_CELL, : wc * HOG_CELL]
    dy, dx = np.gradient(gray, axis=(1, 2))
    mag, bin_idx = _orientation_bins(dy, dx)
    cell_y = (np.arange(hc * HOG_CELL) // HOG_CELL)[None, :, None]
    cell_x = (np.arange(wc * HOG_CELL) // HOG_CELL)[None, None, :]
    image = np.arange(n)[:, None, None]
    flat = ((image * hc + cell_y) * wc + cell_x) * HOG_BINS + bin_idx
    hist = np.bincount(flat.ravel(), weights=mag.ravel(), minlength=n * hc * wc * HOG_BINS)
    hist = hist.reshape(n, hc, wc, HOG_BINS)
    if hc < 2 or wc < 2:
        v = hist.reshape(n, -1)
    else:
        # 2x2 cells per block, raveled (row, column, bin); blocks in raster order
        v = np.stack([hist[:, :-1, :-1], hist[:, :-1, 1:], hist[:, 1:, :-1], hist[:, 1:, 1:]], axis=3)
        v = v.reshape(n, hc - 1, wc - 1, 4 * HOG_BINS)
    # a (1, k) @ (k, 1) matmul is the BLAS dot np.linalg.norm uses, so the bits match
    norm = np.sqrt(np.matmul(v[..., None, :], v[..., :, None]))[..., 0]
    return (v / (norm + 1e-12)).reshape(n, -1)


def _rank_pool(descriptors: np.ndarray) -> List[int]:
    """Order a pool of images by representativeness.

    Mutual-or-one-way kNN graph (k = min(3, n-1)), dominant component first
    (size, then earliest member). Within it, images rank by total distance to
    the rest of the component (the component medoid leads); outsiders follow,
    nearest to the medoid first. Index order breaks every tie, and the
    incoming pool is path-sorted, so the ranking is deterministic.
    """
    n = len(descriptors)
    if n == 1:
        return [0]
    dist = cdist(descriptors, descriptors)
    k = min(3, n - 1)
    others = dist.copy()
    np.fill_diagonal(others, np.inf)  # an image is not its own neighbour
    adj = np.zeros((n, n), dtype=bool)
    adj[np.arange(n)[:, None], np.argsort(others, axis=1, kind="stable")[:, :k]] = True
    adj |= adj.T
    # label each image with the lowest index it is connected to; then the
    # largest component with the lowest label is the one with the earliest member
    labels = np.arange(n)
    while True:
        spread = np.where(adj, labels, labels[:, None]).min(axis=1)
        if np.array_equal(spread, labels):
            break
        labels = spread
    main = np.flatnonzero(labels == np.argmax(np.bincount(labels))).tolist()
    sums = dist[np.ix_(main, main)].sum(axis=1)
    ranked = [main[i] for i in np.argsort(sums, kind="stable")]
    medoid = ranked[0]
    rest = sorted(set(range(n)) - set(main))
    rest.sort(key=lambda j: (dist[medoid, j], j))
    return ranked + rest


def query_pools(manifest: Manifest, per_view: int, sides: Iterable[int]
                ) -> Iterator[Tuple[List[SampleRecord], np.ndarray, List[SampleRecord]]]:
    """Walk the query pools, one identity's images on one collapsed side in
    `sides` each, loading each pool once: yield the pool, its images and its
    per_view most representative images."""
    if per_view < 1:
        raise ContractError(f"per_view must be >= 1, got {per_view}")
    for identity, recs in sorted(manifest.by_identity().items()):
        for s in sorted(sides):
            pool = [r for r in recs if DEFAULT_VIEW_MAP[r.view] == s]
            if not pool:
                warnings.warn(f"identity {identity} has no image on side {s}; skipped")
                continue
            # one pool at a time keeps memory at one identity's images
            images = load_images(manifest, pool)
            ranked = _rank_pool(hog_descriptor(images))
            yield pool, images, [pool[i] for i in ranked[:per_view]]


def select_queries(manifest: Manifest, per_view: int = 1, sides: Iterable[int] = (0, 1)) -> List[SampleRecord]:
    """Pick per_view representative images per identity on each collapsed side in `sides`."""
    return [q for _, _, chosen in query_pools(manifest, per_view, sides) for q in chosen]


# ---------------------------------------------------------------------------
# Identity-level train/test split


def split_identities(manifest: Manifest, holdout_fraction: float, seed) -> Tuple[Manifest, Manifest]:
    """Split by identity; distractors belong to the held-out (test) side."""
    if not 0.0 < holdout_fraction < 1.0:
        raise ConfigurationError(f"holdout_fraction must be in (0, 1), got {holdout_fraction}")
    ids = manifest.identities()
    if len(ids) < 2:
        raise ProtocolError(f"need at least 2 identities to split, manifest has {len(ids)}")
    rng = np.random.default_rng([derive_seed("identity-split", seed)])
    perm = rng.permutation(len(ids))
    n_test = min(len(ids) - 1, max(1, int(round(holdout_fraction * len(ids)))))
    test_ids = {ids[int(i)] for i in perm[:n_test]}
    train = [r for r in manifest.records if r.identity >= 0 and r.identity not in test_ids]
    test = [r for r in manifest.records if r.identity < 0 or r.identity in test_ids]
    return manifest.subset(train), manifest.subset(test)


# ---------------------------------------------------------------------------
# Synthetic cross-view corpus

# fixed 2-D cosine modes rendering identity latents into smooth patterns
_MODES = ((0, 1), (1, 0), (1, 1), (2, 1), (1, 2), (2, 2), (0, 2), (2, 0), (3, 1), (1, 3), (2, 3), (3, 2))

# per-view channel gains and vertical squash (aerial foreshortening)
_VIEW_GAINS = {0: (0.85, 1.0, 1.2), 1: (1.2, 1.0, 0.85), 2: (1.05, 0.9, 1.05)}
_VIEW_SQUASH = {0: 0.62, 1: 1.0, 2: 0.85}


@dataclass(frozen=True)
class SynthConfig:
    num_ids: int = 8
    images_per_id_per_view: int = 4
    num_views: int = 2
    image_h: int = 64
    image_w: int = 32
    seed: int = 0
    view_strength: float = 1.0
    cams_per_view: int = 2
    num_distractors: int = 0

    def __post_init__(self):
        if self.num_ids < 1 or self.images_per_id_per_view < 1 or self.cams_per_view < 1:
            raise ConfigurationError("all counts must be >= 1")
        if not 1 <= self.num_views <= 3:
            raise ConfigurationError(f"num_views must be 1..3, got {self.num_views}")
        if self.image_h < 8 or self.image_w < 8:
            raise ConfigurationError("image must be at least 8x8")
        if self.num_distractors < 0:
            raise ConfigurationError("num_distractors must be >= 0")
        if not math.isfinite(self.view_strength):
            raise ConfigurationError(f"view_strength must be finite, got {self.view_strength}")
        if self.seed < 0:  # numpy seeds are non-negative
            raise ConfigurationError(f"seed must be >= 0, got {self.seed}")


def _mode_table(h: int, w: int) -> np.ndarray:
    ys = (np.arange(h) + 0.5) / h
    xs = (np.arange(w) + 0.5) / w
    table = [np.cos(np.pi * fy * ys)[:, None] * np.cos(np.pi * fx * xs)[None, :] for fy, fx in _MODES]
    return np.stack(table)  # (K, H, W)


def _render(latent: np.ndarray, mix: np.ndarray, modes: np.ndarray, view: int, rng, strength: float) -> np.ndarray:
    coeffs = mix @ latent  # (3, K)
    base = np.tensordot(coeffs, modes, axes=([1], [0]))  # (3, H, W)
    img = 0.5 + 0.5 * np.tanh(1.5 * base)

    squash = _VIEW_SQUASH[view] + 0.05 * strength * rng.uniform(-1.0, 1.0)
    squash = float(np.clip(squash, 0.3, 1.0))
    h = img.shape[1]
    kept = max(1, int(round(squash * h)))
    src = np.minimum((np.arange(kept) / squash).astype(np.int64), h - 1)
    squashed = np.full_like(img, 0.25)
    squashed[:, :kept, :] = img[:, src, :]

    gains = np.array(_VIEW_GAINS[view]) * (1.0 + 0.05 * strength * rng.uniform(-1.0, 1.0, size=3))
    out = squashed * gains[:, None, None]
    out = out + rng.normal(0.0, 0.02, size=out.shape)
    return np.clip(out, 0.0, 1.0)


def generate_synthetic(cfg: SynthConfig, out_dir) -> Tuple[Manifest, Dict[str, np.ndarray]]:
    """Write the corpus (.rten images + manifest.tsv); returns latents too.

    Every stream draws from its own seed-derived RNG keyed by (identity,
    view, index), so outputs are byte-identical across reruns and independent
    of generation order.
    """
    os.makedirs(out_dir, exist_ok=True)
    dim = cfg.num_ids
    mix_rng = np.random.default_rng([cfg.seed, 101])
    mix = mix_rng.standard_normal((3, len(_MODES), dim)) / np.sqrt(dim)
    modes = _mode_table(cfg.image_h, cfg.image_w)

    records: List[SampleRecord] = []
    latents: Dict[str, np.ndarray] = {}

    def emit(path: str, identity: int, camera: int, view: int, frame: int, latent, rng):
        img = _render(latent, mix, modes, view, rng, cfg.view_strength)
        save_rten(os.path.join(out_dir, path), img.astype(np.float32))
        records.append(SampleRecord(path=path, identity=identity, camera=camera, view=view, frame=frame))
        latents[path] = latent

    for i in range(cfg.num_ids):
        anchor = np.zeros(dim)
        anchor[i] = 1.0
        for v in range(cfg.num_views):
            for k in range(cfg.images_per_id_per_view):
                rng = np.random.default_rng([cfg.seed, 7, i, v, k])
                latent = anchor + 0.05 * rng.standard_normal(dim)
                camera = v * cfg.cams_per_view + k % cfg.cams_per_view
                emit(format_image_name(i, camera, k), i, camera, v, k, latent, rng)

    for d in range(cfg.num_distractors):
        rng = np.random.default_rng([cfg.seed, 11, d])
        latent = 0.8 * rng.standard_normal(dim) / np.sqrt(dim)
        v = int(rng.integers(0, cfg.num_views))
        camera = v * cfg.cams_per_view + int(rng.integers(0, cfg.cams_per_view))
        # distractors live under a single camera; filename id field is synthetic
        path = format_image_name(9000 + d, camera, 0)
        emit(path, -1, camera, v, 0, latent, rng)

    manifest = Manifest(records, root=str(out_dir))
    write_manifest(manifest, os.path.join(out_dir, "manifest.tsv"))
    return manifest, latents
