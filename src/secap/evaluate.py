"""Feature extraction, cosine retrieval, and CMC/mAP scoring.

cmc_map is the production scorer; oracle_cmc_map recomputes the metrics by
direct definition with explicit loops and shares no code with it, so the two
can cross-check each other.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .data import (
    PROTOCOL_SIDES, Manifest, ProtocolSplit, SampleRecord, build_protocol, load_images, query_pools, split_records,
)
from .errors import DimensionError, NumericError, ProtocolError

FEATURE_CHUNK = 32  # images per inference pass
MIN_CHUNK_ROWS = 4  # fewest images an inference pass runs on


@dataclass(frozen=True)
class EvalReport:
    protocol: str
    rank1: float
    mAP: float
    num_queries: int  # queries actually scored
    num_gallery: int
    num_excluded: int = 0  # queries with no valid match after filtering

    def to_json_line(self) -> str:
        return json.dumps(asdict(self))


class FeatureSet:
    """Parallel (ids, cameras, views, paths) with row-normalized features."""

    def __init__(self, ids, cameras, views, paths, features: np.ndarray):
        self.ids = np.asarray(ids, dtype=np.int64)
        self.cameras = np.asarray(cameras, dtype=np.int64)
        self.views = np.asarray(views, dtype=np.int64)
        self.paths = list(paths)
        feats = np.asarray(features, dtype=np.float64)
        n = len(self.ids)
        if not (len(self.cameras) == len(self.views) == len(self.paths) == n == feats.shape[0]):
            raise DimensionError("feature set fields must have equal length")
        norms = np.linalg.norm(feats, axis=1, keepdims=True)
        self.features = feats / np.maximum(norms, 1e-12)

    def __len__(self) -> int:
        return len(self.ids)

    def select(self, records: Sequence[SampleRecord]) -> "FeatureSet":
        """The rows of the given records, matched by path, in their order.

        Rows are copied as stored, not normalized again: a second
        normalization can change the last bits of a unit row.
        """
        row_of = {path: i for i, path in enumerate(self.paths)}
        try:
            rows = [row_of[r.path] for r in records]
        except KeyError as exc:
            raise ProtocolError(f"no features extracted for {exc.args[0]!r}") from None
        out = object.__new__(FeatureSet)
        out.ids = self.ids[rows]
        out.cameras = self.cameras[rows]
        out.views = self.views[rows]
        out.paths = [self.paths[i] for i in rows]
        out.features = self.features[rows]
        return out


class FeatureExtractor:
    """Inference (no augmentation) over images as they are added, FEATURE_CHUNK
    at a time; features are [global, local]. Each image comes from load_images,
    which holds it to the model's shape, and is copied into one chunk buffer,
    so the caller need not keep it. Inference over 1 or 2 images rounds apart
    from the same images in a larger chunk, so a short last chunk repeats its
    last image to MIN_CHUNK_ROWS, rows dropped."""

    def __init__(self, model, manifest: Manifest):
        self.model = model
        self.manifest = manifest
        self.records: List[SampleRecord] = []
        self.shape = model.cfg.encoder.image_shape
        self._buffer = np.empty((FEATURE_CHUNK, *self.shape), dtype=np.float32)
        self._rows: List[np.ndarray] = []

    def add(self, record: SampleRecord, image: np.ndarray) -> None:
        n = len(self.records) % FEATURE_CHUNK
        self._buffer[n] = image
        self.records.append(record)
        if n + 1 == FEATURE_CHUNK:
            self._infer(FEATURE_CHUNK)

    def _infer(self, n: int) -> None:
        self._buffer[n:MIN_CHUNK_ROWS] = self._buffer[n - 1]
        self._rows.append(self.model.inference_features(self._buffer[: max(n, MIN_CHUNK_ROWS)])[:n])

    def features(self) -> FeatureSet:
        """Infer the last chunk; the rows of every image added, in order."""
        records = self.records
        if not records:
            raise ProtocolError("no records to extract features from")
        if len(records) % FEATURE_CHUNK:
            self._infer(len(records) % FEATURE_CHUNK)
        feats = np.concatenate(self._rows, axis=0)
        bad = ~np.isfinite(feats).all(axis=1)
        if bad.any():
            raise NumericError(f"non-finite features for {self.manifest.resolve(records[int(np.argmax(bad))])}")
        return FeatureSet([r.identity for r in records], [r.camera for r in records],
                          [r.view for r in records], [r.path for r in records], feats)


def extract_features(model, manifest: Manifest, records: Optional[Sequence[SampleRecord]] = None) -> FeatureSet:
    """Run inference over records, all of the manifest's by default (see FeatureExtractor)."""
    extractor = FeatureExtractor(model, manifest)
    for r in manifest.records if records is None else records:
        extractor.add(r, load_images(manifest, [r], extractor.shape)[0])
    return extractor.features()


def protocol_features(model, manifest: Manifest, names: Sequence[str], per_view: int
                      ) -> Tuple[List[ProtocolSplit], FeatureSet]:
    """The splits of protocols `names`, their queries the per_view most
    representative images of each pool, and the features of every image they
    score. Each image is read once: a query pool's images that split_records
    scores over the pool identity's images go to inference as its queries are
    chosen, then the scored images in no pool follow."""
    extractor = FeatureExtractor(model, manifest)
    sides = {PROTOCOL_SIDES[name][0] for name in names}
    queries: List[SampleRecord] = []
    for identity_records, pool, images, chosen in query_pools(manifest, per_view, sides, extractor.shape):
        queries.extend(chosen)
        scored = set()
        for name in names:
            kept, _, gallery = split_records(identity_records, name, {r.path for r in chosen})
            scored.update(kept, gallery)
        for record, image in zip(pool, images):
            if record in scored:
                extractor.add(record, image)
    splits = [build_protocol(manifest, name, queries=queries) for name in names]
    rest = {r for s in splits for r in s.query + s.gallery}.difference(extractor.records)
    for record in sorted(rest, key=lambda r: r.path):
        extractor.add(record, load_images(manifest, [record], extractor.shape)[0])
    return splits, extractor.features()


def distance_matrix(q: FeatureSet, g: FeatureSet) -> np.ndarray:
    """Cosine distance 1 - q.g on unit rows; shape (Nq, Ng), values in [0, 2]."""
    if q.features.shape[1] != g.features.shape[1]:
        raise DimensionError(
            f"feature dims differ: query {q.features.shape[1]} vs gallery {g.features.shape[1]}"
        )
    return 1.0 - q.features @ g.features.T


def cmc_map(
    dist: np.ndarray,
    q_meta: FeatureSet,
    g_meta: FeatureSet,
    protocol: str = "",
) -> EvalReport:
    """Rank-1 and mAP under ascending-distance ranking.

    The gallery is pre-sorted by path so tie-breaking by gallery index is
    reproducible across input orderings. Distractors (id -1) stay in the
    ranking as permanent negatives. Gallery entries of the query's identity
    recorded by the query's camera are dropped; queries left with no positive
    are excluded from both means and counted.
    """
    dist = np.asarray(dist, dtype=np.float64)
    if dist.ndim != 2 or dist.shape != (len(q_meta), len(g_meta)):
        raise DimensionError(f"distance matrix shape {dist.shape} does not match metadata")
    if len(q_meta) < 1 or len(g_meta) < 1:
        raise ProtocolError("need at least one query and one gallery entry")

    g_order = sorted(range(len(g_meta.paths)), key=lambda i: g_meta.paths[i])
    g_ids = g_meta.ids[g_order]
    g_cams = g_meta.cameras[g_order]
    dist = dist[:, g_order]

    hits: List[float] = []
    aps: List[float] = []
    excluded = 0
    for qi in range(dist.shape[0]):
        drop = (g_ids == q_meta.ids[qi]) & (g_cams == q_meta.cameras[qi])
        keep = np.nonzero(~drop)[0]
        matches = g_ids[keep] == q_meta.ids[qi]
        if not matches.any():
            excluded += 1
            continue
        order = np.argsort(dist[qi, keep], kind="stable")
        ranked_match = matches[order]
        hits.append(1.0 if ranked_match[0] else 0.0)
        match_ranks = np.nonzero(ranked_match)[0] + 1  # 1-based ranks
        precision = np.arange(1, len(match_ranks) + 1) / match_ranks
        aps.append(float(np.mean(precision)))
    if not aps:
        raise ProtocolError("every query has zero valid matches")
    return EvalReport(
        protocol=protocol,
        rank1=float(np.mean(hits)),
        mAP=float(np.mean(aps)),
        num_queries=len(aps),
        num_gallery=len(g_meta),
        num_excluded=excluded,
    )


def oracle_cmc_map(
    dist: np.ndarray,
    q_meta: FeatureSet,
    g_meta: FeatureSet,
    protocol: str = "",
) -> EvalReport:
    """Same metrics by direct definition: explicit loops, no vectorization."""
    nq = len(q_meta)
    ng = len(g_meta)
    if nq < 1 or ng < 1:
        raise ProtocolError("need at least one query and one gallery entry")

    gallery = sorted(range(ng), key=lambda j: g_meta.paths[j])

    rank1_flags = []
    ap_values = []
    excluded = 0
    for qi in range(nq):
        q_id = int(q_meta.ids[qi])
        q_cam = int(q_meta.cameras[qi])
        entries = []
        for pos, gj in enumerate(gallery):
            g_id = int(g_meta.ids[gj])
            g_cam = int(g_meta.cameras[gj])
            if g_id == q_id and g_cam == q_cam:
                continue
            entries.append((float(dist[qi][gj]), pos, g_id))
        entries.sort(key=lambda e: (e[0], e[1]))
        num_good = sum(1 for _, _, g_id in entries if g_id == q_id)
        if num_good == 0:
            excluded += 1
            continue
        rank1_flags.append(1.0 if entries and entries[0][2] == q_id else 0.0)
        seen_good = 0
        precisions = []
        for rank, (_, _, g_id) in enumerate(entries, start=1):
            if g_id == q_id:
                seen_good += 1
                precisions.append(seen_good / rank)
        ap_values.append(sum(precisions) / len(precisions))
    if not ap_values:
        raise ProtocolError("every query has zero valid matches")
    return EvalReport(
        protocol=protocol,
        rank1=sum(rank1_flags) / len(rank1_flags),
        mAP=sum(ap_values) / len(ap_values),
        num_queries=len(ap_values),
        num_gallery=ng,
        num_excluded=excluded,
    )
