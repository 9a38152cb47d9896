"""Feature extraction, cosine retrieval, and CMC/mAP scoring.

cmc_map is the production scorer; oracle_cmc_map recomputes the metrics by
direct definition with explicit loops and shares no code with it, so the two
can cross-check each other.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from typing import List, Optional, Sequence

import numpy as np

from .data import Manifest, SampleRecord, load_images
from .errors import ContractError, DimensionError, NumericError, ProtocolError


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


def extract_features(model, manifest: Manifest, records: Optional[Sequence[SampleRecord]] = None, batch_size: int = 32) -> FeatureSet:
    """Run inference over records (no augmentation); features are [global, local]."""
    if records is None:
        records = manifest.records
    records = list(records)
    if not records:
        raise ProtocolError("no records to extract features from")
    if batch_size < 1:
        raise ContractError(f"batch_size must be >= 1, got {batch_size}")
    chunks: List[np.ndarray] = []
    for start in range(0, len(records), batch_size):
        batch = records[start : start + batch_size]
        chunks.append(model.inference_features(load_images(manifest, batch)))
    feats = np.concatenate(chunks, axis=0)
    bad = ~np.isfinite(feats).all(axis=1)
    if bad.any():
        raise NumericError(f"non-finite features for {manifest.resolve(records[int(np.argmax(bad))])}")
    return FeatureSet(
        ids=[r.identity for r in records],
        cameras=[r.camera for r in records],
        views=[r.view for r in records],
        paths=[r.path for r in records],
        features=feats,
    )


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
