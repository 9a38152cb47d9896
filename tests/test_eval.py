"""Feature extraction, cosine distances, and CMC/mAP scoring vs the oracle."""

import inspect

import numpy as np
import pytest

from secap.data import Manifest, SampleRecord, SynthConfig, generate_synthetic, hog_descriptor
from secap.encoder import EncoderConfig
from secap.errors import DimensionError, ProtocolError
from secap.evaluate import (
    EvalReport,
    FeatureSet,
    cmc_map,
    distance_matrix,
    extract_features,
    oracle_cmc_map,
)
from secap.lfrm import LFRM
from secap.model import ModelConfig, SeCapModel
from secap.prm import PRM
from secap.tensor import layer_norm

MICRO_ENC = dict(image_h=16, image_w=16, embed_dim=16, depth=1, heads=2, ffn_mult=2)


def feature_set(ids, cams, feats, views=None, paths=None):
    n = len(ids)
    views = views if views is not None else [0] * n
    paths = paths if paths is not None else [f"{i:04d}.rten" for i in range(n)]
    return FeatureSet(ids, cams, views, paths, np.asarray(feats, dtype=np.float64))


class TestFeatureSet:
    def test_rows_unit_normalized(self, rng):
        fs = feature_set([0, 1], [0, 1], rng.standard_normal((2, 8)))
        assert np.allclose(np.linalg.norm(fs.features, axis=1), 1.0)

    def test_zero_row_stays_finite(self):
        fs = feature_set([0], [0], np.zeros((1, 4)))
        assert np.all(np.isfinite(fs.features))

    def test_length_mismatch(self, rng):
        with pytest.raises(DimensionError):
            FeatureSet([0, 1], [0], [0, 0], ["a", "b"], rng.standard_normal((2, 4)))

    def test_select_copies_rows_by_path(self, rng):
        fs = feature_set([0, 1, 2, 3], [4, 5, 6, 7], rng.standard_normal((4, 8)), views=[0, 1, 0, 1])
        picked = [SampleRecord(path=fs.paths[i], identity=0, camera=0, view=0, frame=0) for i in (2, 0, 2)]
        sub = fs.select(picked)
        assert sub.paths == [fs.paths[2], fs.paths[0], fs.paths[2]]
        assert sub.features.tobytes() == fs.features[[2, 0, 2]].tobytes()
        assert sub.ids.tolist() == [2, 0, 2]
        assert sub.cameras.tolist() == [6, 4, 6]
        assert sub.views.tolist() == [0, 0, 0]
        assert len(fs.select([])) == 0

    def test_select_unknown_path(self, rng):
        fs = feature_set([0], [0], rng.standard_normal((1, 4)))
        ghost = SampleRecord(path="ghost.rten", identity=0, camera=0, view=0, frame=0)
        with pytest.raises(ProtocolError, match="ghost.rten"):
            fs.select([ghost])


class TestDistanceMatrix:
    def test_identical_orthogonal_antipodal(self):
        q = feature_set([0, 1, 2], [0, 0, 0], [[1.0, 0.0], [1.0, 0.0], [1.0, 0.0]])
        g = feature_set([0, 1, 2], [1, 1, 1], [[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0]])
        d = distance_matrix(q, g)
        assert abs(d[0, 0]) < 1e-12
        assert abs(d[0, 1] - 1.0) < 1e-12
        assert abs(d[0, 2] - 2.0) < 1e-12

    def test_range(self, rng):
        q = feature_set([0] * 5, [0] * 5, rng.standard_normal((5, 16)))
        g = feature_set([0] * 7, [1] * 7, rng.standard_normal((7, 16)))
        d = distance_matrix(q, g)
        assert d.shape == (5, 7)
        assert d.min() >= -1e-12 and d.max() <= 2.0 + 1e-12

    def test_dim_mismatch(self, rng):
        q = feature_set([0], [0], rng.standard_normal((1, 4)))
        g = feature_set([0], [1], rng.standard_normal((1, 6)))
        with pytest.raises(DimensionError, match="dims"):
            distance_matrix(q, g)


class TestCmcMap:
    def test_single_query_perfect(self):
        q = feature_set([5], [0], [[1.0, 0.0]])
        g = feature_set([5, 6], [1, 1], [[1.0, 0.0], [0.0, 1.0]])
        rep = cmc_map(distance_matrix(q, g), q, g, protocol="a2g")
        assert rep.rank1 == 1.0
        assert rep.mAP == 1.0
        assert rep.num_queries == 1
        assert rep.num_gallery == 2
        assert rep.num_excluded == 0

    def test_match_non_match_pattern(self):
        # ranked gallery [match, non-match, match] -> AP = (1/1 + 2/3)/2
        q = feature_set([1], [0], [[1.0]])
        g = feature_set([1, 2, 1], [1, 1, 1], [[1.0]] * 3)
        dist = np.array([[0.1, 0.2, 0.3]])
        rep = cmc_map(dist, q, g, protocol="")
        assert abs(rep.mAP - 0.8333) < 1e-4
        assert rep.rank1 == 1.0

    def test_same_camera_matches_removed(self):
        # only same-id entry shares the camera -> query excluded but counted
        q = feature_set([1, 2], [0, 0], [[1.0, 0.0], [0.0, 1.0]])
        g = feature_set([1, 2], [0, 1], [[1.0, 0.0], [0.0, 1.0]])
        rep = cmc_map(distance_matrix(q, g), q, g)
        assert rep.num_queries == 1
        assert rep.num_excluded == 1
        assert rep.rank1 == 1.0

    def test_distractors_are_permanent_negatives(self):
        q = feature_set([1], [0], [[1.0, 0.0]])
        g = feature_set([-1, 1], [1, 1], [[1.0, 0.0], [0.9, 0.1]])
        rep = cmc_map(distance_matrix(q, g), q, g)
        assert rep.rank1 == 0.0  # distractor outranks the true match
        assert abs(rep.mAP - 0.5) < 1e-12

    def test_distractor_only_gallery_protocol_error(self):
        q = feature_set([1], [0], [[1.0]])
        g = feature_set([-1, -1], [1, 1], [[1.0], [1.0]])
        d = distance_matrix(q, g)
        with pytest.raises(ProtocolError):
            cmc_map(d, q, g)
        with pytest.raises(ProtocolError):
            oracle_cmc_map(d, q, g)

    def test_monotone_transform_invariance(self, rng):
        q = feature_set(rng.integers(0, 4, 6), rng.integers(0, 2, 6), rng.standard_normal((6, 8)))
        g = feature_set(rng.integers(0, 4, 20), 2 + rng.integers(0, 2, 20), rng.standard_normal((20, 8)),
                        paths=[f"g{j:03d}" for j in range(20)])
        d = distance_matrix(q, g)
        a = cmc_map(d, q, g)
        b = cmc_map(np.exp(3.0 * d) + 7.0, q, g)
        assert a == b

    def test_gallery_permutation_invariance(self, rng):
        nq, ng = 5, 30
        q = feature_set(rng.integers(0, 5, nq), rng.integers(0, 2, nq), rng.standard_normal((nq, 8)))
        ids = rng.integers(-1, 5, ng)
        cams = 2 + rng.integers(0, 2, ng)
        feats = rng.standard_normal((ng, 8))
        paths = [f"g{j:03d}" for j in range(ng)]
        g1 = FeatureSet(ids, cams, [0] * ng, paths, feats)
        rep1 = cmc_map(distance_matrix(q, g1), q, g1)
        perm = rng.permutation(ng)
        g2 = FeatureSet(ids[perm], cams[perm], [0] * ng, [paths[j] for j in perm], feats[perm])
        rep2 = cmc_map(distance_matrix(q, g2), q, g2)
        assert rep1 == rep2

    def test_all_matches_on_top_gives_ones(self):
        q = feature_set([3], [0], [[1.0, 0.0]])
        g = feature_set([3, 3, 9], [1, 2, 1], [[1.0, 0.0], [0.999, 0.01], [-1.0, 0.0]])
        rep = cmc_map(distance_matrix(q, g), q, g)
        assert rep.rank1 == 1.0 and rep.mAP == 1.0

    def test_shape_mismatch(self):
        q = feature_set([1], [0], [[1.0]])
        g = feature_set([1, 2], [1, 1], [[1.0], [1.0]])
        with pytest.raises(DimensionError):
            cmc_map(np.zeros((1, 3)), q, g)

    def test_report_json_line(self):
        rep = EvalReport("a2g", 0.5, 0.25, 4, 10, 1)
        line = rep.to_json_line()
        assert line == (
            '{"protocol": "a2g", "rank1": 0.5, "mAP": 0.25, '
            '"num_queries": 4, "num_gallery": 10, "num_excluded": 1}'
        )


def random_instance(rng):
    """Random retrieval instance: ids, cameras, distractors, tie-prone distances."""
    nq = int(rng.integers(1, 21))
    ng = int(rng.integers(2, 101))
    num_ids = int(rng.integers(1, 8))
    q_ids = rng.integers(0, num_ids, nq)
    g_ids = rng.integers(0, num_ids, ng)
    g_ids[rng.uniform(size=ng) < 0.15] = -1
    q_cams = rng.integers(0, 3, nq)
    g_cams = rng.integers(0, 3, ng)
    # quantized distances force ties; shuffled paths exercise the pre-sort
    dist = np.round(rng.uniform(0.0, 2.0, size=(nq, ng)), 1)
    paths = [f"im{j:04d}" for j in rng.permutation(ng)]
    q = FeatureSet(q_ids, q_cams, [0] * nq, [f"q{i}" for i in range(nq)], rng.standard_normal((nq, 3)))
    g = FeatureSet(g_ids, g_cams, [1] * ng, paths, rng.standard_normal((ng, 3)))
    return dist, q, g


class TestOracleAgreement:
    def test_random_instances(self):
        rng = np.random.default_rng(2024)
        checked = 0
        for _ in range(250):
            dist, q, g = random_instance(rng)
            try:
                fast = cmc_map(dist, q, g)
            except ProtocolError:
                with pytest.raises(ProtocolError):
                    oracle_cmc_map(dist, q, g)
                continue
            slow = oracle_cmc_map(dist, q, g)
            assert abs(fast.rank1 - slow.rank1) < 1e-12
            assert abs(fast.mAP - slow.mAP) < 1e-12
            assert fast.num_queries == slow.num_queries
            assert fast.num_excluded == slow.num_excluded
            assert fast.num_gallery == slow.num_gallery
            checked += 1
        assert checked > 200


@pytest.fixture(scope="module")
def micro_corpus(tmp_path_factory):
    out = tmp_path_factory.mktemp("corpus")
    cfg = SynthConfig(num_ids=4, images_per_id_per_view=2, image_h=16, image_w=16, seed=3)
    manifest, _ = generate_synthetic(cfg, out)
    return manifest


class TestExtractFeatures:
    def model(self, ablate="none"):
        cfg = ModelConfig(encoder=EncoderConfig(**MICRO_ENC), prompt_len=4, ablate=ablate, seed=0)
        return SeCapModel(cfg)

    def test_feature_dim_is_twice_embed(self, micro_corpus):
        fs = extract_features(self.model(), micro_corpus)
        assert fs.features.shape == (len(micro_corpus), 32)
        assert fs.paths == [r.path for r in micro_corpus.records]

    def test_baseline_dim_is_embed(self, micro_corpus):
        fs = extract_features(self.model("baseline"), micro_corpus)
        assert fs.features.shape == (len(micro_corpus), 16)

    def test_rows_do_not_depend_on_grouping(self, micro_corpus, tmp_path):
        # every record again inside subsets that run padded (1-3 images), as one
        # short chunk (5), one full chunk (32) and two (64); subsets wrap around
        model = self.model()
        records = micro_corpus.records
        full = extract_features(model, micro_corpus)
        row_of = {r.path: i for i, r in enumerate(records)}
        for size in (1, 2, 3, 5, 32, 64):
            for start in range(len(records)):
                subset = [records[(start + j) % len(records)] for j in range(size)]
                fs = extract_features(model, micro_corpus, subset)
                for row, r in zip(fs.features, subset):
                    assert np.array_equal(row, full.features[row_of[r.path]]), (size, start, r.path)
        # at desk geometry (8 patches) unpadded 2-image passes round apart too,
        # so this half fails once MIN_CHUNK_ROWS drops below 3
        desk, _ = generate_synthetic(SynthConfig(num_ids=4, images_per_id_per_view=2, seed=5), tmp_path)
        enc = EncoderConfig(image_h=64, image_w=32, embed_dim=64, depth=2, heads=4)
        model = SeCapModel(ModelConfig(encoder=enc, prompt_len=8, seed=5))
        full = extract_features(model, desk).features
        for size in (1, 2, 3, 5):
            for start in range(0, len(desk), size):
                fs = extract_features(model, desk, desk.records[start : start + size])
                assert np.array_equal(fs.features, full[start : start + size]), (size, start)

    def test_deterministic(self, micro_corpus):
        model = self.model()
        a = extract_features(model, micro_corpus)
        b = extract_features(model, micro_corpus)
        assert np.array_equal(a.features, b.features)

    def test_missing_image_names_path(self, micro_corpus, tmp_path):
        model = self.model()
        ghost = SampleRecord(path="0099_C00_000000.rten", identity=99, camera=0, view=0, frame=0)
        bad = Manifest(list(micro_corpus.records) + [ghost], root=micro_corpus.root)
        with pytest.raises(FileNotFoundError, match="0099_C00_000000"):
            extract_features(model, bad)

    def test_duplicate_image_identical_rows(self, micro_corpus):
        model = self.model()
        recs = [micro_corpus.records[0], micro_corpus.records[0]]
        # duplicate paths are fine at extraction level (no Manifest constraint)
        fs = extract_features(model, micro_corpus, records=recs)
        assert np.array_equal(fs.features[0], fs.features[1])


@pytest.mark.parametrize("function, parameter", [
    (extract_features, "batch_size"), (hog_descriptor, "cell"), (hog_descriptor, "bins"),
    (layer_norm, "eps"), (PRM, "name"), (LFRM, "name"),
])
def test_single_valued_options_are_constants(function, parameter):
    assert parameter not in inspect.signature(function).parameters
