"""Manifests, image file names, protocol splits, sampling, augmentation,
query selection, and the synthetic generator."""

import hashlib
import itertools
import os
import re
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import secap.data
from secap.data import (
    DEFAULT_VIEW_MAP,
    PROTOCOL_SIDES,
    PROTOCOLS,
    Manifest,
    SampleRecord,
    SynthConfig,
    augment,
    build_protocol,
    derive_seed,
    format_image_name,
    generate_synthetic,
    hog_descriptor,
    load_images,
    pk_sample,
    read_manifest,
    select_queries,
    split_identities,
    split_records,
    write_manifest,
)
from secap.errors import ConfigurationError, ContractError, ParseError, ProtocolError
from secap.storage import save_rten


def rec(path, identity, camera=0, view=0, frame=0):
    return SampleRecord(path=path, identity=identity, camera=camera, view=view, frame=frame)


class TestImageNames:
    def test_padded_fields(self):
        assert format_image_name(1, 3, 12) == "0001_C03_000012.rten"

    def test_all_zeros(self):
        assert format_image_name(0, 0, 0) == "0000_C00_000000.rten"

    def test_round_trip_identity(self, rng):
        for _ in range(100):
            i = int(rng.integers(0, 100000))
            c = int(rng.integers(0, 100))
            f = int(rng.integers(0, 10**7))
            m = re.fullmatch(r"(\d{4,})_C(\d{2,})_(\d{6,})\.rten", format_image_name(i, c, f))
            assert m is not None
            assert tuple(int(g) for g in m.groups()) == (i, c, f)

    def test_format_rejects_negative(self):
        with pytest.raises(ConfigurationError):
            format_image_name(-1, 0, 0)


class TestManifest:
    def test_view_outside_the_encoding_rejected(self):
        for view in (0, 1, 2):
            assert rec("a.rten", 0, view=view).view == view
        for view in (-1, 3):
            with pytest.raises(ConfigurationError, match="view"):
                rec("a.rten", 0, view=view)

    def test_sorted_and_unique(self):
        m = Manifest([rec("b.rten", 1), rec("a.rten", 0)])
        assert [r.path for r in m.records] == ["a.rten", "b.rten"]
        with pytest.raises(ConfigurationError, match="duplicate"):
            Manifest([rec("a.rten", 0), rec("a.rten", 1)])

    def test_write_read_round_trip(self, tmp_path):
        m = Manifest([rec("a.rten", 0, 1, 0, 3), rec("b.rten", -1, 2, 1, 0)])
        p = tmp_path / "manifest.tsv"
        write_manifest(m, p)
        back = read_manifest(p)
        assert back.records == m.records
        assert back.root == str(tmp_path)

    def test_meta_lines_of_older_manifests_are_comments(self, tmp_path):
        body = "a.rten\t0\t1\t0\t3\nb.rten\t-1\t2\t1\t0\n"
        old = tmp_path / "old.tsv"
        old.write_text("#secap-manifest v1\n#meta name=x\n#meta num_views=two\n"
                       "#meta image_size=64x3z\n" + body)
        plain = tmp_path / "plain.tsv"
        plain.write_text("#secap-manifest v1\n" + body)
        assert read_manifest(old).records == read_manifest(plain).records
        assert len(read_manifest(old)) == 2

    def test_manifest_with_meta_lines_from_85400b3_reads_to_the_same_records(self):
        # the same gen-data corpus, written before and after the #meta lines went
        data = os.path.join(os.path.dirname(__file__), "data")
        old = os.path.join(data, "manifest-85400b3", "manifest.tsv")
        with open(old, encoding="utf-8") as fh:
            assert "#meta num_views=2\n" in fh.read()
        new = read_manifest(os.path.join(data, "attn-49a72f6", "corpus", "manifest.tsv"))
        assert len(new) == 32 and read_manifest(old).records == new.records

    def test_write_is_deterministic(self, tmp_path):
        m = Manifest([rec("a.rten", 0), rec("b.rten", 1)])
        write_manifest(m, tmp_path / "m1.tsv")
        write_manifest(m, tmp_path / "m2.tsv")
        assert (tmp_path / "m1.tsv").read_bytes() == (tmp_path / "m2.tsv").read_bytes()

    def test_missing_header(self, tmp_path):
        p = tmp_path / "m.tsv"
        p.write_text("a.rten\t0\t0\t0\t0\n")
        with pytest.raises(ParseError) as exc:
            read_manifest(p)
        assert exc.value.offset == 0

    def test_wrong_field_count_offset(self, tmp_path):
        p = tmp_path / "m.tsv"
        header = "#secap-manifest v1\n"
        p.write_text(header + "a.rten\t0\t0\n")
        with pytest.raises(ParseError) as exc:
            read_manifest(p)
        assert exc.value.offset == len(header.encode())

    def test_non_integer_field(self, tmp_path):
        p = tmp_path / "m.tsv"
        # the last two are decimal digits, but not ASCII ones
        for bad in ("x", "--5", "\u00b2", "\u0663", "\uff11"):
            p.write_text(f"#secap-manifest v1\na.rten\t{bad}\t0\t0\t0\n", encoding="utf-8")
            with pytest.raises(ParseError, match="non-integer"):
                read_manifest(p)

    def test_bad_field_offset_counts_bytes(self, tmp_path):
        p = tmp_path / "m.tsv"
        p.write_text("#secap-manifest v1\n\u00e9.rten\t0\t0\tx\t0\n", encoding="utf-8")
        with pytest.raises(ParseError, match="non-integer field 'x'") as exc:
            read_manifest(p)
        assert exc.value.offset == 31  # the 19-byte header line, then 12 bytes before the view field ('\u00e9' is 2)

    def test_non_integer_preview_cuts_whole_characters(self, tmp_path):
        p = tmp_path / "m.tsv"
        p.write_text("#secap-manifest v1\na.rten\t" + "\u00e9" * 30 + "\t0\t0\t0\n", encoding="utf-8")
        with pytest.raises(ParseError) as exc:
            read_manifest(p)
        preview = "\u00e9" * 24  # 24 characters, not 24 bytes
        assert f"non-integer field {preview!r}" in str(exc.value) and exc.value.offset == 26

    def test_not_utf8(self, tmp_path):
        p = tmp_path / "m.tsv"
        raw = b"#secap-manifest v1\na.rten\t0\t0\t0\t0\n"
        p.write_bytes(raw + b"b\xff.rten\t0\t0\t0\t0\n")
        with pytest.raises(ParseError, match="UTF-8") as exc:
            read_manifest(p)
        assert exc.value.offset == len(raw) + 1

    # values, not bytes: int64 edges and one past them, 2**70, 5,000 digits,
    # signs, non-ASCII decimal digits and empty fields
    EDGES = [-2**63 - 1, -2**63, -2**63 + 1, -1, 2**63 - 2, 2**63 - 1, 2**63, 2**70]
    FIELD = st.one_of(
        st.sampled_from(["0", "1", "2"]),  # valid in every column, so records get built
        st.sampled_from(EDGES).map(str),
        st.tuples(st.sampled_from(["", "-", "+", "--"]),
                  st.one_of(st.text("0123456789\u0660\u0663\u0969\uff11", max_size=21),
                            st.sampled_from(["7" * 5000, "0" * 5000]))).map("".join),
    )

    @settings(suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(fields=st.lists(FIELD, min_size=4, max_size=4))
    def test_any_integer_fields_read_as_int64_or_raise_parse_error(self, tmp_path, fields):
        p = tmp_path / "m.tsv"
        p.write_text("#secap-manifest v1\na.rten\t" + "\t".join(fields) + "\n", encoding="utf-8")
        try:
            r, = read_manifest(p).records
        except ParseError:
            return
        assert all(-2**63 <= v < 2**63 for v in (r.identity, r.camera, r.view, r.frame))

    def test_identities_excludes_distractors(self):
        m = Manifest([rec("a.rten", 3), rec("b.rten", -1, 1), rec("c.rten", 0, 2)])
        assert m.identities() == [0, 3]


def toy_manifest():
    # 2 ids x 2 views x 2 cams, one image per cell, plus one distractor per view
    records = []
    for i in range(2):
        for v in range(2):
            for c in range(2):
                cam = v * 2 + c
                records.append(rec(format_image_name(i, cam, v * 2 + c), i, cam, v, 0))
    records.append(rec("9000_C01_000000.rten", -1, 1, 0, 0))
    records.append(rec("9001_C03_000000.rten", -1, 3, 1, 0))
    return Manifest(records)


@st.composite
def pooled_manifests(draw):
    """A manifest of 1-3 identities with 0-3 images on each raw view, 0-3
    distractors on any view, and a non-empty chosen subset of each query pool
    (one identity's images on one collapsed side), keyed (identity, side)."""
    records = []
    for identity in range(draw(st.integers(1, 3))):
        for view in DEFAULT_VIEW_MAP:
            for frame in range(draw(st.integers(0, 3))):
                records.append(rec(format_image_name(identity, view, frame), identity, view, view, frame))
    for d in range(draw(st.integers(0, 3))):
        view = draw(st.sampled_from(sorted(DEFAULT_VIEW_MAP)))
        records.append(rec(format_image_name(9000 + d, view, 0), -1, view, view, 0))
    m = Manifest(records)
    chosen = {}
    for identity, recs in m.by_identity().items():
        for side in (0, 1):
            pool = [r for r in recs if DEFAULT_VIEW_MAP[r.view] == side]
            if pool:
                mask = draw(st.integers(1, 2 ** len(pool) - 1))  # one bit per pool image
                chosen[identity, side] = [r for i, r in enumerate(pool) if mask >> i & 1]
    return m, chosen


class TestBuildProtocol:
    def test_a2g_filter_semantics(self):
        split = build_protocol(toy_manifest(), "a2g")
        assert all(r.view == 0 for r in split.query)
        assert all(r.view == 1 for r in split.gallery)
        assert all(r.identity >= 0 for r in split.query)

    def test_distractors_only_in_gallery(self):
        for name in ("a2g", "g2a", "g2ag"):
            split = build_protocol(toy_manifest(), name)
            assert all(r.identity >= 0 for r in split.query)
        split = build_protocol(toy_manifest(), "g2a")
        assert any(r.identity == -1 for r in split.gallery)

    def test_mixed_gallery_excludes_designated_queries(self):
        m = toy_manifest()
        ground = [r for r in m.records if r.view == 1 and r.identity >= 0]
        designated = ground[:2]
        split = build_protocol(m, "g2ag", queries=designated)
        assert {r.path for r in split.query} == {r.path for r in designated}
        gallery_paths = {r.path for r in split.gallery}
        assert gallery_paths.isdisjoint({r.path for r in designated})
        # the rest of the ground images and all aerial images remain
        assert len(split.gallery) == len(m) - len(designated) - 0

    def test_designated_queries_of_other_view_ignored(self):
        m = toy_manifest()
        split = build_protocol(m, "a2g", queries=[r for r in m.records if r.identity >= 0])
        assert all(r.view == 0 for r in split.query)

    def test_unknown_protocol(self):
        with pytest.raises(ProtocolError, match="unknown protocol"):
            build_protocol(toy_manifest(), "g2g")

    def test_unknown_designated_path(self):
        with pytest.raises(ProtocolError, match="not in the manifest"):
            build_protocol(toy_manifest(), "a2g", queries=[rec("missing.rten", 0, 0, 0, 0)])

    def test_distractor_designated_as_query(self):
        distractor = next(r for r in toy_manifest().records if r.path == "9000_C01_000000.rten")
        with pytest.raises(ProtocolError, match="distractor"):
            build_protocol(toy_manifest(), "a2g", queries=[distractor])

    def test_path_string_queries_are_refused(self):
        m = toy_manifest()
        with pytest.raises(AttributeError, match="path"):
            build_protocol(m, "a2g", queries=[r.path for r in m.records if r.identity >= 0])

    def test_empty_gallery(self):
        records = [rec(format_image_name(i, 0, i), i, 0, 0, i) for i in range(2)]
        with pytest.raises(ProtocolError, match="empty"):
            build_protocol(Manifest(records), "a2g")

    def test_unmatched_query_identity_dropped_with_warning(self):
        records = [
            rec("0001_C00_000000.rten", 1, 0, 0, 0),
            rec("0002_C00_000001.rten", 2, 0, 0, 1),
            rec("0001_C02_000000.rten", 1, 2, 1, 0),
        ]
        with pytest.warns(UserWarning, match="dropping"):
            split = build_protocol(Manifest(records), "a2g")
        assert [r.identity for r in split.query] == [1]

    @settings(max_examples=60)
    @given(pooled_manifests())
    def test_pool_walk_scores_what_the_whole_manifest_scores(self, drawn):
        # eval infers the images of each walked pool that split_records scores over
        # the pool identity's images with the pool's chosen queries; together they
        # must be the non-distractor images on the walked sides that build_protocol
        # scores over the whole manifest, under every set of requested protocols
        m, chosen = drawn
        by_identity = m.by_identity()
        for size in (1, 2, 3):
            for names in itertools.combinations(PROTOCOLS, size):
                sides = {PROTOCOL_SIDES[name][0] for name in names}
                pools = {key: picks for key, picks in chosen.items() if key[1] in sides}
                inferred = set()
                for (identity, side), picks in pools.items():
                    for name in names:
                        kept, _, gallery = split_records(by_identity[identity], name, {r.path for r in picks})
                        inferred.update(r for r in kept + gallery if DEFAULT_VIEW_MAP[r.view] == side)
                try:
                    with warnings.catch_warnings():
                        warnings.simplefilter("ignore")
                        splits = [build_protocol(m, name, queries=[q for p in pools.values() for q in p])
                                  for name in names]
                except ProtocolError:  # eval scores nothing then
                    continue
                assert inferred == {r for s in splits for r in s.query + s.gallery
                                    if r.identity >= 0 and DEFAULT_VIEW_MAP[r.view] in sides}

    def test_published_split_counts(self):
        # aerial: first 102 ids carry 6 images, the rest 5 -> 7,717 total
        # ground: first 303 ids carry 11 images, the rest 10 -> 15,533 total
        records = []
        designated = []
        for i in range(1523):
            n_air = 6 if i < 102 else 5
            for j in range(n_air):
                r = rec(format_image_name(i, 0, j), i, camera=0, view=0, frame=j)
                records.append(r)
                if j < 2:
                    designated.append(r)
            n_ground = 11 if i < 303 else 10
            for j in range(n_ground):
                r = rec(format_image_name(i, 5, j), i, camera=5, view=1, frame=j)
                records.append(r)
                if j < 2:
                    designated.append(r)
        m = Manifest(records)

        a2g = build_protocol(m, "a2g", queries=designated)
        assert len(a2g.query) == 3046
        assert len({r.identity for r in a2g.query}) == 1523
        assert len(a2g.gallery) == 15533

        g2a = build_protocol(m, "g2a", queries=designated)
        assert len(g2a.query) == 3046
        assert len(g2a.gallery) == 7717

        g2ag = build_protocol(m, "g2ag", queries=designated)
        assert len(g2ag.query) == 3046
        assert len(g2ag.gallery) == 20204


class TestPkSample:
    def make(self, ids=6, per_id=3):
        records = []
        for i in range(ids):
            for j in range(per_id):
                records.append(rec(format_image_name(i, 0, j), i, 0, 0, j))
        return Manifest(records)

    def test_batch_shape(self):
        batch = pk_sample(self.make(), 4, 3, seed=0)
        assert len(batch) == 12
        assert len({r.identity for r in batch}) == 4

    def test_p16_k4_batch_is_64(self):
        batch = pk_sample(self.make(ids=16, per_id=4), 16, 4, seed=0)
        assert len(batch) == 64

    def test_deterministic(self):
        a = pk_sample(self.make(), 3, 2, seed=7)
        b = pk_sample(self.make(), 3, 2, seed=7)
        assert a == b
        c = pk_sample(self.make(), 3, 2, seed=8)
        assert a != c

    def test_replacement_only_when_short(self):
        m = Manifest([rec("0000_C00_000000.rten", 0), rec("0001_C00_000000.rten", 1),
                      rec("0001_C00_000001.rten", 1)])
        batch = pk_sample(m, 2, 2, seed=0)
        by_id = {}
        for r in batch:
            by_id.setdefault(r.identity, []).append(r.path)
        assert by_id[0][0] == by_id[0][1]  # lone image duplicated
        assert len(set(by_id[1])) == 2  # two images -> no duplicate

    def test_too_few_identities(self):
        with pytest.raises(ContractError, match="identities"):
            pk_sample(self.make(ids=3), 4, 2, seed=0)

    @pytest.mark.parametrize("p, k", [(-1, 2), (0, 2), (2, -1), (2, 0)])
    def test_nonpositive_p_or_k_rejected(self, p, k):
        # held_out_orthogonality passes its caller's P and K here with no TrainConfig between
        with pytest.raises(ContractError, match=f"got P={p} K={k}"):
            pk_sample(self.make(), p, k, seed=0)

    def test_marginal_uniformity(self):
        m = self.make(ids=10, per_id=1)
        p, trials = 4, 400
        counts = np.zeros(10)
        for s in range(trials):
            for r in pk_sample(m, p, 1, seed=s):
                counts[r.identity] += 1
        expect = trials * p / 10
        sigma = np.sqrt(trials * (p / 10) * (1 - p / 10))
        assert np.all(np.abs(counts - expect) <= 3 * sigma)


class TestAugment:
    def test_shape_preserved(self, rng):
        img = rng.uniform(size=(3, 64, 32)).astype(np.float32)
        out = augment(img, seed=3)
        assert out.shape == img.shape
        assert out.dtype == img.dtype

    def test_deterministic_under_seed(self, rng):
        img = rng.uniform(size=(3, 32, 16)).astype(np.float32)
        a = augment(img, seed=5)
        b = augment(img, seed=5)
        c = augment(img, seed=6)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_erase_rectangle_bounds_and_area(self, rng, monkeypatch):
        # baseline with erasing off consumes the same draws for crop/jitter,
        # so the changed region is exactly the erased rectangle
        h, w = 64, 32
        hits = 0
        for seed in range(40):
            img = rng.uniform(size=(3, h, w)).astype(np.float32)
            monkeypatch.setattr(secap.data, "ERASE_PROB", 1.0)
            a = augment(img, seed=seed)
            monkeypatch.setattr(secap.data, "ERASE_PROB", 0.0)
            b = augment(img, seed=seed)
            diff = np.any(a != b, axis=0)
            if not diff.any():
                continue  # rare: no admissible rectangle found
            hits += 1
            ys, xs = np.nonzero(diff)
            eh = ys.max() - ys.min() + 1
            ew = xs.max() - xs.min() + 1
            assert diff.sum() == eh * ew  # contiguous rectangle
            assert 0.02 <= eh * ew / (h * w) <= 0.4
        assert hits >= 35

    def test_crop_shifts_content(self, rng, monkeypatch):
        img = rng.uniform(size=(3, 32, 16)).astype(np.float32)
        monkeypatch.setattr(secap.data, "ERASE_PROB", 0.0)
        monkeypatch.setattr(secap.data, "JITTER_GAIN", (1.0, 1.0))
        outs = {augment(img, seed=s).tobytes() for s in range(10)}
        assert len(outs) > 1


def searchsorted_bins(dy, dx, bins):
    """Magnitudes, and bins as the count of edge cosines at or above each
    folded gradient's cosine, found by a binary search of the edges."""
    mag = np.sqrt(dx * dx + dy * dy)
    cos = np.divide(dx, np.copysign(mag, dy), out=np.ones_like(mag), where=dy != 0)
    ascending = np.cos(np.arange(bins - 1, 0, -1) * np.pi / bins)
    return mag, bins - 1 - np.searchsorted(ascending, cos, side="left")


def arctan2_bins(dy, dx, bins):
    """Magnitudes and bins as the descriptor took them before the edge cosines."""
    ang = np.mod(np.arctan2(dy, dx), np.pi)
    return np.hypot(dy, dx), np.minimum((ang / np.pi * bins).astype(np.int64), bins - 1)


def per_image_hog(image, cell=8, bins=9, orientation=searchsorted_bins):
    """The one-image descriptor as it was written before batching: the oracle.
    With `orientation=arctan2_bins` it is the descriptor before the edge cosines."""
    gray = np.asarray(image, dtype=np.float64).mean(axis=0)
    h, w = gray.shape
    hc, wc = h // cell, w // cell
    gray = gray[: hc * cell, : wc * cell]
    dy, dx = np.gradient(gray)
    mag, bin_idx = orientation(dy, dx, bins)
    cell_y = (np.arange(hc * cell) // cell)[:, None]
    cell_x = (np.arange(wc * cell) // cell)[None, :]
    hist = np.zeros((hc, wc, bins))
    np.add.at(hist, (np.broadcast_to(cell_y, mag.shape), np.broadcast_to(cell_x, mag.shape), bin_idx), mag)
    if hc < 2 or wc < 2:
        flat = hist.ravel()
        return flat / (np.linalg.norm(flat) + 1e-12)
    blocks = []
    for by in range(hc - 1):
        for bx in range(wc - 1):
            v = hist[by : by + 2, bx : bx + 2].ravel()
            blocks.append(v / (np.linalg.norm(v) + 1e-12))
    return np.concatenate(blocks)


F32 = np.finfo(np.float32)
EDGES = np.arange(10) * np.pi / 9  # bin edges of the unsigned orientation, 0 and pi included
COMPONENT = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, float(F32.max), -float(F32.max),
                     float(F32.smallest_subnormal), -float(F32.smallest_subnormal)]),
    st.floats(width=32, allow_nan=False, allow_infinity=False),  # float32 subnormals to +-3.4e38
)
GRADIENT = st.one_of(
    st.tuples(COMPONENT, COMPONENT),  # (dy, dx)
    st.tuples(COMPONENT, st.sampled_from([0.0, -0.0])),  # axis-aligned
    st.tuples(st.sampled_from([0.0, -0.0]), COMPONENT),
    st.tuples(st.integers(0, 9), COMPONENT).map(  # exact bin-edge directions
        lambda kr: (kr[1] * np.sin(kr[0] * np.pi / 9), kr[1] * np.cos(kr[0] * np.pi / 9))),
)


class TestHog:
    def test_constant_image_zero_descriptor(self):
        img = np.full((2, 3, 16, 16), 0.5, dtype=np.float32)
        d = hog_descriptor(img)
        assert np.all(np.isfinite(d))
        assert np.allclose(d, 0.0)

    def test_length_matches_block_grid(self, rng):
        img = rng.uniform(size=(2, 3, 64, 32))
        d = hog_descriptor(img)
        # 8x4 cells -> 7x3 blocks of 2x2 cells x 9 bins
        assert d.shape == (2, 7 * 3 * 4 * 9)

    def test_single_block_fallback(self, rng):
        img = rng.uniform(size=(3, 3, 8, 8))
        d = hog_descriptor(img)
        assert d.shape == (3, 9)
        assert np.all(np.abs(np.linalg.norm(d, axis=1) - 1.0) < 1e-9)

    def test_deterministic(self, rng):
        img = rng.uniform(size=(2, 3, 16, 16))
        assert np.array_equal(hog_descriptor(img), hog_descriptor(img))

    @pytest.mark.parametrize("shape", [(3, 64, 32), (3, 16, 16), (3, 8, 8), (3, 20, 13), (3, 8, 40), (3, 256, 128)])
    def test_stack_bit_equal_to_per_image_loop(self, rng, shape):
        # float32 inputs as loaded from .rten; sizes include the single-block
        # fallback and sizes that are not a multiple of the cell
        n = 3 if shape[1] > 64 else 12
        images = rng.uniform(size=(n,) + shape).astype(np.float32)
        images[1] = 0.5  # a constant image: every block norm is zero
        d = hog_descriptor(images)
        for i in range(n):
            assert np.array_equal(d[i], per_image_hog(images[i]))

    # arctan2's angle in [-pi, pi] carries an absolute error of about one ulp of
    # pi, and `mod` adds pi to the negative half, so near an edge the reference
    # bin itself is uncertain: bins may differ only within two ulps of pi of an
    # edge (the worst disagreement seen on 10M near-edge directions was 1.125 ulps)
    @settings(max_examples=60)
    @given(gradients=st.lists(GRADIENT, min_size=1, max_size=32))
    def test_edge_cosine_bins_match_arctan2(self, gradients):
        dy, dx = np.array(gradients, dtype=np.float64).T
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            mag, bins = secap.data._orientation_bins(dy, dx)
        ref_mag, ref_bins = arctan2_bins(dy, dx, 9)
        ang = np.mod(np.arctan2(dy, dx), np.pi)
        near_edge = np.abs(ang[:, None] - EDGES).min(axis=1) <= 2 * np.spacing(np.pi)
        assert np.array_equal(bins[~near_edge], ref_bins[~near_edge])
        assert np.all((bins >= 0) & (bins <= 8)) and np.all(bins[dy == 0] == 0)
        assert np.all(np.abs(mag - ref_mag) <= np.spacing(ref_mag))

    def test_extreme_pixels_give_finite_descriptors(self, rng):
        images = np.full((5, 3, 16, 16), 0.5, dtype=np.float32)  # image 0 is constant
        images[1] = rng.choice([F32.max, -F32.max], size=(3, 16, 16))
        images[2] = F32.max
        images[3] = rng.choice([F32.smallest_subnormal, -F32.smallest_subnormal, 0.0], size=(3, 16, 16))
        images[4] = rng.uniform(-1.0, 1.0, size=(3, 16, 16)) * F32.smallest_normal  # all subnormal
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            d = hog_descriptor(images)
        assert d.shape == (5, 9 * 4) and np.all(np.isfinite(d))
        assert np.all(d[[0, 2]] == 0.0) and abs(np.linalg.norm(d[1]) - 1.0) < 1e-9

    def test_too_small(self):
        with pytest.raises(ContractError, match="cell"):
            hog_descriptor(np.zeros((1, 3, 4, 4)))

    def test_rank_error(self):
        with pytest.raises(ContractError, match="N, C, H, W"):
            hog_descriptor(np.zeros((3, 16, 16)))


def write_pool(tmp_path, images, identity=0, view=0):
    """Materialize a pool of images as a manifest on disk."""
    records = []
    for j, img in enumerate(images):
        name = format_image_name(identity, view, j)
        save_rten(tmp_path / name, img.astype(np.float32))
        records.append(rec(name, identity, camera=view, view=view, frame=j))
    return Manifest(records, root=str(tmp_path))


def brute_force_medoid(images):
    """Index of the image minimizing total descriptor distance to the rest."""
    descs = hog_descriptor(np.stack(images))
    best, best_cost = 0, float("inf")
    for i in range(len(descs)):
        cost = sum(float(np.linalg.norm(descs[i] - descs[j])) for j in range(len(descs)))
        if cost < best_cost - 1e-15:
            best, best_cost = i, cost
    return best


class TestSelectQueries:
    def test_single_image_selected(self, tmp_path, rng):
        m = write_pool(tmp_path, [rng.uniform(size=(3, 16, 16))])
        with pytest.warns(UserWarning):  # the other side is empty
            out = select_queries(m)
        assert [r.path for r in out] == [m.records[0].path]

    def test_duplicates_tie_break_by_path(self, tmp_path, rng):
        img = rng.uniform(size=(3, 16, 16))
        m = write_pool(tmp_path, [img, img, img])
        with pytest.warns(UserWarning):
            out = select_queries(m)
        assert out[0].path == sorted(r.path for r in m.records)[0]

    def test_outlier_rejected(self, tmp_path, rng):
        base = rng.uniform(size=(3, 16, 16))
        near = base + rng.normal(0, 0.01, size=base.shape)
        outlier = rng.uniform(size=(3, 16, 16))
        m = write_pool(tmp_path, [base, near, outlier])
        with pytest.warns(UserWarning):
            out = select_queries(m)
        assert out[0].frame in (0, 1)

    def test_matches_medoid_oracle_small_pools(self, tmp_path, rng):
        for trial in range(12):
            n = 2 + trial % 5  # pools of 2..6
            images = [rng.uniform(size=(3, 16, 16)) for _ in range(n)]
            sub = tmp_path / f"pool{trial}"
            sub.mkdir()
            m = write_pool(sub, images)
            with pytest.warns(UserWarning):
                out = select_queries(m)
            assert out[0].frame == brute_force_medoid(images)

    def test_per_view_count(self, tmp_path, rng):
        records = []
        for v in range(2):
            for j in range(4):
                name = format_image_name(0, v, j)
                save_rten(tmp_path / name, rng.uniform(size=(3, 16, 16)).astype(np.float32))
                records.append(rec(name, 0, camera=v, view=v, frame=j))
        m = Manifest(records, root=str(tmp_path))
        out = select_queries(m, per_view=2)
        assert len(out) == 4
        assert sum(1 for r in out if r.view == 0) == 2

    def test_requires_positive_count(self, tmp_path):
        with pytest.raises(ContractError):
            select_queries(Manifest([]), per_view=0)

    # pools of 2 always tie, so these pools hold 8 to 12 images
    @pytest.mark.parametrize("cfg", [
        SynthConfig(num_ids=6, images_per_id_per_view=8, image_h=64, image_w=32, seed=5),
        SynthConfig(num_ids=4, images_per_id_per_view=4, num_views=3, image_h=64, image_w=32, seed=8),
        SynthConfig(num_ids=5, images_per_id_per_view=6, num_views=3, image_h=16, image_w=16, seed=7),
    ], ids=["64x32", "64x32-three-views", "16x16-three-views"])
    def test_full_ranking_matches_arctan2_descriptor(self, tmp_path, cfg):
        m, _ = generate_synthetic(cfg, tmp_path)
        expected = []
        for _, recs in sorted(m.by_identity().items()):
            for side in (0, 1):
                pool = [r for r in recs if DEFAULT_VIEW_MAP[r.view] == side]
                desc = np.stack([per_image_hog(img, orientation=arctan2_bins) for img in load_images(m, pool)])
                expected += [pool[i] for i in secap.data._rank_pool(desc)]
        largest_pool = cfg.images_per_id_per_view * (cfg.num_views - 1)
        assert select_queries(m, per_view=largest_pool) == expected


class TestSplitIdentities:
    def make(self):
        records = [rec(format_image_name(i, 0, j), i, 0, 0, j) for i in range(10) for j in range(2)]
        records.append(rec("9000_C00_000000.rten", -1, 0, 0, 0))
        return Manifest(records)

    def test_disjoint_and_complete(self):
        m = self.make()
        tr, te = split_identities(m, 0.5, seed=0)
        tr_ids, te_ids = set(tr.identities()), set(te.identities())
        assert tr_ids.isdisjoint(te_ids)
        assert tr_ids | te_ids == set(m.identities())
        assert len(te_ids) == 5

    def test_distractors_go_to_test_side(self):
        tr, te = split_identities(self.make(), 0.3, seed=1)
        assert all(r.identity >= 0 for r in tr.records)
        assert any(r.identity == -1 for r in te.records)

    def test_deterministic(self):
        m = self.make()
        a = split_identities(m, 0.5, seed=3)
        b = split_identities(m, 0.5, seed=3)
        assert a[0].records == b[0].records
        c = split_identities(m, 0.5, seed=4)
        assert a[0].records != c[0].records

    def test_fraction_validation(self):
        with pytest.raises(ConfigurationError):
            split_identities(self.make(), 0.0, seed=0)


class TestGenerateSynthetic:
    def test_default_counts(self, tmp_path):
        cfg = SynthConfig(num_ids=8, images_per_id_per_view=4, num_views=2, seed=1)
        manifest, latents = generate_synthetic(cfg, tmp_path / "d")
        assert len(manifest) == 64
        assert len(latents) == 64
        assert os.path.exists(tmp_path / "d" / "manifest.tsv")
        files = [f for f in os.listdir(tmp_path / "d") if f.endswith(".rten")]
        assert len(files) == 64

    def test_manifest_holds_only_header_and_records(self, tmp_path):
        cfg = SynthConfig(num_ids=2, images_per_id_per_view=1, seed=3, num_distractors=1)
        manifest, _ = generate_synthetic(cfg, tmp_path)
        lines = (tmp_path / "manifest.tsv").read_text().splitlines()
        assert lines[0] == "#secap-manifest v1"
        assert lines[1:] == [f"{r.path}\t{r.identity}\t{r.camera}\t{r.view}\t{r.frame}"
                             for r in manifest.records]

    def test_byte_identical_rerun(self, tmp_path):
        cfg = SynthConfig(num_ids=3, images_per_id_per_view=2, seed=9, num_distractors=1)

        def corpus_hash(d):
            h = hashlib.sha256()
            for name in sorted(os.listdir(d)):
                h.update(name.encode())
                h.update((d / name).read_bytes())
            return h.hexdigest()

        generate_synthetic(cfg, tmp_path / "a")
        generate_synthetic(cfg, tmp_path / "b")
        assert corpus_hash(tmp_path / "a") == corpus_hash(tmp_path / "b")

    def test_latent_margin(self, tmp_path):
        cfg = SynthConfig(num_ids=6, images_per_id_per_view=3, seed=2)
        manifest, latents = generate_synthetic(cfg, tmp_path / "d")
        by_key = {}
        for r in manifest.records:
            by_key.setdefault((r.identity, r.view), []).append(latents[r.path])
        cross_view_same = []
        within_view_diff = []
        for i in range(cfg.num_ids):
            for a in by_key[(i, 0)]:
                for b in by_key[(i, 1)]:
                    cross_view_same.append(np.linalg.norm(a - b))
        for i in range(cfg.num_ids):
            for j in range(cfg.num_ids):
                if i == j:
                    continue
                for a in by_key[(i, 0)]:
                    for b in by_key[(j, 0)]:
                        within_view_diff.append(np.linalg.norm(a - b))
        assert max(cross_view_same) < min(within_view_diff)

    def test_views_differ_visibly(self, tmp_path):
        from secap.storage import load_image

        cfg = SynthConfig(num_ids=2, images_per_id_per_view=2, seed=4)
        manifest, _ = generate_synthetic(cfg, tmp_path / "d")
        imgs = {r.path: load_image(manifest.resolve(r)) for r in manifest.records}
        a = next(r for r in manifest.records if r.identity == 0 and r.view == 0)
        g = next(r for r in manifest.records if r.identity == 0 and r.view == 1)
        assert np.mean(np.abs(imgs[a.path] - imgs[g.path])) > 0.05

    def test_distractors_single_camera(self, tmp_path):
        cfg = SynthConfig(num_ids=2, images_per_id_per_view=2, seed=3, num_distractors=4)
        manifest, _ = generate_synthetic(cfg, tmp_path / "d")
        noise = [r for r in manifest.records if r.identity == -1]
        assert len(noise) == 4
        assert all(r.identity == -1 for r in noise)

    def test_images_in_unit_range(self, tmp_path):
        from secap.storage import load_image

        cfg = SynthConfig(num_ids=2, images_per_id_per_view=1, seed=5)
        manifest, _ = generate_synthetic(cfg, tmp_path / "d")
        for r in manifest.records:
            img = load_image(manifest.resolve(r))
            assert img.dtype == np.float32
            assert img.min() >= 0.0 and img.max() <= 1.0

    def test_config_validation(self):
        with pytest.raises(ConfigurationError):
            SynthConfig(num_ids=0)
        # a float or bool count is refused before it can write a corpus or reach an image name
        for wrong_type in (dict(image_h=16.5), dict(cams_per_view=1.5), dict(num_ids=True)):
            with pytest.raises(ConfigurationError, match="must be of type"):
                SynthConfig(**wrong_type)
        with pytest.raises(ConfigurationError):
            SynthConfig(num_views=5)


class TestDeriveSeed:
    def test_stable_and_distinct(self):
        assert derive_seed("a", 1) == derive_seed("a", 1)
        assert derive_seed("a", 1) != derive_seed("a", 2)
        assert 0 <= derive_seed("x") < 2**64
