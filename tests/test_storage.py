"""Raw tensor files, checkpoints, and the PPM reader."""

import json
import os
import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from secap.errors import CheckpointError, ParseError
from secap.storage import (
    CKPT_MAGIC,
    CKPT_VERSION,
    TableSource,
    load_checkpoint,
    load_image,
    load_ppm,
    load_rten,
    replacing,
    save_checkpoint,
    save_rten,
)
from secap.tensor import Parameter


def array_record(code, dims, payload=b""):
    """One raw array record as .rten files and checkpoints store it."""
    return struct.pack(f"<BB{len(dims)}Q", code, len(dims), *dims) + payload


# an empty payload next to a dim numpy cannot hold
UNHOLDABLE = (0, 2**62)


def rten_bytes(tmp_path, arr):
    """The bytes save_rten writes for `arr`."""
    p = tmp_path / "saved.rten"
    save_rten(p, arr)
    return p.read_bytes()


def save_ppm(path, image):
    """Write a (3, H, W) float image in [0, 1] as binary P6 with maxval 255."""
    u8 = np.clip(np.rint(image.astype(np.float64) * 255.0), 0, 255).astype(np.uint8)
    _, h, w = image.shape
    path.write_bytes(b"P6\n%d %d\n255\n" % (w, h) + np.ascontiguousarray(u8.transpose(1, 2, 0)).tobytes())


def checkpoint_bytes(tmp_path, params, metadata):
    """The bytes save_checkpoint writes for `params` and `metadata`."""
    p = tmp_path / "saved.ckpt"
    save_checkpoint(p, params, metadata)
    return p.read_bytes()


class TestRten:
    def test_round_trip_f32(self, tmp_path, rng):
        arr = rng.standard_normal((3, 4, 5)).astype(np.float32)
        p = tmp_path / "a.rten"
        save_rten(p, arr)
        back = load_rten(p)
        assert back.dtype == np.float32
        assert back.shape == (3, 4, 5)
        assert np.array_equal(back, arr)

    def test_round_trip_f64_bytes_stable(self, tmp_path, rng):
        arr = rng.standard_normal((7,))
        blob = rten_bytes(tmp_path, arr)
        p = tmp_path / "b.rten"
        p.write_bytes(blob)
        assert rten_bytes(tmp_path, load_rten(p)) == blob

    def test_scalar_rank_zero(self, tmp_path):
        p = tmp_path / "s.rten"
        save_rten(p, np.array(2.5))
        back = load_rten(p)
        assert back.shape == ()
        assert back == 2.5

    def test_header_layout(self, tmp_path):
        arr = np.zeros((2, 3), dtype=np.float32)
        blob = rten_bytes(tmp_path, arr)
        assert blob[:4] == b"RTEN"
        assert blob[4] == 1  # version
        assert blob[5] == 0  # f32 code
        assert blob[6] == 2  # rank
        dims = np.frombuffer(blob[7:23], dtype="<u8")
        assert list(dims) == [2, 3]
        assert len(blob) == 23 + 2 * 3 * 4

    def test_bad_magic_offset_zero(self, tmp_path):
        p = tmp_path / "x.rten"
        p.write_bytes(b"NOPE" + b"\x00" * 16)
        with pytest.raises(ParseError) as exc:
            load_rten(p)
        assert exc.value.offset == 0

    def test_bad_version(self, tmp_path):
        blob = bytearray(rten_bytes(tmp_path, np.zeros(2)))
        blob[4] = 9
        p = tmp_path / "x.rten"
        p.write_bytes(bytes(blob))
        with pytest.raises(ParseError) as exc:
            load_rten(p)
        assert exc.value.offset == 4

    def test_unknown_dtype_code(self, tmp_path):
        blob = bytearray(rten_bytes(tmp_path, np.zeros(2)))
        blob[5] = 7
        p = tmp_path / "x.rten"
        p.write_bytes(bytes(blob))
        with pytest.raises(ParseError) as exc:
            load_rten(p)
        assert exc.value.offset == 5

    def test_truncated_payload(self, tmp_path):
        blob = rten_bytes(tmp_path, np.zeros(4))
        p = tmp_path / "x.rten"
        p.write_bytes(blob[:-8])
        with pytest.raises(ParseError, match="truncated"):
            load_rten(p)

    def test_trailing_bytes_rejected(self, tmp_path):
        p = tmp_path / "x.rten"
        p.write_bytes(rten_bytes(tmp_path, np.zeros(2)) + b"junk")
        with pytest.raises(ParseError, match="trailing"):
            load_rten(p)

    def test_integer_arrays_rejected(self, tmp_path):
        p = tmp_path / "int.rten"
        with pytest.raises(CheckpointError, match="dtype"):
            save_rten(p, np.arange(4))
        assert not p.exists()  # refused before the file is opened

    def test_shape_numpy_cannot_hold(self, tmp_path):
        p = tmp_path / "x.rten"
        p.write_bytes(b"RTEN\x01" + array_record(0, UNHOLDABLE))
        with pytest.raises(ParseError, match="does not fit") as exc:
            load_rten(p)
        assert exc.value.offset == 5
        with pytest.raises(ParseError, match="does not fit"):
            load_image(p)

    @settings(suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(code=st.one_of(st.sampled_from([0, 1]), st.integers(0, 255)),  # half the draws valid
           dims=st.lists(st.sampled_from([0, 1, 3, 2**31, 2**62, 2**64 - 1]), max_size=4),
           payload=st.binary(max_size=64))
    def test_any_header_loads_or_raises_parse_error(self, tmp_path, code, dims, payload):
        p = tmp_path / "x.rten"
        p.write_bytes(b"RTEN\x01" + array_record(code, dims, payload))
        try:
            arr = load_rten(p)
        except ParseError:
            return
        assert arr.shape == tuple(dims) and arr.dtype in (np.float32, np.float64)


def _params(rng, dtype=np.float32):
    return [
        Parameter("enc.w", rng.standard_normal((4, 3)).astype(dtype)),
        Parameter("enc.b", rng.standard_normal(3).astype(dtype)),
        Parameter("head.w", rng.standard_normal((3, 2)).astype(dtype)),
    ]


class TestCheckpoint:
    def test_save_load_save_byte_identical(self, tmp_path, rng):
        params = _params(rng)
        meta = {"epoch": 3, "seed": 1, "nested": {"b": 2, "a": 1}}
        p1 = tmp_path / "a.ckpt"
        save_checkpoint(p1, params, meta)
        meta2, table = load_checkpoint(p1)
        assert meta2 == meta
        reloaded = [Parameter(name, arr) for name, arr in table.items()]
        p2 = tmp_path / "b.ckpt"
        save_checkpoint(p2, reloaded, meta2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_metadata_key_order_irrelevant_to_bytes(self, tmp_path, rng):
        params = _params(rng)
        a = checkpoint_bytes(tmp_path, params, {"x": 1, "y": 2})
        b = checkpoint_bytes(tmp_path, params, {"y": 2, "x": 1})
        assert a == b

    def test_table_source_round_trip(self, tmp_path, rng):
        params = _params(rng)
        p = tmp_path / "a.ckpt"
        save_checkpoint(p, params, {})
        _, table = load_checkpoint(p)
        entries = dict(table)
        source = TableSource(table)
        fresh = [source(q.name, q.shape) for q in params]
        source.close()
        for orig, new in zip(params, fresh):
            assert np.array_equal(orig.data, new.data)
            assert new.data is entries[new.name] and new.data.flags.writeable  # adopted, not copied

    def test_table_source_rejects_missing_and_extra_names(self, tmp_path, rng):
        params = _params(rng)
        p = tmp_path / "a.ckpt"
        save_checkpoint(p, params, {})
        for asked in (params[:2], params + [Parameter("other", np.zeros(2, dtype=np.float32))]):
            source = TableSource(load_checkpoint(p)[1])
            for q in asked:
                source(q.name, q.shape)
            with pytest.raises(CheckpointError, match="names"):
                source.close()

    def test_table_source_rejects_shape_mismatch(self, tmp_path, rng):
        params = _params(rng)
        p = tmp_path / "a.ckpt"
        save_checkpoint(p, params, {})
        source = TableSource(load_checkpoint(p)[1])
        source("enc.w", (4, 3))
        with pytest.raises(CheckpointError, match="shape"):
            source("enc.b", (5,))

    def test_unknown_version_rejected(self, tmp_path, rng):
        blob = bytearray(checkpoint_bytes(tmp_path, _params(rng), {}))
        blob[9] = 99  # version u16 starts right after the 9-byte magic
        p = tmp_path / "bad.ckpt"
        p.write_bytes(bytes(blob))
        with pytest.raises(CheckpointError, match="version"):
            load_checkpoint(p)

    def test_not_a_checkpoint(self, tmp_path):
        p = tmp_path / "bad.ckpt"
        p.write_bytes(b"garbage that is long enough to read a header from")
        with pytest.raises(CheckpointError):
            load_checkpoint(p)

    def test_duplicate_names_rejected(self, tmp_path, rng):
        params = _params(rng) + [Parameter("enc.w", np.zeros((1,), dtype=np.float32))]
        p = tmp_path / "dup.ckpt"
        with pytest.raises(CheckpointError, match="duplicate"):
            save_checkpoint(p, params, {})
        assert not p.exists()  # refused before the file is opened

    def test_integer_parameter_rejected(self, tmp_path, rng):
        # the last parameter is refused, so no earlier record may reach a file
        params = _params(rng) + [Parameter("steps", np.zeros(2, dtype=np.float32))]
        params[-1].data = np.arange(2)
        p = tmp_path / "int.ckpt"
        with pytest.raises(CheckpointError, match="dtype"):
            save_checkpoint(p, params, {})
        assert not p.exists()

    def test_parameter_shape_numpy_cannot_hold(self, tmp_path):
        meta = json.dumps({}).encode()
        p = tmp_path / "bad.ckpt"
        p.write_bytes(CKPT_MAGIC + struct.pack("<HQ", CKPT_VERSION, len(meta)) + meta
                      + struct.pack("<QH", 1, 1) + b"w" + array_record(0, UNHOLDABLE))
        with pytest.raises(CheckpointError, match="does not fit"):
            load_checkpoint(p)

    def test_dtype_preserved(self, tmp_path, rng):
        params = [Parameter("w", rng.standard_normal((2, 2)))]  # float64
        p = tmp_path / "a.ckpt"
        save_checkpoint(p, params, {})
        _, table = load_checkpoint(p)
        assert table["w"].dtype == np.float64


class TestReplacing:
    """Every writer goes through `replacing`: a failed write leaves the earlier file as it was,
    and no temporary beside it."""

    def test_failed_checkpoint_save_at_each_record_keeps_the_earlier_file(self, tmp_path, rng,
                                                                         disk_full_at_record):
        path = tmp_path / "a.ckpt"
        save_checkpoint(path, _params(rng), {"epoch": 1})
        earlier = path.read_bytes()
        newer = _params(rng)
        for failing in range(len(newer)):
            calls = disk_full_at_record(failing)
            with pytest.raises(OSError, match="No space left"):
                save_checkpoint(path, newer, {"epoch": 2})
            assert len(calls) == failing + 1
            assert path.read_bytes() == earlier and os.listdir(tmp_path) == ["a.ckpt"]

    def test_failed_rten_save_keeps_the_earlier_file(self, tmp_path, rng, disk_full_at_record):
        path = tmp_path / "a.rten"
        save_rten(path, rng.standard_normal((2, 3)))
        earlier = path.read_bytes()
        disk_full_at_record(0)
        with pytest.raises(OSError, match="No space left"):
            save_rten(path, rng.standard_normal((2, 3)))
        assert path.read_bytes() == earlier and os.listdir(tmp_path) == ["a.rten"]

    def test_interrupt_keeps_the_earlier_file(self, tmp_path):
        path = tmp_path / "a.tsv"
        path.write_text("kept\n")
        with pytest.raises(KeyboardInterrupt):
            with replacing(path, "w", encoding="utf-8") as fh:
                fh.write("half")
                raise KeyboardInterrupt
        assert path.read_text() == "kept\n" and os.listdir(tmp_path) == ["a.tsv"]

    def test_success_replaces_with_open_permissions(self, tmp_path):
        path = tmp_path / "a.bin"
        path.write_bytes(b"old")
        with open(tmp_path / "plain.bin", "wb"):
            pass
        with replacing(path) as fh:
            fh.write(b"new")
        assert path.read_bytes() == b"new"
        assert sorted(os.listdir(tmp_path)) == ["a.bin", "plain.bin"]
        assert path.stat().st_mode == (tmp_path / "plain.bin").stat().st_mode


class TestPpm:
    def test_write_read_round_trip_within_quantization(self, tmp_path, rng):
        img = rng.uniform(0.0, 1.0, size=(3, 6, 5)).astype(np.float32)
        p = tmp_path / "i.ppm"
        save_ppm(p, img)
        back = load_ppm(p)
        assert back.shape == (3, 6, 5)
        assert back.dtype == np.float32
        assert np.max(np.abs(back - img)) <= 0.5 / 255 + 1e-7

    def test_header_comments_and_whitespace(self, tmp_path):
        raster = bytes(range(12))
        p = tmp_path / "i.ppm"
        p.write_bytes(b"P6 # a comment\n# another\n 2\t2 \n255\n" + raster)
        img = load_ppm(p)
        assert img.shape == (3, 2, 2)
        assert img[0, 0, 0] == 0.0
        assert abs(img[2, 1, 1] - 11 / 255) < 1e-7

    def test_scaling_by_maxval(self, tmp_path):
        p = tmp_path / "i.ppm"
        p.write_bytes(b"P6\n1 1\n100\n" + bytes([50, 100, 0]))
        img = load_ppm(p)
        assert abs(img[0, 0, 0] - 0.5) < 1e-7
        assert img[1, 0, 0] == 1.0

    def test_not_p6(self, tmp_path):
        p = tmp_path / "i.ppm"
        p.write_bytes(b"P3\n1 1\n255\n0 0 0")
        with pytest.raises(ParseError) as exc:
            load_ppm(p)
        assert exc.value.offset == 0

    def test_sixteen_bit_rejected(self, tmp_path):
        p = tmp_path / "i.ppm"
        p.write_bytes(b"P6\n1 1\n65535\n" + b"\x00" * 6)
        with pytest.raises(ParseError, match="maxval"):
            load_ppm(p)

    def test_truncated_raster(self, tmp_path):
        p = tmp_path / "i.ppm"
        p.write_bytes(b"P6\n2 2\n255\n" + b"\x00" * 5)
        with pytest.raises(ParseError, match="raster"):
            load_ppm(p)

    def test_non_numeric_header(self, tmp_path):
        p = tmp_path / "i.ppm"
        p.write_bytes(b"P6\nwide 2\n255\n")
        with pytest.raises(ParseError, match="width"):
            load_ppm(p)


class TestLoadImage:
    def test_dispatch_rten(self, tmp_path, rng):
        img = rng.uniform(size=(3, 4, 4)).astype(np.float32)
        p = tmp_path / "a.rten"
        save_rten(p, img)
        assert np.array_equal(load_image(p), img)

    def test_dispatch_ppm(self, tmp_path, rng):
        img = rng.uniform(size=(3, 4, 4)).astype(np.float32)
        p = tmp_path / "a.ppm"
        save_ppm(p, img)
        assert load_image(p).shape == (3, 4, 4)

    def test_rten_wrong_rank(self, tmp_path):
        p = tmp_path / "a.rten"
        save_rten(p, np.zeros((4, 4)))
        with pytest.raises(ParseError, match="rank"):
            load_image(p)

    @pytest.mark.parametrize("shape", [(1, 4, 4), (4, 4, 4), (4, 4, 3)])
    def test_rten_needs_three_channels(self, tmp_path, shape):
        p = tmp_path / "a.rten"
        save_rten(p, np.zeros(shape, dtype=np.float32))
        with pytest.raises(ParseError, match=r"\(3, H, W\)"):
            load_image(p)

    @pytest.mark.parametrize("shape, size", [((3, 0, 0), "0x0"), ((3, 64, 0), "0x64"), ((3, 0, 5), "5x0")])
    def test_rten_empty_image(self, tmp_path, shape, size):
        p = tmp_path / "a.rten"
        save_rten(p, np.zeros(shape, dtype=np.float32))
        with pytest.raises(ParseError, match=f"empty image {size}"):
            load_image(p)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, 1e300])
    def test_rten_non_finite_pixels(self, tmp_path, value):
        """1e300 is a finite float64 that overflows the float32 the model reads."""
        img = np.zeros((3, 4, 4))
        img[2, 1, 0] = img[0, 3, 3] = value
        p = tmp_path / "a.rten"
        save_rten(p, img)
        with pytest.raises(ParseError, match="2 non-finite pixels"):
            load_image(p)

    def test_unknown_extension(self, tmp_path):
        with pytest.raises(ParseError, match="extension"):
            load_image(tmp_path / "a.jpg")

    def test_missing_file_names_path(self, tmp_path):
        with pytest.raises(FileNotFoundError, match="nope"):
            load_image(tmp_path / "nope.rten")
