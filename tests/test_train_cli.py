"""Training loop behavior and the command-line surface (exit codes, output formats)."""

import argparse
import dataclasses
import json
import os
import re
import struct

import numpy as np
import pytest

from secap import cli
from secap.data import (
    PROTOCOLS,
    AugmentPolicy,
    SynthConfig,
    build_protocol,
    generate_synthetic,
    read_manifest,
    select_queries,
    split_identities,
)
from secap.encoder import EncoderConfig
from secap.errors import CheckpointError, ConfigurationError, ContractError, NumericError, ParseError
from secap.evaluate import cmc_map, distance_matrix, extract_features
from secap.losses import LossWeights
from secap.model import ModelConfig, SeCapModel
from secap.storage import (
    CKPT_MAGIC, CKPT_METADATA_OFFSET, CKPT_VERSION, load_checkpoint, load_rten, save_checkpoint, save_rten,
)
from secap.tensor import tape
from secap.train import (
    LOG_KEYS,
    TrainConfig,
    checkpoint_metadata,
    format_epoch_line,
    held_out_orthogonality,
    model_from_checkpoint,
    train,
)

MICRO_ENC = dict(image_h=16, image_w=16, embed_dim=16, heads=2, depth=1, ffn_mult=2)

MICRO_FLAGS = [
    "--image-h", "16", "--image-w", "16", "--embed-dim", "16",
    "--depth", "1", "--heads", "2", "--ffn-mult", "2", "--prompt-len", "4",
]


def micro_train_cfg(**overrides):
    model = ModelConfig(encoder=EncoderConfig(**MICRO_ENC), prompt_len=4, seed=1)
    base = dict(model=model, epochs=2, p=4, k=2, seed=3, checkpoint_every=20)
    base.update(overrides)
    return TrainConfig(**base)


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    out = tmp_path_factory.mktemp("train-corpus")
    cfg = SynthConfig(num_ids=6, images_per_id_per_view=2, image_h=16, image_w=16, seed=5)
    manifest, _ = generate_synthetic(cfg, out)
    return manifest


def poisoned_corpus(tmp_path):
    """Tiny corpus where every step samples every image, one of them all 1e30."""
    cfg = SynthConfig(num_ids=4, images_per_id_per_view=1, image_h=16, image_w=16, seed=9)
    manifest, _ = generate_synthetic(cfg, tmp_path)
    bad = manifest.resolve(manifest.records[0])
    save_rten(bad, np.full((3, 16, 16), 1e30, dtype=np.float32))
    return manifest


class TestTrainConfig:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            micro_train_cfg(epochs=0)
        with pytest.raises(ConfigurationError):
            micro_train_cfg(lr_max=1e-6, lr_min=1e-3)
        with pytest.raises(ConfigurationError):
            micro_train_cfg(p=0)
        with pytest.raises(ConfigurationError):
            micro_train_cfg(checkpoint_every=0)


class TestTrainLoop:
    def test_log_lines_match_history(self, corpus):
        lines = []
        result = train(corpus, micro_train_cfg(), log=lines.append)
        assert len(lines) == 2
        assert result.total_steps == 2 * (len(corpus) // 8)
        for line, entry in zip(lines, result.history):
            values = {key: entry[key] for key in LOG_KEYS}
            assert line == format_epoch_line(entry["epoch"], values, entry["lr"])
            assert re.fullmatch(
                r"epoch=\d+ loss_total=\S+ loss_id_g=\S+ loss_tri_g=\S+ "
                r"loss_id_l=\S+ loss_tri_l=\S+ loss_view=\S+ loss_orth=\S+ lr=\S+",
                line,
            )

    def test_format_epoch_line_uses_repr(self):
        values = {key: 0.5 for key in LOG_KEYS}
        values["loss_total"] = 0.1
        line = format_epoch_line(3, values, 1.6e-06)
        assert line.startswith("epoch=3 loss_total=0.1 ")
        assert line.endswith("lr=1.6e-06")

    def test_checkpoint_cadence(self, corpus, tmp_path):
        result = train(corpus, micro_train_cfg(epochs=5, checkpoint_every=2), out_dir=str(tmp_path))
        names = [os.path.basename(p) for p in result.checkpoint_paths]
        assert names == ["checkpoint-0002.ckpt", "checkpoint-0004.ckpt", "checkpoint-0005.ckpt"]
        for p in result.checkpoint_paths:
            assert os.path.exists(p)

    def test_checkpoint_reload_is_bit_exact(self, corpus, tmp_path):
        result = train(corpus, micro_train_cfg(), out_dir=str(tmp_path))
        loaded, meta = model_from_checkpoint(result.checkpoint_paths[-1])
        assert meta["epoch"] == 2
        a = extract_features(result.model, corpus, batch_size=8)
        b = extract_features(loaded, corpus, batch_size=8)
        assert np.array_equal(a.features, b.features)

    def test_two_runs_identical(self, corpus, tmp_path):
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        out_a.mkdir(), out_b.mkdir()
        ra = train(corpus, micro_train_cfg(), out_dir=str(out_a))
        rb = train(corpus, micro_train_cfg(), out_dir=str(out_b))
        assert ra.history == rb.history
        bytes_a = (out_a / "checkpoint-0002.ckpt").read_bytes()
        bytes_b = (out_b / "checkpoint-0002.ckpt").read_bytes()
        assert bytes_a == bytes_b

    # train() is called directly, outside the CLI's errstate: the poisoned
    # pixel overflows numpy on purpose on its way to the NumericError
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_nan_loss_names_epoch_and_step(self, tmp_path):
        manifest = poisoned_corpus(tmp_path)
        with pytest.raises(NumericError, match=r"epoch 1 step \d"):
            train(manifest, micro_train_cfg(epochs=1))
        assert tape().entries == []

    def test_tape_empty_after_every_step(self, corpus, monkeypatch):
        import secap.optim as optim_mod

        real_step = optim_mod.SGD.step
        held = []

        def checked_step(self):
            held.append(len(tape().entries))
            return real_step(self)

        monkeypatch.setattr(optim_mod.SGD, "step", checked_step)
        result = train(corpus, micro_train_cfg())
        assert held == [0] * result.total_steps
        assert tape().entries == []

    def test_raising_step_leaves_tape_empty(self, corpus):
        # P=1 puts one identity in the batch: triplet mining raises mid-loss
        with pytest.raises(ContractError, match="two identities"):
            train(corpus, micro_train_cfg(p=1))
        assert tape().entries == [] and not tape().recording

    def test_too_few_identities(self, corpus):
        with pytest.raises(ContractError, match="identities"):
            train(corpus, micro_train_cfg(p=7))

    def test_metadata_round_trip(self, corpus, tmp_path):
        cfg = micro_train_cfg(holdout=0.25)
        result = train(corpus, cfg, out_dir=str(tmp_path))
        meta, table = load_checkpoint(result.checkpoint_paths[-1])
        assert meta["format"] == "secap-checkpoint"
        assert meta["label_ids"] == sorted(corpus.identities())
        assert meta["encoder"]["embed_dim"] == 16
        assert meta["model"]["num_ids"] == 6
        assert meta["weights"]["lambda"] == 0.001
        assert meta["train"]["holdout"] == 0.25
        assert meta["train"]["seed"] == 3
        assert set(table) == {p.name for p in result.model.parameters()}

    def test_metadata_shape_mismatch_rejected(self, tmp_path):
        model = SeCapModel(ModelConfig(encoder=EncoderConfig(**MICRO_ENC), prompt_len=4, seed=1))
        meta = checkpoint_metadata(model, None, 0, [0, 1])
        meta["model"]["prompt_len"] = 8  # claims more prompts than the weights hold
        path = tmp_path / "tampered.ckpt"
        save_checkpoint(str(path), model.parameters(), meta)
        with pytest.raises(CheckpointError):
            model_from_checkpoint(str(path))


class TestHeldOutOrthogonality:
    def test_finite_and_deterministic(self, corpus):
        model = SeCapModel(ModelConfig(encoder=EncoderConfig(**MICRO_ENC), prompt_len=4, seed=1))
        a = held_out_orthogonality(model, corpus, num_batches=2, p=4, k=2, seed=0)
        b = held_out_orthogonality(model, corpus, num_batches=2, p=4, k=2, seed=0)
        assert np.isfinite(a) and a >= 0.0
        assert a == b

    def test_rejects_model_without_view_branch(self, corpus):
        model = SeCapModel(
            ModelConfig(encoder=EncoderConfig(**MICRO_ENC), prompt_len=4, ablate="baseline", seed=1)
        )
        with pytest.raises(ContractError):
            held_out_orthogonality(model, corpus, num_batches=1, p=4, k=2, seed=0)

    def test_encoder_without_view_token_has_no_view_branch(self, corpus):
        # the encoder's vdt_enabled alone decides the view branch, whatever `ablate` says
        model_cfg = ModelConfig(encoder=EncoderConfig(**MICRO_ENC, vdt_enabled=False), prompt_len=4, seed=1)
        assert model_cfg.ablate == "none" and not model_cfg.uses_vdt
        result = train(corpus, micro_train_cfg(model=model_cfg, epochs=1))
        assert result.model.heads.view is None
        assert np.isfinite(result.history[0]["loss_total"])
        assert result.history[0]["loss_view"] == 0.0 and result.history[0]["loss_orth"] == 0.0
        with pytest.raises(ContractError):
            held_out_orthogonality(result.model, corpus, num_batches=1, p=4, k=2, seed=0)


class TestCliUsage:
    def test_missing_required_flag(self, capsys):
        assert cli.main(["gen-data"]) == cli.EXIT_USAGE
        assert "error" in capsys.readouterr().err

    def test_unknown_command(self):
        assert cli.main(["frobnicate"]) == cli.EXIT_USAGE

    def test_no_command(self):
        assert cli.main([]) == cli.EXIT_USAGE

    def test_bad_config_value(self, tmp_path, capsys):
        rc = cli.main(["gen-data", "--out", str(tmp_path / "c"), "--ids", "0"])
        assert rc == cli.EXIT_USAGE
        assert "configuration error" in capsys.readouterr().err


class TestCliGenData:
    def test_writes_corpus_and_prints_manifest(self, tmp_path, capsys):
        out = tmp_path / "corpus"
        rc = cli.main(["gen-data", "--out", str(out), "--ids", "4", "--per-view", "2",
                       "--image-h", "16", "--image-w", "16"])
        assert rc == cli.EXIT_OK
        printed = capsys.readouterr().out.strip()
        assert printed == str(out / "manifest.tsv")
        manifest = read_manifest(printed)
        assert len(manifest) == 16

    def test_rerun_is_byte_identical(self, tmp_path, capsys):
        args = ["--ids", "3", "--per-view", "2", "--image-h", "16", "--image-w", "16", "--seed", "7"]
        assert cli.main(["gen-data", "--out", str(tmp_path / "a")] + args) == 0
        assert cli.main(["gen-data", "--out", str(tmp_path / "b")] + args) == 0
        capsys.readouterr()
        names = sorted(os.listdir(tmp_path / "a"))
        assert names == sorted(os.listdir(tmp_path / "b"))
        for name in names:
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


@pytest.fixture(scope="class")
def cli_pipeline(tmp_path_factory):
    """One gen-data + train run shared by the pipeline assertions below."""
    root = tmp_path_factory.mktemp("cli-pipeline")
    corpus = root / "corpus"
    ckpt_dir = root / "ckpt"
    rc = cli.main(["gen-data", "--out", str(corpus), "--ids", "8", "--per-view", "3",
                   "--image-h", "16", "--image-w", "16", "--seed", "2"])
    assert rc == 0
    manifest = str(corpus / "manifest.tsv")
    rc = cli.main(["train", "--manifest", manifest, "--out", str(ckpt_dir),
                   "--epochs", "2", "--p", "4", "--k", "2", "--seed", "3",
                   "--holdout", "0.25", "--patch", "16"] + MICRO_FLAGS)
    assert rc == 0
    return {"manifest": manifest, "checkpoint": str(ckpt_dir / "checkpoint-0002.ckpt"), "root": root}


class TestCliPipeline:
    def test_train_wrote_checkpoint_and_logs(self, cli_pipeline, capsys):
        capsys.readouterr()
        assert os.path.exists(cli_pipeline["checkpoint"])
        meta, _ = load_checkpoint(cli_pipeline["checkpoint"])
        assert meta["train"]["holdout"] == 0.25
        assert meta["model"]["num_ids"] == 6  # two of eight identities held out

    def test_eval_all_protocols_prints_reports(self, cli_pipeline, capsys):
        rc = cli.main(["eval", "--checkpoint", cli_pipeline["checkpoint"],
                       "--manifest", cli_pipeline["manifest"],
                       "--protocol", "all", "--queries-per-view", "1"])
        assert rc == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 3
        reports = [json.loads(line) for line in lines]
        assert [r["protocol"] for r in reports] == ["a2g", "g2a", "g2ag"]
        for line, rep in zip(lines, reports):
            assert list(rep) == ["protocol", "rank1", "mAP", "num_queries", "num_gallery", "num_excluded"]
            assert 0.0 <= rep["rank1"] <= 1.0 and 0.0 <= rep["mAP"] <= 1.0
            assert rep["num_queries"] >= 1 and rep["num_gallery"] >= 1
        # mixed gallery = both sides minus the protocol's own designated queries
        designated = reports[2]["num_queries"] + reports[2]["num_excluded"]
        assert reports[2]["num_gallery"] == (
            reports[0]["num_gallery"] + reports[1]["num_gallery"] - designated)

    def test_eval_all_encodes_each_image_once(self, cli_pipeline, capsys, monkeypatch):
        argv = ["eval", "--checkpoint", cli_pipeline["checkpoint"], "--manifest", cli_pipeline["manifest"],
                "--protocol", "all", "--queries-per-view", "1", "--batch-size", "5"]
        # the per-protocol recipe: one extraction each for the query and the gallery
        model, meta = model_from_checkpoint(cli_pipeline["checkpoint"])
        _, mtest = split_identities(read_manifest(cli_pipeline["manifest"]), 0.25, 3)
        queries = select_queries(mtest, per_view=1)
        expected, needed = [], set()
        for name in PROTOCOLS:
            split = build_protocol(mtest, name, queries=queries)
            qfs = extract_features(model, mtest, split.query, batch_size=5)
            gfs = extract_features(model, mtest, split.gallery, batch_size=5)
            expected.append(cmc_map(distance_matrix(qfs, gfs), qfs, gfs, protocol=name).to_json_line())
            needed.update(r.path for r in split.query + split.gallery)
        assert meta["train"]["holdout"] == 0.25 and meta["train"]["seed"] == 3

        rows = []
        real = SeCapModel.inference_features

        def counting(self, images):
            rows.append(len(images))
            return real(self, images)

        monkeypatch.setattr(SeCapModel, "inference_features", counting)
        capsys.readouterr()
        assert cli.main(argv) == 0
        assert capsys.readouterr().out == "".join(line + "\n" for line in expected)
        assert sum(rows) == len(needed)

    def test_export_features_row_aligned(self, cli_pipeline, capsys):
        base = str(cli_pipeline["root"] / "feats")
        rc = cli.main(["export-features", "--checkpoint", cli_pipeline["checkpoint"],
                       "--manifest", cli_pipeline["manifest"], "--out", base])
        assert rc == 0
        assert capsys.readouterr().out.strip() == base + ".rten"
        feats = load_rten(base + ".rten")
        rows = open(base + ".tsv", encoding="utf-8").read().splitlines()
        manifest = read_manifest(cli_pipeline["manifest"])
        assert feats.shape == (len(manifest), 32)  # invariant + local halves
        assert len(rows) == len(manifest)
        first = rows[0].split("\t")
        assert [int(first[0]), int(first[1]), int(first[2])] == [
            manifest.records[0].identity, manifest.records[0].camera, manifest.records[0].view]

    @pytest.mark.parametrize("command, flag", [
        ("eval", "--batch-size"), ("export-features", "--batch-size"), ("eval", "--queries-per-view"),
    ], ids=["eval-batch-size", "export-batch-size", "eval-queries-per-view"])
    def test_zero_count_flag_is_usage(self, cli_pipeline, capsys, command, flag):
        argv = [command, "--checkpoint", cli_pipeline["checkpoint"],
                "--manifest", cli_pipeline["manifest"], flag, "0"]
        if command == "export-features":
            argv += ["--out", str(cli_pipeline["root"] / "zero")]
        assert cli.main(argv) == cli.EXIT_USAGE
        assert "configuration error" in capsys.readouterr().err


@pytest.fixture(scope="module")
def micro_checkpoint(tmp_path_factory):
    """A loadable untrained checkpoint, for tests whose failure lies elsewhere."""
    model = SeCapModel(ModelConfig(encoder=EncoderConfig(**MICRO_ENC), prompt_len=4, num_ids=2, seed=1))
    path = tmp_path_factory.mktemp("micro-ckpt") / "micro.ckpt"
    save_checkpoint(str(path), model.parameters(), checkpoint_metadata(model, None, 0, [0, 1]))
    return str(path)


class TestCliErrors:
    def test_missing_manifest_is_io(self, tmp_path, capsys):
        rc = cli.main(["train", "--manifest", str(tmp_path / "nope.tsv"),
                       "--out", str(tmp_path / "out"), "--epochs", "1"] + MICRO_FLAGS)
        assert rc == cli.EXIT_IO
        assert "secap:" in capsys.readouterr().err

    def test_corrupt_checkpoint_is_io(self, tmp_path, capsys):
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(b"not a checkpoint")
        manifest = tmp_path / "m.tsv"
        manifest.write_text("#secap-manifest v1\n")
        rc = cli.main(["eval", "--checkpoint", str(bad), "--manifest", str(manifest)])
        assert rc == cli.EXIT_IO
        capsys.readouterr()

    @pytest.mark.parametrize("manifest_bytes", [
        b"#secap-manifest v1\n#meta num_views=two\n",
        b"#secap-manifest v1\n\xff\xfe.rten\t0\t0\t0\t0\n",
    ], ids=["non-integer-num-views", "not-utf8"])
    def test_malformed_manifest_is_io(self, micro_checkpoint, tmp_path, capsys, manifest_bytes):
        manifest = tmp_path / "m.tsv"
        manifest.write_bytes(manifest_bytes)
        rc = cli.main(["eval", "--checkpoint", micro_checkpoint, "--manifest", str(manifest)])
        assert rc == cli.EXIT_IO
        assert "byte offset" in capsys.readouterr().err

    @pytest.mark.parametrize("metadata", [b"{not json", b'{"format": "secap-checkpoint"}'],
                             ids=["metadata-not-json", "metadata-without-encoder"])
    def test_malformed_checkpoint_metadata_is_io(self, tmp_path, capsys, metadata):
        ckpt = tmp_path / "bad.ckpt"
        ckpt.write_bytes(CKPT_MAGIC + struct.pack("<HQ", CKPT_VERSION, len(metadata)) + metadata
                         + struct.pack("<Q", 0))
        manifest = tmp_path / "m.tsv"
        manifest.write_text("#secap-manifest v1\n")
        rc = cli.main(["eval", "--checkpoint", str(ckpt), "--manifest", str(manifest)])
        assert rc == cli.EXIT_IO
        assert "byte offset" in capsys.readouterr().err

    def test_non_object_train_metadata_is_io(self, tmp_path, capsys):
        model = SeCapModel(ModelConfig(encoder=EncoderConfig(**MICRO_ENC), prompt_len=4, num_ids=2, seed=1))
        meta = {**checkpoint_metadata(model, None, 0, [0, 1]), "train": 5}
        ckpt = tmp_path / "bad-train.ckpt"
        save_checkpoint(str(ckpt), model.parameters(), meta)
        manifest = tmp_path / "m.tsv"
        manifest.write_text("#secap-manifest v1\n")
        rc = cli.main(["eval", "--checkpoint", str(ckpt), "--manifest", str(manifest)])
        assert rc == cli.EXIT_IO
        err = capsys.readouterr().err
        assert "'train'" in err and "byte offset" in err

    @pytest.mark.parametrize("run", [{"holdout": 0.25}, {"holdout": "x", "seed": 0}],
                             ids=["holdout-without-seed", "non-numeric-holdout"])
    def test_malformed_train_metadata_is_io(self, tmp_path, capsys, run):
        model = SeCapModel(ModelConfig(encoder=EncoderConfig(**MICRO_ENC), prompt_len=4, num_ids=2, seed=1))
        meta = {**checkpoint_metadata(model, None, 0, [0, 1]), "train": run}
        ckpt = tmp_path / "bad-train.ckpt"
        save_checkpoint(str(ckpt), model.parameters(), meta)
        manifest = tmp_path / "m.tsv"
        manifest.write_text("#secap-manifest v1\n")
        rc = cli.main(["eval", "--checkpoint", str(ckpt), "--manifest", str(manifest)])
        assert rc == cli.EXIT_IO
        err = capsys.readouterr().err
        assert "train" in err and "byte offset" in err

    def test_non_utf8_parameter_name_is_io(self, micro_checkpoint, tmp_path, capsys):
        raw = bytearray(open(micro_checkpoint, "rb").read())
        at = raw.index(b"encoder.proj.weight")
        raw[at] = 0xFF
        ckpt = tmp_path / "bad-name.ckpt"
        ckpt.write_bytes(bytes(raw))
        manifest = tmp_path / "m.tsv"
        manifest.write_text("#secap-manifest v1\n")
        rc = cli.main(["eval", "--checkpoint", str(ckpt), "--manifest", str(manifest)])
        assert rc == cli.EXIT_IO
        err = capsys.readouterr().err
        assert "not UTF-8" in err and f"(byte offset {at})" in err

    @pytest.mark.parametrize("section, key, value", [
        ("encoder", "depth", "1"), ("encoder", "embed_dim", 16.0), ("encoder", "embed_dim", -16),
        ("model", "prm_variant", "mean"),
    ], ids=["string-depth", "float-width", "negative-width", "unknown-variant"])
    def test_malformed_geometry_metadata_is_io(self, tmp_path, capsys, section, key, value):
        model = SeCapModel(ModelConfig(encoder=EncoderConfig(**MICRO_ENC), prompt_len=4, num_ids=2, seed=1))
        meta = checkpoint_metadata(model, None, 0, [0, 1])
        meta[section] = {**meta[section], key: value}
        ckpt = tmp_path / "bad-geometry.ckpt"
        save_checkpoint(str(ckpt), model.parameters(), meta)
        manifest = tmp_path / "m.tsv"
        manifest.write_text("#secap-manifest v1\n")
        rc = cli.main(["eval", "--checkpoint", str(ckpt), "--manifest", str(manifest)])
        assert rc == cli.EXIT_IO
        assert f"malformed metadata (byte offset {CKPT_METADATA_OFFSET})" in capsys.readouterr().err

    def test_mixed_image_sizes_in_training_is_io(self, tmp_path, capsys):
        cfg = SynthConfig(num_ids=4, images_per_id_per_view=2, image_h=16, image_w=16, seed=9)
        manifest, _ = generate_synthetic(cfg, tmp_path)
        odd = manifest.resolve(manifest.records[1])
        save_rten(odd, np.zeros((3, 24, 16), dtype=np.float32))
        # P = every identity and K = each identity's image count: the first batch holds every image
        assert len(manifest.identities()) == 4 and len(manifest.by_identity()[manifest.records[1].identity]) == 4
        rc = cli.main(["train", "--manifest", os.path.join(str(tmp_path), "manifest.tsv"),
                       "--out", str(tmp_path / "out"), "--epochs", "1",
                       "--p", "4", "--k", "4", "--patch", "16"] + MICRO_FLAGS)
        assert rc == cli.EXIT_IO
        err = capsys.readouterr().err
        assert odd in err and "(3, 24, 16)" in err and "(3, 16, 16)" in err

    def test_mixed_image_sizes_is_io(self, micro_checkpoint, tmp_path, capsys):
        cfg = SynthConfig(num_ids=4, images_per_id_per_view=2, image_h=16, image_w=16, seed=9)
        manifest, _ = generate_synthetic(cfg, tmp_path)
        odd = manifest.resolve(manifest.records[1])
        save_rten(odd, np.zeros((3, 24, 16), dtype=np.float32))
        rc = cli.main(["eval", "--checkpoint", micro_checkpoint,
                       "--manifest", os.path.join(str(tmp_path), "manifest.tsv")])
        assert rc == cli.EXIT_IO
        err = capsys.readouterr().err
        assert odd in err and "(3, 24, 16)" in err and "(3, 16, 16)" in err
        with pytest.raises(ParseError, match=r"\(3, 24, 16\)"):
            extract_features(SeCapModel(micro_train_cfg().model), manifest)

    @pytest.mark.parametrize("value, code, message", [
        (np.nan, cli.EXIT_IO, "1 non-finite pixels"),
        (np.inf, cli.EXIT_IO, "1 non-finite pixels"),
        (-np.inf, cli.EXIT_IO, "1 non-finite pixels"),
        # finite in float32, but the encoder's layer norm squares it past the range
        (1e30, cli.EXIT_NUMERIC, "numeric failure: non-finite features for"),
    ], ids=["nan", "inf", "minus-inf", "overflowing"])
    @pytest.mark.parametrize("command", ["eval", "export-features"])
    def test_non_finite_or_overflowing_pixel(self, micro_checkpoint, tmp_path, capsys, command,
                                             value, code, message):
        cfg = SynthConfig(num_ids=4, images_per_id_per_view=2, image_h=16, image_w=16, seed=9)
        manifest, _ = generate_synthetic(cfg, tmp_path)
        bad = manifest.resolve(manifest.records[1])
        image = load_rten(bad)
        image[1, 2, 3] = value
        save_rten(bad, image)
        argv = [command, "--checkpoint", micro_checkpoint, "--manifest", str(tmp_path / "manifest.tsv")]
        out = tmp_path / "feats"
        assert cli.main(argv + (["--out", str(out)] if command == "export-features" else [])) == code
        err = capsys.readouterr().err
        assert message in err and bad in err
        assert not os.path.exists(f"{out}.rten")

    def test_single_channel_images_are_io(self, micro_checkpoint, tmp_path, capsys):
        cfg = SynthConfig(num_ids=4, images_per_id_per_view=2, image_h=16, image_w=16, seed=9)
        manifest, _ = generate_synthetic(cfg, tmp_path)
        for record in manifest.records:
            path = manifest.resolve(record)
            save_rten(path, load_rten(path)[:1])
        assert cli.main(["eval", "--checkpoint", micro_checkpoint,
                         "--manifest", str(tmp_path / "manifest.tsv")]) == cli.EXIT_IO
        err = capsys.readouterr().err
        assert "shape (3, H, W), got (1, 16, 16)" in err and "configuration error" not in err

    def test_view_outside_the_encoding_is_io(self, tmp_path, capsys):
        cfg = SynthConfig(num_ids=4, images_per_id_per_view=2, image_h=16, image_w=16, seed=9)
        generate_synthetic(cfg, tmp_path)
        manifest = tmp_path / "manifest.tsv"
        lines = manifest.read_text().split("\n")
        row = next(i for i, line in enumerate(lines) if line and not line.startswith("#"))
        fields = lines[row].split("\t")
        lines[row] = "\t".join(fields[:3] + ["3"] + fields[4:])
        manifest.write_text("\n".join(lines))
        rc = cli.main(["train", "--manifest", str(manifest), "--out", str(tmp_path / "out"),
                       "--epochs", "1", "--p", "4", "--k", "2", "--patch", "16"] + MICRO_FLAGS)
        assert rc == cli.EXIT_IO
        err = capsys.readouterr().err
        offset = sum(len(line) + 1 for line in lines[:row])
        assert "view" in err and f"(byte offset {offset})" in err and "Traceback" not in err

    @pytest.mark.parametrize("flag, value", [
        ("--holdout", "-0.5"), ("--holdout", "1.0"), ("--heads", "0"), ("--ffn-mult", "0"),
    ], ids=["negative-holdout", "holdout-one", "zero-heads", "zero-ffn-mult"])
    def test_out_of_range_train_flag_is_usage(self, tmp_path, capsys, flag, value):
        out = tmp_path / "out"
        rc = cli.main(["train", "--manifest", _tiny_manifest(tmp_path), "--out", str(out),
                       "--epochs", "1", "--p", "2", "--k", "1", "--patch", "16"] + MICRO_FLAGS + [flag, value])
        assert rc == cli.EXIT_USAGE
        err = capsys.readouterr().err
        assert "configuration error" in err and "Traceback" not in err
        assert not out.exists()  # rejected before any checkpoint is written

    @pytest.mark.parametrize("flags", [
        ["--lr-max", "nan"], ["--lr-max", "inf"], ["--lr-max", "-1", "--lr-min", "-2"],
        ["--momentum", "nan"], ["--weight-decay", "nan"], ["--alpha", "nan"], ["--lambda", "inf"],
        ["--warmup-steps", "-5"],
    ], ids=["lr-max-nan", "lr-max-inf", "negative-lr", "momentum-nan", "weight-decay-nan",
            "alpha-nan", "lambda-inf", "negative-warmup"])
    def test_bad_rate_or_weight_is_usage_before_any_step(self, tmp_path, capsys, flags):
        out = tmp_path / "out"
        rc = cli.main(["train", "--manifest", _tiny_manifest(tmp_path), "--out", str(out),
                       "--epochs", "1", "--p", "2", "--k", "1", "--patch", "16"] + MICRO_FLAGS + flags)
        assert rc == cli.EXIT_USAGE
        err = capsys.readouterr().err
        assert "configuration error" in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("strength", ["nan", "inf"])
    def test_non_finite_strength_is_usage(self, tmp_path, capsys, strength):
        rc = cli.main(["gen-data", "--out", str(tmp_path / "c"), "--ids", "2", "--per-view", "1",
                       "--image-h", "16", "--image-w", "16", "--strength", strength])
        assert rc == cli.EXIT_USAGE
        assert "view_strength must be finite" in capsys.readouterr().err
        assert not (tmp_path / "c").exists()

    def test_nan_loss_is_numeric(self, tmp_path, capsys):
        manifest = poisoned_corpus(tmp_path)
        rc = cli.main(["train", "--manifest", os.path.join(str(tmp_path), "manifest.tsv"),
                       "--out", str(tmp_path / "out"), "--epochs", "1",
                       "--p", "4", "--k", "2", "--patch", "16"] + MICRO_FLAGS)
        assert rc == cli.EXIT_NUMERIC
        err = capsys.readouterr().err
        assert "numeric failure" in err and "epoch 1" in err
        assert manifest is not None


# flags that feed no config dataclass field
NON_CONFIG_DESTS = {"help", "out", "manifest", "no_augment", "coords", "tol"}
DESK_ENCODER = dict(image_h=64, image_w=32, embed_dim=64, depth=2, heads=4)


def _subparser(name):
    sub = next(a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return sub.choices[name]


def _tiny_manifest(tmp_path):
    generate_synthetic(SynthConfig(num_ids=2, images_per_id_per_view=1, image_h=16, image_w=16), tmp_path)
    return str(tmp_path / "manifest.tsv")


class TestCliConfigSchema:
    @pytest.mark.parametrize("command, configs", [
        ("gen-data", (SynthConfig,)),
        ("train", (EncoderConfig, ModelConfig, TrainConfig, LossWeights)),
        ("grad-check", (EncoderConfig, ModelConfig)),
    ])
    def test_every_dest_names_a_config_field(self, command, configs):
        # cli._config drops a dest that names no field, so a misspelt one would go unnoticed
        fields = {f.name for cls in configs for f in dataclasses.fields(cls)}
        for action in _subparser(command)._actions:
            assert action.dest in fields | NON_CONFIG_DESTS, (command, action.option_strings)

    def capture_train(self, monkeypatch, argv):
        seen = []
        monkeypatch.setattr(cli, "train", lambda manifest, cfg, **kw: seen.append(cfg))
        assert cli.main(["train"] + argv) == cli.EXIT_OK
        return seen[0]

    def test_train_defaults_are_the_dataclass_defaults(self, tmp_path, monkeypatch):
        argv = ["--manifest", _tiny_manifest(tmp_path), "--out", str(tmp_path / "out")]
        cfg = self.capture_train(monkeypatch, argv)
        desk = ModelConfig(encoder=EncoderConfig(**DESK_ENCODER), prompt_len=8)
        assert cfg == TrainConfig(model=desk)
        assert cfg.weights == LossWeights()
        assert cfg.augment_policy == AugmentPolicy()

    def test_train_flags_reach_their_fields(self, tmp_path, monkeypatch):
        argv = ["--manifest", _tiny_manifest(tmp_path), "--out", str(tmp_path / "out"),
                "--seed", "7", "--lambda", "0.01", "--olp", "--no-augment", "--prm-variant", "cat"]
        cfg = self.capture_train(monkeypatch, argv)
        assert cfg.seed == 7 and cfg.model.seed == 7
        assert cfg.weights == LossWeights(lam=0.01)
        assert cfg.model.prm_variant == "cat"
        assert cfg.model.encoder.olp_enabled and cfg.model.encoder.stride == 12
        assert not cfg.augment_policy.enabled

    @pytest.mark.parametrize("flags, stride", [([], 16), (["--olp"], 12)])
    def test_grad_check_model(self, capsys, monkeypatch, flags, stride):
        seen = []
        real = cli.SeCapModel

        def capturing(cfg, **kw):
            seen.append(cfg)
            return real(cfg, **kw)

        monkeypatch.setattr(cli, "SeCapModel", capturing)
        monkeypatch.setattr(cli, "check_parameter_gradients", lambda *a, **kw: (0.0, "none", None))
        assert cli.main(["grad-check"] + flags) == cli.EXIT_OK
        capsys.readouterr()
        encoder = EncoderConfig(**DESK_ENCODER, olp_enabled=bool(flags))
        assert seen == [ModelConfig(encoder=encoder, prompt_len=8)]
        assert seen[0].encoder.stride == stride


class TestCliGradCheck:
    def test_pass_exits_zero(self, capsys):
        rc = cli.main(["grad-check", "--coords", "1", "--seed", "0"])
        out = capsys.readouterr().out
        assert rc == cli.EXIT_OK
        assert "max relative error" in out
        assert "grad-check: PASS" in out

    @pytest.mark.parametrize("flags", [
        ["--tol", "nan"], ["--tol", "inf"], ["--tol", "0"], ["--tol=-1e-4"], ["--coords", "-1"],
    ], ids=["tol-nan", "tol-inf", "tol-zero", "tol-negative", "coords-negative"])
    def test_bad_flag_is_usage_before_any_probe(self, capsys, monkeypatch, flags):
        probed = []
        monkeypatch.setattr(cli, "check_parameter_gradients",
                            lambda *a, **kw: probed.append(kw) or (0.0, "none", None))
        assert cli.main(["grad-check", "--seed", "0"] + flags) == cli.EXIT_USAGE
        captured = capsys.readouterr()
        assert "configuration error" in captured.err and "grad-check" not in captured.out
        assert not probed

    def test_corrupted_backward_fails(self, capsys, monkeypatch):
        # negative control: scale one backward reduction and the check must fail
        import secap.tensor as tensor_mod

        original = tensor_mod._unbroadcast

        def skewed(grad, shape):
            return 1.5 * original(grad, shape)

        monkeypatch.setattr(tensor_mod, "_unbroadcast", skewed)
        rc = cli.main(["grad-check", "--coords", "1", "--seed", "0"])
        out = capsys.readouterr().out
        assert rc == cli.EXIT_CHECK_FAILURE
        assert "grad-check: FAIL" in out
