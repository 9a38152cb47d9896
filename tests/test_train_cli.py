"""Training loop behavior and the command-line surface (exit codes, output formats)."""

import argparse
import dataclasses
import importlib
import json
import math
import os
import re
import struct
import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import secap.data
import secap.encoder
import secap.lfrm
import secap.model
import secap.nn
import secap.storage
from secap import cli
from secap.data import (
    DEFAULT_VIEW_MAP,
    PROTOCOL_SIDES,
    PROTOCOLS,
    Manifest,
    SynthConfig,
    build_protocol,
    generate_synthetic,
    read_manifest,
    select_queries,
    split_identities,
    write_manifest,
)
from secap.encoder import EncoderConfig
from secap.errors import CheckpointError, ConfigurationError, ContractError, NumericError, ParseError
from secap.evaluate import (
    FEATURE_CHUNK, MIN_CHUNK_ROWS, FeatureExtractor, cmc_map, distance_matrix, extract_features,
)
from secap.losses import LossWeights
from secap.model import ABLATIONS, ModelConfig, SeCapModel
from secap.nn import trunc_normal
from secap.prm import ATTN_DROPPED_PARAMETERS
from secap.storage import (
    CKPT_MAGIC, CKPT_METADATA_OFFSET, CKPT_VERSION, load_checkpoint, load_rten, save_checkpoint, save_rten,
)
from secap.tensor import Parameter, Tensor, mul, tape
from secap.train import (
    CHECKPOINT_TRAIN_KEYS,
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

    def test_one_identity_per_batch_rejected(self):
        # P=1 would reach triplet mining at step 0 with a single identity
        with pytest.raises(ConfigurationError, match="P >= 2"):
            micro_train_cfg(p=1)


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

    @pytest.mark.parametrize("enabled", [True, False])
    def test_augment_flag_decides_whether_images_are_augmented(self, corpus, monkeypatch, enabled):
        train_mod = importlib.import_module("secap.train")  # `secap.train` is also the function
        calls = []
        real = train_mod.augment
        monkeypatch.setattr(train_mod, "augment", lambda image, seed: calls.append(seed) or real(image, seed))
        result = train(corpus, micro_train_cfg(epochs=1, augment=enabled))
        assert len(calls) == (result.total_steps * 8 if enabled else 0)

    def test_checkpoint_cadence(self, corpus, tmp_path):
        result = train(corpus, micro_train_cfg(epochs=5, checkpoint_every=2), out_dir=str(tmp_path))
        names = [os.path.basename(p) for p in result.checkpoint_paths]
        assert names == ["checkpoint-0002.ckpt", "checkpoint-0004.ckpt", "checkpoint-0005.ckpt"]
        for p in result.checkpoint_paths:
            assert os.path.exists(p)

    def test_checkpoint_reload_is_bit_exact(self, corpus, tmp_path):
        result = train(corpus, micro_train_cfg(), out_dir=str(tmp_path))
        loaded, _ = model_from_checkpoint(result.checkpoint_paths[-1])
        meta, _ = load_checkpoint(result.checkpoint_paths[-1])
        assert meta["epoch"] == 2
        a = extract_features(result.model, corpus)
        b = extract_features(loaded, corpus)
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

    def test_nan_loss_names_the_part(self, corpus, monkeypatch):
        model_mod = importlib.import_module("secap.model")
        real = model_mod.orthogonality_loss
        monkeypatch.setattr(model_mod, "orthogonality_loss",
                            lambda x_inv, view_feat: mul(real(x_inv, view_feat), Tensor(np.float32(np.nan))))
        with pytest.raises(NumericError, match=r"^non-finite loss nan at epoch 1 step 0; "
                                               r"non-finite parts: orth=nan$"):
            train(corpus, micro_train_cfg(epochs=1))
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

    def test_raising_step_leaves_tape_empty(self, corpus, monkeypatch):
        def broken(*args):  # raises mid-loss, after the forward recorded its entries
            assert tape().entries
            raise ContractError("loss raised")

        monkeypatch.setattr("secap.model.orthogonality_loss", broken)
        with pytest.raises(ContractError, match="loss raised"):
            train(corpus, micro_train_cfg())
        assert tape().entries == [] and not tape().recording

    def test_too_few_identities(self, corpus):
        with pytest.raises(ContractError, match="identities"):
            train(corpus, micro_train_cfg(p=7))

    def test_empty_manifest_is_refused_by_the_model_config(self):
        # train() keeps no identity check of its own: an empty manifest gives a model with no classes
        with pytest.raises(ConfigurationError, match="need at least one identity class, got 0"):
            train(Manifest([]), micro_train_cfg())

    def test_metadata_round_trip(self, corpus, tmp_path):
        cfg = micro_train_cfg(holdout=0.25, weights=LossWeights(alpha=0.5, beta=2.0), checkpoint_every=1,
                              augment=False)
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
        # the run settings come back whole, except the two a checkpoint does not record
        _, run = model_from_checkpoint(result.checkpoint_paths[-1])
        unrecorded = TrainConfig(model=result.model.cfg)
        assert run.model == result.model.cfg
        assert run == dataclasses.replace(cfg, model=result.model.cfg, checkpoint_every=unrecorded.checkpoint_every,
                                          augment=unrecorded.augment)

    def test_metadata_shape_mismatch_rejected(self, tmp_path):
        model = SeCapModel(ModelConfig(encoder=EncoderConfig(**MICRO_ENC), prompt_len=4, seed=1))
        meta = checkpoint_metadata(model, TrainConfig(model=model.cfg), 0, [0, 1])
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
        # `ablate` alone decides the view branch: no view token, head or view terms
        model_cfg = ModelConfig(encoder=EncoderConfig(**MICRO_ENC), prompt_len=4, ablate="no-vdt", seed=1)
        assert not model_cfg.uses_vdt
        result = train(corpus, micro_train_cfg(model=model_cfg, epochs=1))
        assert result.model.encoder.view_token is None and result.model.heads.view is None
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

    @pytest.mark.parametrize("flag", ["--embed-dim=0", "--embed-dim=-4", "--depth=-1"])
    def test_non_positive_width_or_depth_is_usage(self, tmp_path, capsys, flag):
        rc = cli.main(["train", "--manifest", _tiny_manifest(tmp_path), "--out", str(tmp_path / "out"),
                       "--epochs", "1", flag])
        assert rc == cli.EXIT_USAGE
        assert "embed_dim and depth must be >= 1" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_patch_smaller_than_stride_is_usage(self, tmp_path, capsys):
        rc = cli.main(["train", "--manifest", _tiny_manifest(tmp_path), "--out", str(tmp_path / "out"),
                       "--epochs", "1", "--patch", "8"])
        assert rc == cli.EXIT_USAGE
        assert "patch 8 is smaller than its stride 16" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["gen-data", "train", "grad-check"])
    def test_negative_seed_is_usage(self, tmp_path, capsys, command):
        required = {"gen-data": ["--out", str(tmp_path / "c")], "grad-check": [],
                    "train": ["--manifest", _tiny_manifest(tmp_path), "--out", str(tmp_path / "out")]}
        assert cli.main([command, "--seed=-1"] + required[command]) == cli.EXIT_USAGE
        assert "seed must be >= 0, got -1" in capsys.readouterr().err
        assert not (tmp_path / "c").exists() and not (tmp_path / "out").exists()

    def test_width_too_large_to_allocate_is_usage(self, tmp_path, capsys):
        # 2**40 asks 6 PiB for the first weight, which fails before anything is allocated
        rc = cli.main(["train", "--manifest", _tiny_manifest(tmp_path), "--out", str(tmp_path / "out"),
                       "--epochs", "1", "--p", "2", "--k", "1", f"--embed-dim={2**40}"])
        assert rc == cli.EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("secap: configuration error: out of memory: ") and err.count("\n") == 1
        assert not (tmp_path / "out").exists()  # a failed build leaves no checkpoint directory

    def test_one_identity_per_batch_is_usage_before_any_step(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli, "train", lambda *a, **kw: pytest.fail("train() started"))
        rc = cli.main(["train", "--manifest", _tiny_manifest(tmp_path), "--out", str(tmp_path / "out"),
                       "--epochs", "1", "--p", "1", "--k", "2"])
        assert rc == cli.EXIT_USAGE
        assert "need P >= 2 and K >= 1, got P=1 K=2" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


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


def with_pre_derivation_encoder_keys(meta: dict, vdt_enabled: bool) -> dict:
    """Checkpoint metadata as written while the encoder section also held
    `stride` and `vdt_enabled`, in that release's key order."""
    enc = meta["encoder"]
    old = {key: enc[key] for key in ("image_h", "image_w", "patch")}
    old["stride"] = 12 if enc["olp_enabled"] else 16
    old.update({key: enc[key] for key in ("embed_dim", "depth", "heads", "ffn_mult", "olp_enabled")})
    old["vdt_enabled"] = vdt_enabled
    return {**meta, "encoder": old}


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

    def test_checkpoint_with_pre_derivation_encoder_keys_evaluates_the_same(self, cli_pipeline, tmp_path, capsys):
        model, _ = model_from_checkpoint(cli_pipeline["checkpoint"])
        meta, _ = load_checkpoint(cli_pipeline["checkpoint"])
        old = str(tmp_path / "old.ckpt")
        save_checkpoint(old, model.parameters(), with_pre_derivation_encoder_keys(meta, vdt_enabled=True))
        reports = []
        for ckpt in (cli_pipeline["checkpoint"], old):
            assert cli.main(["eval", "--checkpoint", ckpt, "--manifest", cli_pipeline["manifest"],
                             "--protocol", "all", "--queries-per-view", "1"]) == cli.EXIT_OK
            reports.append(capsys.readouterr().out)
        assert reports[0] == reports[1] and reports[0].count("\n") == 3

    def test_eval_a2g_selects_queries_on_the_aerial_side_only(self, cli_pipeline, capsys, monkeypatch):
        argv = ["eval", "--checkpoint", cli_pipeline["checkpoint"], "--manifest", cli_pipeline["manifest"],
                "--protocol", "a2g", "--queries-per-view", "1"]
        # the report as it was when every run selected queries on both sides
        model, _ = model_from_checkpoint(cli_pipeline["checkpoint"])
        _, mtest = split_identities(read_manifest(cli_pipeline["manifest"]), 0.25, 3)
        split = build_protocol(mtest, "a2g", queries=select_queries(mtest, per_view=1))
        qfs, gfs = extract_features(model, mtest, split.query), extract_features(model, mtest, split.gallery)
        both_sides = cmc_map(distance_matrix(qfs, gfs), qfs, gfs, protocol="a2g").to_json_line() + "\n"
        capsys.readouterr()

        pool_sides, hog_calls = [], []
        real_load, real_hog = secap.data.load_images, secap.data.hog_descriptor

        def loading(manifest, records):
            pool_sides.append({DEFAULT_VIEW_MAP[r.view] for r in records})
            return real_load(manifest, records)

        def hog(images):
            hog_calls.append(len(images))
            return real_hog(images)

        monkeypatch.setattr(secap.data, "load_images", loading)  # only query pools load through it
        monkeypatch.setattr(secap.data, "hog_descriptor", hog)
        assert cli.main(argv) == cli.EXIT_OK
        assert capsys.readouterr().out == both_sides and both_sides.count("\n") == 1
        aerial_pools = sum(any(DEFAULT_VIEW_MAP[r.view] == 0 for r in recs) for recs in mtest.by_identity().values())
        assert pool_sides == [{0}] * aerial_pools and len(hog_calls) == aerial_pools

    def test_eval_all_encodes_each_image_once(self, cli_pipeline, capsys, monkeypatch):
        argv = ["eval", "--checkpoint", cli_pipeline["checkpoint"], "--manifest", cli_pipeline["manifest"],
                "--protocol", "all", "--queries-per-view", "1"]
        # the per-protocol recipe: one extraction each for the query and the gallery
        model, _ = model_from_checkpoint(cli_pipeline["checkpoint"])
        meta, _ = load_checkpoint(cli_pipeline["checkpoint"])
        _, mtest = split_identities(read_manifest(cli_pipeline["manifest"]), 0.25, 3)
        queries = select_queries(mtest, per_view=1)
        expected, needed = [], set()
        for name in PROTOCOLS:
            split = build_protocol(mtest, name, queries=queries)
            qfs = extract_features(model, mtest, split.query)
            gfs = extract_features(model, mtest, split.gallery)
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
        # a last chunk of 1 to 3 images is padded to MIN_CHUNK_ROWS with repeats
        tail = len(needed) % FEATURE_CHUNK
        assert sum(rows) == len(needed) + (MIN_CHUNK_ROWS - tail if 0 < tail < MIN_CHUNK_ROWS else 0)

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

    @pytest.mark.parametrize("command, flag", [("eval", "--queries-per-view")], ids=["eval-queries-per-view"])
    def test_zero_count_flag_is_usage(self, cli_pipeline, capsys, command, flag):
        argv = [command, "--checkpoint", cli_pipeline["checkpoint"],
                "--manifest", cli_pipeline["manifest"], flag, "0"]
        assert cli.main(argv) == cli.EXIT_USAGE
        assert "configuration error" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["eval", "export-features"])
    def test_batch_size_flag_is_unknown(self, cli_pipeline, capsys, command):
        argv = [command, "--checkpoint", cli_pipeline["checkpoint"], "--manifest", cli_pipeline["manifest"],
                "--batch-size", "8"]
        if command == "export-features":
            argv += ["--out", str(cli_pipeline["root"] / "unused")]
        assert cli.main(argv) == cli.EXIT_USAGE
        assert "unrecognized arguments: --batch-size 8" in capsys.readouterr().err
        assert not os.path.exists(str(cli_pipeline["root"] / "unused.rten"))


@pytest.fixture(scope="module")
def micro_checkpoint(tmp_path_factory):
    """A loadable untrained checkpoint, for tests whose failure lies elsewhere."""
    model = SeCapModel(ModelConfig(encoder=EncoderConfig(**MICRO_ENC), prompt_len=4, num_ids=2, seed=1))
    path = tmp_path_factory.mktemp("micro-ckpt") / "micro.ckpt"
    save_checkpoint(str(path), model.parameters(), checkpoint_metadata(model, TrainConfig(model=model.cfg), 0, [0, 1]))
    return str(path)


@pytest.fixture(scope="module")
def uneven_corpus(tmp_path_factory):
    """Identity 0 without ground images and identity 1 with one ground image
    and no aerial one, so a2g drops a query of identity 0, and g2a and g2ag
    one of identity 1; three distractors."""
    out = tmp_path_factory.mktemp("uneven-corpus")
    cfg = SynthConfig(num_ids=5, images_per_id_per_view=3, image_h=16, image_w=16, seed=4, num_distractors=3)
    manifest, _ = generate_synthetic(cfg, out)
    kept = [r for r in manifest.records
            if not (r.identity == 0 and r.view != 0) and not (r.identity == 1 and (r.view == 0 or r.frame > 0))]
    write_manifest(manifest.subset(kept), str(out / "manifest.tsv"))
    return str(out / "manifest.tsv")


def count_reads_and_inferences(monkeypatch):
    """Record the path of every storage.load_image call, in every secap
    namespace that bound it, and of every image handed to inference."""
    reads, inferred = [], []
    real_load, real_add = secap.storage.load_image, FeatureExtractor.add

    def loading(path):
        reads.append(path)
        return real_load(path)

    def adding(self, record, image):
        inferred.append(self.manifest.resolve(record))
        return real_add(self, record, image)

    for name, module in list(sys.modules.items()):
        if name.startswith("secap") and getattr(module, "load_image", None) is real_load:
            monkeypatch.setattr(module, "load_image", loading)
    monkeypatch.setattr(FeatureExtractor, "add", adding)
    return reads, inferred


@pytest.mark.filterwarnings("ignore:.*(no image on side|dropping):UserWarning")
@pytest.mark.parametrize("protocol", ["a2g", "g2a", "g2ag", "all"])
def test_eval_reads_each_image_once_and_infers_what_is_scored(uneven_corpus, micro_checkpoint, monkeypatch,
                                                              capsys, protocol):
    manifest = read_manifest(uneven_corpus)
    names = list(PROTOCOLS) if protocol == "all" else [protocol]
    query_sides = {PROTOCOL_SIDES[name][0] for name in names}
    # the earlier recipe: choose the queries, then extract every image a split holds
    queries = select_queries(manifest, 1, query_sides)
    splits = [build_protocol(manifest, name, queries=queries) for name in names]
    needed = sorted({r for s in splits for r in s.query + s.gallery}, key=lambda r: r.path)
    model, _ = model_from_checkpoint(micro_checkpoint)
    features = extract_features(model, manifest, needed)
    expected = ""
    for split in splits:
        qfs, gfs = features.select(split.query), features.select(split.gallery)
        expected += cmc_map(distance_matrix(qfs, gfs), qfs, gfs, protocol=split.name).to_json_line() + "\n"
    if protocol != "all":  # the corpus makes build_protocol drop a chosen query
        assert not set(queries) <= set(needed)

    reads, inferred = count_reads_and_inferences(monkeypatch)
    capsys.readouterr()
    assert cli.main(["eval", "--checkpoint", micro_checkpoint, "--manifest", uneven_corpus,
                     "--protocol", protocol, "--queries-per-view", "1"]) == cli.EXIT_OK
    assert capsys.readouterr().out == expected
    # each query pool and each other scored image is read once, and only scored images are inferred
    pools = {r for r in manifest.records if r.identity >= 0 and DEFAULT_VIEW_MAP[r.view] in query_sides}
    assert sorted(reads) == sorted(manifest.resolve(r) for r in pools.union(needed))
    assert sorted(inferred) == sorted(manifest.resolve(r) for r in needed)


@pytest.mark.parametrize("command", ["eval", "export-features"])
def test_image_size_other_than_the_checkpoints_is_io_and_names_the_image(micro_checkpoint, tmp_path, capsys,
                                                                         command):
    # every image of identity 2 at 24x16, a shape the model was not built for
    cfg = SynthConfig(num_ids=4, images_per_id_per_view=2, image_h=16, image_w=16, seed=9)
    manifest, _ = generate_synthetic(cfg, tmp_path)
    odd = [manifest.resolve(r) for r in manifest.records if r.identity == 2]
    for path in odd:
        save_rten(path, np.zeros((3, 24, 16), dtype=np.float32))
    argv = [command, "--checkpoint", micro_checkpoint, "--manifest", str(tmp_path / "manifest.tsv")]
    if command == "export-features":
        argv += ["--out", str(tmp_path / "feats")]
    assert cli.main(argv) == cli.EXIT_IO
    err = capsys.readouterr().err
    assert odd[0] in err and "image shape (3, 24, 16) does not match the model's (3, 16, 16)" in err


def test_no_vdt_checkpoint_with_pre_derivation_keys_rebuilds_without_view_token(tmp_path):
    model = SeCapModel(ModelConfig(encoder=EncoderConfig(**MICRO_ENC), prompt_len=4, num_ids=2,
                                   ablate="no-vdt", seed=1))
    meta = with_pre_derivation_encoder_keys(checkpoint_metadata(model, TrainConfig(model=model.cfg), 0, [0, 1]),
                                            vdt_enabled=False)
    path = str(tmp_path / "old-no-vdt.ckpt")
    save_checkpoint(path, model.parameters(), meta)
    loaded, _ = model_from_checkpoint(path)
    assert loaded.encoder.view_token is None and loaded.cfg.ablate == "no-vdt"
    assert [p.name for p in loaded.parameters()] == [p.name for p in model.parameters()]
    assert all(a.data.tobytes() == b.data.tobytes() for a, b in zip(loaded.parameters(), model.parameters()))


GOLDEN_ATTN = os.path.join(os.path.dirname(__file__), "data", "attn-49a72f6")


class TestOlderAttnCheckpoint:
    """A PRM `attn` checkpoint written by commit 49a72f6, whose table still holds
    the six query and key projections the route no longer keeps, with its corpus
    and its `eval --protocol all` report (see tests/data/README.md)."""

    CKPT = os.path.join(GOLDEN_ATTN, "attn.ckpt")
    MANIFEST = os.path.join(GOLDEN_ATTN, "corpus", "manifest.tsv")

    def eval_argv(self, ckpt):
        return ["eval", "--checkpoint", ckpt, "--manifest", self.MANIFEST,
                "--protocol", "all", "--queries-per-view", "1"]

    def test_evaluates_to_its_committed_report(self, capsys):
        capsys.readouterr()
        assert cli.main(self.eval_argv(self.CKPT)) == cli.EXIT_OK
        with open(os.path.join(GOLDEN_ATTN, "report.jsonl"), encoding="utf-8") as fh:
            assert capsys.readouterr().out == fh.read()

    def test_loads_the_stored_table_minus_the_dropped_projections(self):
        _, table = load_checkpoint(self.CKPT)
        kept = {name: arr for name, arr in table.items() if name not in ATTN_DROPPED_PARAMETERS}
        assert len(table) - len(kept) == len(ATTN_DROPPED_PARAMETERS)
        model, _ = model_from_checkpoint(self.CKPT)
        assert [p.name for p in model.parameters()] == list(kept)
        assert all(p.data.tobytes() == kept[p.name].tobytes() for p in model.parameters())

    def test_copy_missing_a_kept_projection_is_io(self, tmp_path, capsys):
        meta, table = load_checkpoint(self.CKPT)
        bad = str(tmp_path / "bad.ckpt")
        save_checkpoint(bad, [Parameter(n, a) for n, a in table.items() if n != "prm.ca.wv.weight"], meta)
        assert cli.main(self.eval_argv(bad)) == cli.EXIT_IO
        assert "missing ['prm.ca.wv.weight'], unexpected none" in capsys.readouterr().err

    def test_truncated_copy_is_io(self, tmp_path, capsys):
        bad = tmp_path / "truncated.ckpt"
        with open(self.CKPT, "rb") as fh:
            bad.write_bytes(fh.read()[:-1])
        assert cli.main(self.eval_argv(str(bad))) == cli.EXIT_IO
        assert "truncated" in capsys.readouterr().err

    def test_manifest_too_small_to_split_is_io(self, tmp_path, capsys):
        # the checkpoint holds out a quarter of the identities; a header-only manifest has none to split
        manifest = tmp_path / "m.tsv"
        manifest.write_text("#secap-manifest v1\n")
        assert cli.main(["eval", "--checkpoint", self.CKPT, "--manifest", str(manifest)]) == cli.EXIT_IO
        err = capsys.readouterr().err
        assert "need at least 2 identities to split, manifest has 0" in err and "configuration error" not in err


GOLDEN_VARIANTS = os.path.join(os.path.dirname(__file__), "data", "variants-7526371")


@pytest.mark.parametrize("name", ["add", "cat", "no-prm", "no-vdt", "no-lfrm", "baseline"])
class TestGoldenVariantCheckpoints:
    """Checkpoints of the other PRM variants and the four ablations, written by
    commit 7526371 on the `attn-49a72f6` corpus, with their `eval --protocol all`
    reports (see tests/data/README.md)."""

    @staticmethod
    def eval_argv(ckpt):
        return ["eval", "--checkpoint", ckpt, "--manifest", TestOlderAttnCheckpoint.MANIFEST,
                "--protocol", "all", "--queries-per-view", "1"]

    def test_evaluates_to_its_committed_report(self, capsys, name):
        capsys.readouterr()
        assert cli.main(self.eval_argv(os.path.join(GOLDEN_VARIANTS, f"{name}.ckpt"))) == cli.EXIT_OK
        with open(os.path.join(GOLDEN_VARIANTS, f"{name}.report.jsonl"), encoding="utf-8") as fh:
            assert capsys.readouterr().out == fh.read()

    def test_truncated_copy_is_io(self, tmp_path, capsys, name):
        bad = tmp_path / "truncated.ckpt"
        with open(os.path.join(GOLDEN_VARIANTS, f"{name}.ckpt"), "rb") as fh:
            bad.write_bytes(fh.read()[:-1])
        assert cli.main(self.eval_argv(str(bad))) == cli.EXIT_IO
        assert "truncated" in capsys.readouterr().err


GOLDEN_ADD_9602BAC = os.path.join(os.path.dirname(__file__), "data", "add-9602bac")


class TestGoldenAddCheckpointWithEncoderKeys:
    """A PRM `add` checkpoint written by commit 9602bac, whose encoder metadata
    still holds the `stride` and `vdt_enabled` keys that are now derived, with
    its `eval --protocol all` report (see tests/data/README.md)."""

    CKPT = os.path.join(GOLDEN_ADD_9602BAC, "add.ckpt")

    def test_metadata_holds_the_derived_keys(self):
        meta, _ = load_checkpoint(self.CKPT)
        assert meta["encoder"]["stride"] == 16 and meta["encoder"]["vdt_enabled"] is True

    def test_evaluates_to_its_committed_report(self, capsys):
        capsys.readouterr()
        assert cli.main(TestGoldenVariantCheckpoints.eval_argv(self.CKPT)) == cli.EXIT_OK
        with open(os.path.join(GOLDEN_ADD_9602BAC, "report.jsonl"), encoding="utf-8") as fh:
            assert capsys.readouterr().out == fh.read()

    def test_truncated_copy_is_io(self, tmp_path, capsys):
        bad = tmp_path / "truncated.ckpt"
        with open(self.CKPT, "rb") as fh:
            bad.write_bytes(fh.read()[:-1])
        assert cli.main(TestGoldenVariantCheckpoints.eval_argv(str(bad))) == cli.EXIT_IO
        assert "truncated" in capsys.readouterr().err


METADATA_FIELDS = [("encoder", f.name) for f in dataclasses.fields(EncoderConfig)] + [
    ("model", f.name) for f in dataclasses.fields(ModelConfig) if f.name != "encoder"] + [
    ("train", key) for key in CHECKPOINT_TRAIN_KEYS] + [("weights", key) for key in ("alpha", "beta", "lambda")]
METADATA_VALUES = [None, "x", 0.5, True, [2], {"a": 2}, 0, -1, 10**12]


@pytest.fixture(scope="module")
def attn_and_baseline_checkpoints():
    """Parameters and metadata of a micro `attn` model and a micro baseline."""
    saved = {}
    for ablate in ("none", "baseline"):
        model = SeCapModel(ModelConfig(encoder=EncoderConfig(**MICRO_ENC), prompt_len=4, num_ids=2,
                                       ablate=ablate, seed=1))
        saved[ablate] = model.parameters(), checkpoint_metadata(model, TrainConfig(model=model.cfg), 0, [0, 1])
    return saved


@settings(max_examples=600, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(ablate=st.sampled_from(["none", "baseline"]), field=st.sampled_from(METADATA_FIELDS),
       value=st.sampled_from(METADATA_VALUES))
def test_metadata_field_values_load_or_are_refused(attn_and_baseline_checkpoints, tmp_path, monkeypatch,
                                                   ablate, field, value):
    params, meta = attn_and_baseline_checkpoints[ablate]
    section, key = field
    ckpt = tmp_path / "value.ckpt"
    save_checkpoint(str(ckpt), params, {**meta, section: {**meta[section], key: value}})
    # a parameter larger than any the table holds fails the test instead of allocating
    largest = max(p.data.size for p in params)

    def bounded_draw(rng, shape, **kwargs):
        if math.prod(shape) > largest:
            pytest.fail(f"{key}={value!r} draws a {shape} parameter")
        return trunc_normal(rng, shape, **kwargs)

    for module in (secap.nn, secap.encoder, secap.model, secap.lfrm):
        monkeypatch.setattr(module, "trunc_normal", bounded_draw)
    try:
        model_from_checkpoint(str(ckpt))
    except CheckpointError:
        pass


def test_add_checkpoint_without_a_query_projection_is_io(tmp_path, capsys):
    """`add` and `cat` use their sa.wq and sa.wk, so their checkpoints match strictly."""
    model = SeCapModel(ModelConfig(encoder=EncoderConfig(**MICRO_ENC), prompt_len=4, num_ids=2,
                                   prm_variant="add", seed=1))
    ckpt = str(tmp_path / "add.ckpt")
    save_checkpoint(ckpt, [p for p in model.parameters() if p.name != "prm.sa.wq.weight"],
                    checkpoint_metadata(model, TrainConfig(model=model.cfg), 0, [0, 1]))
    manifest = tmp_path / "m.tsv"
    manifest.write_text("#secap-manifest v1\n")
    assert cli.main(["eval", "--checkpoint", ckpt, "--manifest", str(manifest)]) == cli.EXIT_IO
    assert "missing ['prm.sa.wq.weight'], unexpected none" in capsys.readouterr().err


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

    # a value no int64 holds, and a field beyond int()'s 4,300-digit limit
    BEYOND_INT64 = b"#secap-manifest v1\na.rten\t0\t%d\t0\t0\n" % 2 ** 70
    FIVE_THOUSAND_DIGITS = b"#secap-manifest v1\na.rten\t0\t0\t0\t" + b"7" * 5000 + b"\n"

    @pytest.mark.parametrize("manifest_bytes", [
        b"#secap-manifest v1\na.rten\tx\t0\t0\t0\n",
        b"#secap-manifest v1\n\xff\xfe.rten\t0\t0\t0\t0\n",
        BEYOND_INT64,
        FIVE_THOUSAND_DIGITS,
    ], ids=["non-integer-field", "not-utf8", "camera-2**70", "5000-digit-frame"])
    def test_malformed_manifest_is_io(self, micro_checkpoint, tmp_path, capsys, manifest_bytes):
        manifest = tmp_path / "m.tsv"
        manifest.write_bytes(manifest_bytes)
        rc = cli.main(["eval", "--checkpoint", micro_checkpoint, "--manifest", str(manifest)])
        assert rc == cli.EXIT_IO
        assert "byte offset" in capsys.readouterr().err

    def test_manifest_field_beyond_int64_fails_train(self, tmp_path, capsys):
        manifest = tmp_path / "m.tsv"
        manifest.write_bytes(self.BEYOND_INT64)
        rc = cli.main(["train", "--manifest", str(manifest), "--out", str(tmp_path / "out"),
                       "--epochs", "1"] + MICRO_FLAGS)
        assert rc == cli.EXIT_IO
        assert "byte offset 28" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("metadata", [b"{not json", b'{"format": "secap-checkpoint"}',
                                          b'{"seed": ' + b"9" * 5000 + b"}", b"[" * 100_000],
                             ids=["metadata-not-json", "metadata-without-encoder", "5000-digit-integer",
                                  "nested-100000-deep"])
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
        meta = {**checkpoint_metadata(model, TrainConfig(model=model.cfg), 0, [0, 1]), "train": 5}
        ckpt = tmp_path / "bad-train.ckpt"
        save_checkpoint(str(ckpt), model.parameters(), meta)
        manifest = tmp_path / "m.tsv"
        manifest.write_text("#secap-manifest v1\n")
        rc = cli.main(["eval", "--checkpoint", str(ckpt), "--manifest", str(manifest)])
        assert rc == cli.EXIT_IO
        err = capsys.readouterr().err
        assert "'train'" in err and "byte offset" in err

    @pytest.mark.parametrize("section, key, value, message", [
        ("train", "seed", None, "KeyError 'seed'"),
        ("train", "holdout", "x", "holdout must be of type float, got 'x'"),
        ("train", "seed", True, "seed must be of type int, got True"),
        ("train", "p", 2.5, "p must be of type int, got 2.5"),
        ("weights", "lambda", -1, "loss weights must be finite and non-negative"),
        ("train", "epochs", None, "KeyError 'epochs'"),
        ("weights", "alpha", True, "alpha must be of type float, got True"),
        ("train", "lr_max", True, "lr_max must be of type float, got True"),
        ("train", "momentum", "x", "momentum must be of type float, got 'x'"),
    ], ids=["holdout-without-seed", "non-numeric-holdout", "bool-seed", "float-p", "negative-lambda",
            "missing-epochs", "bool-alpha", "bool-lr-max", "string-momentum"])
    def test_malformed_train_metadata_is_io(self, tmp_path, capsys, section, key, value, message):
        # a held-out run, so eval would split by the seed: `true` once scored the split of seed "True"
        meta, table = load_checkpoint(os.path.join(GOLDEN_VARIANTS, "add.ckpt"))
        assert meta["train"]["holdout"] == 0.25
        changed = {k: v for k, v in meta[section].items() if k != key}
        if value is not None:  # None leaves the key out
            changed[key] = value
        ckpt = str(tmp_path / "bad-train.ckpt")
        save_checkpoint(ckpt, [Parameter(n, a) for n, a in table.items()], {**meta, section: changed})
        assert cli.main(TestGoldenVariantCheckpoints.eval_argv(ckpt)) == cli.EXIT_IO
        err = capsys.readouterr().err
        assert f"malformed metadata (byte offset {CKPT_METADATA_OFFSET}): " in err and message in err

    @pytest.mark.parametrize("name, value", [
        ("encoder.proj.weight", np.nan), ("heads.view.weight", np.nan), ("heads.id_global.weight", np.inf),
    ], ids=["nan-projection", "nan-view-head", "inf-identity-head"])
    def test_non_finite_parameter_is_io(self, tmp_path, capsys, name, value):
        meta, table = load_checkpoint(os.path.join(GOLDEN_VARIANTS, "add.ckpt"))
        table[name].flat[3] = value
        ckpt = str(tmp_path / "non-finite.ckpt")
        save_checkpoint(ckpt, [Parameter(n, a) for n, a in table.items()], meta)
        assert cli.main(TestGoldenVariantCheckpoints.eval_argv(ckpt)) == cli.EXIT_IO
        captured = capsys.readouterr()
        assert f"parameter {name!r}: 1 non-finite values" in captured.err and captured.out == ""

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
        ("encoder", "depth", 0), ("encoder", "embed_dim", 0), ("model", "prm_variant", "mean"),
        ("encoder", "patch", 8), ("encoder", "embed_dim", 2**40), ("model", "seed", -1),
        ("encoder", "heads", 2.0), ("encoder", "olp_enabled", "yes"), ("encoder", "depth", True),
        ("encoder", "olp_enabled", 0), ("model", "prompt_len", 4.0),
    ], ids=["string-depth", "float-width", "negative-width", "zero-depth", "zero-width", "unknown-variant",
            "patch-below-stride", "unallocatable-width", "negative-seed", "float-heads", "string-flag",
            "bool-depth", "int-flag", "float-prompt-len"])
    def test_malformed_geometry_metadata_is_io(self, tmp_path, capsys, section, key, value):
        model = SeCapModel(ModelConfig(encoder=EncoderConfig(**MICRO_ENC), prompt_len=4, num_ids=2, seed=1))
        meta = checkpoint_metadata(model, TrainConfig(model=model.cfg), 0, [0, 1])
        meta[section] = {**meta[section], key: value}
        ckpt = tmp_path / "bad-geometry.ckpt"
        save_checkpoint(str(ckpt), model.parameters(), meta)
        manifest = tmp_path / "m.tsv"
        manifest.write_text("#secap-manifest v1\n")
        rc = cli.main(["eval", "--checkpoint", str(ckpt), "--manifest", str(manifest)])
        assert rc == cli.EXIT_IO
        assert f"malformed metadata (byte offset {CKPT_METADATA_OFFSET})" in capsys.readouterr().err

    @pytest.mark.parametrize("ablate", ABLATIONS)
    def test_unknown_variant_is_io_under_every_ablation(self, tmp_path, capsys, ablate):
        # the variant is refused even where the ablation builds no PRM to use it
        model = SeCapModel(ModelConfig(encoder=EncoderConfig(**MICRO_ENC), prompt_len=4, num_ids=2,
                                       ablate=ablate, seed=1))
        meta = checkpoint_metadata(model, TrainConfig(model=model.cfg), 0, [0, 1])
        meta["model"] = {**meta["model"], "prm_variant": "mean"}
        ckpt = tmp_path / "mean.ckpt"
        save_checkpoint(str(ckpt), model.parameters(), meta)
        manifest = tmp_path / "m.tsv"
        manifest.write_text("#secap-manifest v1\n")
        rc = cli.main(["eval", "--checkpoint", str(ckpt), "--manifest", str(manifest)])
        assert rc == cli.EXIT_IO
        err = capsys.readouterr().err
        assert f"malformed metadata (byte offset {CKPT_METADATA_OFFSET})" in err and "'mean'" in err

    @pytest.mark.parametrize("depth, last_block_only", [(10**7, False), (2, False), (10**7, True)],
                             ids=["depth-10**7", "depth-one-beyond-the-table", "depth-10**7-last-block-only"])
    def test_depth_beyond_the_table_is_io_before_any_block_is_built(self, tmp_path, capsys, monkeypatch, depth,
                                                                       last_block_only):
        model = SeCapModel(ModelConfig(encoder=EncoderConfig(**MICRO_ENC), prompt_len=4, num_ids=2, seed=1))
        meta = checkpoint_metadata(model, TrainConfig(model=model.cfg), 0, [0, 1])
        meta["encoder"] = {**meta["encoder"], "depth": depth}
        params = model.parameters()
        if last_block_only:  # the table's one block is named as the last of `depth`, so every shape matches
            params = [Parameter(p.name.replace("encoder.blocks.0.", f"encoder.blocks.{depth - 1}."), p.data)
                      for p in params]
        ckpt = tmp_path / "deep.ckpt"
        save_checkpoint(str(ckpt), params, meta)
        manifest = tmp_path / "m.tsv"
        manifest.write_text("#secap-manifest v1\n")
        monkeypatch.setattr(secap.encoder, "EncoderBlock", lambda *args: pytest.fail("an encoder block was built"))
        rc = cli.main(["eval", "--checkpoint", str(ckpt), "--manifest", str(manifest)])
        assert rc == cli.EXIT_IO
        err = capsys.readouterr().err
        assert f"encoder depth {depth} but 1 encoder blocks in the table" in err and "byte offset" in err

    def test_depth_below_the_table_is_io_before_any_block_is_built(self, tmp_path, capsys, monkeypatch):
        model = SeCapModel(ModelConfig(encoder=EncoderConfig(**{**MICRO_ENC, "depth": 2}), prompt_len=4, num_ids=2,
                                       seed=1))
        meta = checkpoint_metadata(model, TrainConfig(model=model.cfg), 0, [0, 1])
        meta["encoder"] = {**meta["encoder"], "depth": 1}
        ckpt = tmp_path / "shallow.ckpt"
        save_checkpoint(str(ckpt), model.parameters(), meta)
        manifest = tmp_path / "m.tsv"
        manifest.write_text("#secap-manifest v1\n")
        monkeypatch.setattr(secap.encoder, "EncoderBlock", lambda *args: pytest.fail("an encoder block was built"))
        rc = cli.main(["eval", "--checkpoint", str(ckpt), "--manifest", str(manifest)])
        assert rc == cli.EXIT_IO
        assert "encoder depth 1 but 2 encoder blocks in the table" in capsys.readouterr().err

    # a geometry the table does not hold is refused before SeCapModel is called:
    # ffn_mult 10**6 alone allocates five 1 GB FFN weights
    @pytest.mark.parametrize("section, key, value, entry", [
        ("encoder", "ffn_mult", 10**6, "encoder.blocks.0.ffn.fc1.weight"),
        ("encoder", "ffn_mult", 3, "encoder.blocks.0.ffn.fc1.weight"),
        ("encoder", "embed_dim", 2**20, "encoder.proj.weight"),
        ("encoder", "image_h", 10**6, "encoder.pos"),
        ("model", "ablate", "no-vdt", "encoder.pos"),
        ("model", "prompt_len", 10**8, "prm.prompts"),
        ("model", "num_ids", 10**8, "heads.id_global.weight"),
        ("model", "num_views", 10**8, "heads.view.weight"),
    ], ids=["ffn-mult-10**6", "ffn-mult-3", "width-2**20", "height-10**6", "no-vdt", "prompt-len-10**8",
            "num-ids-10**8", "num-views-10**8"])
    def test_geometry_beyond_the_table_is_io_before_any_layer_is_built(
            self, tmp_path, capsys, monkeypatch, section, key, value, entry):
        model = SeCapModel(ModelConfig(encoder=EncoderConfig(**MICRO_ENC), prompt_len=4, num_ids=2, seed=1))
        meta = checkpoint_metadata(model, TrainConfig(model=model.cfg), 0, [0, 1])
        meta[section] = {**meta[section], key: value}
        ckpt = tmp_path / "wide.ckpt"
        save_checkpoint(str(ckpt), model.parameters(), meta)
        manifest = tmp_path / "m.tsv"
        manifest.write_text("#secap-manifest v1\n")
        # the package's `train` attribute is the function, so reach the module by name
        monkeypatch.setattr(importlib.import_module("secap.train"), "SeCapModel",
                            lambda *args: pytest.fail("a model was built"))
        rc = cli.main(["eval", "--checkpoint", str(ckpt), "--manifest", str(manifest)])
        assert rc == cli.EXIT_IO
        err = capsys.readouterr().err
        assert f"gives {entry} shape" in err and "byte offset" in err

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

    def test_unholdable_image_shape_in_training_is_io(self, tmp_path, capsys):
        cfg = SynthConfig(num_ids=4, images_per_id_per_view=2, image_h=16, image_w=16, seed=9)
        manifest, _ = generate_synthetic(cfg, tmp_path)
        odd = manifest.resolve(manifest.records[1])
        with open(odd, "wb") as fh:  # an empty payload beside a dim numpy cannot hold
            fh.write(b"RTEN\x01" + struct.pack("<BB2Q", 0, 2, 0, 2**62))
        rc = cli.main(["train", "--manifest", os.path.join(str(tmp_path), "manifest.tsv"),
                       "--out", str(tmp_path / "out"), "--epochs", "1",
                       "--p", "4", "--k", "4", "--patch", "16"] + MICRO_FLAGS)
        assert rc == cli.EXIT_IO
        err = capsys.readouterr().err
        assert odd in err and "does not fit" in err and "(byte offset 5)" in err

    def test_unholdable_parameter_shape_is_io(self, micro_checkpoint, tmp_path, capsys):
        raw = open(micro_checkpoint, "rb").read()
        end = raw.index(b"encoder.proj.weight") + len(b"encoder.proj.weight")
        ckpt = tmp_path / "bad-shape.ckpt"
        ckpt.write_bytes(raw[:end] + struct.pack("<BB2Q", 0, 2, 0, 2**62))
        manifest = tmp_path / "m.tsv"
        manifest.write_text("#secap-manifest v1\n")
        rc = cli.main(["eval", "--checkpoint", str(ckpt), "--manifest", str(manifest)])
        assert rc == cli.EXIT_IO
        err = capsys.readouterr().err
        assert "does not fit" in err and f"(byte offset {end})" in err

    @pytest.mark.parametrize("shape", [(3, 0, 0), (3, 64, 0)])
    @pytest.mark.parametrize("command", ["eval", "train"])
    def test_empty_images_are_io(self, micro_checkpoint, tmp_path, capsys, command, shape):
        cfg = SynthConfig(num_ids=4, images_per_id_per_view=2, image_h=16, image_w=16, seed=9)
        manifest, _ = generate_synthetic(cfg, tmp_path)
        for record in manifest.records:
            save_rten(manifest.resolve(record), np.zeros(shape, dtype=np.float32))
        argv = [command, "--manifest", str(tmp_path / "manifest.tsv")]
        if command == "eval":
            argv += ["--checkpoint", micro_checkpoint]
        else:
            argv += ["--out", str(tmp_path / "out"), "--epochs", "1", "--p", "4", "--k", "2",
                     "--patch", "16"] + MICRO_FLAGS
        assert cli.main(argv) == cli.EXIT_IO
        err = capsys.readouterr().err
        assert f"empty image {shape[2]}x{shape[1]}" in err and "configuration error" not in err

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
        ["--warmup-steps", "-5"], ["--lr-min", "1e-2", "--lr-max", "1e-3"],
    ], ids=["lr-max-nan", "lr-max-inf", "negative-lr", "momentum-nan", "weight-decay-nan",
            "alpha-nan", "lambda-inf", "negative-warmup", "lr-min-above-lr-max"])
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
NON_CONFIG_DESTS = {"out", "manifest", "coords", "tol"}
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
    def test_every_dest_names_a_config_field(self, command, configs, tmp_path, monkeypatch, capsys):
        # cli._config drops a dest that names no field of the class it builds,
        # so a misspelt or orphaned flag would go unnoticed
        built = []
        real = cli._config
        monkeypatch.setattr(cli, "_config", lambda cls, args, **given: built.append(cls) or real(cls, args, **given))
        monkeypatch.setattr(cli, "generate_synthetic", lambda cfg, out: None)
        monkeypatch.setattr(cli, "train", lambda manifest, cfg, **kw: None)
        monkeypatch.setattr(cli, "check_parameter_gradients", lambda *a, **kw: (0.0, "none", None))
        required = {"gen-data": ["--out", str(tmp_path / "c")], "grad-check": [],
                    "train": ["--manifest", _tiny_manifest(tmp_path), "--out", str(tmp_path / "out")]}
        assert cli.main([command] + required[command]) == cli.EXIT_OK
        capsys.readouterr()
        assert sorted(cls.__name__ for cls in built) == sorted(cls.__name__ for cls in configs)
        fields = {f.name for cls in built for f in dataclasses.fields(cls)}
        for action in _subparser(command)._actions:
            if not isinstance(action, argparse._HelpAction):
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
        assert cfg.augment

    def test_train_flags_reach_their_fields(self, tmp_path, monkeypatch):
        argv = ["--manifest", _tiny_manifest(tmp_path), "--out", str(tmp_path / "out"),
                "--seed", "7", "--lambda", "0.01", "--olp", "--no-augment", "--prm-variant", "cat"]
        cfg = self.capture_train(monkeypatch, argv)
        assert cfg.seed == 7 and cfg.model.seed == 7
        assert cfg.weights == LossWeights(lam=0.01)
        assert cfg.model.prm_variant == "cat"
        assert cfg.model.encoder.olp_enabled and cfg.model.encoder.stride == 12
        assert not cfg.augment

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
