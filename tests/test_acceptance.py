"""Release gate: nine end-to-end checks spanning gradient correctness,
residual identities, metric-oracle agreement, loss values, the schedule,
training sanity, ablation trends, determinism, and feature decoupling.

Each test prints one verdict line straight to the terminal (bypassing
capture) so a full run always shows nine PASS/FAIL lines.
"""

import dataclasses
import math
import os
import subprocess
import sys
import time
from types import SimpleNamespace

import numpy as np
import pytest

from secap.data import (
    SynthConfig,
    build_protocol,
    generate_synthetic,
    select_queries,
    split_identities,
)
from secap.encoder import Encoder, EncoderConfig
from secap.errors import ProtocolError
from secap.evaluate import FeatureSet, cmc_map, distance_matrix, extract_features, oracle_cmc_map
from secap.gradcheck import check_parameter_gradients, randomize_for_gradcheck
from secap.lfrm import LFRM
from secap.losses import LossWeights, id_ce_loss, orthogonality_loss, soft_triplet_loss
from secap.model import ModelConfig, SeCapModel
from secap.nn import Linear, trunc_normal
from secap.optim import cosine_lr
from secap.prm import PRM
from secap.tensor import Parameter, Tensor
from secap.train import TrainConfig, held_out_orthogonality, train

TOY = dict(image_h=64, image_w=32, embed_dim=64, depth=2, heads=4)
PROMPT_LEN = 8


def announce(capsys, number, ok, detail):
    with capsys.disabled():
        print(f"criterion {number}: {'PASS' if ok else 'FAIL'} ({detail})")


@pytest.fixture(scope="module")
def experiments(tmp_path_factory):
    """Shared synthetic-corpus training runs, memoized per (ablation, seed)."""
    out = tmp_path_factory.mktemp("acceptance-corpus")
    t0 = time.monotonic()
    corpus, _ = generate_synthetic(
        SynthConfig(num_ids=64, images_per_id_per_view=8, num_views=2,
                    image_h=64, image_w=32, seed=1),
        out,
    )
    gen_seconds = time.monotonic() - t0
    cache = {}

    def run(ablate, seed):
        if (ablate, seed) in cache:
            return cache[(ablate, seed)]
        t1 = time.monotonic()
        model_cfg = ModelConfig(
            encoder=EncoderConfig(**TOY), prompt_len=PROMPT_LEN, ablate=ablate, seed=seed
        )
        tcfg = TrainConfig(model=model_cfg, epochs=30, p=16, k=4, seed=seed, holdout=0.5)
        mtrain, mtest = split_identities(corpus, 0.5, seed)
        result = train(mtrain, tcfg)
        queries = select_queries(mtest, per_view=2)
        splits = [build_protocol(mtest, proto, queries=queries) for proto in ("a2g", "g2a")]
        needed = sorted({r for s in splits for r in s.query + s.gallery}, key=lambda r: r.path)
        features = extract_features(result.model, mtest, needed, batch_size=64)
        rank1, maps = {}, {}
        for split in splits:
            qf, gf = features.select(split.query), features.select(split.gallery)
            report = cmc_map(distance_matrix(qf, gf), qf, gf, protocol=split.name)
            rank1[split.name], maps[split.name] = report.rank1, report.mAP
        entry = SimpleNamespace(
            model=result.model,
            init_cfg=dataclasses.replace(
                model_cfg, num_ids=len(mtrain.identities()), num_views=2
            ),
            mtest=mtest,
            rank1=rank1,
            cross_view_map=float(np.mean([maps["a2g"], maps["g2a"]])),
            num_test_ids=len(mtest.identities()),
            seconds=time.monotonic() - t1,
        )
        cache[(ablate, seed)] = entry
        return entry

    return SimpleNamespace(run=run, gen_seconds=gen_seconds)


def test_criterion_1_gradient_check_all_variants(capsys):
    t0 = time.monotonic()
    worst_overall, worst_where = 0.0, ""
    for variant in ("attn", "add", "cat"):
        for olp in (False, True):
            cfg = ModelConfig(
                encoder=EncoderConfig(**TOY, olp_enabled=olp),
                num_ids=2, num_views=2, prompt_len=PROMPT_LEN,
                prm_variant=variant, seed=0,
            )
            model = SeCapModel(cfg, dtype=np.float64)
            params = model.parameters()
            randomize_for_gradcheck(params, seed=0)
            rng = np.random.default_rng([0, 999])
            images = rng.uniform(0.0, 1.0, size=(4, 3, 64, 32))
            id_labels = np.array([0, 0, 1, 1])
            view_labels = np.array([0, 1, 0, 1])

            def loss_fn():
                total, _ = model.compute_losses(images, id_labels, view_labels, LossWeights())
                return total

            worst, name, _ = check_parameter_gradients(
                params, loss_fn, coords_per_param=2, seed=0
            )
            if worst > worst_overall:
                worst_overall, worst_where = worst, f"{variant} olp={olp} {name}"
    elapsed = time.monotonic() - t0
    ok = worst_overall < 1e-4 and elapsed < 300.0
    announce(capsys, 1, ok,
             f"max rel err {worst_overall:.3e} at {worst_where}, {elapsed:.0f}s for 6 configs")
    assert worst_overall < 1e-4
    assert elapsed < 300.0


def test_criterion_2_residual_identities(capsys):
    rng = np.random.default_rng(12)
    failures = []

    enc = Encoder(EncoderConfig(**TOY), rng)
    x = Tensor(rng.standard_normal((2, 10, 64)).astype(np.float32))
    for i, block in enumerate(enc.blocks):
        block.zero_output_projections()
        if block(x).data.tobytes() != x.data.tobytes():
            failures.append(f"encoder block {i}")

    for variant in ("attn", "add", "cat"):
        prompts = Parameter("prm.prompts", trunc_normal(np.random.default_rng(5), (PROMPT_LEN, 64)),
                            dtype=np.float32)
        prm = PRM(prompts, variant, 4, 2, rng, np.float32)
        prm.zero_output_projections()
        out = prm(Tensor(rng.standard_normal((3, 64)).astype(np.float32)))
        expected = np.ascontiguousarray(np.broadcast_to(prompts.data, (3, PROMPT_LEN, 64)))
        if out.data.tobytes() != expected.tobytes():
            failures.append(f"prm {variant}")

    lfrm = LFRM(64, 4, 2, rng)
    f_p = Tensor(rng.standard_normal((2, PROMPT_LEN, 64)).astype(np.float32))
    f_i = Tensor(rng.standard_normal((2, 8, 64)).astype(np.float32))
    for block in lfrm.blocks:
        block.zero_output_projections()
    cur_p, cur_i = f_p, f_i
    for block in lfrm.blocks:
        cur_p, cur_i = block(cur_p, cur_i)
    if cur_p.data.tobytes() != f_p.data.tobytes() or cur_i.data.tobytes() != f_i.data.tobytes():
        failures.append("two-way blocks")

    lfrm.fusion.zero_final_ffn()
    fused = lfrm.fusion(f_p, f_i)
    if not np.all(fused.data == 0.0):
        failures.append("fusion zero")

    announce(capsys, 2, not failures,
             "encoder/PRM/two-way identities and fusion zero all bit-exact"
             if not failures else f"broken: {failures}")
    assert not failures


def _random_retrieval_instance(rng):
    nq = int(rng.integers(1, 21))
    ng = int(rng.integers(2, 101))
    num_ids = int(rng.integers(1, 8))
    q_ids = rng.integers(0, num_ids, nq)
    g_ids = rng.integers(0, num_ids, ng)
    g_ids[rng.uniform(size=ng) < 0.15] = -1
    q_cams = rng.integers(0, 3, nq)
    g_cams = rng.integers(0, 3, ng)
    dist = np.round(rng.uniform(0.0, 2.0, size=(nq, ng)), 1)  # coarse grid forces ties
    paths = [f"im{j:04d}" for j in rng.permutation(ng)]
    q = FeatureSet(q_ids, q_cams, [0] * nq, [f"q{i}" for i in range(nq)],
                   rng.standard_normal((nq, 3)))
    g = FeatureSet(g_ids, g_cams, [1] * ng, paths, rng.standard_normal((ng, 3)))
    return dist, q, g


def test_criterion_3_metric_matches_oracle(capsys):
    q = FeatureSet([1], [0], [0], ["q0"], np.ones((1, 1)))
    g = FeatureSet([1, 2, 1], [1, 1, 1], [1, 1, 1], ["g0", "g1", "g2"], np.ones((3, 1)))
    hand = cmc_map(np.array([[0.1, 0.2, 0.3]]), q, g)
    hand_ok = abs(hand.mAP - 0.8333) < 1e-4

    rng = np.random.default_rng(2063)
    compared, worst = 0, 0.0
    attempts = 0
    while compared < 1000 and attempts < 1500:
        attempts += 1
        dist, qs, gs = _random_retrieval_instance(rng)
        try:
            fast = cmc_map(dist, qs, gs)
        except ProtocolError:
            with pytest.raises(ProtocolError):
                oracle_cmc_map(dist, qs, gs)
            continue
        slow = oracle_cmc_map(dist, qs, gs)
        worst = max(worst, abs(fast.rank1 - slow.rank1), abs(fast.mAP - slow.mAP))
        assert (fast.num_queries, fast.num_gallery, fast.num_excluded) == (
            slow.num_queries, slow.num_gallery, slow.num_excluded)
        compared += 1
    ok = hand_ok and compared == 1000 and worst < 1e-12
    announce(capsys, 3, ok,
             f"1000 instances, max |diff| {worst:.2e}; hand mAP {hand.mAP:.4f}")
    assert hand_ok and compared == 1000
    assert worst < 1e-12


def test_criterion_4_loss_unit_values(capsys):
    rng = np.random.default_rng(4)
    clf = Linear("clf", 16, 2, rng, dtype=np.float64)
    clf.zero_()
    ce = id_ce_loss(Tensor(rng.standard_normal((4, 16))), np.array([0, 1, 0, 1]), clf)
    ce_err = abs(ce.data.item() - math.log(2.0))

    orth = orthogonality_loss(Tensor(np.array([[1.0, 2.0]])), Tensor(np.array([[3.0, -4.0]])))
    orth_exact = orth.data.item() == 11.0

    worst_tri = 0.0
    for trial in range(60):
        p_count = int(rng.integers(2, 4))
        k_count = int(rng.integers(2, 4))
        labels = np.repeat(np.arange(p_count), k_count)
        feats = rng.standard_normal((p_count * k_count, 5))
        fast = soft_triplet_loss(Tensor(feats), labels).data.item()

        n = len(labels)
        sq = (feats * feats).sum(axis=1)
        d2 = sq[:, None] - 2.0 * feats @ feats.T + sq[None, :]
        off = 1.0 - np.eye(n)
        dist = np.sqrt(np.maximum(d2 * off, 1e-12)) * off
        per_anchor = []
        for a in range(n):
            pos = max(dist[a, j] for j in range(n) if labels[j] == labels[a])
            neg = min(dist[a, j] for j in range(n) if labels[j] != labels[a])
            per_anchor.append(np.log1p(np.exp(pos - neg)))
        worst_tri = max(worst_tri, abs(fast - float(np.mean(per_anchor))))

    ok = ce_err < 1e-6 and orth_exact and worst_tri < 1e-10
    announce(capsys, 4, ok,
             f"CE-ln2 {ce_err:.1e}; orth==11 {orth_exact}; triplet vs enumeration {worst_tri:.1e}")
    assert ce_err < 1e-6
    assert orth_exact
    assert worst_tri < 1e-10


def test_criterion_5_schedule_endpoints(capsys):
    starts = [cosine_lr(0, t, 8e-3, 1.6e-6) for t in (1, 240, 3600)]
    ends = [cosine_lr(t, t, 8e-3, 1.6e-6) for t in (1, 240, 3600)]
    ok = all(s == 8e-3 for s in starts) and all(e == 1.6e-6 for e in ends)
    announce(capsys, 5, ok, f"lr(0)={starts[0]!r}, lr(T)={ends[0]!r}")
    assert all(s == 8e-3 for s in starts)
    assert all(e == 1.6e-6 for e in ends)


def test_criterion_6_training_sanity(capsys, experiments):
    entry = experiments.run("none", 1)
    chance = 1.0 / entry.num_test_ids
    total = experiments.gen_seconds + entry.seconds
    ok = entry.rank1["a2g"] >= 3.0 * chance and total < 900.0
    announce(capsys, 6,
             ok,
             f"held-out a2g rank1 {entry.rank1['a2g']:.3f} vs 3x chance "
             f"{3.0 * chance:.3f} (g2a {entry.rank1['g2a']:.3f}), {total:.0f}s")
    assert entry.rank1["a2g"] >= 3.0 * chance
    assert total < 900.0


def test_criterion_7_ablation_trend(capsys, experiments):
    means = {}
    for ablate in ("none", "no-prm", "baseline"):
        means[ablate] = float(np.mean(
            [experiments.run(ablate, seed).cross_view_map for seed in (1, 2, 3)]
        ))
    ok = means["none"] >= means["no-prm"] and means["none"] >= means["baseline"]
    announce(capsys, 7, ok,
             f"mean cross-view mAP full {means['none']:.4f} >= "
             f"no-prm {means['no-prm']:.4f} and >= baseline {means['baseline']:.4f}")
    assert means["none"] >= means["no-prm"]
    assert means["none"] >= means["baseline"]


def test_criterion_8_run_determinism(capsys, tmp_path):
    env = {**os.environ, "SECAP_THREADS": "1"}

    def cli(*args):
        proc = subprocess.run([sys.executable, "-m", "secap.cli", *args],
                              capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        return proc.stdout

    corpus = tmp_path / "corpus"
    cli("gen-data", "--out", str(corpus), "--ids", "8", "--per-view", "2",
        "--image-h", "16", "--image-w", "16", "--seed", "4")
    manifest = str(corpus / "manifest.tsv")
    train_flags = ["--manifest", manifest, "--epochs", "2", "--p", "4", "--k", "2",
                   "--seed", "3", "--patch", "16", "--image-h", "16", "--image-w", "16",
                   "--embed-dim", "16", "--depth", "1", "--heads", "2",
                   "--ffn-mult", "2", "--prompt-len", "4"]
    log_a = cli("train", "--out", str(tmp_path / "a"), *train_flags)
    log_b = cli("train", "--out", str(tmp_path / "b"), *train_flags)
    ckpt_a = tmp_path / "a" / "checkpoint-0002.ckpt"
    ckpt_b = tmp_path / "b" / "checkpoint-0002.ckpt"
    same_bytes = ckpt_a.read_bytes() == ckpt_b.read_bytes()

    eval_flags = ["--manifest", manifest, "--protocol", "all", "--queries-per-view", "1"]
    report_a = cli("eval", "--checkpoint", str(ckpt_a), *eval_flags)
    report_b = cli("eval", "--checkpoint", str(ckpt_b), *eval_flags)

    ok = same_bytes and log_a == log_b and report_a == report_b
    announce(capsys, 8, ok,
             f"checkpoints byte-identical {same_bytes}, reports identical {report_a == report_b}")
    assert same_bytes
    assert log_a == log_b
    assert report_a == report_b


def test_criterion_9_decoupling_drops(capsys, experiments):
    entry = experiments.run("none", 1)
    init_model = SeCapModel(entry.init_cfg)
    before = held_out_orthogonality(init_model, entry.mtest, num_batches=4, p=8, k=2, seed=11)
    after = held_out_orthogonality(entry.model, entry.mtest, num_batches=4, p=8, k=2, seed=11)
    ok = after < before
    announce(capsys, 9, ok, f"held-out decoupling loss {before:.2f} -> {after:.2f}")
    assert after < before
