"""Command-line front end: data generation, training, evaluation, gradient
checking, and feature export.

Exit codes: 0 success, 64 usage/configuration, 2 I/O or malformed data,
3 non-finite numerics, 1 failed correctness check.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys
from typing import List, Optional

import numpy as np

from .data import (
    PROTOCOLS,
    SynthConfig,
    build_protocol,
    generate_synthetic,
    read_manifest,
    select_queries,
    split_identities,
)
from .encoder import EncoderConfig
from .errors import (
    CheckpointError,
    ConfigurationError,
    ContractError,
    DimensionError,
    NumericError,
    ParseError,
    ProtocolError,
)
from .evaluate import cmc_map, distance_matrix, extract_features
from .gradcheck import check_parameter_gradients, randomize_for_gradcheck
from .losses import LossWeights
from .model import ABLATIONS, ModelConfig, SeCapModel
from .storage import save_rten
from .train import TrainConfig, model_from_checkpoint, train

EXIT_OK = 0
EXIT_CHECK_FAILURE = 1
EXIT_IO = 2
EXIT_NUMERIC = 3
EXIT_USAGE = 64

# CLI defaults are the desk-scale configuration; the published-scale model
# (256x128 inputs, d=768, depth 12, prompt length 64) is reachable by flags.
TOY = {"image_h": 64, "image_w": 32, "embed_dim": 64, "depth": 2, "heads": 4, "prompt_len": 8}


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(EXIT_USAGE)


def _add_model_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--image-h", type=int, default=TOY["image_h"])
    p.add_argument("--image-w", type=int, default=TOY["image_w"])
    p.add_argument("--patch", type=int, default=16)
    p.add_argument("--embed-dim", type=int, default=TOY["embed_dim"])
    p.add_argument("--depth", type=int, default=TOY["depth"])
    p.add_argument("--heads", type=int, default=TOY["heads"])
    p.add_argument("--ffn-mult", type=int, default=4)
    p.add_argument("--prompt-len", type=int, default=TOY["prompt_len"])
    p.add_argument("--prm-variant", choices=("attn", "add", "cat"), default="attn")
    p.add_argument("--olp", action="store_true", help="tokenize with overlapping patches")
    p.add_argument("--ablate", choices=ABLATIONS, default="none")


def build_parser() -> _Parser:
    parser = _Parser(prog="secap", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen-data", help="write a synthetic cross-view corpus")
    g.add_argument("--out", required=True)
    g.add_argument("--ids", type=int, default=8)
    g.add_argument("--per-view", type=int, default=4, help="images per identity per view")
    g.add_argument("--views", type=int, default=2)
    g.add_argument("--image-h", type=int, default=64)
    g.add_argument("--image-w", type=int, default=32)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--cams-per-view", type=int, default=2)
    g.add_argument("--distractors", type=int, default=0)
    g.add_argument("--strength", type=float, default=1.0, help="view-transform jitter strength")

    t = sub.add_parser("train", help="train and write checkpoints")
    t.add_argument("--manifest", required=True)
    t.add_argument("--out", required=True, help="directory for checkpoints")
    t.add_argument("--epochs", type=int, default=120)
    t.add_argument("--lr-max", type=float, default=8e-3)
    t.add_argument("--lr-min", type=float, default=1.6e-6)
    t.add_argument("--p", type=int, default=16)
    t.add_argument("--k", type=int, default=4)
    t.add_argument("--seed", type=int, default=0)
    t.add_argument("--alpha", type=float, default=1.0)
    t.add_argument("--beta", type=float, default=1.0)
    t.add_argument("--lambda", dest="lam", type=float, default=0.001)
    t.add_argument("--warmup-steps", type=int, default=0)
    t.add_argument("--checkpoint-every", type=int, default=20)
    t.add_argument("--momentum", type=float, default=0.9)
    t.add_argument("--weight-decay", type=float, default=1e-4)
    t.add_argument("--holdout", type=float, default=0.0,
                   help="fraction of identities held out of training; recorded in the checkpoint")
    t.add_argument("--no-augment", action="store_true")
    _add_model_flags(t)

    e = sub.add_parser("eval", help="score a checkpoint under retrieval protocols")
    e.add_argument("--checkpoint", required=True)
    e.add_argument("--manifest", required=True)
    e.add_argument("--protocol", choices=PROTOCOLS + ("all",), default="a2g")
    e.add_argument("--batch-size", type=int, default=32)
    e.add_argument("--queries-per-view", type=int, default=2)

    c = sub.add_parser("grad-check", help="finite-difference check of the full loss")
    c.add_argument("--variant", "--prm-variant", dest="variant", choices=("attn", "add", "cat"), default="attn")
    c.add_argument("--olp", action="store_true")
    c.add_argument("--seed", type=int, default=0)
    c.add_argument("--coords", type=int, default=2, help="probed coordinates per parameter")
    c.add_argument("--tol", type=float, default=1e-4)
    c.add_argument("--ablate", choices=ABLATIONS, default="none")

    x = sub.add_parser("export-features", help="dump features plus row-aligned metadata")
    x.add_argument("--checkpoint", required=True)
    x.add_argument("--manifest", required=True)
    x.add_argument("--out", required=True, help="base path; writes <out>.rten and <out>.tsv")
    x.add_argument("--batch-size", type=int, default=32)
    return parser


def _encoder_config(args) -> EncoderConfig:
    return EncoderConfig(
        image_h=args.image_h,
        image_w=args.image_w,
        patch=args.patch,
        embed_dim=args.embed_dim,
        depth=args.depth,
        heads=args.heads,
        ffn_mult=args.ffn_mult,
        olp_enabled=args.olp,
    )


def cmd_gen_data(args) -> int:
    cfg = SynthConfig(
        num_ids=args.ids,
        images_per_id_per_view=args.per_view,
        num_views=args.views,
        image_h=args.image_h,
        image_w=args.image_w,
        seed=args.seed,
        view_strength=args.strength,
        cams_per_view=args.cams_per_view,
        num_distractors=args.distractors,
    )
    generate_synthetic(cfg, args.out)
    print(os.path.join(args.out, "manifest.tsv"))
    return EXIT_OK


def cmd_train(args) -> int:
    manifest = read_manifest(args.manifest)
    if args.holdout > 0.0:
        manifest_train, _ = split_identities(manifest, args.holdout, args.seed)
    else:
        manifest_train = manifest
    model_cfg = ModelConfig(
        encoder=_encoder_config(args),
        prompt_len=args.prompt_len,
        prm_variant=args.prm_variant,
        ablate=args.ablate,
        seed=args.seed,
    )
    cfg = TrainConfig(
        model=model_cfg,
        epochs=args.epochs,
        lr_max=args.lr_max,
        lr_min=args.lr_min,
        p=args.p,
        k=args.k,
        seed=args.seed,
        weights=LossWeights(alpha=args.alpha, beta=args.beta, lam=args.lam),
        momentum=args.momentum,
        weight_decay=args.weight_decay,
        warmup_steps=args.warmup_steps,
        checkpoint_every=args.checkpoint_every,
        holdout=args.holdout,
    )
    if args.no_augment:
        cfg = dataclasses.replace(cfg, augment_policy=dataclasses.replace(cfg.augment_policy, enabled=False))
    os.makedirs(args.out, exist_ok=True)
    train(manifest_train, cfg, out_dir=args.out, log=print)
    return EXIT_OK


def cmd_eval(args) -> int:
    model, meta = model_from_checkpoint(args.checkpoint)
    manifest = read_manifest(args.manifest)
    holdout = meta.get("train", {}).get("holdout", 0.0)
    if holdout:
        _, manifest = split_identities(manifest, holdout, meta["train"]["seed"])
    queries = select_queries(manifest, per_view=args.queries_per_view)
    names = list(PROTOCOLS) if args.protocol == "all" else [args.protocol]
    splits = [build_protocol(manifest, name, queries=queries) for name in names]
    # one pass over every image some protocol needs, in manifest (path) order
    needed = sorted({r for s in splits for r in s.query + s.gallery}, key=lambda r: r.path)
    features = extract_features(model, manifest, needed, batch_size=args.batch_size)
    for split in splits:
        qfs = features.select(split.query)
        gfs = features.select(split.gallery)
        report = cmc_map(distance_matrix(qfs, gfs), qfs, gfs, protocol=split.name)
        print(report.to_json_line())
    return EXIT_OK


def cmd_grad_check(args) -> int:
    cfg = ModelConfig(
        encoder=EncoderConfig(
            image_h=TOY["image_h"],
            image_w=TOY["image_w"],
            embed_dim=TOY["embed_dim"],
            depth=TOY["depth"],
            heads=TOY["heads"],
            olp_enabled=args.olp,
        ),
        num_ids=2,
        num_views=2,
        prompt_len=TOY["prompt_len"],
        prm_variant=args.variant,
        ablate=args.ablate,
        seed=args.seed,
    )
    model = SeCapModel(cfg, dtype=np.float64)
    params = model.parameters()
    randomize_for_gradcheck(params, seed=args.seed)
    rng = np.random.default_rng([args.seed, 999])
    images = rng.uniform(0.0, 1.0, size=(4, 3, cfg.encoder.image_h, cfg.encoder.image_w))
    id_labels = np.array([0, 0, 1, 1])
    view_labels = np.array([0, 1, 0, 1])
    weights = LossWeights()

    def loss_fn():
        total, _ = model.compute_losses(images, id_labels, view_labels, weights)
        return total

    worst, worst_name, _ = check_parameter_gradients(
        params, loss_fn, coords_per_param=args.coords, seed=args.seed
    )
    print(f"max relative error {worst:.3e} at {worst_name} (tolerance {args.tol:.1e})")
    if worst < args.tol:
        print("grad-check: PASS")
        return EXIT_OK
    print(f"grad-check: FAIL worst parameter {worst_name}")
    return EXIT_CHECK_FAILURE


def cmd_export_features(args) -> int:
    model, _ = model_from_checkpoint(args.checkpoint)
    manifest = read_manifest(args.manifest)
    fs = extract_features(model, manifest, batch_size=args.batch_size)
    save_rten(args.out + ".rten", fs.features)
    with open(args.out + ".tsv", "w", encoding="utf-8", newline="\n") as fh:
        for i in range(len(fs)):
            fh.write(f"{fs.ids[i]}\t{fs.cameras[i]}\t{fs.views[i]}\n")
    print(args.out + ".rten")
    return EXIT_OK


_COMMANDS = {
    "gen-data": cmd_gen_data,
    "train": cmd_train,
    "eval": cmd_eval,
    "grad-check": cmd_grad_check,
    "export-features": cmd_export_features,
}


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        return _COMMANDS[args.command](args)
    except (ConfigurationError, ContractError, DimensionError) as exc:
        print(f"secap: configuration error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (OSError, ParseError, CheckpointError, ProtocolError) as exc:
        print(f"secap: {exc}", file=sys.stderr)
        return EXIT_IO
    except NumericError as exc:
        print(f"secap: numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
