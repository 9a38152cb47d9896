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
    generate_synthetic,
    read_manifest,
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
from .evaluate import cmc_map, distance_matrix, extract_features, protocol_features
from .gradcheck import check_model_gradients
from .losses import LossWeights
from .model import ABLATIONS, ModelConfig
from .prm import VARIANTS as PRM_VARIANTS
from .storage import replacing, save_rten
from .train import TrainConfig, model_from_checkpoint, train

EXIT_OK = 0
EXIT_CHECK_FAILURE = 1
EXIT_IO = 2
EXIT_NUMERIC = 3
EXIT_USAGE = 64

# Every default lives in the config dataclasses; the one exception is the
# desk-scale geometry the CLI trains and grad-checks at. The published-scale
# geometry (the dataclass defaults) is reachable by flags.
DESK = {"image_h": 64, "image_w": 32, "embed_dim": 64, "depth": 2, "heads": 4, "prompt_len": 8}


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(EXIT_USAGE)


def _add_model_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--image-h", type=int)
    p.add_argument("--image-w", type=int)
    p.add_argument("--patch", type=int)
    p.add_argument("--embed-dim", type=int)
    p.add_argument("--depth", type=int)
    p.add_argument("--heads", type=int)
    p.add_argument("--ffn-mult", type=int)
    p.add_argument("--prompt-len", type=int)
    p.add_argument("--prm-variant", choices=PRM_VARIANTS)
    p.add_argument("--olp", dest="olp_enabled", action="store_true", help="tokenize with overlapping patches")
    p.add_argument("--ablate", choices=ABLATIONS)


def build_parser() -> _Parser:
    parser = _Parser(prog="secap", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    # gen-data, train and grad-check feed config dataclasses: each flag's dest
    # is the field it sets, and a flag the user leaves out is absent from the
    # namespace, so the field keeps its dataclass default (see _config)
    config_sub = dict(argument_default=argparse.SUPPRESS)

    g = sub.add_parser("gen-data", help="write a synthetic cross-view corpus", **config_sub)
    g.add_argument("--out", required=True)
    g.add_argument("--ids", dest="num_ids", type=int)
    g.add_argument("--per-view", dest="images_per_id_per_view", type=int, help="images per identity per view")
    g.add_argument("--views", dest="num_views", type=int)
    g.add_argument("--image-h", type=int)
    g.add_argument("--image-w", type=int)
    g.add_argument("--seed", type=int)
    g.add_argument("--cams-per-view", type=int)
    g.add_argument("--distractors", dest="num_distractors", type=int)
    g.add_argument("--strength", dest="view_strength", type=float, help="view-transform jitter strength")

    t = sub.add_parser("train", help="train and write checkpoints", **config_sub)
    t.set_defaults(**DESK)
    t.add_argument("--manifest", required=True)
    t.add_argument("--out", required=True, help="directory for checkpoints")
    t.add_argument("--epochs", type=int)
    t.add_argument("--lr-max", type=float)
    t.add_argument("--lr-min", type=float)
    t.add_argument("--p", type=int)
    t.add_argument("--k", type=int)
    t.add_argument("--seed", type=int)
    t.add_argument("--alpha", type=float)
    t.add_argument("--beta", type=float)
    t.add_argument("--lambda", dest="lam", type=float)
    t.add_argument("--warmup-steps", type=int)
    t.add_argument("--checkpoint-every", type=int)
    t.add_argument("--momentum", type=float)
    t.add_argument("--weight-decay", type=float)
    t.add_argument("--holdout", type=float,
                   help="fraction of identities held out of training; recorded in the checkpoint")
    t.add_argument("--no-augment", dest="augment", action="store_false")
    _add_model_flags(t)

    e = sub.add_parser("eval", help="score a checkpoint under retrieval protocols")
    e.add_argument("--checkpoint", required=True)
    e.add_argument("--manifest", required=True)
    e.add_argument("--protocol", choices=PROTOCOLS + ("all",), default="a2g")
    e.add_argument("--queries-per-view", type=int, default=2)

    c = sub.add_parser("grad-check", help="finite-difference check of the full loss", **config_sub)
    c.set_defaults(**DESK)
    c.add_argument("--variant", "--prm-variant", dest="prm_variant", choices=PRM_VARIANTS)
    c.add_argument("--olp", dest="olp_enabled", action="store_true")
    c.add_argument("--seed", type=int)
    c.add_argument("--coords", type=int, default=2, help="probed coordinates per parameter; 0 probes every coordinate")
    c.add_argument("--tol", type=float, default=1e-4)
    c.add_argument("--ablate", choices=ABLATIONS)

    x = sub.add_parser("export-features", help="dump features plus row-aligned metadata")
    x.add_argument("--checkpoint", required=True)
    x.add_argument("--manifest", required=True)
    x.add_argument("--out", required=True, help="base path; writes <out>.rten and <out>.tsv")
    return parser


def _config(cls, args, **given):
    """Build `cls` from the given flags that name its fields, plus `given`."""
    names = {f.name for f in dataclasses.fields(cls)}
    return cls(**{key: value for key, value in vars(args).items() if key in names}, **given)


def cmd_gen_data(args) -> int:
    generate_synthetic(_config(SynthConfig, args), args.out)
    print(os.path.join(args.out, "manifest.tsv"))
    return EXIT_OK


def cmd_train(args) -> int:
    manifest = read_manifest(args.manifest)
    model_cfg = _config(ModelConfig, args, encoder=_config(EncoderConfig, args))
    cfg = _config(TrainConfig, args, model=model_cfg, weights=_config(LossWeights, args))
    if cfg.holdout > 0.0:
        manifest, _ = split_identities(manifest, cfg.holdout, cfg.seed)
    train(manifest, cfg, out_dir=args.out, log=print)
    return EXIT_OK


def cmd_eval(args) -> int:
    model, run = model_from_checkpoint(args.checkpoint)
    manifest = read_manifest(args.manifest)
    if run.holdout > 0.0:
        _, manifest = split_identities(manifest, run.holdout, run.seed)
    names = list(PROTOCOLS) if args.protocol == "all" else [args.protocol]
    splits, features = protocol_features(model, manifest, names, args.queries_per_view)
    for split in splits:
        qfs = features.select(split.query)
        gfs = features.select(split.gallery)
        report = cmc_map(distance_matrix(qfs, gfs), qfs, gfs, protocol=split.name)
        print(report.to_json_line())
    return EXIT_OK


def cmd_grad_check(args) -> int:
    if args.coords < 0 or not 0.0 < args.tol < np.inf:
        raise ConfigurationError(f"need --coords >= 0 and a finite --tol > 0, got {args.coords} and {args.tol}")
    cfg = _config(ModelConfig, args, encoder=_config(EncoderConfig, args))
    worst, worst_name = check_model_gradients(cfg, args.coords)
    print(f"max relative error {worst:.3e} at {worst_name} (tolerance {args.tol:.1e})")
    if worst < args.tol:
        print("grad-check: PASS")
        return EXIT_OK
    print(f"grad-check: FAIL worst parameter {worst_name}")
    return EXIT_CHECK_FAILURE


def cmd_export_features(args) -> int:
    model, _ = model_from_checkpoint(args.checkpoint)
    manifest = read_manifest(args.manifest)
    fs = extract_features(model, manifest)
    save_rten(args.out + ".rten", fs.features)
    with replacing(args.out + ".tsv", "w", encoding="utf-8", newline="\n") as fh:
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
        # overflow and NaN are caught by explicit finiteness checks (exit 2 or 3),
        # so numpy's own RuntimeWarnings would only repeat them on stderr
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
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
    except MemoryError as exc:  # sizes set by flags that no host could allocate
        print(f"secap: configuration error: out of memory: {exc}", file=sys.stderr)
        return EXIT_USAGE


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
