"""Training loop: P x K batches, per-step cosine schedule, epoch logging,
periodic checkpoints, and checkpoint-to-model reconstruction.
"""

from __future__ import annotations

import contextlib
import dataclasses
import os
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from .data import (
    DEFAULT_VIEW_MAP,
    Manifest,
    augment,
    derive_seed,
    load_images,
    pk_sample,
)
from .encoder import EncoderConfig, check_field_types
from .errors import CheckpointError, ConfigurationError, ContractError, NumericError
from .losses import LossParts, LossWeights, orthogonality_loss
from .model import ModelConfig, SeCapModel
from .optim import SGD, cosine_lr
from .storage import CKPT_METADATA_OFFSET, TableSource, load_checkpoint, save_checkpoint
from .tensor import backward, recording

CHECKPOINT_VERSION_TAG = "secap-checkpoint"

LOG_KEYS = ("loss_total", *(f"loss_{f.name}" for f in dataclasses.fields(LossParts)))
# the TrainConfig fields a checkpoint records (eval reads holdout and seed), and its LossWeights keys
CHECKPOINT_TRAIN_KEYS = ("epochs", "lr_max", "lr_min", "p", "k", "seed", "momentum", "weight_decay",
                         "warmup_steps", "holdout")
CHECKPOINT_WEIGHT_KEYS = {"alpha": "alpha", "beta": "beta", "lambda": "lam"}


@dataclass(frozen=True)
class TrainConfig:
    model: ModelConfig
    epochs: int = 120
    lr_max: float = 8e-3
    lr_min: float = 1.6e-6
    p: int = 16
    k: int = 4
    seed: int = 0
    weights: LossWeights = field(default_factory=LossWeights)
    momentum: float = 0.9  # conventional re-ID SGD settings; source text names only SGD
    weight_decay: float = 1e-4
    warmup_steps: int = 0
    checkpoint_every: int = 20
    holdout: float = 0.0  # identity fraction withheld by the caller; recorded for eval
    augment: bool = True  # pad-and-crop, channel jitter and random erasing (data.augment)

    def __post_init__(self):
        check_field_types(self)
        if self.epochs < 1 or self.warmup_steps < 0:
            raise ConfigurationError(f"need epochs >= 1, warmup_steps >= 0; got {self.epochs}, {self.warmup_steps}")
        # a chained comparison is False for nan, so each range below rejects it too
        if not (0.0 < self.lr_max < np.inf and 0.0 <= self.lr_min <= self.lr_max):
            raise ConfigurationError(f"need 0 <= lr_min <= lr_max < inf, lr_max > 0; got {self.lr_min}, {self.lr_max}")
        if not (0.0 <= self.momentum < 1.0 and 0.0 <= self.weight_decay < np.inf):
            raise ConfigurationError(f"need momentum in [0, 1), weight_decay in [0, inf); "
                                     f"got {self.momentum}, {self.weight_decay}")
        if self.p < 2 or self.k < 1:  # every step mines triplets across two identities
            raise ConfigurationError(f"need P >= 2 and K >= 1, got P={self.p} K={self.k}")
        if self.checkpoint_every < 1:
            raise ConfigurationError("checkpoint_every must be >= 1")
        if not 0.0 <= self.holdout < 1.0:
            raise ConfigurationError(f"holdout must be in [0, 1), got {self.holdout}")


@dataclass
class TrainResult:
    model: SeCapModel
    history: List[Dict[str, float]]
    total_steps: int
    checkpoint_paths: List[str]


def format_epoch_line(epoch: int, values: Dict[str, float], lr: float) -> str:
    parts = [f"epoch={epoch}"]
    parts.extend(f"{key}={values[key]!r}" for key in LOG_KEYS)
    parts.append(f"lr={lr!r}")
    return " ".join(parts)


def checkpoint_metadata(model: SeCapModel, train_cfg: TrainConfig, epoch: int, label_ids: List[int]) -> dict:
    cfg = model.cfg
    return {
        "format": CHECKPOINT_VERSION_TAG,
        "epoch": epoch,
        "encoder": dataclasses.asdict(cfg.encoder),
        "model": {f.name: getattr(cfg, f.name) for f in dataclasses.fields(cfg) if f.name != "encoder"},
        "label_ids": list(label_ids),
        "weights": {key: getattr(train_cfg.weights, attr) for key, attr in CHECKPOINT_WEIGHT_KEYS.items()},
        "train": {key: getattr(train_cfg, key) for key in CHECKPOINT_TRAIN_KEYS},
    }


def model_from_checkpoint(path) -> Tuple[SeCapModel, TrainConfig]:
    """Rebuild the model a checkpoint was saved from out of its table, drawing nothing, and rebuild
    its run settings; a checkpoint records no checkpoint_every or augment, so those hold their defaults."""
    meta, table = load_checkpoint(path)
    if meta.get("format") != CHECKPOINT_VERSION_TAG:
        raise CheckpointError(f"{path}: metadata is not a model checkpoint")
    malformed = f"{path}: malformed metadata (byte offset {CKPT_METADATA_OFFSET}): "
    try:
        e, m = meta["encoder"], meta["model"]
        enc = EncoderConfig(**{f.name: e[f.name] for f in dataclasses.fields(EncoderConfig)})
        cfg = ModelConfig(encoder=enc, **{f.name: m[f.name] for f in dataclasses.fields(ModelConfig)
                                          if f.name != "encoder"})
        t, w = meta["train"], meta["weights"]
        if not (isinstance(t, dict) and isinstance(w, dict)):
            raise TypeError(f"'train' and 'weights' must be objects, got {type(t).__name__} and {type(w).__name__}")
        weights = LossWeights(**{attr: w[key] for key, attr in CHECKPOINT_WEIGHT_KEYS.items()})
        run = TrainConfig(model=cfg, weights=weights, **{k: t[k] for k in CHECKPOINT_TRAIN_KEYS})
        # the build's one loop over a metadata value: checked first, so no block is built beyond the table
        blocks = {name.split(".")[2] for name in table if name.startswith("encoder.blocks.")}
        if enc.depth != len(blocks):  # bounds the depth by the table's size, whatever the blocks are named
            raise ValueError(f"encoder depth {enc.depth} but {len(blocks)} encoder blocks in the table")
    except (KeyError, TypeError, ValueError) as exc:
        raise CheckpointError(f"{malformed}{type(exc).__name__} {exc}") from None
    # each layer asks the table for its parameters by name and shape: a geometry it does not hold is refused
    source = TableSource(table, cfg.dropped_parameters)
    try:
        model = SeCapModel(cfg, source)
        source.close()
    except CheckpointError as exc:
        raise CheckpointError(f"{path}: {exc}") from None
    # as checkpoint_metadata writes them; the labels are checked once the table has confirmed num_ids
    epoch, ids = meta.get("epoch"), meta.get("label_ids")
    if not (type(epoch) is int and epoch >= 0):
        raise CheckpointError(f"{malformed}'epoch' must be an int >= 0, got {epoch!r}")
    if not (isinstance(ids, list) and len(ids) == cfg.num_ids and all(type(i) is int for i in ids)
            and all(a < b for a, b in zip([-1] + ids, ids))):
        raise CheckpointError(f"{malformed}'label_ids' must be {cfg.num_ids} strictly increasing ints >= 0")
    return model, run


def train(
    manifest_train: Manifest,
    cfg: TrainConfig,
    out_dir: Optional[str] = None,
    log: Optional[Callable[[str], None]] = None,
) -> TrainResult:
    """Run the full loop; deterministic for a fixed config and manifest. out_dir and its missing
    parents are made before the first step, and removed again if the run fails before a checkpoint."""
    missing: List[str] = []  # the directories out_dir needs, innermost first
    if out_dir is not None:  # a file where out_dir or a parent of it would go is refused before any draw
        head = os.path.abspath(out_dir)
        while not os.path.lexists(head):
            missing.append(head)
            head = os.path.dirname(head)
        if not os.path.isdir(head):
            raise NotADirectoryError(f"{head}: not a directory")
    ids = manifest_train.identities()
    label_map = {identity: index for index, identity in enumerate(ids)}
    # drawn before the model is built, so too few identities for P are refused first
    first_batch = pk_sample(manifest_train, cfg.p, cfg.k, derive_seed("batch", cfg.seed, 1, 0))

    model_cfg = dataclasses.replace(cfg.model, num_ids=len(ids), num_views=2)
    model = SeCapModel(model_cfg)
    params = model.parameters()
    opt = SGD(params, lr=cfg.lr_max, momentum=cfg.momentum, weight_decay=cfg.weight_decay)

    steps_per_epoch = max(1, len(manifest_train.records) // (cfg.p * cfg.k))
    total_steps = cfg.epochs * steps_per_epoch

    history: List[Dict[str, float]] = []
    checkpoint_paths: List[str] = []
    step = 0
    try:
        if out_dir is not None:
            os.makedirs(out_dir, exist_ok=True)
        for epoch in range(1, cfg.epochs + 1):
            sums = {key: 0.0 for key in LOG_KEYS}
            lr = cfg.lr_max
            for s in range(steps_per_epoch):
                batch = first_batch if step == 0 else pk_sample(manifest_train, cfg.p, cfg.k,
                                                                derive_seed("batch", cfg.seed, epoch, s))
                images = load_images(manifest_train, batch, model_cfg.encoder.image_shape)
                if cfg.augment:
                    images = np.stack([augment(image, derive_seed("augment", cfg.seed, r.path, epoch, s, i))
                                       for i, (r, image) in enumerate(zip(batch, images))])
                id_labels = [label_map[r.identity] for r in batch]
                view_labels = [DEFAULT_VIEW_MAP[r.view] for r in batch]  # the aerial/ground side
                lr = cosine_lr(step, total_steps, cfg.lr_max, cfg.lr_min, cfg.warmup_steps)
                opt.lr = lr
                # backward updates each parameter once its gradient is complete; step() checks
                # that every parameter got one (a rule that raises leaves earlier updates applied)
                with recording(on_leaf=opt.update):
                    total, parts = model.compute_losses(images, id_labels, view_labels, cfg.weights)
                    value = total.data.item()
                    if not np.isfinite(value):
                        bad = [f"{part}={v}" for part, v in parts.scalars().items() if not np.isfinite(v)]
                        raise NumericError(f"non-finite loss {value} at epoch {epoch} step {s}; "
                                           f"non-finite parts: {', '.join(bad) or 'none'}")
                    backward(total)
                opt.step()
                step += 1
                sums["loss_total"] += value
                for part, part_value in parts.scalars().items():
                    sums[f"loss_{part}"] += part_value
            means = {key: sums[key] / steps_per_epoch for key in LOG_KEYS}
            history.append({"epoch": epoch, "lr": lr, **means})
            if log is not None:
                log(format_epoch_line(epoch, means, lr))
            if out_dir is not None and (epoch % cfg.checkpoint_every == 0 or epoch == cfg.epochs):
                path = os.path.join(out_dir, f"checkpoint-{epoch:04d}.ckpt")
                save_checkpoint(path, params, checkpoint_metadata(model, cfg, epoch, ids))
                checkpoint_paths.append(path)
    except BaseException:
        if not checkpoint_paths:  # nothing written: a failed run leaves none of the directories it made
            for path in missing:
                with contextlib.suppress(OSError):  # one not made, or no longer empty, stays
                    os.rmdir(path)
        raise
    return TrainResult(
        model=model,
        history=history,
        total_steps=total_steps,
        checkpoint_paths=checkpoint_paths,
    )


def held_out_orthogonality(model: SeCapModel, manifest: Manifest, num_batches: int, p: int, k: int, seed) -> float:
    """Mean decoupling loss over seeded held-out batches (no augmentation)."""
    if not model.cfg.uses_vdt:
        raise ContractError("model has no view branch; decoupling loss undefined")
    vals = []
    for b in range(num_batches):
        batch = pk_sample(manifest, p, k, derive_seed("heldout", seed, b))
        out = model.forward(load_images(manifest, batch, model.cfg.encoder.image_shape))
        vals.append(orthogonality_loss(out.x_inv, out.view_feat).data.item())
    return float(np.mean(vals))
