"""One phase of one workload, in a process of its own.

``--phase synth`` writes the seeded corpus (and, for eval-all, the seeded desk
checkpoint) into the work directory. ``--phase measure`` sets up, runs the
closed loop for ``--seconds`` and prints one JSON line as its last line of
output. Intervals are read from the host-speed probe's clock, which leaves out
the time spent in probes, and each is also scaled to the reference host.
``run.py`` starts both phases; this file is not meant to be run by hand. BLAS
pools are pinned from the environment before numpy is imported.
"""

from __future__ import annotations

import os
import sys

_THREADS = os.environ.get("SECAP_THREADS", "")
if _THREADS.isdigit():
    for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        os.environ[_var] = _THREADS

import argparse  # noqa: E402
import contextlib  # noqa: E402
import dataclasses  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import traceback  # noqa: E402
from time import perf_counter  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import numpy as np  # noqa: E402

import secap.cli  # noqa: E402
from secap import (  # noqa: E402
    EncoderConfig, ModelConfig, SeCapModel, SynthConfig, TrainConfig,
    generate_synthetic, oracle_cmc_map, save_checkpoint, split_identities,
)
from secap import data as data_mod  # noqa: E402

import hostinfo  # noqa: E402
from probe import REFERENCE_MS, HostProbe, interquartile_mean  # noqa: E402
from tracer import Tracer  # noqa: E402

DESK = dict(image_h=64, image_w=32, embed_dim=64, depth=2, heads=4)

# Geometry and corpus of each workload. `setups` is how many times set-up is
# timed per run (for train-*, the last before the loop is train()'s own build); `ref_step` is the step whose loss is compared with
# reference.json; `epochs` only fixes the cosine schedule, since a run stops
# on time. train-wide runs at lr_max 5e-4 because the default 8e-3 diverges
# there within a few steps (seed 3: loss 21.8, 47.7, 101, 274, 176, 10419, nan).
WORKLOADS = {
    "train-desk": dict(
        kind="train", synth=dict(num_ids=64, per_view=8, distractors=32, h=64, w=32),
        encoder=DESK, prompt_len=8, p=16, k=4, holdout=0.25, checkpoint=True,
        lr_max=8e-3, epochs=1000, setups=15, ref_step=12),
    "train-wide": dict(
        kind="train", synth=dict(num_ids=16, per_view=4, distractors=0, h=256, w=128),
        encoder=dict(image_h=256, image_w=128, embed_dim=384, depth=4, heads=6),
        prompt_len=32, p=4, k=2, holdout=None, checkpoint=False,
        lr_max=5e-4, epochs=1000, setups=3, ref_step=4),
    "eval-all": dict(
        kind="eval", synth=dict(num_ids=96, per_view=16, distractors=256, h=64, w=32),
        encoder=DESK, prompt_len=8, holdout=0.5, setups=15),
}

# Schema-check sizes: same code paths, a few seconds per workload.
TINY = {
    "train-desk": dict(synth=dict(num_ids=8, per_view=4, distractors=4, h=32, w=16),
                       encoder=dict(image_h=32, image_w=16, embed_dim=16, depth=1, heads=2),
                       prompt_len=4, p=4, k=2, setups=2, ref_step=2),
    "train-wide": dict(synth=dict(num_ids=4, per_view=2, distractors=0, h=32, w=16),
                       encoder=dict(image_h=32, image_w=16, embed_dim=24, depth=4, heads=2),
                       prompt_len=4, p=2, k=2, setups=2, ref_step=2),
    "eval-all": dict(synth=dict(num_ids=8, per_view=4, distractors=8, h=32, w=16),
                     encoder=dict(image_h=32, image_w=16, embed_dim=16, depth=1, heads=2),
                     prompt_len=4, setups=2),
}

# the ops the model records, and the layer scopes backward time is reported by;
# "encoder" is what the encoder records outside its projection and blocks
BACKWARD_OPS = ("add", "sub", "mul", "div", "neg", "matmul", "transpose", "swapaxes",
                "reshape", "concat", "narrow", "tsum", "softmax_lastdim", "log_softmax_lastdim",
                "gelu", "tsqrt", "tabs", "clamp_min", "softplus", "take_pairs")
BACKWARD_SCOPES = ("encoder", "encoder.proj",
                   *(f"encoder.blocks.{i}.{part}" for i in range(4)
                     for part in ("norm1", "attn", "norm2", "ffn")),
                   "prm", "lfrm.two_way.0", "lfrm.two_way.1", "lfrm.fusion", "heads", "losses")


def reported_scope(raw: str) -> str:
    """The longest reported scope that is a dotted prefix of a layer's scope."""
    matches = [s for s in BACKWARD_SCOPES if raw == s or raw.startswith(s + ".")]
    return max(matches, key=len, default="other")


# probes after each pass of a traced eval-all run, where no probe runs inside
# a pass: about as many as the interval timer runs during one
PROBES_PER_PASS = 12


class _Stop(Exception):
    """Raised from the step hook once the measuring window is over."""


def workload_spec(name: str, tiny: bool) -> dict:
    spec = dict(WORKLOADS[name])
    if tiny:
        spec.update(TINY[name])
    return spec


def model_config(spec: dict, seed: int) -> ModelConfig:
    return ModelConfig(encoder=EncoderConfig(**spec["encoder"]), prompt_len=spec["prompt_len"],
                       prm_variant="attn", seed=seed)


def paths(work: str) -> dict:
    return {"corpus": os.path.join(work, "corpus"),
            "manifest": os.path.join(work, "corpus", "manifest.tsv"),
            "checkpoint": os.path.join(work, "eval.ckpt"),
            "checkpoints": os.path.join(work, "checkpoints")}


# ---------------------------------------------------------------------------
# synthesis


def synth(spec: dict, seed: int, work: str) -> dict:
    s = spec["synth"]
    where = paths(work)
    start = perf_counter()
    manifest, _ = generate_synthetic(
        SynthConfig(num_ids=s["num_ids"], images_per_id_per_view=s["per_view"],
                    image_h=s["h"], image_w=s["w"], seed=seed, num_distractors=s["distractors"]),
        where["corpus"])
    if spec["kind"] == "eval":
        # an untrained desk model is enough: eval cost does not depend on the weights
        from secap.train import checkpoint_metadata

        m_train, _ = split_identities(manifest, spec["holdout"], seed)
        ids = m_train.identities()
        cfg = TrainConfig(model=model_config(spec, seed), holdout=spec["holdout"], seed=seed)
        model = SeCapModel(dataclasses.replace(cfg.model, num_ids=len(ids), num_views=2))
        save_checkpoint(where["checkpoint"], model.parameters(),
                        checkpoint_metadata(model, cfg, 0, ids))
    return {"synth_s": perf_counter() - start, "images": len(manifest.records)}


# ---------------------------------------------------------------------------
# measurement helpers


def tail(samples: list) -> tuple[float, str]:
    """The highest percentile with ten samples above it, or the maximum when
    that percentile would fall below the median (fewer than 21 samples)."""
    ordered = sorted(samples)
    if len(ordered) >= 21:
        rank = len(ordered) - 11
        return ordered[rank], f"p{100.0 * rank / (len(ordered) - 1):.1f} of {len(ordered)} samples, 10 above it"
    return ordered[-1], f"max of {len(ordered)} samples: too few for a percentile with 10 above it"


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Checks:
    """Correctness checks; a failure is recorded and the run goes on."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.notes.append("FAILED: " + what)
        return ok


def reference_check(checks: Checks, workload: str, seed: int, step: int, loss: float) -> str:
    """Compare the loss at a fixed step with the committed per-seed reference."""
    with open(os.path.join(HERE, "reference.json"), encoding="utf-8") as fh:
        ref = json.load(fh)[workload]
    values = list(ref["losses"].values())
    lo, hi = min(values), max(values)
    band = (lo - (hi - lo), hi + (hi - lo))
    expected = ref["losses"].get(str(seed))
    if expected is not None and math.isclose(loss, expected, rel_tol=ref["rel_tol"]):
        verdict = f"unchanged arithmetic: matches the seed-{seed} reference {expected!r} within rel {ref['rel_tol']}"
    elif band[0] <= loss <= band[1]:
        verdict = (f"changed arithmetic or unreferenced seed: within the spread across "
                   f"{len(values)} reference seeds, [{band[0]:.6g}, {band[1]:.6g}]")
    else:
        verdict = f"outside the reference band [{band[0]:.6g}, {band[1]:.6g}]"
    checks.check(band[0] <= loss <= band[1], f"loss {loss!r} at step {step}: {verdict}")
    return f"loss at step {step} = {loss!r}: {verdict}"


# ---------------------------------------------------------------------------
# train-* workloads


def measure_train(name: str, spec: dict, seed: int, seconds: float, work: str,
                  tracer, probe: HostProbe, skip_reference: bool) -> dict:
    train_mod = sys.modules["secap.train"]
    optim_mod = sys.modules["secap.optim"]
    where = paths(work)
    model_cfg = model_config(spec, seed)

    def read_split():
        manifest = data_mod.read_manifest(where["manifest"])
        if spec["holdout"]:
            manifest, _ = data_mod.split_identities(manifest, spec["holdout"], seed)
        return manifest

    def setup_once() -> tuple:
        start = probe.clock()
        manifest = read_split()
        SeCapModel(dataclasses.replace(model_cfg, num_ids=len(manifest.identities()), num_views=2))
        end = probe.clock()
        probe.maybe()
        return start, end, end - start

    # set-ups are split around the loop so their median spans two moments of the run
    before = spec["setups"] // 2
    setups = [setup_once() for _ in range(before)]
    read_start = probe.clock()
    manifest = read_split()
    read_s = probe.clock() - read_start

    # the last set-up is train()'s own model build, timed through its namespace
    real_model = train_mod.SeCapModel

    def timed_model(*args, **kwargs):
        start = probe.clock()
        model = real_model(*args, **kwargs)
        end = probe.clock()
        setups.append((read_start, end, read_s + end - start))
        return model

    losses: list[float] = []
    real_backward = train_mod.backward

    def recording_backward(loss):
        losses.append(float(loss.data.reshape(-1)[0]))
        return real_backward(loss)

    # one clock reading per SGD.step: the end of each step is the only timestamp
    stamps: list[float] = []
    need = max(spec["ref_step"] + 1, 3)
    real_step = optim_mod.SGD.step

    def timed_step(self):
        real_step(self)
        now = probe.clock()
        stamps.append(now)
        if tracer is not None:
            tracer.step = len(stamps)
        if len(stamps) >= need and now - stamps[0] >= seconds:
            raise _Stop
        probe.maybe()

    train_mod.SeCapModel = timed_model
    train_mod.backward = recording_backward
    optim_mod.SGD.step = timed_step
    cfg = TrainConfig(model=model_cfg, epochs=spec["epochs"], lr_max=spec["lr_max"], p=spec["p"],
                      k=spec["k"], seed=seed, checkpoint_every=1, holdout=spec["holdout"] or 0.0)
    out_dir = where["checkpoints"] if spec["checkpoint"] else None
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
    checks = Checks()
    if tracer is not None:
        tracer.step = 0
    error = None
    try:
        train_mod.train(manifest, cfg, out_dir=out_dir)
    except _Stop:
        pass
    except Exception:  # a failed step is counted, and the run still reports
        error = traceback.format_exc()
    finally:
        train_mod.SeCapModel = real_model
        train_mod.backward = real_backward
        optim_mod.SGD.step = real_step
    if tracer is not None:
        tracer.step = -1
    setups += [setup_once() for _ in range(spec["setups"] - before - 1)]
    checks.check(error is None, f"training raised:\n{error}")
    for i, loss in enumerate(losses):
        checks.check(math.isfinite(loss), f"non-finite loss {loss!r} at step {i}")
    if skip_reference:
        reference = "skipped"
    elif len(losses) > spec["ref_step"]:
        reference = reference_check(checks, name, seed, spec["ref_step"], losses[spec["ref_step"]])
    else:
        reference = f"FAILED: run ended before step {spec['ref_step']}"
        checks.check(False, reference)

    windows = list(zip(stamps, stamps[1:]))
    intervals = [(b - a) * 1e3 for a, b in windows]
    steps = list(range(1, len(intervals) + 1))
    batch = spec["p"] * spec["k"]

    def figures(step_ms: list, setup_s: list) -> dict:
        return {"images_per_s": batch / (interquartile_mean(step_ms) / 1e3),
                "step_ms_p50": statistics.median(step_ms), "step_ms_tail": tail(step_ms)[0],
                "setup_s": statistics.median(setup_s), "peak_rss_mb": peak_rss_mb()}

    notes = {}
    if intervals:
        measured = figures(intervals, [s[2] for s in setups])
        e2e = figures([probe.to_reference(a, b) * 1e3 for a, b in windows],
                      [probe.to_reference(*s) for s in setups])
        notes["images_per_s"] = (f"{batch} images / interquartile mean of {len(intervals)} steps; "
                                 f"measured mean over all steps {1e3 * batch * len(intervals) / sum(intervals):.2f}/s")
        notes["step_ms_p50"] = f"median of {len(intervals)} steps, first step excluded"
        notes["step_ms_tail"] = tail(intervals)[1]
    else:
        measured = e2e = {}
    notes["setup_s"] = f"median of {len(setups)} manifest reads + model builds"
    steps_attempted = len(stamps) + (1 if error else 0)
    return dict(e2e=e2e, measured=measured, notes=notes, steps=steps, setups=len(setups), checks=checks,
                attempted=steps_attempted, failed=1 if error else 0,
                details={"reference": reference, "losses": losses[: spec["ref_step"] + 1],
                         "loop_ms": intervals, "setup_s": [s[2] for s in setups]})


# ---------------------------------------------------------------------------
# eval-all workload


def reports_match(a, b) -> bool:
    return (a.protocol == b.protocol and a.num_queries == b.num_queries
            and a.num_gallery == b.num_gallery and a.num_excluded == b.num_excluded
            and math.isclose(a.rank1, b.rank1, rel_tol=1e-12, abs_tol=1e-12)
            and math.isclose(a.mAP, b.mAP, rel_tol=1e-12, abs_tol=1e-12))


def measure_eval(name: str, spec: dict, seed: int, seconds: float, work: str,
                 tracer, probe: HostProbe, skip_reference: bool) -> dict:
    cli = sys.modules["secap.cli"]
    train_mod = sys.modules["secap.train"]
    where = paths(work)

    def setup_once() -> tuple:
        start = probe.clock()
        data_mod.read_manifest(where["manifest"])
        train_mod.model_from_checkpoint(where["checkpoint"])
        end = probe.clock()
        probe.maybe()
        return start, end, end - start

    # set-ups are split around the loop so their median spans two moments of the run
    before = (spec["setups"] + 1) // 2
    setups = [setup_once() for _ in range(before)]

    captured = []
    real_cmc = cli.cmc_map

    def capturing_cmc(dist, q, g, *args, **kwargs):
        report = real_cmc(dist, q, g, *args, **kwargs)
        captured.append((dist, q, g, kwargs.get("protocol", ""), report))
        return report

    argv = ["eval", "--checkpoint", where["checkpoint"], "--manifest", where["manifest"],
            "--protocol", "all"]
    checks = Checks()
    windows, unique = [], set()
    # the first pass whose reports all equal the oracle's becomes the baseline:
    # a later pass with the same distance matrices and report lines equals the
    # oracle too, and any other pass goes through the oracle itself
    oracle_checked = None
    cli.cmc_map = capturing_cmc
    try:
        measure_start = None
        while True:
            index = len(windows)
            if tracer is not None:
                tracer.step = index
            captured.clear()
            out = io.StringIO()
            start = probe.clock()
            try:
                with contextlib.redirect_stdout(out):
                    code = cli.main(argv)
            except Exception:  # a failed pass is counted, and the run still reports
                checks.check(False, f"pass {index} raised:\n{traceback.format_exc()}")
                break
            windows.append((start, probe.clock()))
            probe.maybe(PROBES_PER_PASS)
            lines = out.getvalue().splitlines()
            checks.check(code == 0, f"pass {index}: eval exited {code}")
            reports = [json.loads(line) for line in lines]
            checks.check(len(reports) == 3 and len(captured) == 3
                         and all(r["num_queries"] >= 1 for r in reports),
                         f"pass {index}: expected three reports with queries, got {lines}")
            same = (oracle_checked is not None and lines == oracle_checked[0]
                    and all(np.array_equal(c[0], d) for c, d in zip(captured, oracle_checked[1])))
            matched = 0
            for line, (dist, q, g, protocol, report) in zip(lines, captured):
                if same:
                    matched += checks.check(True, "")
                    continue
                oracle = oracle_cmc_map(dist, q, g, protocol=protocol)
                matched += checks.check(line == report.to_json_line() and reports_match(report, oracle),
                                        f"pass {index}: {protocol} report {line} != oracle {oracle}")
            if oracle_checked is None and matched == len(lines) == 3:
                oracle_checked = (lines, [c[0] for c in captured])
            for _, q, g, _, _ in captured:
                unique.update(q.paths)
                unique.update(g.paths)
            if measure_start is None:
                measure_start = probe.clock()
            elif len(windows) >= 3 and probe.clock() - measure_start >= seconds:
                break
    finally:
        cli.cmc_map = real_cmc
    captured.clear()
    if tracer is not None:
        tracer.step = -1
    setups += [setup_once() for _ in range(spec["setups"] - before)]

    def figures(pass_s: list, setup_s: list) -> dict:
        p50 = statistics.median(pass_s)
        return {"images_per_s": len(unique) / p50, "step_ms_p50": p50 * 1e3,
                "step_ms_tail": tail([t * 1e3 for t in pass_s])[0],
                "setup_s": statistics.median(setup_s), "peak_rss_mb": peak_rss_mb()}

    passes = windows[1:]
    pass_s = [b - a for a, b in passes]
    measured = figures(pass_s, [s[2] for s in setups])
    e2e = figures([probe.to_reference(a, b) for a, b in passes], [probe.to_reference(*s) for s in setups])
    notes = {"images_per_s": f"{len(unique)} unique held-out images / median pass",
             "step_ms_p50": f"median of {len(passes)} full passes, first pass excluded",
             "step_ms_tail": tail(pass_s)[1],
             "setup_s": f"median of {len(setups)} manifest reads + checkpoint loads"}
    return dict(e2e=e2e, measured=measured, notes=notes, steps=list(range(1, len(passes) + 1)),
                setups=len(setups), checks=checks, attempted=len(windows), failed=0,
                details={"unique_images": len(unique), "loop_ms": [t * 1e3 for t in pass_s],
                         "setup_s": [s[2] for s in setups]})


# ---------------------------------------------------------------------------
# per-layer reduction of a traced run


def per_layer(tracer: Tracer, res: dict) -> dict:
    """Per-layer metrics: ms and counts per measured step or pass, set-up layers per build."""
    steps = res["steps"]
    n = max(len(steps), 1)
    ms, calls = tracer.totals(steps)
    setup_ms, setup_calls = tracer.totals([-1])
    builds = max(setup_calls.get("model.SeCapModel.__init__", 0), 1)

    def per_step(span):
        return ms.get(span, 0.0) / n

    def per_call(span):
        return setup_ms.get(span, 0.0) / max(setup_calls.get(span, 0), 1)

    out = {"tensor.backward.ms": per_step("tensor.backward")}
    for op in BACKWARD_OPS:
        out[f"tensor.backward.{op}.ms"] = tracer.backward_by("op." + op, steps) / n
    by_scope = tracer.backward_by_scope(steps)
    for scope in BACKWARD_SCOPES:
        out[f"tensor.backward.{scope}.ms"] = sum(
            ms_ for raw, ms_ in by_scope.items() if reported_scope(raw) == scope) / n
    out["tensor.tape.entries"] = tracer.counted("tensor.tape.entries", steps) / n
    for op in BACKWARD_OPS:
        out[f"tensor.tape.entries.{op}"] = tracer.counted(f"tensor.tape.entries.{op}", steps) / n
    out["tensor.tape.bytes"] = tracer.counted("tensor.tape.bytes", steps) / n
    out["encoder.encode.ms"] = per_step("encoder.Encoder.encode")
    out["prm.forward.ms"] = per_step("prm.PRM.__call__")
    out["lfrm.forward.ms"] = per_step("lfrm.LFRM.__call__")
    in_losses = tracer.children_ms("model.SeCapModel.compute_losses", steps)
    out["losses.forward.ms"] = per_step("model.SeCapModel.compute_losses") - in_losses.get(
        "model.SeCapModel.forward", 0.0) / n
    out["data.pk_sample.ms"] = per_step("data.pk_sample")
    out["data.augment.ms"] = per_step("data.augment")
    out["storage.load_image.ms"] = per_step("storage.load_image")
    out["storage.load_image.calls"] = calls.get("storage.load_image", 0) / n
    out["optim.step.ms"] = per_step("optim.SGD.step")
    out["storage.save_checkpoint.ms"] = per_step("storage.save_checkpoint")
    out["storage.save_checkpoint.calls"] = calls.get("storage.save_checkpoint", 0)
    out["model.build.ms"] = per_call("model.SeCapModel.__init__")
    out["nn.trunc_normal.ms"] = setup_ms.get("nn.trunc_normal", 0.0) / builds
    out["nn.trunc_normal.calls"] = setup_calls.get("nn.trunc_normal", 0) / builds
    out["train.model_from_checkpoint.ms"] = per_call("train.model_from_checkpoint")
    out["data.read_manifest.ms"] = per_call("data.read_manifest")
    out["data.select_queries.ms"] = per_step("data.select_queries")
    out["data.hog_descriptor.calls"] = calls.get("data.hog_descriptor", 0) / n
    out["evaluate.extract_features.ms"] = per_step("evaluate.extract_features")
    out["evaluate.extract_features.images"] = tracer.counted("evaluate.extract_features.images", steps) / n
    out["model.inference_features.ms"] = per_step("model.SeCapModel.inference_features")
    out["evaluate.extract_unique_ratio"] = tracer.unique_ratio(steps)
    out["evaluate.distance_matrix.ms"] = per_step("evaluate.distance_matrix")
    out["evaluate.cmc_map.ms"] = per_step("evaluate.cmc_map")

    # the train step split: direct children of train(), per measured step
    children = tracer.children_ms("train.train", steps)
    for phase, spans in STEP_PHASES.items():
        out[f"step.{phase}.ms"] = sum(children.get(span, 0.0) for span in spans) / n
    if children:
        out["step.unaccounted.ms"] = (sum(res["details"]["loop_ms"]) / n
                                      - sum(out[f"step.{phase}.ms"] for phase in STEP_PHASES))
    else:
        out["step.unaccounted.ms"] = 0.0
    return out


# top-level phases of a train step, by the spans that are direct children of train()
STEP_PHASES = {
    "data": ("data.pk_sample", "storage.load_image", "data.augment", "data.derive_seed"),
    "forward": ("model.SeCapModel.compute_losses",),
    "backward": ("tensor.backward",),
    "optimizer": ("optim.SGD.step",),
    "checkpoint": ("storage.save_checkpoint", "train.checkpoint_metadata"),
}


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--phase", choices=("synth", "measure"), required=True)
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--work", required=True)
    ap.add_argument("--trace-file")
    ap.add_argument("--tiny", action="store_true")
    ap.add_argument("--no-reference", action="store_true",
                    help="skip the reference-loss check (used to write reference.json)")
    args = ap.parse_args(argv)
    spec = workload_spec(args.workload, args.tiny)

    if args.phase == "synth":
        print(json.dumps(synth(spec, args.seed, args.work)))
        return 0

    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
    probe = HostProbe()
    if tracer is None:
        probe.start_timer()
    measure = measure_train if spec["kind"] == "train" else measure_eval
    try:
        res = measure(args.workload, spec, args.seed, args.seconds, args.work, tracer, probe,
                      args.tiny or args.no_reference)
    finally:
        probe.stop_timer()
    checks = res.pop("checks")
    out = {
        "host": hostinfo.collect(ROOT),
        "e2e": res["e2e"],
        "e2e_measured": res["measured"],
        "probe": {"mean_ms": probe.mean_ms(), "count": len(probe.times_ms), "reference_ms": REFERENCE_MS,
                  "times_ms": probe.times_ms},
        "notes": res["notes"],
        "attempted": res["attempted"] + checks.attempted,
        "failed": res["failed"] + checks.failed,
        "check_notes": checks.notes,
        "details": res["details"],
    }
    if tracer is not None:
        out["layers"] = per_layer(tracer, res)
        n = max(len(res["steps"]), 1)
        out["self_ms_per_step"] = {name: ms / n for name, ms in sorted(
            tracer.self_times(res["steps"]).items(), key=lambda kv: -kv[1])}
        if args.trace_file:
            tracer.dump(args.trace_file, {"workload": args.workload, "seed": args.seed,
                                          "host": out["host"], "e2e_traced": res["e2e"],
                                          "per_layer": out["layers"],
                                          "measured_steps": res["steps"]})
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
