"""secap benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

runs one workload and prints, as its last line, one JSON object with the keys
correct, attempted, failed and metrics: the end-to-end metrics of
BENCHMARK.json with --trace 0, its per-layer metrics with --trace 1. The lines
before it give the host block, every metric with its unit and how it was
taken, and the correctness checks. A traced run also writes its spans to
.perfbench/traces/.

    python3 perfbench/run.py --all [--seed N] [--seconds S]

runs every workload untraced and then traced, prints both, the tracing
overhead and the train-desk step split, and writes .perfbench/BENCH-<rev>.json.

    python3 perfbench/run.py --write-reference SEED [SEED ...]

recomputes perfbench/reference.json, the per-seed training losses the
correctness check compares against.

Run it from the root of a checkout; it reads and writes only there. Corpus
synthesis and each workload run in processes of their own, so peak RSS
belongs to one workload, with BLAS pools pinned to one thread. Time metrics
are reported as they would read on a reference host, scaled by a host-speed
probe timed all through the run (probe.py); each is printed as measured too.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
STATE = os.path.join(ROOT, ".perfbench")
CHILD_TIMEOUT_S = 170
BLAS_THREADS = 1


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def load_spec() -> dict:
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:
        raise BenchError(f"cannot read {path}: {exc}") from exc


def child_env() -> dict:
    """BLAS pools pinned to one thread.

    On the 2-core reference host, two BLAS threads made eval-all passes 22%
    slower and their run-to-run spread 13% instead of 2%: a neighbour's load
    leaves about one core free, and the threads wait on each other.
    """
    env = dict(os.environ)
    env["SECAP_THREADS"] = str(BLAS_THREADS)
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def run_child(args: list) -> dict:
    """Run one worker phase; its last stdout line is its JSON result."""
    try:
        proc = subprocess.run([sys.executable, WORKER, *args], env=child_env(), cwd=ROOT,
                              stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker {args[:4]} did not finish in {CHILD_TIMEOUT_S} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker {args[:4]} exited {proc.returncode}")
    return json.loads(lines[-1])


def run_workload(workload: str, seed: int, seconds: float, trace: int, tiny: bool = False,
                 reference: bool = True) -> dict:
    """Synthesize the corpus, measure, clean up; returns the worker's result."""
    if not os.path.isfile(os.path.join(ROOT, "src", "secap", "__init__.py")):
        raise BenchError(f"no secap sources under {os.path.join(ROOT, 'src')}: "
                         "run from the root of a secap checkout")
    work = os.path.join(STATE, f"work-{workload}-{seed}-{os.getpid()}")
    common = ["--workload", workload, "--seed", str(seed), "--work", work]
    if tiny:
        common.append("--tiny")
    os.makedirs(work, exist_ok=True)
    try:
        synth = run_child(["--phase", "synth", *common, "--seconds", "0"])
        measure = ["--phase", "measure", *common, "--seconds", str(seconds), "--trace", str(trace)]
        trace_file = os.path.join(STATE, "traces", f"{workload}-seed{seed}.json")
        if trace:
            os.makedirs(os.path.dirname(trace_file), exist_ok=True)
            measure += ["--trace-file", trace_file]
        if not reference:
            measure.append("--no-reference")
        result = run_child(measure)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    result["synth"] = synth
    if trace:
        result["trace_file"] = os.path.relpath(trace_file, ROOT)
    return result


def result_line(spec: dict, result: dict, trace: int) -> dict:
    """The last output line: correct, attempted, failed and the named metrics."""
    listed = spec["per_layer"] if trace else spec["end_to_end"]
    values = result["layers"] if trace else result["e2e"]
    missing = [m["name"] for m in listed if m["name"] not in values]
    if missing:
        raise BenchError(f"worker did not report {missing}")
    return {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed},
    }


def describe(spec: dict, workload: str, seed: int, trace: int, result: dict) -> list:
    """Human-readable lines printed before the result line."""
    lines = [f"workload={workload} seed={seed} trace={trace}"]
    lines += [f"host {key} = {value}" for key, value in result["host"].items()]
    lines.append(f"corpus synthesis (not timed) = {result['synth']['synth_s']:.3f} s, "
                 f"{result['synth']['images']} images")
    probe = result["probe"]
    lines.append(f"host-speed probe: interquartile mean {probe['mean_ms']:.3f} ms over {probe['count']} probes "
                 f"(reference host: {probe['reference_ms']} ms); each figure below is scaled by the probes "
                 "around each of its steps, passes or set-ups")
    for m in spec["end_to_end"]:
        name, note = m["name"], result["notes"].get(m["name"], "")
        measured = result["e2e_measured"][name]
        scaled = f" (measured {measured!r})" if measured != result["e2e"][name] else ""
        lines.append(f"{name} = {result['e2e'][name]!r} {m['unit']}{scaled}"
                     f"{'  (' + note + ')' if note else ''}{'  [traced]' if trace else ''}")
    attempted, failed = result["attempted"], result["failed"]
    lines.append(f"failed_ops_frac = {failed / attempted!r} ({failed} failed of {attempted} "
                 "steps, passes and checks)")
    if "reference" in result["details"]:
        lines.append(f"reference check: {result['details']['reference']}")
    lines += result["check_notes"]
    if trace:
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        lines += [f"{name} = {value!r} {units.get(name, '')}"
                  for name, value in result["layers"].items()]
        top = list(result["self_ms_per_step"].items())[:15]
        lines += [f"self time per step or pass: {name} = {ms:.3f} ms" for name, ms in top]
        lines.append(f"trace file = {result['trace_file']}")
    return lines


def run_one(args) -> int:
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        raise BenchError(f"unknown workload {args.workload!r}; BENCHMARK.json lists {names}")
    result = run_workload(args.workload, args.seed, args.seconds, args.trace, args.tiny)
    line = result_line(spec, result, args.trace)
    print("\n".join(describe(spec, args.workload, args.seed, args.trace, result)))
    print(json.dumps(line))
    return 0


def run_all(args) -> int:
    """Every workload untraced, then traced; overhead is traced minus untraced."""
    spec = load_spec()
    summary = {"seed": args.seed, "seconds": args.seconds, "workloads": {}}
    for w in spec["workloads"]:
        name = w["name"]
        plain = run_workload(name, args.seed, args.seconds, 0, args.tiny)
        traced = run_workload(name, args.seed, args.seconds, 1, args.tiny)
        print("\n".join(describe(spec, name, args.seed, 0, plain)))
        print("\n".join(describe(spec, name, args.seed, 1, traced)))
        overhead = {m["name"]: traced["e2e"][m["name"]] - plain["e2e"][m["name"]]
                    for m in spec["end_to_end"]}
        for metric, delta in overhead.items():
            print(f"{name} tracing overhead {metric} = {delta!r} (traced minus untraced)")
        layers = traced["layers"]
        if layers["step.unaccounted.ms"]:
            phases = {k: v for k, v in layers.items() if k.startswith("step.")}
            print(f"{name} traced step split (ms per step): "
                  + ", ".join(f"{k[5:-3]}={v:.3f}" for k, v in phases.items()))
        summary["host"] = plain["host"]
        summary["workloads"][name] = {
            "why": w["why"], "e2e": plain["e2e"], "notes": plain["notes"],
            "attempted": plain["attempted"], "failed": plain["failed"],
            "e2e_traced": traced["e2e"], "tracing_overhead": overhead,
            "per_layer": layers, "trace_file": traced["trace_file"]}
    rev = summary["host"]["git_commit"][:12]
    if not rev[0].isalnum() or " " in rev:
        rev = summary["host"]["src_sha256"]
    path = os.path.join(STATE, f"BENCH-{rev}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=1)
    print(f"wrote {os.path.relpath(path, ROOT)}")
    return 0


def write_reference(seeds: list) -> int:
    """Record, per train workload and seed, the loss at the workload's reference step."""
    sys.path.insert(0, HERE)
    from worker import WORKLOADS

    out = {}
    for name, spec in WORKLOADS.items():
        if spec["kind"] != "train":
            continue
        losses = {}
        for seed in seeds:
            result = run_workload(name, seed, 0, 0, reference=False)
            losses[str(seed)] = result["details"]["losses"][spec["ref_step"]]
            print(f"{name} seed {seed}: loss at step {spec['ref_step']} = {losses[str(seed)]!r}")
        out[name] = {"step": spec["ref_step"], "rel_tol": 1e-4, "losses": losses}
    with open(os.path.join(HERE, "reference.json"), "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=1)
        fh.write("\n")
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    mode = ap.add_mutually_exclusive_group(required=True)
    mode.add_argument("--workload")
    mode.add_argument("--all", action="store_true")
    mode.add_argument("--write-reference", type=int, nargs="+", metavar="SEED")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="schema-check sizes (see selfcheck.py)")
    args = ap.parse_args(argv)
    try:
        if args.write_reference:
            return write_reference(args.write_reference)
        if args.all:
            return run_all(args)
        return run_one(args)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
