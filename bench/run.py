"""Benchmark of the redesc `mine` -> `reduce` -> `eval` pipeline.

Run from the root of a source checkout:

    python3 bench/run.py --workload wide_trees --seed 0 --seconds 55 --trace 0

For `--seconds` seconds the runner repeats the workload's pipeline, each
repetition in a fresh `bench/worker.py` process on a fresh sample drawn from
`--seed`. It checks every repetition's outputs (see checks.py), prints each
metric by name and unit, and ends with one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With `--trace 0` the metrics are the end-to-end metrics of BENCHMARK.json,
each the median over the repetitions. With `--trace 1` every repetition runs
twice, untraced and then traced with tracer.py, and the metrics are the
per-layer metrics of BENCHMARK.json: medians over the traced repetitions,
plus `setup.import_s` and `trace.overhead_s` (traced minus untraced
`pipeline_s`). Traced and untraced outputs must be byte-identical.

`--scale` shrinks the inputs (the self-test uses it); `--record-reference`
stores the output digests of seed 0, repetition 0 in reference.json.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import gen  # noqa: E402

REFERENCE = BENCH / "reference.json"
REFERENCE_SEED = 0
MIN_REPS = 3
# No repetition starts once this much time has passed, so that a much slower
# program still ends well inside a three-minute limit.
LAST_START_S = 120.0
WORKER_TIMEOUT_S = 170.0

# Output files and the command that writes them.
PRODUCER = (("mined.tsv", "mine"), ("reduced_", "reduce"), ("eval_", "eval"))


class BenchError(RuntimeError):
    """The benchmark itself cannot run; no result is printed."""


def producer(filename: str) -> str:
    return next(cmd for prefix, cmd in PRODUCER if filename.startswith(prefix))


def run_worker(spec: dict, directory: Path) -> dict:
    spec_path = directory / "spec.json"
    result_path = directory / "result.json"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "worker.py"), str(spec_path), str(result_path)],
            capture_output=True, text=True, timeout=WORKER_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker in {directory} did not finish in {WORKER_TIMEOUT_S} s") from None
    if proc.returncode != 0 or not result_path.exists():
        raise BenchError(f"worker in {directory} failed:\n{proc.stderr[-3000:]}")
    return json.loads(result_path.read_text(encoding="utf-8"))


def input_digest(inputs: gen.Inputs) -> str:
    """Identity of one repetition's inputs: the bytes of its files and its
    command lines, with the directory they were written to left out."""
    h = hashlib.sha256()
    for key, path in sorted(inputs.files.items()):
        h.update(key.encode() + b"\0" + Path(path).read_bytes())
    for argv in inputs.commands:
        h.update("\0".join(a for a in argv if a not in inputs.files.values()).encode())
    return h.hexdigest()


def repeat_log(root: Path) -> tuple[Path, dict]:
    """Output digests of earlier runs in this checkout, keyed by input
    digest, so that repeated inputs must reproduce the bytes they gave
    before."""
    path = root / ".bench_work" / "digests.json"
    return path, (json.loads(path.read_text(encoding="utf-8")) if path.exists() else {})


def measure(args, root: Path) -> dict:
    work = root / ".bench_work" / f"{args.workload}-{args.seed}"
    shutil.rmtree(work, ignore_errors=True)
    src = str(root / "src")
    reps = []
    started = time.perf_counter()
    while True:
        rep = len(reps)
        rep_dir = work / f"r{rep}"
        inputs = gen.write_inputs(args.workload, args.seed, rep, rep_dir / "in", args.scale)
        entry = {"rep": rep, "inputs": inputs, "runs": {}}
        for traced in ((False, True) if args.trace else (False,)):
            kind = "traced" if traced else "untraced"
            out = rep_dir / kind
            out.mkdir(parents=True)
            spec = {"src": src, "files": inputs.files, "commands": inputs.commands,
                    "trace": traced, "out": str(out / "out"), "spans": str(out / "spans.npz")}
            entry["runs"][kind] = run_worker(spec, out)
        reps.append(entry)
        elapsed = time.perf_counter() - started
        per_rep = elapsed / len(reps)
        if len(reps) >= MIN_REPS and elapsed + per_rep > args.seconds:
            break
        if elapsed + per_rep > LAST_START_S:
            break
    return {"work": work, "reps": reps, "seconds": time.perf_counter() - started}


def failures(args, root: Path, measured: dict) -> tuple[int, int, list[str]]:
    """(commands attempted, commands failed, problems), counted over the
    untraced runs. A command fails when it raises or exits non-zero, when a
    check on its outputs fails, or when its outputs differ from the traced
    twin, from an earlier run on the same inputs, or from the reference."""
    sys.path.insert(0, str(root / "src"))
    from checks import check_outputs

    reference = json.loads(REFERENCE.read_text(encoding="utf-8")) if REFERENCE.exists() else {}
    log_path, log = repeat_log(root)
    attempted = failed = 0
    problems: list[str] = []
    for entry in measured["reps"]:
        inputs = entry["inputs"]
        run = entry["runs"]["untraced"]
        names = [argv[0] for argv in inputs.commands]
        bad: dict[str, str] = {}
        for record in run["commands"]:
            if record["exit"] != 0:
                bad[record["command"]] = f"exit {record['exit']}: {record['error']}"
        for name in names[len(run["commands"]):]:
            bad[name] = "not run: an earlier command failed"
        if not bad:
            out = measured["work"] / f"r{entry['rep']}" / "untraced" / "out"
            for name, found in check_outputs(out, inputs.files, inputs.commands).items():
                if found:
                    bad.setdefault(name, "; ".join(found[:3]))
        expected = {}
        if "traced" in entry["runs"]:
            expected["traced run"] = entry["runs"]["traced"]["digests"]
        key = input_digest(inputs)
        if key in log:
            expected["earlier run"] = log[key]
        elif not bad:
            log[key] = run["digests"]
        if args.seed == REFERENCE_SEED and entry["rep"] == 0 and args.scale == 1.0:
            if args.record_reference:
                reference[args.workload] = {"inputs": key, "outputs": run["digests"]}
                REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
            elif args.workload in reference:
                if reference[args.workload]["inputs"] != key:
                    raise BenchError(f"reference.json holds {args.workload} outputs for other "
                                     "inputs; the generator changed, record it again")
                expected["reference"] = reference[args.workload]["outputs"]
        for source, digests in expected.items():
            for filename in sorted(set(digests) | set(run["digests"])):
                if digests.get(filename) != run["digests"].get(filename):
                    bad.setdefault(producer(filename), f"{filename} differs from the {source}")
        attempted += len(names)
        failed += len(bad)
        problems += [f"rep {entry['rep']} {name}: {why}" for name, why in bad.items()]
    log_path.write_text(json.dumps(log, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return attempted, failed, problems


def command_seconds(run: dict) -> dict[str, float]:
    return {record["command"]: record["seconds"] for record in run["commands"]}


def end_to_end(runs: list[dict]) -> dict[str, float]:
    values = {
        "setup_s": [r["setup_s"] for r in runs],
        "pipeline_s": [sum(command_seconds(r).values()) for r in runs],
        "peak_rss_mb": [r["peak_rss_mb"] for r in runs],
    }
    for command in ("mine", "reduce", "eval"):
        times = [command_seconds(r)[command] for r in runs if command in command_seconds(r)]
        if times:
            values[f"{command}_s"] = times
    return {name: statistics.median(v) for name, v in values.items()}


def per_layer(measured: dict) -> tuple[dict[str, float], list[str]]:
    untraced = [e["runs"]["untraced"] for e in measured["reps"]]
    traced = [e["runs"]["traced"] for e in measured["reps"]]
    names = traced[0]["trace"]["metrics"].keys()
    metrics = {n: statistics.median(r["trace"]["metrics"][n] for r in traced) for n in names}
    metrics["setup.import_s"] = statistics.median(r["import_s"] for r in untraced)
    metrics["trace.overhead_s"] = (
        end_to_end(traced)["pipeline_s"] - end_to_end(untraced)["pipeline_s"]
    )
    notes = []
    for command, spans in traced[0]["trace"]["commands"].items():
        inner = {n: v for n, v in spans.items() if n != command}
        for key in ("self_s", "total_s"):
            top = sorted(inner.items(), key=lambda kv: -kv[1][key])[:3]
            notes.append(f"{command} largest {key}: "
                         + ", ".join(f"{n} {v[key]:.3f}" for n, v in top))
    return metrics, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(gen.WORKLOADS))
    parser.add_argument("--seed", type=int, default=REFERENCE_SEED)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--record-reference", action="store_true")
    args = parser.parse_args(argv)

    root = Path.cwd()
    try:
        if not (root / "src" / "redesc" / "cli.py").is_file():
            raise BenchError(f"no redesc source tree under {root}/src; run from a checkout root")
        declared = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
        measured = measure(args, root)
        attempted, failed, problems = failures(args, root, measured)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2

    untraced = [e["runs"]["untraced"] for e in measured["reps"]]
    shown = end_to_end(untraced)
    shown["fail_ratio"] = failed / attempted
    units = {"fail_ratio": "1", "mine_s": "s", "reduce_s": "s", "eval_s": "s"}
    declared_e2e = {m["name"]: m["unit"] for m in declared["end_to_end"]}
    units.update(declared_e2e)
    print(f"workload {args.workload} seed {args.seed}: {len(measured['reps'])} repetitions "
          f"in {measured['seconds']:.1f} s; inputs of repetition 0: "
          + ", ".join(f"{k}={v}" for k, v in measured["reps"][0]["inputs"].sizes.items()))
    for name, value in shown.items():
        print(f"{name:<14} {value:12.4f} {units[name]}")
    for problem in problems[:20]:
        print(f"FAILED {problem}")

    if args.trace:
        layer, notes = per_layer(measured)
        for note in notes:
            print(note)
        metrics = {}
        for m in declared["per_layer"]:
            if m["name"] not in layer:
                print(f"benchmark error: per-layer metric {m['name']} was not measured",
                      file=sys.stderr)
                return 2
            metrics[m["name"]] = {"value": layer[m["name"]], "unit": m["unit"]}
            print(f"{m['name']:<44} {layer[m['name']]:16.6f} {m['unit']}")
    else:
        metrics = {n: {"value": shown[n], "unit": u} for n, u in declared_e2e.items()}

    (measured["work"] / "summary.json").write_text(json.dumps(
        {"workload": args.workload, "seed": args.seed, "scale": args.scale,
         "inputs": [e["inputs"].sizes for e in measured["reps"]],
         "runs": [e["runs"] for e in measured["reps"]], "problems": problems,
         "metrics": metrics}, indent=1), encoding="utf-8")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
