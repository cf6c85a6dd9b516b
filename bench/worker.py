"""One benchmark pipeline in a fresh process.

Run by `run.py`, once per repetition:

    python3 bench/worker.py <spec.json> <result.json>

The spec names the source tree, the workload's input files, the CLI argument
lists and whether to trace. The worker times its own set-up (from its first
line to `redesc.cli` imported and both views loaded), then calls
`redesc.cli.main` in-process for each command, and writes the timings, the
peak RSS, the exit codes and a SHA-256 digest of every output file to the
result file.
"""

import time

_T0 = time.perf_counter()

import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

# Files whose bytes must not change between runs of one seed. The run
# reports are left out: they hold wall times.
OUTPUT_GLOBS = ("mined.tsv", "reduced_*.tsv", "eval_*.csv")


def digests(out_dir: Path) -> dict[str, str]:
    found = {}
    for pattern in OUTPUT_GLOBS:
        for path in sorted(out_dir.glob(pattern)):
            found[path.name] = hashlib.sha256(path.read_bytes()).hexdigest()
    return found


def main(spec_path: str, result_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text(encoding="utf-8"))
    sys.path.insert(0, spec["src"])
    started = time.perf_counter()
    import redesc.cli as cli
    import_s = time.perf_counter() - started

    tracer = None
    if spec["trace"]:
        sys.path.insert(0, str(Path(__file__).resolve().parent))
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    files = spec["files"]
    from redesc.dataset import load_dataset

    load_dataset(files["view1"], files["schema1"], files["view2"], files["schema2"])
    setup_s = time.perf_counter() - _T0

    out_dir = Path(spec["out"])
    commands = []
    for argv in spec["commands"]:
        argv = [a.replace("{out}", str(out_dir)) for a in argv]
        record = {"command": argv[0], "exit": None, "seconds": None, "error": None}
        commands.append(record)
        sink = io.StringIO()
        started = time.perf_counter()
        try:
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                record["exit"] = cli.main(argv)
        except Exception:  # a raising command is a failed command, not a crash
            record["error"] = traceback.format_exc(limit=3)
        record["seconds"] = time.perf_counter() - started
        if record["exit"] != 0:
            if record["error"] is None:
                record["error"] = sink.getvalue()[-2000:]
            break  # later commands read this one's outputs

    result = {
        "import_s": import_s,
        "setup_s": setup_s,
        "commands": commands,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "digests": digests(out_dir),
    }
    if tracer is not None:
        tracer.uninstall()
        result["trace"] = tracer.summary(Path(spec["spans"]))
    Path(result_path).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
