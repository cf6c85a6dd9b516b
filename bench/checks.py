"""Correctness checks on one pipeline's outputs.

Every statistic in `mined.tsv` must be re-derived exactly when the file is
read back against the views, and every member must satisfy the workload's
constraints. Every reduced set must be a duplicate-free subset of its input
with at most the requested size. The evaluation files must hold one row per
evaluated record. Problems are reported per command, so each one counts
against the command that wrote the file.
"""

from __future__ import annotations

import csv
from pathlib import Path


def _records(path: Path) -> list[list[str]]:
    lines = path.read_text(encoding="utf-8").splitlines()
    return [line.split("\t") for line in lines if line.strip() and not line.startswith("#")]


def _stat_fields(m) -> list[str]:
    return [m.key[0], m.key[1], repr(m.j_qnm), repr(m.j_opt), repr(m.j_pess),
            repr(m.p_value), repr(m.variability), str(m.support_size), str(m.attr_count)]


def check_outputs(out_dir: Path, files: dict, commands: list[list[str]]) -> dict[str, list[str]]:
    """Return {command name: [problem, ...]} for one pipeline's outputs."""
    from redesc.config import RunConfig
    from redesc.dataset import load_dataset
    from redesc.interchange import read_records

    cfg = RunConfig.from_sources(files["config"], {})
    dataset = load_dataset(files["view1"], files["schema1"], files["view2"], files["schema2"])
    names = [argv[0] for argv in commands]
    problems: dict[str, list[str]] = {name: [] for name in names}

    if "mine" in names:
        mined = out_dir / "mined.tsv"
        members, rejected = read_records(mined, dataset)
        if rejected:
            problems["mine"].append(f"{len(rejected)} mined records do not parse")
        for m, fields in zip(members, _records(mined)):
            if fields != _stat_fields(m):
                problems["mine"].append(f"statistics of {m.key} do not re-derive")
            if not cfg.constraints.admits(m):
                problems["mine"].append(f"{m.key} violates the constraints")
        pool_keys = {m.key for m in members}
    else:
        pool_keys = set()
        for argv in commands:
            if argv[0] == "reduce":
                members, _ = read_records(argv[1], dataset)
                pool_keys = {m.key for m in members}

    for size in cfg.sizes:
        for row in range(1, len(cfg.weight_rows) + 1):
            path = out_dir / f"reduced_w{row}_n{size}.tsv"
            if not path.exists():
                problems["reduce"].append(f"{path.name} is missing")
                continue
            keys = [(r[0], r[1]) for r in _records(path)]
            if len(keys) > size:
                problems["reduce"].append(f"{path.name} holds {len(keys)} > {size} members")
            if len(set(keys)) != len(keys):
                problems["reduce"].append(f"{path.name} repeats a member")
            if not set(keys) <= pool_keys:
                problems["reduce"].append(f"{path.name} holds members not in its input")

    evaluated = next(argv[1] for argv in commands if argv[0] == "eval")
    expected = len(_records(Path(evaluated.replace("{out}", str(out_dir)))))
    with (out_dir / "eval_redescriptions.csv").open(newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))[1:]
    if len(rows) != expected:
        problems["eval"].append(f"eval_redescriptions.csv has {len(rows)} rows, expected {expected}")
    with (out_dir / "eval_summary.csv").open(newline="", encoding="utf-8") as fh:
        header, values = list(csv.reader(fh))
    if int(dict(zip(header, values))["redescriptions"]) != expected:
        problems["eval"].append("eval_summary.csv counts the wrong number of redescriptions")
    return problems
