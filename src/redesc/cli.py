"""Command-line surface: mine, reduce, and eval subcommands.

`mine` runs the full pipeline on a two-view dataset and writes the mined set
in the interchange format plus a JSON run report. `reduce` merges one or more
interchange files (statistics recomputed from the views, never trusted) and
emits one reduced set per importance-weight row and requested size. `eval`
reports per-redescription and set-level quality measures as CSV.

All commands are deterministic under a fixed seed; reports embed the seed,
a configuration hash, and the tool version.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
import time
from pathlib import Path

from . import __version__
from .config import FIELDS, MODE_ALIASES, ConfigError, RunConfig
from .dataset import DataError, Dataset, SchemaError, load_dataset
from .interchange import merge_records, read_records, write_records
from .measures import PVALUE_SCORE_FLOOR, PackedMembers, aaj, aej, score_size
from .mine import mine
from .reduce import reduce_set

EXIT_OK = 0
EXIT_ERROR = 2


def _log10_floored(pv: float) -> float:
    return math.log10(max(pv, PVALUE_SCORE_FLOOR))


def _load_dataset(cfg: RunConfig) -> Dataset:
    cfg.require_dataset()
    for path in (cfg.view1, cfg.schema1, cfg.view2, cfg.schema2):
        if not Path(path).exists():
            raise ConfigError(f"input file does not exist: {path}")
    return load_dataset(cfg.view1, cfg.schema1, cfg.view2, cfg.schema2)


def _run_config(args) -> RunConfig:
    """The config file with the flags the user gave (each dest is its key)."""
    flags = {key: value for key, value in vars(args).items() if key in FIELDS}
    return RunConfig.from_sources(args.config, flags)


def cmd_mine(args) -> int:
    cfg = _run_config(args)
    dataset = _load_dataset(cfg)
    out_dir = Path(cfg.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    started = time.perf_counter()
    result = mine(dataset, cfg.constraints, cfg.mining)
    elapsed = time.perf_counter() - started

    mined_path = out_dir / "mined.tsv"
    write_records(mined_path, result.members)
    report = {
        "command": "mine",
        "tool_version": __version__,
        "seed": cfg.mining.seed,
        "config_hash": cfg.digest(),
        "n_elements": dataset.n_elements,
        "redescriptions": len(result.members),
        "constraints": {
            "min_jaccard": cfg.constraints.min_jaccard,
            "min_ref_jaccard": cfg.constraints.ref_jaccard,
            "max_pvalue": cfg.constraints.max_pvalue,
            "min_support": cfg.constraints.min_support,
            "max_support": cfg.constraints.max_support,
        },
        "operator_mode": cfg.mining.operator_mode,
        "refinement": cfg.mining.use_refinement,
        "iterations": cfg.mining.max_iter,
        "elapsed_seconds": round(elapsed, 3),
        "output": str(mined_path),
    }
    (out_dir / "mine_report.json").write_text(
        json.dumps(report, indent=2) + "\n", encoding="utf-8"
    )
    print(f"mined {len(result.members)} redescriptions -> {mined_path}")
    return EXIT_OK


def cmd_reduce(args) -> int:
    cfg = _run_config(args)
    dataset = _load_dataset(cfg)
    for path in args.inputs:
        if not Path(path).exists():
            raise ConfigError(f"input file does not exist: {path}")
    out_dir = Path(cfg.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    pool, rejected = merge_records(args.inputs, dataset)
    for bad in rejected:
        print(f"rejected record in {bad.path} at line {bad.line_no}: {bad.reason}", file=sys.stderr)
    if not pool:
        print("no usable records in input", file=sys.stderr)
        return EXIT_ERROR

    outputs = []
    for size in cfg.sizes:
        for row_idx, reduced in enumerate(
            reduce_set(pool, cfg.weight_rows, size), start=1
        ):
            path = out_dir / f"reduced_w{row_idx}_n{size}.tsv"
            write_records(path, reduced.members)
            outputs.append(
                {
                    "weights": reduced.weights.as_tuple(),
                    "requested": size,
                    "selected": len(reduced.members),
                    "output": str(path),
                }
            )
            print(f"reduced set ({len(reduced.members)}/{size}) -> {path}")
    report = {
        "command": "reduce",
        "tool_version": __version__,
        "seed": cfg.mining.seed,
        "config_hash": cfg.digest(),
        "inputs": [str(p) for p in args.inputs],
        "pool_size": len(pool),
        "rejected_records": len(rejected),
        "outputs": outputs,
    }
    (out_dir / "reduce_report.json").write_text(
        json.dumps(report, indent=2) + "\n", encoding="utf-8"
    )
    return EXIT_OK


def cmd_eval(args) -> int:
    cfg = _run_config(args)
    dataset = _load_dataset(cfg)
    if not Path(args.input).exists():
        raise ConfigError(f"input file does not exist: {args.input}")
    out_dir = Path(cfg.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    members, rejected = read_records(args.input, dataset)
    for bad in rejected:
        print(f"rejected record in {bad.path} at line {bad.line_no}: {bad.reason}", file=sys.stderr)
    if not members:
        print("no usable records in input", file=sys.stderr)
        return EXIT_ERROR

    packed = PackedMembers(members)
    redundancy = list(zip(aej(packed).tolist(), aaj(packed).tolist()))
    rows_path = out_dir / "eval_redescriptions.csv"
    with rows_path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            [
                "query1",
                "query2",
                "j_qnm",
                "j_opt",
                "j_pess",
                "p_value",
                "log10_p_value",
                "variability",
                "support_size",
                "attr_count",
                "aej",
                "aaj",
            ]
        )
        for m, (m_aej, m_aaj) in zip(members, redundancy):
            writer.writerow(
                [
                    m.key[0],
                    m.key[1],
                    repr(m.j_qnm),
                    repr(m.j_opt),
                    repr(m.j_pess),
                    repr(m.p_value),  # raw, full precision
                    repr(_log10_floored(m.p_value)),
                    repr(m.variability),
                    m.support_size,
                    m.attr_count,
                    repr(m_aej),
                    repr(m_aaj),
                ]
            )

    covered = int((packed.element_counts() > 0).sum())
    n_attrs_total = dataset.view1.n_cols + dataset.view2.n_cols
    summary = {
        "redescriptions": len(members),
        "element_coverage": covered / dataset.n_elements,
        "attribute_coverage": len(packed.attr_col) / n_attrs_total,
        "mean_j_qnm": sum(m.j_qnm for m in members) / len(members),
        "mean_log10_p_value": sum(_log10_floored(m.p_value) for m in members) / len(members),
        "mean_aej": sum(e for e, _ in redundancy) / len(members),
        "mean_aaj": sum(a for _, a in redundancy) / len(members),
        "mean_norm_query_size": sum(score_size(m.attr_count) for m in members) / len(members),
    }
    summary_path = out_dir / "eval_summary.csv"
    with summary_path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(list(summary))
        writer.writerow([repr(v) if isinstance(v, float) else v for v in summary.values()])
    for key, value in summary.items():
        print(f"{key}: {value}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="redesc",
        description="Mine, reduce, and evaluate two-view redescription sets.",
    )
    parser.add_argument("--version", action="version", version=f"redesc {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--view1", help="CSV file for the first view")
        p.add_argument("--schema1", help="schema file for the first view")
        p.add_argument("--view2", help="CSV file for the second view")
        p.add_argument("--schema2", help="schema file for the second view")
        p.add_argument("--config", help="key-value configuration file")
        p.add_argument("--seed", help="random seed (default 0)")
        p.add_argument("--out", help="output directory (default 'out')")

    p_mine = sub.add_parser("mine", help="mine a redescription set from a dataset")
    add_common(p_mine)
    p_mine.add_argument(
        "--operator-mode", choices=list(MODE_ALIASES), help="query operators to allow"
    )
    p_mine.add_argument(
        "--no-refine",
        action="store_const",
        const="false",
        dest="refine",
        help="disable the conjunctive refinement pass",
    )
    p_mine.set_defaults(func=cmd_mine)

    p_reduce = sub.add_parser(
        "reduce", help="extract weighted reduced sets from interchange files"
    )
    add_common(p_reduce)
    p_reduce.add_argument("inputs", nargs="+", help="interchange files to merge")
    p_reduce.add_argument("--sizes", help="comma-separated reduced-set sizes")
    p_reduce.set_defaults(func=cmd_reduce)

    p_eval = sub.add_parser("eval", help="compute quality measures for a set")
    add_common(p_eval)
    p_eval.add_argument("input", help="interchange file to evaluate")
    p_eval.set_defaults(func=cmd_eval)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, SchemaError, DataError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
