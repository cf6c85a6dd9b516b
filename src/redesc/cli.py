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
import functools
import gc
import json
import math
import sys
import time
from pathlib import Path

from . import __version__
from .config import FIELDS, MODE_ALIASES, ConfigError, RunConfig
from .dataset import DataError, Dataset, SchemaError, load_dataset
from .interchange import STATS, merge_records, read_records, record_fields, write_records
from .measures import PVALUE_SCORE_FLOOR, PackedMembers, aaj, aej, score_size
from .mine import mine
from .reduce import reduce_set

EXIT_OK = 0
EXIT_ERROR = 2


def _log10_floored(pv: float) -> float:
    return math.log10(max(pv, PVALUE_SCORE_FLOOR))


def _eval_row(record: list[str], log10_p_value: str, elem: str, attr: str) -> list[str]:
    """An interchange record's fields (or column names) as `eval` writes them:
    log10_p_value after p_value, then the two redundancy columns."""
    at = 2 + STATS.index("p_value") + 1
    return [*record[:at], log10_p_value, *record[at:], elem, attr]


def _require_files(paths) -> None:
    for path in paths:
        if not Path(path).exists():
            raise ConfigError(f"input file does not exist: {path}")


def _load_dataset(cfg: RunConfig) -> Dataset:
    paths = {name: getattr(cfg, name) for name in ("view1", "schema1", "view2", "schema2")}
    missing = [name for name, path in paths.items() if path is None]
    if missing:
        raise ConfigError(f"missing dataset inputs: {', '.join(missing)}")
    _require_files(paths.values())
    return load_dataset(*paths.values())


def _usable(records, rejected) -> bool:
    """Report each rejected record; False, after saying so, when none is left."""
    for bad in rejected:
        print(f"rejected record in {bad.path} at line {bad.line_no}: {bad.reason}", file=sys.stderr)
    if not records:
        print("no usable records in input", file=sys.stderr)
    return bool(records)


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
    _require_files(args.inputs)
    out_dir = Path(cfg.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    pool, rejected = merge_records(args.inputs, dataset)
    if not _usable(pool, rejected):
        return EXIT_ERROR

    outputs = []
    rows = len(cfg.weight_rows)
    for i, reduced in enumerate(reduce_set(pool, cfg.weight_rows, cfg.sizes)):
        path = out_dir / f"reduced_w{i % rows + 1}_n{reduced.n}.tsv"
        write_records(path, reduced.members)
        outputs.append(
            {
                "weights": reduced.weights.as_tuple(),
                "requested": reduced.n,
                "selected": len(reduced.members),
                "output": str(path),
            }
        )
        print(f"reduced set ({len(reduced.members)}/{reduced.n}) -> {path}")
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
    _require_files((args.input,))
    out_dir = Path(cfg.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    members, rejected = read_records(args.input, dataset)
    if not _usable(members, rejected):
        return EXIT_ERROR

    packed = PackedMembers(members)
    redundancy = list(zip(aej(packed).tolist(), aaj(packed).tolist()))
    rows_path = out_dir / "eval_redescriptions.csv"
    with rows_path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(_eval_row(["query1", "query2", *STATS], "log10_p_value", "aej", "aaj"))
        for m, (m_aej, m_aaj) in zip(members, redundancy):
            log10 = repr(_log10_floored(m.p_value))
            writer.writerow(_eval_row(record_fields(m), log10, repr(m_aej), repr(m_aaj)))

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


@functools.cache
def _freeze_start_up() -> None:
    """Once per process, move what the imports left (numpy, scipy, this
    package) out of the collector's reach, so no full collection walks it
    inside a command. Objects made later stay collectable. Counting the
    frozen objects walks them all, so the count is read only once."""
    if gc.get_freeze_count() == 0:
        gc.freeze()


def main(argv=None) -> int:
    _freeze_start_up()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, SchemaError, DataError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
