"""Seeded input generator for the benchmark workloads.

Builds latent-factor two-view data (numeric, boolean and categorical columns
with missing cells) and generated interchange pools, and writes them as the
CSV views, schemas, run config and interchange files the `redesc` CLI reads.
Only numpy is used, so the inputs depend neither on the program under test
nor on its test suite. The same (workload, seed, rep, scale) always gives
the same bytes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

MISSING_RATE = 0.05
# Column loadings, offsets, thresholds and label counts belong to a
# workload's definition and come from this fixed stream; the seed draws the
# rows, the noise and the missing cells.
SHAPE_SEED = 20160612

# one weight row per kind of user: balanced, accuracy-first, and one that
# also penalises accuracy variability under missing values
WEIGHT_ROWS = (
    "0.2,0.2,0.2,0.2,0.2,0.0",
    "0.6,0.2,0.0,0.0,0.2,0.0",
    "0.14,0.14,0.14,0.14,0.14,0.3",
)
SIZES = (25, 50)

# Sizes are the defaults at scale 1.0; the self-test runs them scaled down.
WORKLOADS = {
    # Two latent factors under 10 numeric and 14 boolean columns. The signal
    # is strong, so many rule pairs qualify and refinement (with the query
    # minimization it calls) dominates `mine`; disjunctions are built. The
    # mined set, and with it the time, varies up to 2x from sample to
    # sample, so this workload serves traced studies and is not listed in
    # BENCHMARK.json.
    "latent_refine": {
        "views": "latent", "rows": 800, "factors": 2, "numeric": 10, "boolean": 14,
        "num_noise": 0.1, "bool_noise": 0.05,
        "operator_mode": "all", "max_iter": 1, "eval": "reduced_w1_n50.tsv",
    },
    # Many wide, noisy columns: tree induction dominates `mine`; a few
    # low-noise factors make every seed mine a small nonzero pool. No
    # disjunctions (`conjneg`).
    "wide_trees": {
        "views": "wide", "rows": 1200, "plain": 40, "clear": 6, "categorical": 8,
        "operator_mode": "conjneg", "max_iter": 3, "eval": "reduced_w1_n50.tsv",
    },
    # A foreign pool over the latent_refine view pair goes straight to
    # `reduce`, and a second generated set to `eval`; nothing is mined. The
    # pool sizes are fixed, so the work varies little from seed to seed.
    "pool_reduce": {
        "views": "latent", "rows": 800, "factors": 2, "numeric": 10, "boolean": 14,
        "num_noise": 0.1, "bool_noise": 0.05,
        "operator_mode": "all", "max_iter": 1, "pool": 300, "eval_pool": 300,
    },
}


@dataclass
class Column:
    name: str
    kind: str  # numeric | boolean | categorical
    values: np.ndarray  # NaN marks a missing cell; categorical: int codes, -1 missing
    labels: tuple[str, ...] = ()


@dataclass
class Inputs:
    """Paths, CLI argument lists and sizes of one workload's generated inputs.
    Argument lists hold the placeholder `{out}` for the output directory."""

    files: dict[str, str] = field(default_factory=dict)
    commands: list[list[str]] = field(default_factory=list)
    sizes: dict[str, int] = field(default_factory=dict)


def _rng(*key: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(list(key)))


def _mask_missing(rng: np.random.Generator, col: Column) -> Column:
    drop = rng.random(len(col.values)) < MISSING_RATE
    values = col.values.copy()
    values[drop] = -1 if col.kind == "categorical" else np.nan
    return Column(col.name, col.kind, values, col.labels)


def _numeric(rng, shape, name: str, factor: np.ndarray, noise: float) -> Column:
    loading = shape.uniform(0.8, 1.5) * shape.choice((-1.0, 1.0))
    offset = shape.uniform(-3.0, 3.0)
    values = loading * factor + offset + noise * rng.standard_normal(len(factor))
    return Column(name, "numeric", np.round(values, 3))


def _boolean(rng, shape, name: str, factor: np.ndarray, noise: float) -> Column:
    threshold = shape.uniform(-0.8, 0.8)
    values = factor + noise * rng.standard_normal(len(factor)) > threshold
    return Column(name, "boolean", values.astype(np.float64))


def _categorical(rng, shape, name: str, factor: np.ndarray, flip: float) -> Column:
    k = int(shape.integers(3, 7))
    cuts = np.quantile(factor, np.linspace(0, 1, k + 1)[1:-1])
    codes = np.searchsorted(cuts, factor).astype(np.int64)
    noisy = rng.random(len(factor)) < flip
    codes[noisy] = rng.integers(0, k, int(noisy.sum()))
    return Column(name, "categorical", codes, tuple(f"L{i}" for i in range(k)))


def latent_views(rng, recipe: dict, n: int) -> tuple[list[Column], list[Column]]:
    """Numeric columns (noisy linear functions of one latent factor each)
    against booleans (noisy thresholds on one factor each)."""
    shape = _rng(SHAPE_SEED, 1)
    k = recipe["factors"]
    z = rng.standard_normal((n, k))
    v1 = [_numeric(rng, shape, f"x{j}", z[:, j % k], recipe["num_noise"])
          for j in range(recipe["numeric"])]
    v2 = [_boolean(rng, shape, f"b{j}", z[:, j % k], recipe["bool_noise"])
          for j in range(recipe["boolean"])]
    return [_mask_missing(rng, c) for c in v1], [_mask_missing(rng, c) for c in v2]


def wide_views(rng, recipe: dict, n: int) -> tuple[list[Column], list[Column]]:
    """Numeric + categorical columns against booleans + categoricals. Ten
    high-noise factors carry most columns; three low-noise factors carry
    `clear` columns and two categoricals on each side."""
    shape = _rng(SHAPE_SEED, 2)
    noisy = rng.standard_normal((n, 10))
    clear = rng.standard_normal((n, 3))
    v1: list[Column] = []
    v2: list[Column] = []
    for j in range(recipe["plain"]):
        if j < recipe["clear"]:
            v1.append(_numeric(rng, shape, f"x{j}", clear[:, j % 3], 0.2))
            v2.append(_boolean(rng, shape, f"b{j}", clear[:, j % 3], 0.1))
        else:
            v1.append(_numeric(rng, shape, f"x{j}", noisy[:, j % 10], 1.5))
            v2.append(_boolean(rng, shape, f"b{j}", noisy[:, j % 10], 1.5))
    for j in range(recipe["categorical"]):
        factor = clear[:, j % 3] if j < 2 else noisy[:, j % 10]
        flip = 0.1 if j < 2 else 0.5
        v1.append(_categorical(rng, shape, f"c{j}", factor, flip))
        v2.append(_categorical(rng, shape, f"k{j}", factor, flip))
    return [_mask_missing(rng, c) for c in v1], [_mask_missing(rng, c) for c in v2]


def _cell(col: Column, i: int) -> str:
    v = col.values[i]
    if col.kind == "categorical":
        return "?" if v < 0 else col.labels[int(v)]
    if np.isnan(v):
        return "?"
    if col.kind == "boolean":
        return "1" if v == 1.0 else "0"
    return repr(float(v))


def write_view(cols: list[Column], csv_path: Path, schema_path: Path) -> int:
    """Write a view CSV and its schema; returns the CSV size in bytes."""
    n = len(cols[0].values)
    lines = [",".join(c.name for c in cols)]
    lines += [",".join(_cell(c, i) for c in cols) for i in range(n)]
    text = "\n".join(lines) + "\n"
    csv_path.write_text(text, encoding="utf-8")
    schema_path.write_text("".join(f"{c.name} = {c.kind}\n" for c in cols), encoding="utf-8")
    return len(text.encode("utf-8"))


def generate_pool(
    rng: np.random.Generator, v1: list[Column], v2: list[Column], count: int, min_support: int = 5
) -> list[tuple[str, str]]:
    """Distinct conjunctive pairs: 1-3 interval literals over the numeric
    view against 1-3 possibly negated booleans, each pair holding for at
    least `min_support` rows. Each pair is grown around a random anchor row,
    as a foreign miner might emit it."""
    n = len(v1[0].values)
    records: list[tuple[str, str]] = []
    seen: set[tuple[str, str]] = set()
    for _ in range(200 * count):
        if len(records) == count:
            return records
        row = int(rng.integers(0, n))
        nums = sorted(rng.choice(len(v1), int(rng.integers(1, 4)), replace=False))
        bools = sorted(rng.choice(len(v2), int(rng.integers(1, 4)), replace=False))
        if any(np.isnan(v1[a].values[row]) for a in nums):
            continue
        if any(np.isnan(v2[b].values[row]) for b in bools):
            continue
        holds = np.ones(n, dtype=bool)
        parts1 = []
        for a in nums:
            col = v1[a]
            spread = float(np.nanstd(col.values))
            lo = round(float(col.values[row]) - rng.uniform(0.1, 1.2) * spread, 3)
            hi = round(float(col.values[row]) + rng.uniform(0.1, 1.2) * spread, 3)
            holds &= (col.values >= lo) & (col.values <= hi)  # NaN compares false
            parts1.append(f"[{lo!r} <= {col.name} <= {hi!r}]")
        parts2 = []
        for b in bools:
            col = v2[b]
            holds &= col.values == col.values[row]
            parts2.append(col.name if col.values[row] == 1.0 else f"!{col.name}")
        key = (" & ".join(parts1), " & ".join(parts2))
        if int(holds.sum()) >= min_support and key not in seen:
            seen.add(key)
            records.append(key)
    raise RuntimeError(f"could not generate {count} distinct pool records")


def write_pool(records: list[tuple[str, str]], path: Path) -> None:
    """Interchange file with the two query columns only; readers recompute
    every statistic from the views."""
    lines = ["#q1\tq2"] + [f"{q1}\t{q2}" for q1, q2 in records]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_config(path: Path, recipe: dict) -> None:
    lines = [
        "min_jaccard = 0.6",
        "min_ref_jaccard = 0.4",
        "max_pvalue = 0.01",
        "min_support = 10",
        f"max_iter = {recipe['max_iter']}",
        "max_depth = 7",
        "min_leaf_size = 5",
        f"operator_mode = {recipe['operator_mode']}",
        "refine = true",
        "sizes = " + ",".join(str(s) for s in SIZES),
    ] + [f"weights = {row}" for row in WEIGHT_ROWS]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_inputs(workload: str, seed: int, rep: int, directory: Path, scale: float = 1.0) -> Inputs:
    """Generate every input file of repetition `rep` of one workload run into
    `directory`. Each repetition of a run draws a fresh sample from the
    run's seed."""
    recipe = WORKLOADS[workload]
    rng = _rng(seed, rep, 1)
    mining_seed = int(np.random.SeedSequence([seed, rep, 2]).generate_state(1)[0])
    directory.mkdir(parents=True, exist_ok=True)
    n = max(60, int(recipe["rows"] * scale))
    views = latent_views if recipe["views"] == "latent" else wide_views
    v1, v2 = views(rng, recipe, n)

    inputs = Inputs()
    f = inputs.files
    for key, name in (("view1", "view1.csv"), ("schema1", "view1.schema"),
                      ("view2", "view2.csv"), ("schema2", "view2.schema"),
                      ("config", "run.cfg")):
        f[key] = str(directory / name)
    csv_bytes = write_view(v1, Path(f["view1"]), Path(f["schema1"]))
    csv_bytes += write_view(v2, Path(f["view2"]), Path(f["schema2"]))
    write_config(Path(f["config"]), recipe)
    inputs.sizes = {"rows": n, "csv_bytes": csv_bytes}
    for side, cols in (("view1", v1), ("view2", v2)):
        for kind in ("numeric", "boolean", "categorical"):
            inputs.sizes[f"{side}_{kind}"] = sum(1 for c in cols if c.kind == kind)

    common = ["--view1", f["view1"], "--schema1", f["schema1"],
              "--view2", f["view2"], "--schema2", f["schema2"],
              "--config", f["config"], "--seed", str(mining_seed), "--out", "{out}"]
    if "pool" in recipe:
        pool = generate_pool(rng, v1, v2, max(20, int(recipe["pool"] * scale)))
        evalset = generate_pool(rng, v1, v2, max(10, int(recipe["eval_pool"] * scale)))
        f["pool"] = str(directory / "pool.tsv")
        f["evalset"] = str(directory / "evalset.tsv")
        write_pool(pool, Path(f["pool"]))
        write_pool(evalset, Path(f["evalset"]))
        inputs.sizes["pool_records"] = len(pool)
        inputs.sizes["eval_records"] = len(evalset)
        inputs.commands = [["reduce", f["pool"], *common], ["eval", f["evalset"], *common]]
    else:
        inputs.commands = [
            ["mine", *common],
            ["reduce", "{out}/mined.tsv", *common],
            ["eval", "{out}/" + recipe["eval"], *common],
        ]
    return inputs
