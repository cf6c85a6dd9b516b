"""Run configuration: a documented key-value file mirrored by CLI flags.

Grammar: one `key = value` pair per line; `#` starts a comment; blank lines
are ignored. The `weights` key may repeat, each occurrence adding one row of
the importance-weight matrix (5 or 6 comma-separated non-negative numbers).
Any other key is rejected.

Each CLI flag sets the key of its name (`--no-refine` is `refine = false`)
and overrides the file. `FIELDS` maps each key to the dataclass field it sets;
a key given nowhere keeps that field's default. Two values are sentinels:
`max_support = 0` is unbounded, and `min_leaf_size <= 0` (or absent) is
`max(2, min_support // 2)`.

Recognized keys:

  view1, schema1, view2, schema2   dataset file paths
  out                              output directory
  seed                             integer random seed
  min_jaccard, min_ref_jaccard     accuracy floors (admission / refinement)
  max_pvalue                       significance ceiling
  min_support, max_support         support bounds (max_support 0 = unbounded)
  max_iter                         mining iterations
  max_depth, min_leaf_size         tree limits (min_leaf_size 0 = auto)
  target_window                    most-recent-rules cap for target matrices
  max_set_size                     mined-set memory cap
  operator_mode                    conj | conjneg | all
  refine                           true | false
  disjunction_threshold            accuracy gate for disjunction building
  max_disjuncts                    disjuncts added per query at most
  sizes                            distinct reduced-set sizes, comma separated
  weights                          one importance-weight row (repeatable)
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from pathlib import Path

from .dataset import read_lines
from .measures import Constraints
from .mine import MiningParams
from .reduce import EQUAL_WEIGHTS, WeightVector
from .tree import PctParams

MODE_ALIASES = {"conj": "conjunctive", "conjneg": "conjneg", "all": "all"}


class ConfigError(ValueError):
    """Unusable configuration file or flag combination."""


def parse_config_file(path: str | Path) -> dict:
    """Raw key-value pairs; `weights` accumulates into a list of rows."""
    out: dict = {}
    for lineno, raw in enumerate(read_lines(path), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in FIELDS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        if key == "weights":
            out.setdefault("weights", []).append(value)
        elif key in out:
            raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
        else:
            out[key] = value
    return out


def _as_str(value, key: str) -> str:
    return str(value)


def _as_bool(value, key: str) -> bool:
    low = str(value).lower()
    if low in ("true", "1", "yes"):
        return True
    if low in ("false", "0", "no"):
        return False
    raise ConfigError(f"{key} must be true or false, got {value!r}")


def _as_int(value, key: str) -> int:
    try:
        return int(value)
    except ValueError:
        raise ConfigError(f"{key} must be an integer, got {value!r}") from None


def _as_float(value, key: str) -> float:
    try:
        return float(value)
    except ValueError:
        raise ConfigError(f"{key} must be a number, got {value!r}") from None


def _as_bound(value, key: str) -> int | None:
    return _as_int(value, key) or None  # 0: unbounded


def _as_mode(value, key: str) -> str:
    try:
        return MODE_ALIASES[str(value)]
    except KeyError:
        raise ConfigError(
            f"{key} must be one of {', '.join(MODE_ALIASES)}, got {value!r}"
        ) from None


def _as_sizes(value, key: str) -> list[int]:
    sizes = [_as_int(x.strip(), key) for x in str(value).split(",")]
    if any(s < 1 for s in sizes):
        raise ConfigError(f"{key} must all be at least 1")
    if len(set(sizes)) < len(sizes):
        raise ConfigError(f"{key} must be distinct, got {value!r}")
    return sizes


def _as_weights(rows, key: str) -> list[WeightVector]:
    weights = []
    for row in rows:
        try:
            weights.append(WeightVector.from_row([x.strip() for x in row.split(",")]))
        except ValueError as exc:
            raise ConfigError(f"{exc}, in {key} = {row}") from None
    return weights


# key -> (section, dataclass field, parser). Section "run" is RunConfig itself;
# the others are the Constraints, MiningParams and PctParams it holds.
FIELDS = {
    **{key: ("run", key, _as_str) for key in ("view1", "schema1", "view2", "schema2", "out")},
    "sizes": ("run", "sizes", _as_sizes),
    "weights": ("run", "weight_rows", _as_weights),
    "min_jaccard": ("constraints", "min_jaccard", _as_float),
    "min_ref_jaccard": ("constraints", "min_ref_jaccard", _as_float),
    "max_pvalue": ("constraints", "max_pvalue", _as_float),
    "min_support": ("constraints", "min_support", _as_int),
    "max_support": ("constraints", "max_support", _as_bound),
    "seed": ("mining", "seed", _as_int),
    "max_iter": ("mining", "max_iter", _as_int),
    "target_window": ("mining", "target_window", _as_int),
    "max_set_size": ("mining", "max_set_size", _as_int),
    "operator_mode": ("mining", "operator_mode", _as_mode),
    "refine": ("mining", "use_refinement", _as_bool),
    "disjunction_threshold": ("mining", "disjunction_threshold", _as_float),
    "max_disjuncts": ("mining", "max_disjuncts", _as_int),
    "max_depth": ("pct", "max_depth", _as_int),
    "min_leaf_size": ("pct", "min_leaf_size", _as_int),
}


@dataclass
class RunConfig:
    """Everything one invocation needs, resolved from file plus flags."""

    view1: str | None = None
    schema1: str | None = None
    view2: str | None = None
    schema2: str | None = None
    out: str = "out"
    constraints: Constraints = field(default_factory=Constraints)
    mining: MiningParams = field(default_factory=MiningParams)
    weight_rows: list[WeightVector] = field(default_factory=lambda: [EQUAL_WEIGHTS])
    sizes: list[int] = field(default_factory=lambda: [50])

    @classmethod
    def from_sources(cls, config_path: str | Path | None, overrides: dict) -> "RunConfig":
        """Merge a config file (if any) with overrides keyed like the file
        (which win; None values are ignored)."""
        raw = parse_config_file(config_path) if config_path else {}
        raw.update({k: v for k, v in overrides.items() if v is not None})
        sections: dict[str, dict] = {"run": {}, "constraints": {}, "mining": {}, "pct": {}}
        try:
            for key, value in raw.items():
                section, name, parse = FIELDS[key]
                sections[section][name] = parse(value, key)
            constraints = Constraints(**sections["constraints"])
            pct = sections["pct"]
            if pct.get("min_leaf_size", 0) <= 0:
                pct["min_leaf_size"] = max(2, constraints.min_support // 2)
            mining = MiningParams(pct=PctParams(**pct), **sections["mining"])
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        return cls(constraints=constraints, mining=mining, **sections["run"])

    def digest(self) -> str:
        """Stable hash of the effective configuration, for run reports."""
        parts = [
            f"view1={self.view1}",
            f"schema1={self.schema1}",
            f"view2={self.view2}",
            f"schema2={self.schema2}",
            f"seed={self.mining.seed}",
            f"constraints={self.constraints}",
            f"mining={self.mining}",
            f"weights={[w.as_tuple() for w in self.weight_rows]}",
            f"sizes={self.sizes}",
        ]
        return hashlib.sha256("\n".join(parts).encode("utf-8")).hexdigest()
