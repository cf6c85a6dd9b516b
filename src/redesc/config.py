"""Run configuration: a documented key-value file mirrored by CLI flags.

Grammar: one `key = value` pair per line; `#` starts a comment; blank lines
are ignored. The `weights` key may repeat, each occurrence adding one row of
the importance-weight matrix (5 or 6 comma-separated non-negative numbers).
Any other key is rejected.

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
  dedup_supports                   true | false: keep one member per support
  operator_mode                    conj | conjneg | all
  refine                           true | false
  disjunction_threshold            accuracy gate for disjunction building
  max_disjuncts                    disjuncts added per query at most
  sizes                            reduced-set sizes, comma separated
  weights                          one importance-weight row (repeatable)
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from pathlib import Path

from .measures import Constraints
from .mine import MiningParams
from .reduce import WeightVector
from .tree import PctParams

_MODE_ALIASES = {"conj": "conjunctive", "conjneg": "conjneg", "all": "all"}

_KEYS = frozenset(
    {
        "view1", "schema1", "view2", "schema2", "out", "seed",
        "min_jaccard", "min_ref_jaccard", "max_pvalue", "min_support", "max_support",
        "max_iter", "max_depth", "min_leaf_size", "target_window", "max_set_size",
        "dedup_supports", "operator_mode", "refine", "disjunction_threshold",
        "max_disjuncts", "sizes", "weights",
    }
)


class ConfigError(ValueError):
    """Unusable configuration file or flag combination."""


def parse_config_file(path: str | Path) -> dict:
    """Raw key-value pairs; `weights` accumulates into a list of rows."""
    out: dict = {}
    for lineno, raw in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in _KEYS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        if key == "weights":
            out.setdefault("weights", []).append(value)
        elif key in out:
            raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
        else:
            out[key] = value
    return out


def _as_bool(value: str, key: str) -> bool:
    low = value.lower()
    if low in ("true", "1", "yes"):
        return True
    if low in ("false", "0", "no"):
        return False
    raise ConfigError(f"{key} must be true or false, got {value!r}")


def _as_int(value: str, key: str) -> int:
    try:
        return int(value)
    except ValueError:
        raise ConfigError(f"{key} must be an integer, got {value!r}") from None


def _as_float(value: str, key: str) -> float:
    try:
        return float(value)
    except ValueError:
        raise ConfigError(f"{key} must be a number, got {value!r}") from None


@dataclass
class RunConfig:
    """Everything one invocation needs, resolved from file plus flags."""

    view1: str | None = None
    schema1: str | None = None
    view2: str | None = None
    schema2: str | None = None
    out: str = "out"
    seed: int = 0
    constraints: Constraints = field(default_factory=Constraints)
    mining: MiningParams = field(default_factory=MiningParams)
    weight_rows: list[WeightVector] = field(default_factory=list)
    sizes: list[int] = field(default_factory=lambda: [50])

    @classmethod
    def from_sources(cls, config_path: str | Path | None, overrides: dict) -> "RunConfig":
        """Merge a config file (if any) with CLI overrides (which win)."""
        raw = parse_config_file(config_path) if config_path else {}
        raw.update({k: v for k, v in overrides.items() if v is not None})

        def take(key, default=None):
            return raw.get(key, default)

        try:
            min_support = _as_int(take("min_support", "10"), "min_support")
            max_support_raw = _as_int(take("max_support", "0"), "max_support")
            min_ref_raw = take("min_ref_jaccard")
            constraints = Constraints(
                min_jaccard=_as_float(take("min_jaccard", "0.6"), "min_jaccard"),
                min_ref_jaccard=(
                    None if min_ref_raw is None else _as_float(min_ref_raw, "min_ref_jaccard")
                ),
                max_pvalue=_as_float(take("max_pvalue", "0.01"), "max_pvalue"),
                min_support=min_support,
                max_support=None if max_support_raw == 0 else max_support_raw,
            )
            leaf_raw = _as_int(take("min_leaf_size", "0"), "min_leaf_size")
            pct = PctParams(
                max_depth=_as_int(take("max_depth", "7"), "max_depth"),
                min_leaf_size=leaf_raw if leaf_raw > 0 else max(2, min_support // 2),
            )
            mode = str(take("operator_mode", "all"))
            mode = _MODE_ALIASES.get(mode, mode)
            disj_raw = take("disjunction_threshold")
            mining = MiningParams(
                max_iter=_as_int(take("max_iter", "3"), "max_iter"),
                pct=pct,
                seed=_as_int(take("seed", "0"), "seed"),
                use_refinement=_as_bool(str(take("refine", "true")), "refine"),
                operator_mode=mode,
                target_window=_as_int(take("target_window", "64"), "target_window"),
                max_set_size=_as_int(take("max_set_size", "10000"), "max_set_size"),
                dedup_supports=_as_bool(str(take("dedup_supports", "true")), "dedup_supports"),
                disjunction_threshold=(
                    None if disj_raw is None else _as_float(disj_raw, "disjunction_threshold")
                ),
                max_disjuncts=_as_int(take("max_disjuncts", "2"), "max_disjuncts"),
            )
            weight_rows = [
                WeightVector.from_row([x.strip() for x in row.split(",")])
                for row in raw.get("weights", [])
            ] or [WeightVector(0.2, 0.2, 0.2, 0.2, 0.2, 0.0)]
            sizes = [
                _as_int(x.strip(), "sizes") for x in str(take("sizes", "50")).split(",")
            ]
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        if any(s < 1 for s in sizes):
            raise ConfigError("sizes must all be at least 1")
        return cls(
            view1=take("view1"),
            schema1=take("schema1"),
            view2=take("view2"),
            schema2=take("schema2"),
            out=str(take("out", "out")),
            seed=_as_int(take("seed", "0"), "seed"),
            constraints=constraints,
            mining=mining,
            weight_rows=weight_rows,
            sizes=sizes,
        )

    def require_dataset(self) -> None:
        missing = [
            name
            for name in ("view1", "schema1", "view2", "schema2")
            if getattr(self, name) is None
        ]
        if missing:
            raise ConfigError(f"missing dataset inputs: {', '.join(missing)}")

    def digest(self) -> str:
        """Stable hash of the effective configuration, for run reports."""
        parts = [
            f"view1={self.view1}",
            f"schema1={self.schema1}",
            f"view2={self.view2}",
            f"schema2={self.schema2}",
            f"seed={self.seed}",
            f"constraints={self.constraints}",
            f"mining={self.mining}",
            f"weights={[w.as_tuple() for w in self.weight_rows]}",
            f"sizes={self.sizes}",
        ]
        return hashlib.sha256("\n".join(parts).encode("utf-8")).hexdigest()
