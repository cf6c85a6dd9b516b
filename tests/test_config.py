"""Run configuration: defaults, sentinels and the flag-to-key mapping."""

import dataclasses

import pytest

from redesc.config import FIELDS, ConfigError, RunConfig, parse_config_file
from redesc.measures import Constraints
from redesc.mine import MiningParams
from redesc.reduce import EQUAL_WEIGHTS
from redesc.tree import PctParams


def test_no_sources_gives_the_dataclass_defaults():
    cfg = RunConfig.from_sources(None, {})
    assert cfg.constraints == Constraints()
    # min_leaf_size absent is the auto rule: max(2, min_support // 2)
    assert cfg.mining == MiningParams(pct=PctParams(min_leaf_size=5))
    assert cfg.weight_rows == [EQUAL_WEIGHTS]
    assert cfg.sizes == [50]
    assert (cfg.view1, cfg.out) == (None, "out")


def test_every_key_names_a_field_of_its_section():
    classes = {"run": RunConfig, "constraints": Constraints, "mining": MiningParams, "pct": PctParams}
    for key, (section, name, _parse) in FIELDS.items():
        assert name in {f.name for f in dataclasses.fields(classes[section])}, key


def test_sentinels():
    cfg = RunConfig.from_sources(
        None, {"max_support": "0", "min_support": "30", "min_leaf_size": "-1"}
    )
    assert cfg.constraints.max_support is None
    assert cfg.mining.pct.min_leaf_size == 15
    cfg = RunConfig.from_sources(None, {"max_support": "40", "min_leaf_size": "3"})
    assert cfg.constraints.max_support == 40
    assert cfg.mining.pct.min_leaf_size == 3


def test_override_beats_file_and_none_is_ignored(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("seed = 3\nrefine = true\noperator_mode = conj\n", encoding="utf-8")
    cfg = RunConfig.from_sources(path, {"seed": "9", "refine": "false", "operator_mode": None})
    assert cfg.mining.seed == 9
    assert cfg.mining.use_refinement is False
    assert cfg.mining.operator_mode == "conjunctive"


def test_utf8_byte_order_mark_skipped(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("\ufeffmin_jaccard = 0.4\nseed = 3\n", encoding="utf-8")
    assert parse_config_file(path) == {"min_jaccard": "0.4", "seed": "3"}


def test_line_separator_inside_a_comment_stays_in_the_comment(tmp_path):
    # str.splitlines would end the comment at U+2028 and read "inside" as line 2
    path = tmp_path / "run.cfg"
    path.write_text("# a note\u2028inside\nworkers = 3\n", encoding="utf-8")
    with pytest.raises(ConfigError, match=r"run\.cfg:2: unknown key 'workers'"):
        parse_config_file(path)
