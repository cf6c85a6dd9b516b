"""Command-line pipeline, interchange format, and reports."""

import contextlib
import csv
import io
import json
import os
import subprocess
import sys
import tempfile
import textwrap
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import redesc
from redesc.cli import main
from redesc.interchange import read_records, write_records
from redesc.measures import Redescription, mask_jaccard
from redesc.query import parse_query

from conftest import make_dataset, planted_dataset
from reference import write_schema, write_view


@pytest.fixture
def planted_files(tmp_path):
    ds, S = planted_dataset(seed=11)
    paths = {
        "view1": tmp_path / "v1.csv",
        "schema1": tmp_path / "v1.schema",
        "view2": tmp_path / "v2.csv",
        "schema2": tmp_path / "v2.schema",
    }
    write_view(ds.view1, paths["view1"])
    write_schema(ds.view1, paths["schema1"])
    write_view(ds.view2, paths["view2"])
    write_schema(ds.view2, paths["schema2"])
    return ds, S, paths


def _dataset_args(paths):
    return [
        "--view1", str(paths["view1"]),
        "--schema1", str(paths["schema1"]),
        "--view2", str(paths["view2"]),
        "--schema2", str(paths["schema2"]),
    ]


def _csv_rows(path):
    return list(csv.DictReader(path.read_text(encoding="utf-8").splitlines()))


def _mine_config(tmp_path):
    cfg = tmp_path / "mine.cfg"
    cfg.write_text(
        "min_jaccard = 0.9\n"
        "max_pvalue = 0.01\n"
        "min_support = 10\n"
        "max_iter = 3\n"
        "max_depth = 7\n"
        "# leaf floor resolved from min_support when 0\n"
        "min_leaf_size = 5\n",
        encoding="utf-8",
    )
    return cfg


class TestMineCommand:
    def test_planted_run_reports_a_perfect_redescription(self, planted_files, tmp_path):
        _, S, paths = planted_files
        out = tmp_path / "out"
        code = main(
            ["mine", *_dataset_args(paths), "--config", str(_mine_config(tmp_path)),
             "--operator-mode", "conj", "--seed", "0", "--out", str(out)]
        )
        assert code == 0
        report = json.loads((out / "mine_report.json").read_text(encoding="utf-8"))
        assert report["redescriptions"] >= 1
        assert report["seed"] == 0 and report["tool_version"]
        text = (out / "mined.tsv").read_text(encoding="utf-8")
        assert "\t1.0\t" in text  # at least one fully accurate record

    def test_missing_dataset_file_exits_two_and_names_path(self, tmp_path, capsys):
        missing = tmp_path / "nope.csv"
        code = main(
            ["mine", "--view1", str(missing), "--schema1", str(missing),
             "--view2", str(missing), "--schema2", str(missing)]
        )
        assert code == 2
        assert str(missing) in capsys.readouterr().err

    @pytest.mark.parametrize(
        "token", ["bogus", "nan", "inf", "-inf", "infinity", "1e999", "1_5"]
    )
    def test_bad_numeric_cell_exits_two_and_names_file_line(
        self, planted_files, tmp_path, capsys, token
    ):
        _, _, paths = planted_files
        lines = paths["view1"].read_text(encoding="utf-8").splitlines()
        lines.insert(5, "")  # a blank line: file line 12 holds data row 10
        cells = lines[11].split(",")
        cells[0] = token
        lines[11] = ",".join(cells)
        paths["view1"].write_text("\n".join(lines) + "\n", encoding="utf-8")
        code = main(["mine", *_dataset_args(paths), "--out", str(tmp_path / "out")])
        assert code == 2
        err = capsys.readouterr().err
        assert f"{paths['view1']}:12: " in err
        assert repr(token) in err

    def test_fixed_seed_gives_byte_identical_interchange(self, planted_files, tmp_path):
        _, _, paths = planted_files
        cfg = _mine_config(tmp_path)
        outs = []
        for name in ("out_a", "out_b"):
            out = tmp_path / name
            assert main(
                ["mine", *_dataset_args(paths), "--config", str(cfg),
                 "--operator-mode", "conj", "--seed", "7", "--out", str(out)]
            ) == 0
            outs.append((out / "mined.tsv").read_bytes())
        assert outs[0] == outs[1]

    @pytest.mark.parametrize("line", ["min_jacard = 0.9", "workers = 3", "dedup_supports = false"])
    def test_unknown_config_key_exits_two_and_names_line(self, planted_files, tmp_path, capsys, line):
        _, _, paths = planted_files
        cfg = tmp_path / "typo.cfg"
        cfg.write_text(f"min_support = 10\n{line}\n", encoding="utf-8")
        code = main(["mine", *_dataset_args(paths), "--config", str(cfg), "--out", str(tmp_path)])
        assert code == 2
        assert f"{cfg}:2: unknown key {line.split()[0]!r}" in capsys.readouterr().err

    @pytest.mark.parametrize("line", ["max_support = -5", "max_support = 9"])
    def test_max_support_below_min_support_exits_two(self, planted_files, tmp_path, capsys, line):
        _, _, paths = planted_files
        cfg = tmp_path / "bounds.cfg"
        cfg.write_text(f"min_support = 10\n{line}\n", encoding="utf-8")
        out = tmp_path / "out"
        code = main(["mine", *_dataset_args(paths), "--config", str(cfg), "--out", str(out)])
        assert code == 2
        assert f"error: {cfg}:2: max_support" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("mode", ["conjunctive2", "conjunctive"])
    def test_unknown_operator_mode_in_file_exits_two(self, planted_files, tmp_path, capsys, mode):
        _, _, paths = planted_files
        cfg = tmp_path / "mode.cfg"
        cfg.write_text(f"operator_mode = {mode}\n", encoding="utf-8")
        code = main(["mine", *_dataset_args(paths), "--config", str(cfg), "--out", str(tmp_path / "out")])
        assert code == 2
        err = capsys.readouterr().err
        assert f"error: {cfg}:1: operator_mode must be one of conj, conjneg, all, got {mode!r}" in err

    def test_unknown_operator_mode_flag_exits_two(self, planted_files, tmp_path, capsys):
        _, _, paths = planted_files
        with pytest.raises(SystemExit) as exc:
            main(["mine", *_dataset_args(paths), "--operator-mode", "conjunctive",
                  "--out", str(tmp_path / "out")])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "invalid choice: 'conjunctive'" in err
        assert all(mode in err.split("choose from")[1] for mode in ("conj", "conjneg", "all"))

    @pytest.mark.parametrize("source", ["flag", "file"])
    def test_negative_seed_exits_two(self, planted_files, tmp_path, capsys, source):
        _, _, paths = planted_files
        cfg = tmp_path / "seed.cfg"
        # a flag value names only its key, also where it overrides a file value
        cfg.write_text("seed = -1\n" if source == "file" else "seed = 3\n", encoding="utf-8")
        flag = ["--seed", "-1"] if source == "flag" else []
        out = tmp_path / "out"
        code = main(["mine", *_dataset_args(paths), "--config", str(cfg), *flag, "--out", str(out)])
        assert code == 2
        at = f"{cfg}:1: " if source == "file" else ""
        assert f"error: {at}seed must be non-negative, got -1" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "line, message",
        [
            # a value the settings reject is named by file and line
            ("min_ref_jaccard = nan", "{cfg}:1: min_ref_jaccard must lie in [0, 1], got nan"),
            ("min_ref_jaccard = -0.5", "{cfg}:1: min_ref_jaccard must lie in [0, 1], got -0.5"),
            ("disjunction_threshold = nan", "{cfg}:1: disjunction_threshold must lie in [0, 1], got nan"),
            ("max_disjuncts = -3", "{cfg}:1: max_disjuncts must be non-negative, got -3"),
            # and so is a value its key's parser rejects
            ("weights = 1,1", "{cfg}:1: expected 5 or 6 weights, got 2, in weights = 1,1"),
            ("weights = a,b,c,d,e", "{cfg}:1: could not convert string to float: 'a', in weights = a,b,c,d,e"),
            ("sizes = 5,5", "{cfg}:1: sizes must be distinct, got '5,5'"),
            ("seed = x", "{cfg}:1: seed must be an integer, got 'x'"),
        ],
        ids=["min_ref_jaccard-nan", "min_ref_jaccard-negative", "disjunction_threshold", "max_disjuncts",
             "weights-count", "weights-word", "sizes-repeated", "seed-word"],
    )
    def test_out_of_range_value_exits_two_and_names_key(
        self, planted_files, tmp_path, capsys, line, message
    ):
        _, _, paths = planted_files
        cfg = tmp_path / "range.cfg"
        cfg.write_text(f"{line}\n", encoding="utf-8")
        out = tmp_path / "out"
        code = main(["mine", *_dataset_args(paths), "--config", str(cfg), "--out", str(out)])
        assert code == 2
        assert f"error: {message.format(cfg=cfg)}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("size", [1, 0, -3])
    def test_max_set_size_below_two_exits_two(self, planted_files, tmp_path, capsys, size):
        _, _, paths = planted_files
        cfg = tmp_path / "cap.cfg"
        cfg.write_text(f"max_set_size = {size}\n", encoding="utf-8")
        out = tmp_path / "out"
        code = main(["mine", *_dataset_args(paths), "--config", str(cfg), "--out", str(out)])
        assert code == 2
        assert f"error: {cfg}:1: max_set_size must be at least 2, got {size}" in capsys.readouterr().err
        assert not out.exists()


@pytest.mark.parametrize("command", ["mine", "reduce", "eval"])
def test_header_only_view_exits_two_and_names_file(tmp_path, capsys, command):
    _, paths = _wide_dataset(tmp_path)
    header = paths["view2"].read_text(encoding="utf-8").splitlines()[0]
    paths["view2"].write_text(header + "\n", encoding="utf-8")
    src = tmp_path / "pool.tsv"
    _synthetic_interchange(src, 5)
    inputs = [] if command == "mine" else [str(src)]
    code = main([command, *inputs, *_dataset_args(paths), "--out", str(tmp_path / "out")])
    assert code == 2
    assert f"{paths['view2']}: no data rows" in capsys.readouterr().err



@pytest.mark.parametrize("target", ["view1", "schema2", "config", "interchange"])
def test_bytes_that_are_not_utf8_exit_two_and_name_file_line(tmp_path, capsys, target):
    _, paths = _wide_dataset(tmp_path)
    paths["interchange"] = tmp_path / "pool.tsv"
    _synthetic_interchange(paths["interchange"], 5)
    paths["config"] = tmp_path / "run.cfg"
    paths["config"].write_text("seed = 1\nsizes = 5\n", encoding="utf-8")
    # the last line, past the first 8 KiB of the view, which is read in
    # chunks; the byte goes before the line end, which is CR LF in the views
    lines = paths[target].read_bytes().split(b"\n")
    body = lines[-2].removesuffix(b"\r")
    lines[-2] = body + b"\xff" + lines[-2][len(body):]
    paths[target].write_bytes(b"\n".join(lines))
    code = main(["eval", str(paths["interchange"]), *_dataset_args(paths),
                 "--config", str(paths["config"]), "--out", str(tmp_path / "out")])
    assert code == 2
    err = capsys.readouterr().err
    assert f"error: {paths[target]}:{len(lines) - 1}: not UTF-8 text" in err

@pytest.mark.parametrize("command", ["mine", "reduce", "eval"])
def test_cell_past_the_csv_field_limit_exits_two_and_names_file_line(tmp_path, capsys, command):
    _, paths = _wide_dataset(tmp_path)
    # a categorical view whose sixth data row (line 7) holds a 200,000-character label
    labels = ["lo", "hi"] * 30
    labels[5] = "x" * 200_000
    paths["view2"].write_text("\n".join(["k", *labels]) + "\n", encoding="utf-8")
    paths["schema2"].write_text("k = categorical\n", encoding="utf-8")
    src = tmp_path / "pool.tsv"
    _synthetic_interchange(src, 5)
    inputs = [] if command == "mine" else [str(src)]
    code = main([command, *inputs, *_dataset_args(paths), "--out", str(tmp_path / "out")])
    assert code == 2
    err = capsys.readouterr().err
    assert f"error: {paths['view2']}:7: field larger than field limit" in err


# Each reader's file as (good lines, the bad line for `content` faults). View
# lines are the header and one line per data row, so a bad view line
# replaces a row and the two views keep their row count.
def _reader_lines(target, n):
    rows = [f"{i}.5" for i in range(n)]
    if target == "view1":
        return ["x", *rows], "abc"
    filler = [f"# note {i}" for i in range(n)]
    if target == "schema1":
        return ["x = numeric", *filler], "z = text"
    if target == "config":
        return ["seed = 1", *filler], "not a pair"
    return ["[0.0 <= x <= 5.0]\ty"] * (n + 1), "nosuch\ty"


@st.composite
def reader_faults(draw):
    """(target, n, k, fault, line ends, BOM): one bad line at position k of a
    reader's file, whose lines end in any mix of LF, CR LF and CR."""
    target = draw(st.sampled_from(["view1", "schema1", "config", "interchange"]))
    n = draw(st.integers(1, 6))
    k = draw(st.integers(2 if target == "view1" else 1, n + 1))
    fault = draw(st.sampled_from(["content", "byte"]))
    ends = draw(st.lists(st.sampled_from(["\n", "\r\n", "\r"]), min_size=n + 1, max_size=n + 1))
    if draw(st.booleans()):
        ends[-1] = ""  # no line end after the last line
    return target, n, k, fault, ends, draw(st.booleans())


def _small_inputs(tmp, n):
    """Valid view, schema, config and interchange files over n rows."""
    paths = {key: Path(tmp, name) for key, name in (
        ("view1", "v1.csv"), ("schema1", "v1.schema"), ("view2", "v2.csv"),
        ("schema2", "v2.schema"), ("config", "run.cfg"), ("interchange", "pool.tsv"))}
    for key, text in (
        ("view1", "x\n" + "".join(f"{i}.5\n" for i in range(n))),
        ("schema1", "x = numeric\n"),
        ("view2", "y\n" + "".join(("true\n", "false\n")[i % 2] for i in range(n))),
        ("schema2", "y = boolean\n"),
        ("config", "seed = 1\n"),
        ("interchange", "[0.0 <= x <= 5.0]\ty\n"),
    ):
        paths[key].write_text(text, encoding="utf-8")
    return paths


def _eval_stderr(paths, tmp):
    """`eval` of the interchange file: its exit code and what it printed to stderr."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(["eval", str(paths["interchange"]), *_dataset_args(paths),
                     "--config", str(paths["config"]), "--out", str(Path(tmp, "out"))])
    return code, err.getvalue()


@settings(max_examples=150, deadline=None, derandomize=True)
@given(reader_faults())
@example(("schema1", 2, 3, "byte", ["\r", "\r", "\r"], False))
@example(("view1", 3, 4, "byte", ["\r\n"] * 4, False))
def test_bad_line_is_named_at_its_position_property(case):
    target, n, k, fault, ends, bom = case
    with tempfile.TemporaryDirectory() as tmp:
        paths = _small_inputs(tmp, n)
        good, bad = _reader_lines(target, n)
        lines = [line.encode("utf-8") for line in good]
        lines[k - 1] = bad.encode("utf-8") if fault == "content" else b"\xff" + lines[k - 1]
        data = b"".join(line + end.encode("ascii") for line, end in zip(lines, ends))
        paths[target].write_bytes(b"\xef\xbb\xbf" * bom + data)
        code, err = _eval_stderr(paths, tmp)
    path = paths[target]
    if target == "interchange" and fault == "content":
        assert f"rejected record in {path} at line {k}: " in err
        assert code == 0
    else:
        assert code == 2
        assert f"error: {path}:{k}: " in err


EDIT_BYTES = st.sampled_from([
    b"\x00", b"\xff", b"\xef\xbb\xbf", "é".encode(), b"\r", b"\n", b"\t", b",", b"=", b"#",
    b'"', b"[", b"]", b"<=", b"?", b"-", b"e", b"nan", b"inf", b"1e999", b"x", b"y", b"0", b" ",
])


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    target=st.sampled_from(["view1", "schema1", "view2", "schema2", "config", "interchange"]),
    edits=st.lists(
        st.tuples(st.floats(0.0, 1.0), st.sampled_from(["insert", "replace", "delete"]), EDIT_BYTES),
        min_size=1, max_size=4,
    ),
)
def test_any_edit_exits_zero_or_two_property(target, edits):
    """Random byte edits to one input: `eval` ends with exit 0 (rejected
    records reported) or exit 2, and never raises."""
    with tempfile.TemporaryDirectory() as tmp:
        paths = _small_inputs(tmp, 4)
        data = paths[target].read_bytes()
        for where, op, chunk in edits:
            at = round(where * len(data))
            cut = len(chunk) if op == "replace" else 1 if op == "delete" else 0
            data = data[:at] + (b"" if op == "delete" else chunk) + data[at + cut:]
        paths[target].write_bytes(data)
        code, _ = _eval_stderr(paths, tmp)
    assert code in (0, 2)


def _risk_files(tmp_path, high, low, n_rows=200):
    """Two views whose categorical column `risk` (labels `high`, `low`) the
    numeric view-1 column `x` separates."""
    rng = np.random.default_rng(3)
    risky = rng.random(n_rows) < 0.5
    x = np.where(risky, rng.normal(5, 1, n_rows), rng.normal(0, 1, n_rows))
    paths = {key: tmp_path / f"{key}.txt" for key in ("view1", "schema1", "view2", "schema2")}
    paths["view1"].write_text(
        "x,z\n" + "".join(f"{a:.3f},{b:.3f}\n" for a, b in zip(x, rng.normal(size=n_rows))),
        encoding="utf-8",
    )
    paths["view2"].write_text(
        "risk,y\n" + "".join(
            f"{high if r else low},{b:.3f}\n" for r, b in zip(risky, rng.normal(size=n_rows))
        ),
        encoding="utf-8",
    )
    paths["schema1"].write_text("x = numeric\nz = numeric\n", encoding="utf-8")
    paths["schema2"].write_text("risk = categorical\ny = numeric\n", encoding="utf-8")
    return paths


def test_label_the_grammar_cannot_read_exits_two_naming_column_and_label(tmp_path, capsys):
    paths = _risk_files(tmp_path, "high-risk", "low-risk")
    code = main(["mine", *_dataset_args(paths), "--out", str(tmp_path / "out")])
    assert code == 2
    err = capsys.readouterr().err
    lines = paths["view2"].read_text(encoding="utf-8").splitlines()
    first = next(no for no, line in enumerate(lines, 1) if line.startswith("high-risk,"))
    assert f"{paths['view2']}:{first}: category label 'high-risk' of column 'risk'" in err
    assert not (tmp_path / "out" / "mined.tsv").exists()


def test_mined_labels_read_back_in_reduce(tmp_path, capsys):
    paths = _risk_files(tmp_path, "high_risk", "low_risk")
    out = tmp_path / "out"
    assert main(["mine", *_dataset_args(paths), "--out", str(out)]) == 0
    records = (out / "mined.tsv").read_text(encoding="utf-8").splitlines()[1:]
    assert any("risk=" in line for line in records)
    capsys.readouterr()
    assert main(["reduce", str(out / "mined.tsv"), *_dataset_args(paths), "--out", str(out)]) == 0
    assert "rejected" not in capsys.readouterr().err


def _wide_dataset(tmp_path, n_rows=60, n_attrs=25):
    rng = np.random.default_rng(44)
    spec1 = [
        (f"a{i}", "numeric", list(np.round(rng.uniform(0, 10, n_rows), 3)))
        for i in range(n_attrs)
    ]
    spec2 = [
        (f"z{i}", "boolean", [bool(v) for v in rng.integers(0, 2, n_rows)])
        for i in range(n_attrs)
    ]
    ds = make_dataset(spec1, spec2)
    paths = {
        "view1": tmp_path / "w1.csv",
        "schema1": tmp_path / "w1.schema",
        "view2": tmp_path / "w2.csv",
        "schema2": tmp_path / "w2.schema",
    }
    write_view(ds.view1, paths["view1"])
    write_schema(ds.view1, paths["schema1"])
    write_view(ds.view2, paths["view2"])
    write_schema(ds.view2, paths["schema2"])
    return ds, paths


def _synthetic_interchange(path, n_records, n_attrs=25):
    lines = []
    i = 0
    while len(lines) < n_records:
        attr = i % n_attrs
        width = 2.0 + (i % 9)
        lines.append(f"[0.0 <= a{attr} <= {width}]\tz{(i * 7) % n_attrs}")
        i += 1
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


class TestReduceCommand:
    def test_merges_inputs_without_duplicates(self, tmp_path):
        ds, paths = _wide_dataset(tmp_path)
        f1 = tmp_path / "in1.tsv"
        f2 = tmp_path / "in2.tsv"
        _synthetic_interchange(f1, 30)
        _synthetic_interchange(f2, 45)  # first 30 overlap f1 exactly
        out = tmp_path / "red"
        code = main(
            ["reduce", str(f1), str(f2), *_dataset_args(paths),
             "--sizes", "100", "--out", str(out)]
        )
        assert code == 0
        report = json.loads((out / "reduce_report.json").read_text(encoding="utf-8"))
        assert report["pool_size"] == 45

    def test_emits_requested_record_count(self, tmp_path):
        ds, paths = _wide_dataset(tmp_path)
        src = tmp_path / "large.tsv"
        _synthetic_interchange(src, 220)
        out = tmp_path / "red"
        code = main(
            ["reduce", str(src), *_dataset_args(paths), "--sizes", "200", "--out", str(out)]
        )
        assert code == 0
        produced = (out / "reduced_w1_n200.tsv").read_text(encoding="utf-8").splitlines()
        assert len([l for l in produced if l and not l.startswith("#")]) == 200

    def test_bad_record_rejected_with_line_number_run_continues(self, tmp_path, capsys):
        ds, paths = _wide_dataset(tmp_path)
        src = tmp_path / "mixed.tsv"
        src.write_text(
            "[0.0 <= a0 <= 5.0]\tz0\n"
            "[0.0 <= ghost <= 5.0]\tz1\n"
            "[0.0 <= a1 <= 5.0]\tz2\n",
            encoding="utf-8",
        )
        out = tmp_path / "red"
        code = main(
            ["reduce", str(src), *_dataset_args(paths), "--sizes", "2", "--out", str(out)]
        )
        assert code == 0
        err = capsys.readouterr().err
        assert "line 2" in err and "ghost" in err
        report = json.loads((out / "reduce_report.json").read_text(encoding="utf-8"))
        assert report["rejected_records"] == 1 and report["pool_size"] == 2

    def test_rejected_records_name_their_file(self, tmp_path, capsys):
        ds, paths = _wide_dataset(tmp_path)
        good = tmp_path / "good.tsv"
        good.write_text("[0.0 <= a0 <= 5.0]\tz0\n[0.0 <= a1 <= 5.0]\tz2\n", encoding="utf-8")
        bad = [tmp_path / "bad1.tsv", tmp_path / "bad2.tsv"]
        for path in bad:
            path.write_text("[0.0 <= ghost <= 5.0]\tz1\n", encoding="utf-8")
        out = tmp_path / "red"
        code = main(
            ["reduce", str(good), *map(str, bad), *_dataset_args(paths), "--sizes", "2",
             "--out", str(out)]
        )
        assert code == 0
        err = capsys.readouterr().err.splitlines()
        assert [line.split(" at line 1: ")[0] for line in err] == [
            f"rejected record in {path}" for path in bad
        ]
        assert main(["eval", str(bad[1]), *_dataset_args(paths), "--out", str(out)]) == 2
        assert f"rejected record in {bad[1]} at line 1: " in capsys.readouterr().err

    def test_one_output_file_per_weight_row_and_size(self, tmp_path):
        ds, paths = _wide_dataset(tmp_path)
        src = tmp_path / "pool.tsv"
        _synthetic_interchange(src, 40)
        cfg = tmp_path / "reduce.cfg"
        cfg.write_text(
            "weights = 0.2,0.2,0.2,0.2,0.2,0.0\n"
            "weights = 0.6,0.2,0.0,0.0,0.2,0.0\n"
            "sizes = 5,10\n",
            encoding="utf-8",
        )
        out = tmp_path / "red"
        code = main(
            ["reduce", str(src), *_dataset_args(paths), "--config", str(cfg), "--out", str(out)]
        )
        assert code == 0
        names = sorted(p.name for p in out.glob("reduced_*.tsv"))
        assert names == [
            "reduced_w1_n10.tsv",
            "reduced_w1_n5.tsv",
            "reduced_w2_n10.tsv",
            "reduced_w2_n5.tsv",
        ]


    @pytest.mark.parametrize(
        "sizes, message",
        [
            ("0", "error: sizes must all be at least 1"),
            ("abc", "error: sizes must be an integer, got 'abc'"),
            ("5,", "error: sizes must be an integer, got ''"),
        ],
        ids=["zero", "word", "trailing-comma"],
    )
    def test_bad_sizes_flag_exits_two_and_names_key(self, tmp_path, capsys, sizes, message):
        ds, paths = _wide_dataset(tmp_path)
        src = tmp_path / "pool.tsv"
        _synthetic_interchange(src, 10)
        out = tmp_path / "red"
        code = main(["reduce", str(src), *_dataset_args(paths), "--sizes", sizes, "--out", str(out)])
        assert code == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("value", ["nan", "inf", "-0.1"])
    def test_non_finite_or_negative_weight_exits_two_and_names_key(self, tmp_path, capsys, value):
        ds, paths = _wide_dataset(tmp_path)
        src = tmp_path / "pool.tsv"
        _synthetic_interchange(src, 10)
        cfg = tmp_path / "weights.cfg"
        cfg.write_text(f"weights = {value},0.2,0.2,0.2,0.2\n", encoding="utf-8")
        out = tmp_path / "red"
        code = main(["reduce", str(src), *_dataset_args(paths), "--config", str(cfg),
                     "--sizes", "5", "--out", str(out)])
        assert code == 2
        message = f"error: {cfg}:1: weights must be finite and non-negative, got j = {float(value)}"
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_weight_row_whose_sum_overflows_exits_two_and_names_key(self, tmp_path, capsys):
        # each weight is finite, but an infinite score reads as "no candidate left"
        ds, paths = _wide_dataset(tmp_path)
        src = tmp_path / "pool.tsv"
        _synthetic_interchange(src, 90)
        cfg = tmp_path / "weights.cfg"
        row = ",".join(["1e308"] * 6)
        cfg.write_text(f"weights = {row}\n", encoding="utf-8")
        out = tmp_path / "red"
        code = main(["reduce", str(src), *_dataset_args(paths), "--config", str(cfg),
                     "--sizes", "10", "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert f"error: {cfg}:1: weights must have a finite sum" in err and f"in weights = {row}" in err
        assert not out.exists()

    def test_flag_overrides_config_file(self, tmp_path):
        ds, paths = _wide_dataset(tmp_path)
        src = tmp_path / "pool.tsv"
        _synthetic_interchange(src, 20)
        cfg = tmp_path / "reduce.cfg"
        cfg.write_text("sizes = 5,10\n", encoding="utf-8")
        out = tmp_path / "red"
        code = main(
            ["reduce", str(src), *_dataset_args(paths), "--config", str(cfg),
             "--sizes", "3", "--out", str(out)]
        )
        assert code == 0
        report = json.loads((out / "reduce_report.json").read_text(encoding="utf-8"))
        assert [o["requested"] for o in report["outputs"]] == [3]
        assert sorted(p.name for p in out.glob("reduced_*.tsv")) == ["reduced_w1_n3.tsv"]


class TestEvalCommand:
    def test_singleton_set_scores_zero_redundancy(self, tmp_path):
        ds, paths = _wide_dataset(tmp_path)
        src = tmp_path / "one.tsv"
        src.write_text("[0.0 <= a0 <= 5.0]\tz0\n", encoding="utf-8")
        out = tmp_path / "ev"
        assert main(["eval", str(src), *_dataset_args(paths), "--out", str(out)]) == 0
        rows = _csv_rows(out / "eval_redescriptions.csv")
        assert len(rows) == 1
        assert float(rows[0]["aej"]) == 0.0 and float(rows[0]["aaj"]) == 0.0

    def test_record_listed_twice_counts_its_copy(self, tmp_path):
        # eval reads each line as its own record, so a repeated line is an
        # equal copy: another member, at Jaccard 1 on supports and attributes
        ds, paths = _wide_dataset(tmp_path)
        src = tmp_path / "twice.tsv"
        src.write_text(
            "[0.0 <= a0 <= 5.0]\tz0\n"
            "[0.0 <= a1 <= 4.0]\tz1 & z2\n"
            "[0.0 <= a0 <= 5.0]\tz0\n",
            encoding="utf-8",
        )
        out = tmp_path / "ev"
        assert main(["eval", str(src), *_dataset_args(paths), "--out", str(out)]) == 0
        first, other, copy = _csv_rows(out / "eval_redescriptions.csv")
        assert copy == first
        members, _ = read_records(src, ds)
        elem = mask_jaccard(members[0].supp_mask, members[1].supp_mask)
        assert 0.0 < elem < 1.0
        assert float(first["aej"]) == (1.0 + elem) / 2
        assert float(first["aaj"]) == (1.0 + 0.0) / 2  # no attribute shared with the other record

    def test_worked_attribute_redundancy_example(self, tmp_path, climate_species_dataset):
        ds = climate_species_dataset
        paths = {
            "view1": tmp_path / "c1.csv",
            "schema1": tmp_path / "c1.schema",
            "view2": tmp_path / "c2.csv",
            "schema2": tmp_path / "c2.schema",
        }
        write_view(ds.view1, paths["view1"])
        write_schema(ds.view1, paths["schema1"])
        write_view(ds.view2, paths["view2"])
        write_schema(ds.view2, paths["schema2"])
        src = tmp_path / "pair.tsv"
        src.write_text(
            "[-1.8 <= t7 <= 4.4] & [12.1 <= p6 <= 21.2]\tPolarbear\n"
            "[-1.8 <= t7 <= 4.4] & [12.1 <= p6 <= 21.2]"
            " | [-1.6 <= t6 <= 1.5] & [21.6 <= p6 <= 30.1]\tPolarbear\n",
            encoding="utf-8",
        )
        out = tmp_path / "ev"
        assert main(["eval", str(src), *_dataset_args(paths), "--out", str(out)]) == 0
        rows = _csv_rows(out / "eval_redescriptions.csv")
        assert float(rows[0]["aaj"]) == 0.75

    def test_full_coverage_reported(self, tmp_path):
        ds, paths = _wide_dataset(tmp_path)
        src = tmp_path / "cover.tsv"
        src.write_text("[-inf <= a0 <= inf]\t[-inf <= a0 <= inf]\n", encoding="utf-8")
        # second query references view-2 attrs only; rewrite with a tautology
        src.write_text("[-inf <= a0 <= inf]\tz0 | !z0\n", encoding="utf-8")
        out = tmp_path / "ev"
        assert main(["eval", str(src), *_dataset_args(paths), "--out", str(out)]) == 0
        summary = _csv_rows(out / "eval_summary.csv")[0]
        assert float(summary["element_coverage"]) == 1.0

    def test_summary_redundancy_is_mean_of_rows(self, tmp_path):
        ds, paths = _wide_dataset(tmp_path)
        src = tmp_path / "pool.tsv"
        _synthetic_interchange(src, 30)
        out = tmp_path / "ev"
        assert main(["eval", str(src), *_dataset_args(paths), "--out", str(out)]) == 0
        rows = _csv_rows(out / "eval_redescriptions.csv")
        summary = _csv_rows(out / "eval_summary.csv")[0]
        assert len(rows) == 30
        for column in ("aej", "aaj"):
            mean = sum(float(r[column]) for r in rows) / len(rows)
            assert float(summary[f"mean_{column}"]) == mean


class TestInterchangeRoundTrip:
    def test_statistics_survive_write_read_bit_for_bit(self, tmp_path):
        ds, paths = _wide_dataset(tmp_path)
        queries = [
            ("[0.0 <= a0 <= 5.0] & [1.0 <= a1 <= 9.0]", "z0 & z3"),
            ("[2.0 <= a2 <= 8.0]", "z1 | z2 & z4"),
        ]
        originals = [
            Redescription.evaluate(
                parse_query(q1, ds.view1), parse_query(q2, ds.view2), ds
            )
            for q1, q2 in queries
        ]
        path = tmp_path / "rt.tsv"
        write_records(path, originals)
        loaded, rejected = read_records(path, ds)
        assert not rejected
        assert len(loaded) == len(originals)
        for before, after in zip(originals, loaded):
            assert before == after
            assert (before.j_qnm, before.j_opt, before.j_pess) == (
                after.j_qnm, after.j_opt, after.j_pess
            )
            assert before.p_value == after.p_value

    def test_bogus_statistics_in_file_are_ignored(self, tmp_path):
        ds, _ = _wide_dataset(tmp_path)
        src = tmp_path / "lying.tsv"
        src.write_text(
            "[0.0 <= a0 <= 5.0]\tz0\t0.999\t0.999\t0.999\t0.0\t0.0\t9999\t42\n",
            encoding="utf-8",
        )
        loaded, rejected = read_records(src, ds)
        assert not rejected and len(loaded) == 1
        honest = Redescription.evaluate(
            parse_query("[0.0 <= a0 <= 5.0]", ds.view1),
            parse_query("z0", ds.view2),
            ds,
        )
        assert loaded[0] == honest

    def test_utf8_byte_order_mark_skipped(self, tmp_path):
        ds, _ = _wide_dataset(tmp_path)
        src = tmp_path / "bom.tsv"
        src.write_text("\ufeff[0.0 <= a0 <= 5.0]\tz0\n", encoding="utf-8")
        loaded, rejected = read_records(src, ds)
        assert not rejected and len(loaded) == 1
        assert loaded[0].key == ("[0.0 <= a0 <= 5.0]", "z0")

    @pytest.mark.parametrize("separator", ["\u2028", "\x85", "\x0c", "\x0b", "\x1e"])
    def test_only_line_feeds_and_returns_end_a_record(self, tmp_path, separator):
        # str.splitlines would cut the first record at the separator in its
        # stats column, reject the tail and shift the later line numbers
        ds, _ = _wide_dataset(tmp_path)
        src = tmp_path / "sep.tsv"
        src.write_text(
            f"[0.0 <= a0 <= 5.0]\tz0\tnote{separator}more\r\n"
            "[0.0 <= a0 <= 5.0]\tnope\rjunk\n",
            encoding="utf-8",
        )
        loaded, rejected = read_records(src, ds)
        assert [m.key for m in loaded] == [("[0.0 <= a0 <= 5.0]", "z0")]
        assert [(bad.line_no, bad.reason) for bad in rejected] == [
            (2, "unknown attribute name 'nope' (at position 0)"),
            (3, "expected at least two tab-separated fields"),
        ]

    @pytest.mark.parametrize(
        "query", ["(" * 340 + "z0" + ")" * 340, "!" * 5000 + "z0"], ids=["paren", "not"]
    )
    def test_query_nested_too_deep_rejected_with_its_line(self, tmp_path, capsys, query):
        ds, paths = _wide_dataset(tmp_path)
        src = tmp_path / "deep.tsv"
        src.write_text(
            f"[0.0 <= a0 <= 5.0]\tz0\n[0.0 <= a1 <= 5.0]\t{query}\n[0.0 <= a2 <= 5.0]\tz2\n",
            encoding="utf-8",
        )
        loaded, rejected = read_records(src, ds)
        assert [m.key[1] for m in loaded] == ["z0", "z2"]
        assert [(bad.line_no, bad.reason) for bad in rejected] == [
            (2, "'(' and '!' nest more than 100 deep (at position 100)")
        ]
        for command in (["reduce", "--sizes", "2"], ["eval"]):
            out = tmp_path / command[0]
            code = main([command[0], str(src), *command[1:], *_dataset_args(paths),
                         "--out", str(out)])
            assert code == 0
            err = capsys.readouterr().err
            assert f"rejected record in {src} at line 2: '(' and '!' nest" in err

    def test_written_bytes_are_deterministic(self, tmp_path):
        ds, _ = _wide_dataset(tmp_path)
        r = Redescription.evaluate(
            parse_query("[0.0 <= a0 <= 5.0]", ds.view1),
            parse_query("z0", ds.view2),
            ds,
        )
        p1, p2 = tmp_path / "a.tsv", tmp_path / "b.tsv"
        write_records(p1, [r])
        write_records(p2, [r])
        assert p1.read_bytes() == p2.read_bytes()


# Run in a fresh interpreter: the freeze is once per process, and the test
# process has long since run `main`.
_FREEZE_SCRIPT = textwrap.dedent(
    """
    import gc, json, sys, weakref
    import redesc.cli as cli

    assert gc.get_freeze_count() == 0, "importing redesc froze objects"
    first, second = json.loads(sys.argv[1])
    assert cli.main(first) == 0
    frozen = gc.get_freeze_count()
    assert frozen > 0, "main froze nothing"
    assert cli.main(second) == 0
    assert gc.get_freeze_count() == frozen, "the second command froze again"

    class Node:
        pass

    a, b = Node(), Node()
    a.other, b.other = b, a
    alive = weakref.ref(a)
    del a, b
    gc.collect()
    assert alive() is None, "a cycle made after the freeze was not collected"
    print("ok")
    """
)


def test_main_freezes_start_up_objects_once_and_later_garbage_is_collected(tmp_path):
    _, paths = _wide_dataset(tmp_path)
    src = tmp_path / "set.tsv"
    _synthetic_interchange(src, 6)
    first = ["eval", str(src), *_dataset_args(paths), "--out", str(tmp_path / "ev")]
    second = [
        "reduce", str(src), *_dataset_args(paths), "--sizes", "3", "--out", str(tmp_path / "red")
    ]
    env = {**os.environ, "PYTHONPATH": str(Path(redesc.__file__).resolve().parents[1])}
    out = subprocess.run(
        [sys.executable, "-c", _FREEZE_SCRIPT, json.dumps([first, second])],
        env=env, capture_output=True, encoding="utf-8", cwd=tmp_path,
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines()[-1] == "ok"
