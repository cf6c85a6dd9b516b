"""Loading, validation, shuffled twins, and format round-trips."""

import csv
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from redesc.dataset import (
    BOOLEAN,
    CATEGORICAL,
    MISSING_TOKENS,
    NUMERIC,
    Attribute,
    DataError,
    Dataset,
    SchemaError,
    View,
    _parse_boolean,
    _parse_numeric,
    concat_rows,
    load_dataset,
    load_view,
    make_artificial,
    read_schema,
)
from redesc.query import Leaf, Literal, Or, Query, canonicalize, parse_query, print_query

from conftest import make_view, random_view
from reference import MISSING, value_at, views_equal, write_schema, write_view


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


class TestLoadView:
    def test_numeric_with_missing_marker(self, tmp_path):
        csv = _write(tmp_path, "v.csv", "t7\n1.5\n?\n-2\n")
        view = load_view(csv, {"t7": "numeric"})
        assert value_at(view, 0, 0) == 1.5
        assert value_at(view, 1, 0) is MISSING
        assert value_at(view, 2, 0) == -2.0

    def test_empty_token_is_missing(self, tmp_path):
        csv = _write(tmp_path, "v.csv", "a,b\n1.0,\n,2.0\n")
        view = load_view(csv, {"a": "numeric", "b": "numeric"})
        assert value_at(view, 0, 1) is MISSING
        assert value_at(view, 1, 0) is MISSING

    def test_duplicate_column_names_rejected(self, tmp_path):
        csv = _write(tmp_path, "v.csv", "a,a\n1,2\n")
        with pytest.raises(SchemaError, match="duplicate column"):
            load_view(csv, {"a": "numeric"})

    def test_boolean_tokens(self, tmp_path):
        csv = _write(tmp_path, "v.csv", "flag\n1\n0\n1\n")
        view = load_view(csv, {"flag": "boolean"})
        assert [value_at(view, i, 0) for i in range(3)] == [True, False, True]

    def test_malformed_row_length_names_row(self, tmp_path):
        csv = _write(tmp_path, "v.csv", "a,b\n1,2\n3\n")
        with pytest.raises(DataError, match=":3"):
            load_view(csv, {"a": "numeric", "b": "numeric"})

    def test_line_numbers_count_blank_lines(self, tmp_path):
        csv = _write(tmp_path, "v.csv", "a,b\n1,2\n\n3,4\n5\n")
        with pytest.raises(DataError, match=r"v\.csv:5: expected 2 fields"):
            load_view(csv, {"a": "numeric", "b": "numeric"})
        csv = _write(tmp_path, "v.csv", "a\n\n1\n\nbogus\n")
        with pytest.raises(DataError, match=r"v\.csv:5: non-numeric token 'bogus'"):
            load_view(csv, {"a": "numeric"})
        csv = _write(tmp_path, "v.csv", "f\n1\n\nmaybe\n")
        with pytest.raises(DataError, match=r"v\.csv:4: non-boolean token 'maybe'"):
            load_view(csv, {"f": "boolean"})

    @pytest.mark.parametrize("token", ["inf", "-inf", "+inf", "Infinity", "1e999"])
    def test_non_finite_token_rejected(self, tmp_path, token):
        csv = _write(tmp_path, "v.csv", f"a\n1\n{token}\n")
        with pytest.raises(DataError, match=re.escape(f"v.csv:3: non-finite token {token!r}")):
            load_view(csv, {"a": "numeric"})

    def test_non_numeric_token_names_row(self, tmp_path):
        csv = _write(tmp_path, "v.csv", "a\n1\nbogus\n")
        with pytest.raises(DataError, match="bogus"):
            load_view(csv, {"a": "numeric"})

    def test_undeclared_column_rejected(self, tmp_path):
        csv = _write(tmp_path, "v.csv", "a,b\n1,2\n")
        with pytest.raises(SchemaError, match="'b'"):
            load_view(csv, {"a": "numeric"})

    def test_categorical_categories_inferred_sorted(self, tmp_path):
        csv = _write(tmp_path, "v.csv", "k\nred\nblue\n?\nred\n")
        view = load_view(csv, {"k": "categorical"})
        assert view.attributes[0].categories == ("blue", "red")
        assert value_at(view, 2, 0) is MISSING

    def test_literal_nan_token_rejected(self, tmp_path):
        csv = _write(tmp_path, "v.csv", "a\nnan\n")
        with pytest.raises(DataError, match="missing marker"):
            load_view(csv, {"a": "numeric"})

    def test_grammar_unsafe_column_name_rejected(self, tmp_path):
        csv = _write(tmp_path, "v.csv", "bad name\n1\n")
        with pytest.raises(SchemaError, match="not usable in queries"):
            load_view(csv, {"bad name": "numeric"})

    def test_reserved_column_name_rejected(self, tmp_path):
        csv = _write(tmp_path, "v.csv", "inf\n1\n")
        with pytest.raises(SchemaError, match="not usable"):
            load_view(csv, {"inf": "numeric"})

    @pytest.mark.parametrize("name", ["inf.x", "infinity/2", "-inf", "1e5", "NaN", "INF"])
    def test_name_the_query_tokenizer_splits_or_reads_as_number_rejected(self, tmp_path, name):
        path = _write(tmp_path, "v.csv", f"{name}\n1\n")
        with pytest.raises(SchemaError, match=re.escape(f"v.csv: attribute name {name!r} is not usable")):
            load_view(path, {name: "numeric"})

    @pytest.mark.parametrize("label", ["high-risk", "a b", "x=y", "(a)", "1e", "é"])
    def test_label_the_query_tokenizer_cannot_read_back_rejected(self, tmp_path, label):
        path = _write(tmp_path, "v.csv", f"risk\nlow\n{label}\n")
        with pytest.raises(
            SchemaError, match=re.escape(f"v.csv: category label {label!r} of column 'risk'")
        ):
            load_view(path, {"risk": "categorical"})

    def test_utf8_byte_order_mark_skipped(self, tmp_path):
        # Excel's "CSV UTF-8" and Notepad start the file with one
        path = _write(tmp_path, "v.csv", "\ufeffx,f\n1.5,yes\n")
        view = load_view(path, {"x": "numeric", "f": "boolean"})
        assert [a.name for a in view.attributes] == ["x", "f"]
        assert value_at(view, 0, 0) == 1.5 and value_at(view, 0, 1) is True

    def test_numeric_looking_labels_load(self, tmp_path):
        path = _write(tmp_path, "v.csv", "k\n1\n2.5\n-3\ninf\nlow_risk\na.b/c\n")
        view = load_view(path, {"k": "categorical"})
        assert view.attributes[0].categories == ("-3", "1", "2.5", "a.b/c", "inf", "low_risk")


# names and labels: name-like, number-like, or over characters the query
# grammar gives a meaning to
_GRAMMAR_TEXT = st.one_of(
    st.from_regex(r"[A-Za-z_][A-Za-z0-9_./]{0,4}", fullmatch=True),
    st.from_regex(r"[+-]?(\d{1,3}(\.\d{0,2})?([eE][+-]?\d)?|\.\d|inf|infinity)", fullmatch=True),
    st.text(alphabet="aZ_09./+-=&|!()[]<#ie nf", min_size=1, max_size=6),
)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(name=_GRAMMAR_TEXT, label=_GRAMMAR_TEXT)
@example(name="inf.x", label="high-risk")
@example(name="a.b/c", label="-inf")
@example(name="e1", label="2.5")
def test_loaded_names_and_labels_read_back_through_the_grammar_property(
    tmp_path_factory, name, label
):
    """Whatever loads prints as query text that parses back to the same query."""
    path = tmp_path_factory.mktemp("grammar") / "v.csv"
    with path.open("w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows([[name, "k"], ["1.5", label], ["2.5", "other"]])
    try:
        view = load_view(path, {name.strip(): NUMERIC, "k": CATEGORICAL})
    except SchemaError:
        return
    literals = [Literal(0, NUMERIC, 1.5, 2.5), Literal(0, NUMERIC, -np.inf, 2.0, negated=True)]
    literals += [Literal(1, CATEGORICAL, category=c) for c in view.attributes[1].categories]
    for q in [Query(Leaf(lit), 1) for lit in literals] + [Query(Or(tuple(map(Leaf, literals))), 1)]:
        assert parse_query(print_query(q, view), view, 1) == canonicalize(q)


def per_cell_load_view(path, schema):
    """The loader `load_view` replaced, kept as the reference: every cell is
    stripped and parsed on its own."""
    with path.open(newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        header = [h.strip() for h in next(reader)]
        rows, linenos = [], []
        for row in reader:
            if row:
                rows.append([t.strip() for t in row])
                linenos.append(reader.line_num)
    attributes, columns = [], []
    for j, name in enumerate(header):
        kind, tokens = schema[name], [r[j] for r in rows]
        labels = []
        if kind == CATEGORICAL:
            labels = sorted({t for t in tokens if t not in MISSING_TOKENS})
            code = {lab: i for i, lab in enumerate(labels)}
            col = np.array([code.get(t, -1) for t in tokens], dtype=np.int32)
        else:
            parse = _parse_numeric if kind == NUMERIC else _parse_boolean
            col = np.array(
                [np.nan if t in MISSING_TOKENS else parse(t, path, n, name)
                 for t, n in zip(tokens, linenos)],
                dtype=np.float64,
            )
        attributes.append(Attribute(j, name, kind, tuple(labels)))
        columns.append(col)
    return View(attributes, columns)


_CELLS = {
    NUMERIC: st.one_of(
        st.sampled_from(["?", "", " ? ", "0", "-0", "1e3", " 2.5 ", "+7", ".5", "1_000"]),
        st.floats(allow_nan=False, allow_infinity=False).map(repr),
        st.integers(-10**20, 10**20).map(str),
    ),
    BOOLEAN: st.sampled_from(
        ["?", "", "1", "0", "true", "TRUE", "tRuE", "t", "T", "yes", "YeS", "false",
         "False", "f", "F", "no", "NO", " yes "]
    ),
    CATEGORICAL: st.sampled_from(["?", "", "1", "2.5", "-3", "10", "inf", "low", "a.b", " x "]),
}
# cells that no kind-specific parser accepts
_BAD = {NUMERIC: ["bogus", "nan", "-inf", "1e999"], BOOLEAN: ["maybe", "2", "y"]}


@st.composite
def _csv_tables(draw):
    kinds = draw(st.lists(st.sampled_from([NUMERIC, BOOLEAN, CATEGORICAL]), min_size=1, max_size=4))
    n_rows = draw(st.integers(1, 12))
    columns = [draw(st.lists(_CELLS[k], min_size=n_rows, max_size=n_rows)) for k in kinds]
    for kind, cells in zip(kinds, columns):
        if kind == CATEGORICAL and all(c.strip() in MISSING_TOKENS for c in cells):
            cells[0] = "low"  # a categorical column needs one observed label
        if kind in _BAD and draw(st.integers(0, 9)) == 0:
            cells[draw(st.integers(0, n_rows - 1))] = draw(st.sampled_from(_BAD[kind]))
    blank_after = draw(st.lists(st.booleans(), min_size=n_rows, max_size=n_rows))
    return kinds, list(zip(*columns)), blank_after


@settings(max_examples=200, deadline=None, derandomize=True)
@given(table=_csv_tables(), bom=st.booleans())
def test_column_loader_equals_per_cell_reference_property(tmp_path_factory, table, bom):
    """Loading a column at a time gives the per-cell loader's view, column
    dtypes included, or the same error naming the same file line."""
    kinds, rows, blank_after = table
    header = [f"c{j}" for j in range(len(kinds))]
    lines = [",".join(header)]
    for row, blank in zip(rows, blank_after):
        lines.append(",".join(row))
        if blank:
            lines.append("")
    path = tmp_path_factory.mktemp("columns") / "v.csv"
    path.write_text(("\ufeff" if bom else "") + "\n".join(lines) + "\n", encoding="utf-8")
    schema = dict(zip(header, kinds))
    try:
        want = per_cell_load_view(path, schema)
    except DataError as exc:
        with pytest.raises(DataError) as got:
            load_view(path, schema)
        assert str(got.value) == str(exc)
        return
    got = load_view(path, schema)
    assert views_equal(got, want)
    assert [c.dtype for c in got.columns] == [c.dtype for c in want.columns]


class TestSchemaFile:
    def test_round_trip(self, tmp_path):
        view = make_view([("x", "numeric", [1.0]), ("f", "boolean", [True])])
        path = tmp_path / "v.schema"
        write_schema(view, path)
        assert read_schema(path) == {"x": "numeric", "f": "boolean"}

    def test_inline_comment_ignored(self, tmp_path):
        path = _write(
            tmp_path, "v.schema", "# header\nx = numeric  # temperature\nk = categorical#\n\n"
        )
        assert read_schema(path) == {"x": "numeric", "k": "categorical"}

    def test_utf8_byte_order_mark_skipped(self, tmp_path):
        path = _write(tmp_path, "v.schema", "\ufeffx = numeric\nk = categorical\n")
        assert read_schema(path) == {"x": "numeric", "k": "categorical"}

    def test_page_break_line_keeps_line_numbers(self, tmp_path):
        # str.splitlines would break at the form feed too and report line 5
        path = _write(tmp_path, "v.schema", "x = numeric\n\x0c\nk = categorical\ny = text\n")
        with pytest.raises(SchemaError, match=r"v\.schema:4: unknown kind 'text'"):
            read_schema(path)

    def test_bad_kind_rejected(self, tmp_path):
        path = _write(tmp_path, "v.schema", "x = strings\n")
        with pytest.raises(SchemaError, match="strings"):
            read_schema(path)


class TestDataset:
    def test_views_must_share_row_count(self):
        v1 = make_view([("a", "numeric", [1, 2, 3])])
        v2 = make_view([("b", "numeric", [1, 2])])
        with pytest.raises(DataError, match="row count"):
            Dataset(v1, v2)

    def test_load_dataset_pairs_the_views(self, tmp_path):
        _write(tmp_path, "v1.csv", "a\n1\n2\n")
        _write(tmp_path, "v1.schema", "a = numeric\n")
        _write(tmp_path, "v2.csv", "b\n0\n1\n")
        _write(tmp_path, "v2.schema", "b = boolean\n")
        ds = load_dataset(
            tmp_path / "v1.csv", tmp_path / "v1.schema", tmp_path / "v2.csv", tmp_path / "v2.schema"
        )
        assert ds.n_elements == ds.view1.n_rows == ds.view2.n_rows == 2
        assert [c.tolist() for c in ds.view2.columns] == [[0.0, 1.0]]


class TestMakeArtificial:
    def test_column_multisets_preserved(self):
        rng = np.random.default_rng(3)
        view = random_view(rng, 40, n_num=3, n_bool=2, n_cat=1, missing_rate=0.15)
        twin = make_artificial(view, 123)
        for col, shuffled in zip(view.columns, twin.columns):
            if col.dtype.kind == "f":
                assert np.array_equal(np.sort(col), np.sort(shuffled), equal_nan=True)
            else:
                assert np.array_equal(np.sort(col), np.sort(shuffled))

    def test_single_row_is_identity(self):
        view = make_view([("a", "numeric", [4.0]), ("b", "boolean", [True])])
        twin = make_artificial(view, 9)
        assert views_equal(view, twin)

    def test_same_seed_same_output(self):
        rng = np.random.default_rng(4)
        view = random_view(rng, 25, n_num=2, n_bool=1)
        assert views_equal(make_artificial(view, 77), make_artificial(view, 77))

    def test_columns_permuted_independently(self):
        view = make_view(
            [("a", "numeric", list(range(30))), ("b", "numeric", list(range(30)))]
        )
        twin = make_artificial(view, 5)
        # identical inputs but independent permutations must diverge somewhere
        assert not np.array_equal(twin.columns[0], twin.columns[1])


class TestRoundTrip:
    @pytest.mark.parametrize("missing_rate", [0.0, 0.2])
    def test_write_then_load_identical(self, tmp_path, missing_rate):
        rng = np.random.default_rng(8)
        view = random_view(rng, 30, n_num=2, n_bool=1, n_cat=1, missing_rate=missing_rate)
        write_view(view, tmp_path / "v.csv")
        write_schema(view, tmp_path / "v.schema")
        back = load_view(tmp_path / "v.csv", read_schema(tmp_path / "v.schema"))
        assert view.n_rows == back.n_rows
        for i in range(view.n_rows):
            for j in range(view.n_cols):
                assert value_at(view, i, j) == value_at(back, i, j) or (
                    value_at(view, i, j) is MISSING and value_at(back, i, j) is MISSING
                )


def test_concat_rows_stacks():
    v1 = make_view([("a", "numeric", [1, 2])])
    v2 = make_view([("a", "numeric", [3, 4])])
    stacked = concat_rows(v1, v2)
    assert stacked.n_rows == 4
    assert list(stacked.columns[0]) == [1, 2, 3, 4]
