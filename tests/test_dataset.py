"""Loading, validation, shuffled twins, and format round-trips."""

import csv
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from redesc.dataset import (
    CATEGORICAL,
    MISSING,
    NUMERIC,
    DataError,
    Dataset,
    SchemaError,
    concat_rows,
    load_dataset,
    load_view,
    make_artificial,
    read_schema,
    write_schema,
    write_view,
)
from redesc.query import Leaf, Literal, Or, Query, canonicalize, parse_query, print_query

from conftest import make_view, random_view


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


class TestLoadView:
    def test_numeric_with_missing_marker(self, tmp_path):
        csv = _write(tmp_path, "v.csv", "t7\n1.5\n?\n-2\n")
        view = load_view(csv, {"t7": "numeric"})
        assert view.value_at(0, 0) == 1.5
        assert view.value_at(1, 0) is MISSING
        assert view.value_at(2, 0) == -2.0

    def test_empty_token_is_missing(self, tmp_path):
        csv = _write(tmp_path, "v.csv", "a,b\n1.0,\n,2.0\n")
        view = load_view(csv, {"a": "numeric", "b": "numeric"})
        assert view.value_at(0, 1) is MISSING
        assert view.value_at(1, 0) is MISSING

    def test_duplicate_column_names_rejected(self, tmp_path):
        csv = _write(tmp_path, "v.csv", "a,a\n1,2\n")
        with pytest.raises(SchemaError, match="duplicate column"):
            load_view(csv, {"a": "numeric"})

    def test_boolean_tokens(self, tmp_path):
        csv = _write(tmp_path, "v.csv", "flag\n1\n0\n1\n")
        view = load_view(csv, {"flag": "boolean"})
        assert [view.value_at(i, 0) for i in range(3)] == [True, False, True]

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
        assert view.value_at(2, 0) is MISSING

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

    def test_bad_kind_rejected(self, tmp_path):
        path = _write(tmp_path, "v.schema", "x = strings\n")
        with pytest.raises(SchemaError, match="strings"):
            read_schema(path)


class TestDataset:
    def test_views_must_share_row_count(self):
        v1 = make_view([("a", "numeric", [1, 2, 3])])
        v2 = make_view([("b", "numeric", [1, 2])])
        with pytest.raises(DataError, match="row count"):
            Dataset(v1, v2, ("e0", "e1", "e2"))

    def test_load_dataset_generates_unique_names(self, tmp_path):
        _write(tmp_path, "v1.csv", "a\n1\n2\n")
        _write(tmp_path, "v1.schema", "a = numeric\n")
        _write(tmp_path, "v2.csv", "b\n0\n1\n")
        _write(tmp_path, "v2.schema", "b = boolean\n")
        ds = load_dataset(
            tmp_path / "v1.csv", tmp_path / "v1.schema", tmp_path / "v2.csv", tmp_path / "v2.schema"
        )
        assert ds.n_elements == 2
        assert len(set(ds.element_names)) == 2


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
        assert view.equals(twin)

    def test_same_seed_same_output(self):
        rng = np.random.default_rng(4)
        view = random_view(rng, 25, n_num=2, n_bool=1)
        assert make_artificial(view, 77).equals(make_artificial(view, 77))

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
                assert view.value_at(i, j) == back.value_at(i, j) or (
                    view.value_at(i, j) is MISSING and back.value_at(i, j) is MISSING
                )


def test_concat_rows_stacks():
    v1 = make_view([("a", "numeric", [1, 2])])
    v2 = make_view([("a", "numeric", [3, 4])])
    stacked = concat_rows(v1, v2)
    assert stacked.n_rows == 4
    assert list(stacked.columns[0]) == [1, 2, 3, 4]
