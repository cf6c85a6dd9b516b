"""Two-view tabular data with missing values.

A dataset is two views paired row by row over a shared instance set: each
view holds its own attributes and an instances-by-attributes cell matrix.
Cells are numeric, boolean, or categorical, and any cell may be missing.
Views are read from CSV (the library writes none) and are immutable, so they
are safe to share across workers. Each view memoizes the support of every
literal evaluated against it (see `query._literal_support`), so a derived
view (a shuffled twin, a row stack) starts with its own empty memo.

Storage is columnar: numeric and boolean columns are float64 arrays (missing
cells are NaN; booleans are 0.0/1.0), categorical columns are int32 code
arrays (missing cells are -1).
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

NUMERIC = "numeric"
BOOLEAN = "boolean"
CATEGORICAL = "categorical"
KINDS = (NUMERIC, BOOLEAN, CATEGORICAL)

# reserved in any letter case; the query grammar reads only lowercase inf as a number
_RESERVED_NAMES = frozenset({"inf", "infinity", "nan"})

MISSING_TOKENS = frozenset({"?", ""})
_TRUE_TOKENS = frozenset({"1", "true", "t", "yes"})
_FALSE_TOKENS = frozenset({"0", "false", "f", "no"})


class SchemaError(ValueError):
    """Schema file or column declaration problem."""


class DataError(ValueError):
    """Malformed data file content."""


def _token_kind(text: str) -> str | None:
    """The kind of query token ('name', 'num', ...) that `text` reads as in
    full, or None when the query tokenizer splits or rejects it."""
    from .query import QuerySyntaxError, _tokenize  # query imports this module

    try:
        tokens = _tokenize(text)
    except QuerySyntaxError:
        return None
    return tokens[0][0] if len(tokens) == 2 and tokens[0][1] == text else None


def _name_problem(name: str) -> str | None:
    """Why `name` cannot name a column in queries, or None."""
    if _token_kind(name) != "name" or name.lower() in _RESERVED_NAMES:
        return (
            f"attribute name {name!r} is not usable in queries; use "
            "letters, digits, '_', '.', '/' and start with a letter or '_'"
        )
    return None


def _label_problem(label: str, column: str) -> str | None:
    """Why `label` cannot be a category of `column` in queries, or None."""
    if _token_kind(label) not in ("name", "num"):
        return (
            f"category label {label!r} of column {column!r} is not usable in "
            "queries; a label must read as one query name or number"
        )
    return None


@dataclass(frozen=True)
class Attribute:
    """One column of a view: unique name and value kind. Its id is its
    position in the view."""

    name: str
    kind: str
    categories: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise SchemaError(f"unknown attribute kind {self.kind!r} for {self.name!r}")
        problem = _name_problem(self.name)
        for label in self.categories:
            problem = problem or _label_problem(label, self.name)
        if problem:
            raise SchemaError(problem)
        if self.kind == CATEGORICAL and not self.categories:
            raise SchemaError(f"categorical attribute {self.name!r} has no categories")
        if self.kind != CATEGORICAL and self.categories:
            raise SchemaError(f"attribute {self.name!r} of kind {self.kind} cannot carry categories")

    def category_code(self, label: str) -> int:
        try:
            return self.categories.index(label)
        except ValueError:
            raise DataError(f"unknown category {label!r} for attribute {self.name!r}") from None


class View:
    """Immutable columnar matrix of one attribute set over the instance rows."""

    def __init__(self, attributes: Sequence[Attribute], columns: Sequence[np.ndarray]):
        if len(attributes) != len(columns):
            raise SchemaError("attribute list and column list differ in length")
        names = [a.name for a in attributes]
        if len(set(names)) != len(names):
            raise SchemaError("duplicate attribute names in view")
        lengths = {len(c) for c in columns}
        if len(lengths) > 1:
            raise DataError("columns differ in row count")
        self.attributes = tuple(attributes)
        self.columns = [np.asarray(c) for c in columns]
        for attr, col in zip(self.attributes, self.columns):
            col.setflags(write=False)
            if attr.kind == CATEGORICAL and col.dtype.kind not in "i":
                raise DataError(f"categorical column {attr.name!r} must hold integer codes")
        self.n_rows = len(self.columns[0]) if self.columns else 0
        self._index = {a.name: i for i, a in enumerate(self.attributes)}
        # query._literal_support's memo: Literal -> TriSupport over these rows,
        # and its known-cell flags and missing-cell bitmask per attribute
        self._literal_supports: dict = {}
        self._unknowns: dict = {}
        # tree._attribute_blocks' memo: the attributes as two matrices
        self._attribute_blocks = None

    @property
    def n_cols(self) -> int:
        return len(self.attributes)

    def attribute_id(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise DataError(f"unknown attribute name {name!r}") from None

    def missing_mask(self, col: int) -> np.ndarray:
        attr = self.attributes[col]
        if attr.kind == CATEGORICAL:
            return self.columns[col] < 0
        return np.isnan(self.columns[col])

@dataclass(frozen=True)
class Dataset:
    """Two views over one shared, ordered instance set."""

    view1: View
    view2: View

    def __post_init__(self) -> None:
        if self.view1.n_rows != self.view2.n_rows:
            raise DataError(
                f"views disagree on row count: {self.view1.n_rows} vs {self.view2.n_rows}"
            )

    @property
    def n_elements(self) -> int:
        return self.view1.n_rows

    def view(self, view_id: int) -> View:
        if view_id == 1:
            return self.view1
        if view_id == 2:
            return self.view2
        raise ValueError(f"view_id must be 1 or 2, got {view_id}")


def _split_lines(text: str) -> list[str]:
    """`text` broken at LF, CR LF and CR only (`str.splitlines` also breaks
    at form feeds, U+2028 and more, which shifts every later line number)."""
    return text.replace("\r\n", "\n").replace("\r", "\n").split("\n")


def read_text(path: str | Path) -> str:
    """A file's UTF-8 text, BOM skipped; a byte that is not UTF-8 is a DataError
    naming its line."""
    data = Path(path).read_bytes().removeprefix(b"\xef\xbb\xbf")
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = len(_split_lines(data[: exc.start].decode("utf-8")))
        raise DataError(f"{path}:{line}: not UTF-8 text ({exc.reason})") from None


def read_lines(path: str | Path) -> list[str]:
    """The lines of `read_text(path)`, broken at LF, CR LF and CR only."""
    lines = _split_lines(read_text(path))
    if not lines[-1]:
        lines.pop()  # the final line break ends the last line, not an empty one
    return lines


def read_schema(path: str | Path) -> dict[str, str]:
    """Parse a sidecar schema file.

    Grammar: one `column_name = kind` pair per line, where kind is one of
    numeric, boolean, categorical. `#` starts a comment that runs to the end
    of the line; blank lines are ignored.
    """
    out: dict[str, str] = {}
    for lineno, raw in enumerate(read_lines(path), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise SchemaError(f"{path}:{lineno}: expected 'name = kind', got {line!r}")
        name, _, kind = line.partition("=")
        name, kind = name.strip(), kind.strip()
        if kind not in KINDS:
            raise SchemaError(f"{path}:{lineno}: unknown kind {kind!r} for column {name!r}")
        if name in out:
            raise SchemaError(f"{path}:{lineno}: duplicate declaration for column {name!r}")
        out[name] = kind
    return out


def _parse_numeric(token: str, path, lineno: int, name: str) -> float:
    try:
        if "_" in token:  # float() reads '1_5' as 15.0; the grammar's numbers have no '_'
            raise ValueError(token)
        value = float(token)
    except ValueError:
        raise DataError(
            f"{path}:{lineno}: non-numeric token {token!r} in numeric column {name!r}"
        ) from None
    if not math.isfinite(value):
        if math.isnan(value):
            raise DataError(f"{path}:{lineno}: 'nan' is not a value; use the missing marker '?'")
        raise DataError(f"{path}:{lineno}: non-finite token {token!r} in numeric column {name!r}")
    return value


def _parse_boolean(token: str, path, lineno: int, name: str) -> float:
    low = token.lower()
    if low in _TRUE_TOKENS:
        return 1.0
    if low in _FALSE_TOKENS:
        return 0.0
    raise DataError(f"{path}:{lineno}: non-boolean token {token!r} in boolean column {name!r}")


def _numeric_column(tokens: Sequence[str]) -> np.ndarray | None:
    """The column's values (missing cells NaN), or None when a cell does not
    parse, holds a digit-group '_', or is not finite."""
    if "_" in "".join(tokens):
        return None
    try:
        col = np.array([math.nan if t in MISSING_TOKENS else float(t) for t in tokens])
    except ValueError:
        return None
    unset = np.flatnonzero(~np.isfinite(col))
    if any(tokens[i] not in MISSING_TOKENS for i in unset.tolist()):
        return None
    return col


def _boolean_column(tokens: Sequence[str]) -> np.ndarray | None:
    """The column as 1.0/0.0 (missing cells NaN), mapped through its distinct
    tokens, or None when a cell is not a boolean token."""
    value = {}
    for t in set(tokens):
        if t in MISSING_TOKENS:
            value[t] = math.nan
        elif t.lower() in _TRUE_TOKENS:
            value[t] = 1.0
        elif t.lower() in _FALSE_TOKENS:
            value[t] = 0.0
        else:
            return None
    return np.array([value[t] for t in tokens], dtype=np.float64)


def load_view(path: str | Path, schema: Mapping[str, str]) -> View:
    """Load a CSV file (header row, comma separated) into a View.

    Every column must be declared in `schema`; the missing markers '?' and ''
    parse as MISSING, and numeric cells must be finite. Categorical categories
    are inferred from the data and ordered lexicographically; names and labels
    must read back through the query grammar. Errors name the file and, for a
    cell, a byte that is not UTF-8, a column name or label the grammar cannot
    read, or a record the csv module cannot read, its line: line 1 for a
    name, and for a cell or a record the line on which its record begins
    (the first such line for a label). A UTF-8 byte-order mark is skipped.
    """
    path = Path(path)
    end = 0  # the file line on which the last record read ends
    try:
        with path.open(newline="", encoding="utf-8-sig") as fh:
            reader = csv.reader(fh)
            try:
                header = next(reader)
            except StopIteration:
                raise DataError(f"{path}: empty file") from None
            end = reader.line_num
            header = [h.strip() for h in header]
            if len(set(header)) != len(header):
                raise SchemaError(f"{path}: duplicate column names in header")
            for name in header:
                if name not in schema:
                    raise SchemaError(f"{path}: column {name!r} not declared in schema")
                problem = _name_problem(name)
                if problem:
                    raise SchemaError(f"{path}:1: {problem}")
            rows: list[list[str]] = []
            linenos: list[int] = []  # file line each data row begins on; blank lines are skipped
            for row in reader:
                start, end = end + 1, reader.line_num
                if not row:
                    continue
                if len(row) != len(header):
                    raise DataError(f"{path}:{start}: expected {len(header)} fields, got {len(row)}")
                rows.append(row)
                linenos.append(start)
    except UnicodeDecodeError:
        read_text(path)  # not UTF-8: raises the DataError that names the line
        raise
    except csv.Error as exc:  # such as a cell past the csv module's field size limit
        # the failing record begins on the line after the last one read
        raise DataError(f"{path}:{end + 1}: {exc}") from None
    if not rows:
        raise DataError(f"{path}: no data rows")

    attributes: list[Attribute] = []
    columns: list[np.ndarray] = []
    for name, cells in zip(header, zip(*rows)):
        kind = schema[name]
        tokens = [t.strip() for t in cells]
        labels: list[str] = []
        if kind == CATEGORICAL:
            labels = sorted({t for t in tokens if t not in MISSING_TOKENS})
            if not labels:
                raise SchemaError(f"{path}: categorical column {name!r} has no observed categories")
            for label in labels:
                problem = _label_problem(label, name)
                if problem:
                    raise SchemaError(f"{path}:{linenos[tokens.index(label)]}: {problem}")
            code = {lab: i for i, lab in enumerate(labels)}
            col = np.array(
                [-1 if t in MISSING_TOKENS else code[t] for t in tokens], dtype=np.int32
            )
        else:
            numeric = kind == NUMERIC
            col = (_numeric_column if numeric else _boolean_column)(tokens)
            if col is None:  # a bad cell: parse cell by cell to name it
                parse = _parse_numeric if numeric else _parse_boolean
                col = np.empty(len(tokens), dtype=np.float64)
                for i, (t, lineno) in enumerate(zip(tokens, linenos)):
                    col[i] = np.nan if t in MISSING_TOKENS else parse(t, path, lineno, name)
        try:
            attributes.append(Attribute(name, kind, tuple(labels)))
        except SchemaError as exc:
            raise SchemaError(f"{path}: {exc}") from None
        columns.append(col)
    return View(attributes, columns)


def load_dataset(
    view1_path: str | Path,
    schema1_path: str | Path,
    view2_path: str | Path,
    schema2_path: str | Path,
) -> Dataset:
    """Load both views and pair them row by row."""
    v1 = load_view(view1_path, read_schema(schema1_path))
    v2 = load_view(view2_path, read_schema(schema2_path))
    return Dataset(v1, v2)


def make_artificial(view: View, seed) -> View:
    """Shuffled twin of a view: each column independently permuted over rows.

    Per-column value multisets (missing cells included) are preserved exactly;
    output is deterministic for a fixed seed.
    """
    if view.n_rows == 0:
        raise DataError("cannot shuffle an empty view")
    rng = np.random.default_rng(seed)
    cols = [col[rng.permutation(view.n_rows)] for col in view.columns]
    return View(view.attributes, cols)


def concat_rows(a: View, b: View) -> View:
    """Row-wise stack of two views over identical attributes."""
    if a.attributes != b.attributes:
        raise SchemaError("cannot stack views with different attributes")
    return View(a.attributes, [np.concatenate([x, y]) for x, y in zip(a.columns, b.columns)])
