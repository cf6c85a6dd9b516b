"""Reference code the tests compare the library against.

Plain, slow versions of what `redesc` does in bulk: a row-by-row
three-valued query interpreter that shares no code with `tri_support`,
supports as Python sets, the strict-gain witness of refinement, cell-by-cell
view access, and a CSV writer for views (the library only reads them). Tests
import it the way they import `conftest` helpers.
"""

from __future__ import annotations

import csv
import math
from pathlib import Path

import numpy as np

from redesc.dataset import BOOLEAN, CATEGORICAL, NUMERIC, View
from redesc.measures import Redescription
from redesc.query import (
    And,
    Leaf,
    Literal,
    Node,
    Or,
    Query,
    TriSupport,
    _check_attrs,
    mask_to_bools,
)

FALSE = 0
UNKNOWN = 1
TRUE = 2


# ---------------------------------------------------------------------------
# Row-by-row interpreter
# ---------------------------------------------------------------------------


def _eval_literal_row(lit: Literal, view: View, row: int) -> int:
    col = view.columns[lit.attr]
    if lit.kind == CATEGORICAL:
        code = col[row]
        if code < 0:
            return UNKNOWN
        holds = view.attributes[lit.attr].categories[int(code)] == lit.category
    else:
        x = col[row]
        if math.isnan(x):
            return UNKNOWN
        if lit.kind == BOOLEAN:
            holds = x == 1.0
        else:
            holds = lit.lo <= x <= lit.hi
    value = TRUE if holds else FALSE
    return 2 - value if lit.negated else value


def _eval_node_row(node: Node, view: View, row: int) -> int:
    if isinstance(node, Leaf):
        return _eval_literal_row(node.literal, view, row)
    if isinstance(node, And):
        value = TRUE
        for child in node.children:
            value = min(value, _eval_node_row(child, view, row))
            if value == FALSE:
                return FALSE
        return value
    if isinstance(node, Or):
        value = FALSE
        for child in node.children:
            value = max(value, _eval_node_row(child, view, row))
            if value == TRUE:
                return TRUE
        return value
    return 2 - _eval_node_row(node.child, view, row)


def eval_query(q: Query, view: View, row: int) -> int:
    """Evaluate one instance row; returns FALSE, UNKNOWN, or TRUE."""
    _check_attrs(q.root, view)
    return _eval_node_row(q.root, view, row)


# ---------------------------------------------------------------------------
# Supports as sets
# ---------------------------------------------------------------------------


def _mask_set(mask: int, n: int) -> frozenset[int]:
    return frozenset(np.flatnonzero(mask_to_bools(mask, n)).tolist())


def from_sets(in_set, unk_set, n: int) -> TriSupport:
    """The support whose in and unknown instances are the given ids."""
    in_mask = 0
    for e in in_set:
        in_mask |= 1 << e
    unk_mask = 0
    for e in unk_set:
        unk_mask |= 1 << e
    return TriSupport(in_mask, unk_mask, n)


def in_set(tri: TriSupport) -> frozenset[int]:
    return _mask_set(tri.in_mask, tri.n)


def unk_set(tri: TriSupport) -> frozenset[int]:
    return _mask_set(tri.unk_mask, tri.n)


def supp(r: Redescription) -> frozenset[int]:
    """supp(R): the instances both queries definitely describe."""
    return _mask_set(r.supp_mask, r.n_elements)


def strict_witness(r: Redescription, tightened_ref: Redescription) -> bool:
    """True when some instance supported by one of r's queries is not
    supported by the refiner's corresponding query; conjoining then strictly
    shrinks the union, so accuracy strictly rises (for nonempty support)."""
    gap1 = r.tri1.in_mask & ~tightened_ref.tri1.in_mask
    gap2 = r.tri2.in_mask & ~tightened_ref.tri2.in_mask
    return bool(gap1 | gap2)


# ---------------------------------------------------------------------------
# Cells and view files
# ---------------------------------------------------------------------------


class _Missing:
    """Singleton marker for a missing cell value."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "MISSING"


MISSING = _Missing()


def value_at(view: View, row: int, col: int):
    """Cell value as a Python object, or MISSING."""
    attr = view.attributes[col]
    raw = view.columns[col][row]
    if attr.kind == CATEGORICAL:
        return MISSING if raw < 0 else attr.categories[int(raw)]
    if np.isnan(raw):
        return MISSING
    if attr.kind == BOOLEAN:
        return bool(raw == 1.0)
    return float(raw)


def views_equal(a: View, b: View) -> bool:
    """Same attributes and the same cells, missing cells included."""
    if a.attributes != b.attributes or a.n_rows != b.n_rows:
        return False
    for x, y in zip(a.columns, b.columns):
        if x.dtype.kind == "f":
            if not np.array_equal(x, y, equal_nan=True):
                return False
        elif not np.array_equal(x, y):
            return False
    return True


def write_view(view: View, path: str | Path) -> None:
    """Write a View in the CSV format `load_view` reads (missing cells as '?')."""
    with Path(path).open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow([a.name for a in view.attributes])
        for i in range(view.n_rows):
            row = []
            for j, attr in enumerate(view.attributes):
                v = value_at(view, i, j)
                if v is MISSING:
                    row.append("?")
                elif attr.kind == BOOLEAN:
                    row.append("1" if v else "0")
                elif attr.kind == NUMERIC:
                    row.append(repr(v))
                else:
                    row.append(v)
            writer.writerow(row)


def write_schema(view: View, path: str | Path) -> None:
    lines = [f"{a.name} = {a.kind}" for a in view.attributes]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
