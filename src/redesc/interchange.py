"""Line-oriented interchange format for redescription sets.

One record per line, UTF-8, tab-separated: the two query texts followed by
statistics columns. Statistics are written for human inspection only; readers
always recompute them from the supplied views, so externally authored records
(hand-written queries, foreign miners) are safe to ingest.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

from .dataset import Dataset, read_lines
from .measures import Redescription
from .query import Query, iter_literals, memoize_literals, parse_query, tri_support

_HEADER = "#q1\tq2\tj_qnm\tj_opt\tj_pess\tp_value\tvariability\tsupport_size\tattr_count"


@dataclass(frozen=True)
class RejectedRecord:
    path: str
    line_no: int
    reason: str


def write_records(path: str | Path, members: Iterable[Redescription]) -> None:
    """Deterministic writer: identical member lists give identical bytes."""
    lines = [_HEADER]
    for m in members:
        lines.append(
            "\t".join(
                (
                    m.key[0],
                    m.key[1],
                    repr(m.j_qnm),
                    repr(m.j_opt),
                    repr(m.j_pess),
                    repr(m.p_value),
                    repr(m.variability),
                    str(m.support_size),
                    str(m.attr_count),
                )
            )
        )
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def read_records(
    path: str | Path, dataset: Dataset
) -> tuple[list[Redescription], list[RejectedRecord]]:
    """Parse records against the dataset's views, recomputing all statistics.

    Records whose queries fail to parse (unknown attributes, syntax errors)
    are rejected with their file and line number; reading continues. The
    supports of every literal of the file are computed in one pass per view
    before any record's statistics.
    """
    pairs: list[tuple[Query, Query]] = []
    rejected: list[RejectedRecord] = []
    for line_no, line in enumerate(read_lines(path), start=1):
        if not line.strip() or line.startswith("#"):
            continue
        fields = line.split("\t")
        try:
            if len(fields) < 2:
                raise ValueError("expected at least two tab-separated fields")
            pairs.append(
                (parse_query(fields[0], dataset.view1, 1), parse_query(fields[1], dataset.view2, 2))
            )
        except ValueError as exc:
            rejected.append(RejectedRecord(str(path), line_no, str(exc)))
    memoize_literals((lit for q1, _ in pairs for lit in iter_literals(q1.root)), dataset.view1)
    memoize_literals((lit for _, q2 in pairs for lit in iter_literals(q2.root)), dataset.view2)
    members = [
        Redescription.create(
            q1, q2, tri_support(q1, dataset.view1), tri_support(q2, dataset.view2), dataset
        )
        for q1, q2 in pairs
    ]
    return members, rejected


def merge_records(
    paths: Sequence[str | Path], dataset: Dataset
) -> tuple[list[Redescription], list[RejectedRecord]]:
    """Read several files and deduplicate by canonical query pair."""
    merged: dict[tuple[str, str], Redescription] = {}
    rejected: list[RejectedRecord] = []
    for path in paths:
        members, bad = read_records(path, dataset)
        rejected.extend(bad)
        for m in members:
            merged.setdefault(m.key, m)
    return list(merged.values()), rejected
