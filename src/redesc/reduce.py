"""User-steered reduced redescription sets via weighted scalarization.

Given a mined set and a matrix of importance weights (one row per desired
output set), selection is greedy: the first pick minimizes a weighted sum of
accuracy, significance, occurrence, and size scores; every following pick
minimizes the same sum with the occurrence scores swapped for similarity
against the set built so far and the significance score blended with relative
support. Positive weights make each pick a non-dominated candidate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .measures import (
    Constraints,
    Redescription,
    RedescriptionSet,
    jaccard,
    mask_jaccard,
    score_pval,
    score_size,
)
from .query import mask_to_bools


@dataclass(frozen=True)
class WeightVector:
    """Importance weights: accuracy (j), significance (pval), attribute
    redundancy (attr_jaccard), element redundancy (elem_jaccard), query size,
    and accuracy variability under missing values."""

    j: float
    pval: float
    attr_jaccard: float
    elem_jaccard: float
    query_size: float
    variability: float = 0.0

    def __post_init__(self) -> None:
        for name, value in self.__dict__.items():
            if value < 0:
                raise ValueError(f"weight {name} must be non-negative, got {value}")

    @classmethod
    def from_row(cls, row: Sequence[float]) -> "WeightVector":
        values = [float(x) for x in row]
        if len(values) == 5:
            values.append(0.0)
        if len(values) != 6:
            raise ValueError(f"expected 5 or 6 weights, got {len(values)}")
        return cls(*values)

    def as_tuple(self) -> tuple[float, ...]:
        return (
            self.j,
            self.pval,
            self.attr_jaccard,
            self.elem_jaccard,
            self.query_size,
            self.variability,
        )


@dataclass
class ReducedSet:
    """Selection result for one weight row, in selection order."""

    members: list[Redescription]
    weights: WeightVector
    n: int
    constraints: Constraints | None = None
    status: str = "ok"

    def __len__(self) -> int:
        return len(self.members)

    def __iter__(self):
        return iter(self.members)


def _members(pool) -> list[Redescription]:
    if isinstance(pool, RedescriptionSet):
        return list(pool.members)
    return list(pool)


@dataclass
class OccurrenceProfile:
    """Per-element and per-attribute counts of containing redescriptions."""

    element_counts: np.ndarray
    attribute_counts: dict[tuple[int, int], int]

    @property
    def element_total(self) -> float:
        return float(self.element_counts.sum())

    @property
    def attribute_total(self) -> float:
        return float(sum(self.attribute_counts.values()))


def compute_occurrence(pool) -> OccurrenceProfile:
    """Count, per element and per attribute, how many redescriptions in the
    pool cover or use it."""
    members = _members(pool)
    if not members:
        raise ValueError("cannot profile an empty redescription set")
    n = members[0].n_elements
    element_counts = np.zeros(n, dtype=np.float64)
    attribute_counts: dict[tuple[int, int], int] = {}
    for m in members:
        element_counts += mask_to_bools(m.supp_mask, n)
        for a in m.attrs:
            attribute_counts[a] = attribute_counts.get(a, 0) + 1
    return OccurrenceProfile(element_counts, attribute_counts)


def _first_min(
    w: WeightVector, scored: Iterable[tuple[Redescription, float, float, float]]
) -> Redescription | None:
    """The candidate with the lowest weighted score; ties keep the earliest.

    Each item is (candidate, significance term, element term, attribute
    term); accuracy, query size and variability come from the candidate. None
    when no candidate scores below infinity.
    """
    best_r: Redescription | None = None
    best_score = float("inf")
    for r, pval_term, elem_term, attr_term in scored:
        # float addition is not associative: reordering the terms can flip near-ties
        score = (
            w.j * (1.0 - r.j_qnm)
            + w.pval * pval_term
            + w.elem_jaccard * elem_term
            + w.attr_jaccard * attr_term
            + w.query_size * score_size(r.attr_count)
            + w.variability * r.variability
        )
        if score < best_score:
            best_score = score
            best_r = r
    return best_r


def find_specific(pool, profile: OccurrenceProfile, w: WeightVector) -> Redescription:
    """First pick: accurate, significant, small, and built from elements and
    attributes that few other redescriptions touch. Ties keep input order."""
    members = _members(pool)
    if not members:
        raise ValueError("empty candidate pool")
    counts = profile.element_counts
    el_total = profile.element_total
    at_total = profile.attribute_total

    def occurrence(r: Redescription) -> tuple[Redescription, float, float, float]:
        ocur_el = (
            float(counts[mask_to_bools(r.supp_mask, len(counts))].sum()) / el_total
            if el_total
            else 0.0
        )
        ocur_at = (
            sum(profile.attribute_counts.get(a, 0) for a in r.attrs) / at_total
            if at_total
            else 0.0
        )
        return r, score_pval(r.p_value), ocur_el, ocur_at

    best = _first_min(w, map(occurrence, members))
    return members[0] if best is None else best


def find_best(
    pool,
    reduced: Sequence[Redescription],
    w: WeightVector,
    n: int,
) -> Redescription | None:
    """Next pick given the set built so far; None when the pool is exhausted.

    The significance weight splits between the p-value score and relative
    support with ratio k/n, where k is the current reduced-set size: early
    picks favour small significant redescriptions, late picks larger support.
    """
    members = _members(pool)
    chosen = {id(r) for r in reduced}
    k = len(reduced)
    total = members[0].n_elements if members else 1
    return _first_min(
        w,
        (
            (
                r,
                (k / n) * score_pval(r.p_value) + (1.0 - k / n) * (r.support_size / total),
                max((mask_jaccard(r.supp_mask, m.supp_mask) for m in reduced), default=0.0),
                max((jaccard(r.attrs, m.attrs) for m in reduced), default=0.0),
            )
            for r in members
            if id(r) not in chosen
        ),
    )


def reduce_set(
    pool,
    weight_rows: Sequence[WeightVector | Sequence[float]],
    n: int,
    constraints: Constraints | None = None,
) -> list[ReducedSet]:
    """One reduced set per weight row.

    An optional constraint bundle re-filters the pool first, so one mined
    corpus supports exploring accuracy/support thresholds without re-mining.
    Selection stops at n members or pool exhaustion.
    """
    if n < 1:
        raise ValueError("reduced set size must be at least 1")
    members = _members(pool)
    outputs: list[ReducedSet] = []
    for row in weight_rows:
        w = row if isinstance(row, WeightVector) else WeightVector.from_row(row)
        candidates = [r for r in members if constraints.admits(r)] if constraints else members
        if not candidates:
            outputs.append(
                ReducedSet(
                    members=[],
                    weights=w,
                    n=n,
                    constraints=constraints,
                    status="warning: all candidates filtered out",
                )
            )
            continue
        profile = compute_occurrence(candidates)
        selected = [find_specific(candidates, profile, w)]
        while len(selected) < n:
            nxt = find_best(candidates, selected, w, n)
            if nxt is None:
                break
            selected.append(nxt)
        outputs.append(ReducedSet(members=selected, weights=w, n=n, constraints=constraints))
    return outputs
