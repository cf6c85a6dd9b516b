"""User-steered reduced redescription sets via weighted scalarization.

Given a mined set and a matrix of importance weights (one row per desired
output set), selection is greedy: the first pick minimizes a weighted sum of
accuracy, significance, occurrence, and size scores; every following pick
minimizes the same sum with the occurrence scores swapped for similarity
against the set built so far and the significance score blended with relative
support. Positive weights make each pick a non-dominated candidate.
"""

from __future__ import annotations

from dataclasses import astuple, dataclass
from typing import Sequence

import numpy as np

from .measures import (
    PackedMembers,
    Redescription,
    mask_jaccard,  # unused here; kept bound because bench/tracer.py counts calls through it
)


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
            if not 0 <= value < np.inf:  # also False for NaN
                raise ValueError(f"weights must be finite and non-negative, got {name} = {value}")

    @classmethod
    def from_row(cls, row: Sequence[float]) -> "WeightVector":
        values = [float(x) for x in row]
        if len(values) == 5:
            values.append(0.0)
        if len(values) != 6:
            raise ValueError(f"expected 5 or 6 weights, got {len(values)}")
        return cls(*values)

    def as_tuple(self) -> tuple[float, ...]:
        return astuple(self)


# The default row of a run config and the row of mine()'s max_set_size trim.
EQUAL_WEIGHTS = WeightVector(0.2, 0.2, 0.2, 0.2, 0.2, 0.0)


@dataclass
class ReducedSet:
    """Selection result for one weight row, in selection order."""

    members: list[Redescription]
    weights: WeightVector
    n: int

    def __len__(self) -> int:
        return len(self.members)

    def __iter__(self):
        return iter(self.members)


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


def compute_occurrence(cand: PackedMembers) -> OccurrenceProfile:
    """Count, per element and per attribute, how many packed redescriptions
    cover or use it."""
    per_attr = cand.incidence.sum(axis=0).tolist()
    return OccurrenceProfile(cand.element_counts(), dict(zip(cand.attr_col, per_attr)))


class _Selection:
    """Running greedy state over packed candidates: which rows are taken and
    each candidate's highest element and attribute Jaccard against the
    members folded in so far."""

    def __init__(self, cand: PackedMembers) -> None:
        self.cand = cand
        self.taken = np.zeros(len(cand), dtype=bool)
        self.elem_max = np.zeros(len(cand))
        self.attr_max = np.zeros(len(cand))
        self.folded = 0

    def catch_up(self, reduced: Sequence[Redescription]) -> None:
        """Fold in the members of `reduced` not seen yet (the newest pick,
        when called once per pick)."""
        for m in reduced[self.folded :]:
            self.taken |= self.cand.ids == id(m)
            np.maximum(self.elem_max, self.cand.element_similarity(m), out=self.elem_max)
            np.maximum(self.attr_max, self.cand.attribute_similarity(m), out=self.attr_max)
        self.folded = len(reduced)


def _first_min(
    w: WeightVector,
    cand: PackedMembers,
    taken: np.ndarray,
    pval_term: np.ndarray,
    elem_term: np.ndarray,
    attr_term: np.ndarray,
) -> Redescription | None:
    """The untaken candidate with the lowest weighted score; ties keep the
    earliest. None when no untaken candidate scores below infinity.

    The three term arrays are the significance, element and attribute terms
    per candidate; accuracy, query size and variability come from `cand`.
    """
    # float addition is not associative: reordering the terms can flip near-ties
    scores = (
        w.j * cand.inaccuracy
        + w.pval * pval_term
        + w.elem_jaccard * elem_term
        + w.attr_jaccard * attr_term
        + w.query_size * cand.size_score
        + w.variability * cand.variability
    )
    # a NaN score never won the strict `<` scan; argmin keeps the first minimum
    scores[taken | np.isnan(scores)] = np.inf
    best = int(np.argmin(scores))
    return cand.members[best] if scores[best] < np.inf else None


def find_specific(
    cand: PackedMembers, profile: OccurrenceProfile, w: WeightVector
) -> Redescription:
    """First pick among the packed candidates: accurate, significant, small,
    and built from elements and attributes that few other redescriptions
    touch. Ties keep input order.
    """
    el_total = profile.element_total
    at_total = profile.attribute_total
    # the counts are integers, so these sums are exact in any order
    ocur_el = np.zeros(len(cand))
    if el_total:
        ocur_el = cand.support_sums(profile.element_counts) / el_total
    ocur_at = np.zeros(len(cand))
    if at_total:
        per_attr = [profile.attribute_counts.get(a, 0) for a in cand.attr_col]
        ocur_at = (cand.incidence * np.array(per_attr, dtype=np.int64)).sum(axis=1) / at_total
    best = _first_min(w, cand, np.zeros(len(cand), dtype=bool), cand.pval_score, ocur_el, ocur_at)
    return cand.members[0] if best is None else best


def find_best(
    state: _Selection, reduced: Sequence[Redescription], w: WeightVector, n: int
) -> Redescription | None:
    """Next pick given the set built so far; None when the candidates are
    exhausted.

    The significance weight splits between the p-value score and relative
    support with ratio k/n, where k is the current reduced-set size: early
    picks favour small significant redescriptions, late picks larger support.
    Members of `reduced` are excluded by identity and enter the similarity
    terms whether or not they are candidates. `state` is `reduce_set`'s
    running selection over the packed pool; it folds in only the members of
    `reduced` added since the previous call.
    """
    state.catch_up(reduced)
    cand = state.cand
    k = len(reduced)
    blend = (k / n) * cand.pval_score + (1.0 - k / n) * cand.rel_support
    return _first_min(w, cand, state.taken, blend, state.elem_max, state.attr_max)


def reduce_set(pool, weight_rows: Sequence[WeightVector], n: int) -> list[ReducedSet]:
    """One reduced set per weight row, selected from the whole pool: no
    constraint applies. Selection stops at n members or pool exhaustion, so
    an empty pool gives empty sets. The pool is packed and profiled once and
    shared by every weight row; each pick then costs one vector update
    against the newest member.
    """
    if n < 1:
        raise ValueError("reduced set size must be at least 1")
    candidates = list(pool)
    if not candidates:
        return [ReducedSet(members=[], weights=w, n=n) for w in weight_rows]
    cand = PackedMembers(candidates)
    profile = compute_occurrence(cand)
    outputs: list[ReducedSet] = []
    for w in weight_rows:
        state = _Selection(cand)
        selected = [find_specific(cand, profile, w)]
        while len(selected) < n:
            nxt = find_best(state, selected, w, n)
            if nxt is None:
                break
            selected.append(nxt)
        outputs.append(ReducedSet(members=selected, weights=w, n=n))
    return outputs
