"""User-steered reduced redescription sets via weighted scalarization.

Given a mined set and a matrix of importance weights (one row per desired
output set), selection is greedy: the first pick minimizes a weighted sum of
accuracy, significance, occurrence, and size scores; every following pick
minimizes the same sum with the occurrence scores swapped for similarity
against the set built so far and the significance score blended with relative
support. Positive weights make each pick a non-dominated candidate.

The pool is packed once (`PackedMembers`), and the selection works on its
rows: `find_specific` and `find_best` return row numbers, and a pick excludes
its row only, so a record listed twice is two candidates.
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
    """Per element, and per attribute column of the packed candidates
    (`PackedMembers.incidence`), the number of containing redescriptions."""

    element_counts: np.ndarray
    attribute_counts: np.ndarray


def compute_occurrence(cand: PackedMembers) -> OccurrenceProfile:
    """Count, per element and per attribute, how many packed redescriptions
    cover or use it."""
    return OccurrenceProfile(cand.element_counts(), cand.incidence.sum(axis=0))


class _Selection:
    """Running greedy state over packed candidates: the rows picked so far,
    in order, and each candidate's highest element and attribute Jaccard
    against them."""

    def __init__(self, cand: PackedMembers) -> None:
        self.cand = cand
        self.picks: list[int] = []
        self.taken = np.zeros(len(cand), dtype=bool)
        self.elem_max = np.zeros(len(cand))
        self.attr_max = np.zeros(len(cand))

    def take(self, i: int) -> None:
        """Pick row i: exclude it and fold its similarities in."""
        self.picks.append(i)
        self.taken[i] = True
        np.maximum(self.elem_max, self.cand.element_similarity(i), out=self.elem_max)
        np.maximum(self.attr_max, self.cand.attribute_similarity(i), out=self.attr_max)


def _first_min(
    w: WeightVector,
    cand: PackedMembers,
    taken: np.ndarray,
    pval_term: np.ndarray,
    elem_term: np.ndarray,
    attr_term: np.ndarray,
) -> int | None:
    """The row of the untaken candidate with the lowest weighted score; ties
    keep the earliest. None when no untaken candidate scores below infinity.

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
    return best if scores[best] < np.inf else None


def find_specific(cand: PackedMembers, profile: OccurrenceProfile, w: WeightVector) -> int:
    """Row of the first pick among the packed candidates: accurate,
    significant, small, and built from elements and attributes that few other
    redescriptions touch. Ties keep input order.
    """
    # the counts are integers, so these sums are exact in any order
    el_total = profile.element_counts.sum()
    at_total = profile.attribute_counts.sum()
    ocur_el = np.zeros(len(cand))
    if el_total:
        ocur_el = cand.support_sums(profile.element_counts) / el_total
    ocur_at = np.zeros(len(cand))
    if at_total:
        ocur_at = (cand.incidence * profile.attribute_counts).sum(axis=1) / at_total
    best = _first_min(w, cand, np.zeros(len(cand), dtype=bool), cand.pval_score, ocur_el, ocur_at)
    return 0 if best is None else best


def find_best(state: _Selection, w: WeightVector, n: int) -> int | None:
    """Row of the next pick given the rows `state` has picked; None when the
    candidates are exhausted.

    The significance weight splits between the p-value score and relative
    support with ratio k/n, where k is the current reduced-set size: early
    picks favour small significant redescriptions, late picks larger support.
    """
    cand = state.cand
    k = len(state.picks)
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
        state.take(find_specific(cand, profile, w))
        while len(state.picks) < n:
            nxt = find_best(state, w, n)
            if nxt is None:
                break
            state.take(nxt)
        outputs.append(ReducedSet([candidates[i] for i in state.picks], w, n))
    return outputs
