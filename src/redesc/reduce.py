"""User-steered reduced redescription sets via weighted scalarization.

Given a mined set and a matrix of importance weights (one row per desired
output set), selection is greedy: the first pick minimizes a weighted sum of
accuracy, significance, occurrence, and size scores; every following pick
minimizes the same sum with the occurrence scores swapped for similarity
against the set built so far and the significance score blended with relative
support. Positive weights make each pick a non-dominated candidate.

`reduce_set` packs and profiles the pool once (`PackedMembers`) and runs
every requested (size, weight row) selection, a lane, in one lockstep pass
over it: `find_specific` makes every lane's first pick, and each `find_best`
call advances every lane still short of its size by one pick. Lanes work on
rows of the packed pool, and a pick excludes its row only, so a record listed
twice is two candidates.
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
        # every score term lies in [0, 1], so a finite sum bounds every score
        if not sum(self.__dict__.values()) < np.inf:
            raise ValueError(f"weights must have a finite sum, got {self.as_tuple()}")

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
    """Selection result for one size and weight row, in selection order."""

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
    """Running greedy state of every lane over one packed pool; a lane is one
    (size, weight row) selection. Per lane: its weights and size, the rows
    picked so far in order, and each candidate's highest element and
    attribute Jaccard against them. Every live lane has made `k` picks.
    """

    def __init__(
        self, cand: PackedMembers, weights: Sequence[WeightVector], sizes: Sequence[int]
    ) -> None:
        lanes, m = len(weights), len(cand)
        self.cand = cand
        self.weights = np.array([w.as_tuple() for w in weights], dtype=np.float64).reshape(lanes, 6)
        self.sizes = np.array(sizes, dtype=np.int64)
        self.k = 0
        self.live = np.arange(lanes)
        self.picks: list[list[int]] = [[] for _ in range(lanes)]
        self.taken = np.zeros((lanes, m), dtype=bool)
        self.elem_max = np.zeros((lanes, m))
        self.attr_max = np.zeros((lanes, m))

    def take(self, picks: np.ndarray) -> None:
        """Give live lane i the row picks[i]; a lane whose pick is -1 (no
        candidate left) stops without one, and a lane that reaches its size
        stops after it. Only lanes that go on fold in the new similarities."""
        found = picks >= 0
        lanes, picks = self.live[found], picks[found]
        for lane, i in zip(lanes.tolist(), picks.tolist()):
            self.picks[lane].append(i)
        self.taken[lanes, picks] = True
        self.k += 1
        going = self.sizes[lanes] > self.k
        self.live, picks = lanes[going], picks[going]
        if self.live.size:
            lanes = self.live
            self.elem_max[lanes] = np.maximum(
                self.elem_max[lanes], self.cand.element_similarity(picks)
            )
            self.attr_max[lanes] = np.maximum(
                self.attr_max[lanes], self.cand.attribute_similarity(picks)
            )


def _first_min(
    weights: np.ndarray,
    cand: PackedMembers,
    taken: np.ndarray,
    pval_term: np.ndarray,
    elem_term: np.ndarray,
    attr_term: np.ndarray,
) -> np.ndarray:
    """Per lane (a row of `weights`), the row of the untaken candidate with
    the lowest weighted score; ties keep the earliest. -1 for a lane in which
    no untaken candidate scores below infinity.

    The three term arrays are the significance, element and attribute terms
    per candidate, one row per lane or one row for all; accuracy, query size
    and variability come from `cand`.
    """
    # one (lanes, 1) column per weight, in `WeightVector` field order
    j, pval, attr_jaccard, elem_jaccard, query_size, variability = weights.T[:, :, None]
    # float addition is not associative: reordering the terms can flip near-ties
    scores = (
        j * cand.inaccuracy
        + pval * pval_term
        + elem_jaccard * elem_term
        + attr_jaccard * attr_term
        + query_size * cand.size_score
        + variability * cand.variability
    )
    # a NaN score never won the strict `<` scan; argmin keeps the first minimum
    scores[taken | np.isnan(scores)] = np.inf
    best = np.argmin(scores, axis=1)
    return np.where(scores[np.arange(len(best)), best] < np.inf, best, -1)


def find_specific(state: _Selection, profile: OccurrenceProfile) -> np.ndarray:
    """Per lane of `state`, none picked yet, the row of its first pick among
    the packed candidates: accurate, significant, small, and built from elements and
    attributes that few other redescriptions touch. Ties keep input order.
    The occurrence terms do not depend on the weights, so all lanes share one
    computation of them.
    """
    cand = state.cand
    # the counts are integers, so these sums are exact in any order
    el_total = profile.element_counts.sum()
    at_total = profile.attribute_counts.sum()
    ocur_el = np.zeros(len(cand))
    if el_total:
        ocur_el = cand.support_sums(profile.element_counts) / el_total
    ocur_at = np.zeros(len(cand))
    if at_total:
        ocur_at = (cand.incidence * profile.attribute_counts).sum(axis=1) / at_total
    best = _first_min(state.weights, cand, state.taken, cand.pval_score, ocur_el, ocur_at)
    return np.maximum(best, 0)


def find_best(state: _Selection) -> np.ndarray:
    """Per live lane of `state`, the row of its next pick given the rows it
    has picked; -1 when its candidates are exhausted.

    The significance weight splits between the p-value score and relative
    support with ratio k/n, where k is the current reduced-set size and n the
    lane's size: early picks favour small significant redescriptions, late
    picks larger support.
    """
    cand, lanes = state.cand, state.live
    ratio = (state.k / state.sizes[lanes])[:, None]
    blend = ratio * cand.pval_score + (1.0 - ratio) * cand.rel_support
    return _first_min(
        state.weights[lanes],
        cand,
        state.taken[lanes],
        blend,
        state.elem_max[lanes],
        state.attr_max[lanes],
    )


def reduce_set(
    pool, weight_rows: Sequence[WeightVector], sizes: Sequence[int]
) -> list[ReducedSet]:
    """One reduced set per (size, weight row), size-major, selected from the
    whole pool: no constraint applies. A set stops at its size or when the
    pool is exhausted, so an empty pool gives empty sets.

    The pool is packed and profiled once, and every set advances in lockstep:
    each step scores all unfinished sets together and costs one vector update
    per set against its newest member.
    """
    if any(n < 1 for n in sizes):
        raise ValueError("reduced set size must be at least 1")
    lanes = [(n, w) for n in sizes for w in weight_rows]
    candidates = list(pool)
    if not candidates:
        return [ReducedSet(members=[], weights=w, n=n) for n, w in lanes]
    cand = PackedMembers(candidates)
    state = _Selection(cand, [w for _, w in lanes], [n for n, _ in lanes])
    state.take(find_specific(state, compute_occurrence(cand)))
    while state.live.size:
        state.take(find_best(state))
    return [
        ReducedSet([candidates[i] for i in picks], w, n)
        for picks, (n, w) in zip(state.picks, lanes)
    ]
