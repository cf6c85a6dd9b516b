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
    mask_jaccard,  # unused here; kept bound because bench/tracer.py counts calls through it
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


# The default row of a run config and the row of mine()'s max_set_size trim.
EQUAL_WEIGHTS = WeightVector(0.2, 0.2, 0.2, 0.2, 0.2, 0.0)


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


# bits unpacked per block in `_Candidates.support_sums`; the block and its
# float64 product stay under 40 KB, so packing adds no visible peak memory
_BLOCK_CELLS = 1 << 12


class _Candidates:
    """A candidate list packed once for bulk scoring.

    Supports are rows of uint64 words (the bitmask's little-endian bytes),
    attributes a boolean incidence matrix over the distinct (view, attribute)
    pairs. The score terms that do not depend on the reduced set are float64
    arrays whose entries come from Python scalar arithmetic, so each is the
    double a per-candidate loop would compute.
    """

    def __init__(self, members: list[Redescription]) -> None:
        self.members = members
        self.n_elements = members[0].n_elements
        self.n_bytes = nb = 8 * max(1, -(-self.n_elements // 64))
        self.words = np.empty((len(members), nb // 8), dtype=np.uint64)
        raw = self.words.data.cast("B")
        for i, r in enumerate(members):
            raw[i * nb : (i + 1) * nb] = r.supp_mask.to_bytes(nb, "little")
        self.supp_sizes = np.bitwise_count(self.words).sum(axis=1, dtype=np.int64)

        self.attr_sizes = np.array([len(r.attrs) for r in members], dtype=np.int64)
        self.attr_col: dict[tuple[int, int], int] = {}
        cols = np.fromiter(
            (self.attr_col.setdefault(a, len(self.attr_col)) for r in members for a in r.attrs),
            dtype=np.intp,
            count=int(self.attr_sizes.sum()),
        )
        self.incidence = np.zeros((len(members), len(self.attr_col)), dtype=bool)
        self.incidence[np.repeat(np.arange(len(members)), self.attr_sizes), cols] = True

        # exclusion is by identity: a pool listing one object twice loses both rows
        self.ids = np.fromiter(map(id, members), dtype=np.uint64, count=len(members))

        def column(values) -> np.ndarray:
            return np.fromiter(values, dtype=np.float64, count=len(members))

        self.inaccuracy = column(1.0 - r.j_qnm for r in members)
        self.pval_score = column(score_pval(r.p_value) for r in members)
        self.rel_support = column(r.support_size / self.n_elements for r in members)
        self.size_score = column(score_size(r.attr_count) for r in members)
        self.variability = column(r.variability for r in members)

    def __len__(self) -> int:
        return len(self.members)

    def support_sums(self, weights: np.ndarray) -> np.ndarray:
        """Per candidate, the sum of `weights` over the elements it supports."""
        out = np.empty(len(self))
        step = max(1, _BLOCK_CELLS // self.n_elements)
        for lo in range(0, len(self), step):
            bits = np.unpackbits(
                self.words[lo : lo + step].view(np.uint8),
                axis=1,
                count=self.n_elements,
                bitorder="little",
            )
            out[lo : lo + step] = (bits * weights).sum(axis=1)
        return out

    def similarity(self, m: Redescription) -> tuple[np.ndarray, np.ndarray]:
        """Element and attribute Jaccard of every candidate against m, which
        need not be a candidate itself.

        Counts below 2**53 convert to float64 exactly, so each quotient is the
        double Python's int / int gives; an empty union has an empty
        intersection, so dividing by max(union, 1) gives its 0.0.
        """
        supp = m.supp_mask
        word = np.frombuffer(supp.to_bytes(self.n_bytes, "little"), dtype=np.uint64)
        inter = np.bitwise_count(self.words & word).sum(axis=1, dtype=np.int64)
        elem = inter / np.maximum(self.supp_sizes + supp.bit_count() - inter, 1)
        cols = [self.attr_col[a] for a in m.attrs if a in self.attr_col]
        shared = self.incidence[:, cols].sum(axis=1, dtype=np.int64)
        attr = shared / np.maximum(self.attr_sizes + len(m.attrs) - shared, 1)
        return elem, attr


class _Selection:
    """Running greedy state over packed candidates: which rows are taken and
    each candidate's highest element and attribute Jaccard against the
    members folded in so far."""

    def __init__(self, cand: _Candidates) -> None:
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
            elem, attr = self.cand.similarity(m)
            np.maximum(self.elem_max, elem, out=self.elem_max)
            np.maximum(self.attr_max, attr, out=self.attr_max)
        self.folded = len(reduced)


def _first_min(
    w: WeightVector,
    cand: _Candidates,
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
    pool, profile: OccurrenceProfile, w: WeightVector, *, cand: _Candidates | None = None
) -> Redescription:
    """First pick: accurate, significant, small, and built from elements and
    attributes that few other redescriptions touch. Ties keep input order.

    `cand` is the pool already packed by `reduce_set`.
    """
    members = _members(pool)
    if not members:
        raise ValueError("empty candidate pool")
    if cand is None:
        cand = _Candidates(members)
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
    return members[0] if best is None else best


def find_best(
    pool,
    reduced: Sequence[Redescription],
    w: WeightVector,
    n: int,
    *,
    state: _Selection | None = None,
) -> Redescription | None:
    """Next pick given the set built so far; None when the pool is exhausted.

    The significance weight splits between the p-value score and relative
    support with ratio k/n, where k is the current reduced-set size: early
    picks favour small significant redescriptions, late picks larger support.
    Members of `reduced` are excluded by identity and enter the similarity
    terms whether or not they are in the pool. `state` is `reduce_set`'s
    running selection over the packed pool; it folds in only the members of
    `reduced` added since the previous call.
    """
    if state is None:
        members = _members(pool)
        if not members:
            return None
        state = _Selection(_Candidates(members))
    state.catch_up(reduced)
    cand = state.cand
    k = len(reduced)
    blend = (k / n) * cand.pval_score + (1.0 - k / n) * cand.rel_support
    return _first_min(w, cand, state.taken, blend, state.elem_max, state.attr_max)


def reduce_set(
    pool,
    weight_rows: Sequence[WeightVector | Sequence[float]],
    n: int,
    constraints: Constraints | None = None,
) -> list[ReducedSet]:
    """One reduced set per weight row.

    An optional constraint bundle re-filters the pool first, so one mined
    corpus supports exploring accuracy/support thresholds without re-mining.
    Selection stops at n members or pool exhaustion. The filtered pool is
    packed and profiled once and shared by every weight row; each pick then
    costs one vector update against the newest member.
    """
    if n < 1:
        raise ValueError("reduced set size must be at least 1")
    rows = [r if isinstance(r, WeightVector) else WeightVector.from_row(r) for r in weight_rows]
    members = _members(pool)
    candidates = [r for r in members if constraints.admits(r)] if constraints else members
    if not candidates:
        return [
            ReducedSet(
                members=[],
                weights=w,
                n=n,
                constraints=constraints,
                status="warning: all candidates filtered out",
            )
            for w in rows
        ]
    cand = _Candidates(candidates)
    profile = compute_occurrence(candidates)
    outputs: list[ReducedSet] = []
    for w in rows:
        state = _Selection(cand)
        selected = [find_specific(candidates, profile, w, cand=cand)]
        while len(selected) < n:
            nxt = find_best(candidates, selected, w, n, state=state)
            if nxt is None:
                break
            selected.append(nxt)
        outputs.append(ReducedSet(members=selected, weights=w, n=n, constraints=constraints))
    return outputs
