"""Redescription quality measures.

Covers the accuracy measures (classic Jaccard plus its query-non-missing,
optimistic, and pessimistic variants under missing values), the binomial-tail
significance p-value, the variability index, set-level redundancy measures
(average element/attribute Jaccard), and the normalized significance and
query-size scores. The weighted selection score lives in `reduce`.

Canonical redescription support uses query-non-missing semantics throughout:
supp(R) is the set of instances both queries definitely describe.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, NamedTuple, Sequence

import numpy as np
from scipy.stats import binom

from .dataset import Dataset
from .query import (
    Query,
    TriSupport,
    canonicalize,
    mask_to_bools,
    print_query,
    query_attr_count,
    query_attrs,
    tri_support,
)

PVALUE_SCORE_FLOOR = 1e-17
DEFAULT_SIZE_NORMALIZER = 20


def jaccard(a: Iterable, b: Iterable) -> float:
    """|a ∩ b| / |a ∪ b| over two sets; 0.0 when both are empty."""
    a, b = set(a), set(b)
    union = len(a | b)
    return len(a & b) / union if union else 0.0


def mask_jaccard(a: int, b: int) -> float:
    union = (a | b).bit_count()
    return (a & b).bit_count() / union if union else 0.0


@dataclass(frozen=True)
class StatusCounts:
    """The nine instance counters over paired query statuses (IN/OUT/UNK)."""

    n_ii: int
    n_io: int
    n_iu: int
    n_oi: int
    n_oo: int
    n_ou: int
    n_ui: int
    n_uo: int
    n_uu: int

    @classmethod
    def from_supports(cls, tri1: TriSupport, tri2: TriSupport) -> "StatusCounts":
        if tri1.n != tri2.n:
            raise ValueError("supports cover different instance counts")
        in1, un1, out1 = tri1.in_mask, tri1.unk_mask, tri1.negate().in_mask
        in2, un2, out2 = tri2.in_mask, tri2.unk_mask, tri2.negate().in_mask
        return cls(
            n_ii=(in1 & in2).bit_count(),
            n_io=(in1 & out2).bit_count(),
            n_iu=(in1 & un2).bit_count(),
            n_oi=(out1 & in2).bit_count(),
            n_oo=(out1 & out2).bit_count(),
            n_ou=(out1 & un2).bit_count(),
            n_ui=(un1 & in2).bit_count(),
            n_uo=(un1 & out2).bit_count(),
            n_uu=(un1 & un2).bit_count(),
        )

    @property
    def support1(self) -> int:
        return self.n_ii + self.n_io + self.n_iu

    @property
    def support2(self) -> int:
        return self.n_ii + self.n_oi + self.n_ui


class JaccardVariants(NamedTuple):
    qnm: float
    opt: float
    pess: float


def jaccard_variants(counts: StatusCounts) -> JaccardVariants:
    """Accuracy under missing values.

    qnm counts only definite supports; opt resolves every unknown in favour of
    the intersection where that helps; pess resolves every unknown so the
    instance lands in the union but not the intersection. All three collapse
    to classic Jaccard on complete data, and any zero denominator yields 0.
    """
    overlap = counts.n_ii
    disagree = counts.n_io + counts.n_oi
    half_unknown = counts.n_iu + counts.n_ui
    both_unknown = counts.n_uu
    unknown_vs_out = counts.n_uo + counts.n_ou

    def _ratio(num: int, den: int) -> float:
        return num / den if den else 0.0

    qnm = _ratio(overlap, overlap + disagree + half_unknown)
    opt = _ratio(
        overlap + half_unknown + both_unknown,
        overlap + half_unknown + both_unknown + disagree,
    )
    pess = _ratio(
        overlap,
        overlap + disagree + half_unknown + both_unknown + unknown_vs_out,
    )
    return JaccardVariants(qnm, opt, pess)


@lru_cache(maxsize=200_000)
def binomial_tail(overlap: int, supp1: int, supp2: int, total: int) -> float:
    """P(X >= overlap) for X ~ Binomial(total, supp1/total * supp2/total),
    via a numerically stable survival function, clamped to [0, 1]."""
    p = (supp1 / total) * (supp2 / total)
    value = float(binom.sf(overlap - 1, total, p))
    return min(1.0, max(0.0, value))


def p_value(counts: StatusCounts, total: int) -> float:
    """Probability that two random queries with the observed marginal
    frequencies describe at least as many common instances.

    The raw value is kept at full precision (no display floor here).
    """
    if total < 1:
        raise ValueError("total must be at least 1")
    return binomial_tail(counts.n_ii, counts.support1, counts.support2, total)


# ---------------------------------------------------------------------------
# Redescriptions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Redescription:
    """A pair of queries over opposite views with cached statistics."""

    q1: Query
    q2: Query
    tri1: TriSupport
    tri2: TriSupport
    counts: StatusCounts
    j_qnm: float
    j_opt: float
    j_pess: float
    p_value: float
    support_size: int
    attrs: frozenset[tuple[int, int]]
    attr_count: int
    key: tuple[str, str]

    @classmethod
    def create(
        cls, q1: Query, q2: Query, tri1: TriSupport, tri2: TriSupport, dataset: Dataset
    ) -> "Redescription":
        q1 = canonicalize(q1)
        q2 = canonicalize(q2)
        counts = StatusCounts.from_supports(tri1, tri2)
        variants = jaccard_variants(counts)
        attrs = frozenset((1, a) for a in query_attrs(q1)) | frozenset(
            (2, a) for a in query_attrs(q2)
        )
        return cls(
            q1=q1,
            q2=q2,
            tri1=tri1,
            tri2=tri2,
            counts=counts,
            j_qnm=variants.qnm,
            j_opt=variants.opt,
            j_pess=variants.pess,
            p_value=p_value(counts, tri1.n),
            support_size=counts.n_ii,
            attrs=attrs,
            attr_count=query_attr_count(q1) + query_attr_count(q2),
            key=(print_query(q1, dataset.view1), print_query(q2, dataset.view2)),
        )

    @classmethod
    def evaluate(cls, q1: Query, q2: Query, dataset: Dataset) -> "Redescription":
        return cls.create(
            q1, q2, tri_support(q1, dataset.view1), tri_support(q2, dataset.view2), dataset
        )

    @property
    def supp_mask(self) -> int:
        return self.tri1.in_mask & self.tri2.in_mask

    @property
    def supp(self) -> frozenset[int]:
        return frozenset(np.flatnonzero(mask_to_bools(self.supp_mask, self.n_elements)).tolist())

    @property
    def variability(self) -> float:
        return self.j_opt - self.j_pess

    @property
    def n_elements(self) -> int:
        return self.tri1.n


class RedescriptionSet:
    """Ordered collection with canonical-pair dedup and optional dedup by
    identical support (keeping the more accurate of two same-support members).
    """

    def __init__(self, dedup_supports: bool = True):
        self.members: list[Redescription] = []
        self.dedup_supports = dedup_supports
        self._by_pair: dict[tuple[str, str], int] = {}
        self._by_supp: dict[int, int] = {}

    def __len__(self) -> int:
        return len(self.members)

    def __iter__(self):
        return iter(self.members)

    def _reindex(self) -> None:
        self._by_pair = {m.key: i for i, m in enumerate(self.members)}
        if self.dedup_supports:
            self._by_supp = {}
            for i, m in enumerate(self.members):
                self._by_supp.setdefault(m.supp_mask, i)

    def add(self, red: Redescription) -> bool:
        if red.key in self._by_pair:
            return False
        if self.dedup_supports:
            held = self._by_supp.get(red.supp_mask)
            if held is not None:
                if red.j_qnm > self.members[held].j_qnm:
                    self.replace(held, red)
                    return True
                return False
        self.members.append(red)
        self._by_pair[red.key] = len(self.members) - 1
        if self.dedup_supports:
            self._by_supp[red.supp_mask] = len(self.members) - 1
        return True

    def replace(self, index: int, red: Redescription) -> None:
        other = self._by_pair.get(red.key)
        if other is not None and other != index:
            # the replacement collides with another member; keep the better one
            keep, drop = (index, other) if red.j_qnm > self.members[other].j_qnm else (other, index)
            if keep == index:
                self.members[index] = red
            del self.members[drop]
            self._reindex()
            return
        old = self.members[index]
        self.members[index] = red
        del self._by_pair[old.key]
        self._by_pair[red.key] = index
        if self.dedup_supports and red.supp_mask != old.supp_mask:
            self._reindex()

    def recheck(self, constraints: "Constraints") -> None:
        """Post-pass assertion that every member satisfies the constraints."""
        for m in self.members:
            if not constraints.admits(m):
                raise AssertionError(f"constraint violation in mined set: {m.key}")


def _others(r: Redescription, members: Sequence[Redescription]) -> list[Redescription]:
    """Every member but r: r itself, or, when r is passed by value, the first
    member equal to it."""
    others = [m for m in members if m is not r]
    if len(others) == len(members):
        for i, m in enumerate(members):
            if m == r:
                return list(members[:i]) + list(members[i + 1 :])
    return others


def aej(r: Redescription, members: Sequence[Redescription]) -> float:
    """Average Jaccard of r's support against every other member's support."""
    others = _others(r, members)
    if not others:
        return 0.0
    return sum(mask_jaccard(r.supp_mask, m.supp_mask) for m in others) / len(others)


def aaj(r: Redescription, members: Sequence[Redescription]) -> float:
    """Average Jaccard of r's attribute set against every other member's."""
    others = _others(r, members)
    if not others:
        return 0.0
    return sum(jaccard(r.attrs, m.attrs) for m in others) / len(others)


# ---------------------------------------------------------------------------
# Normalized scores
# ---------------------------------------------------------------------------


def score_pval(pv: float) -> float:
    """Linearized significance in [0, 1]; values below 1e-17 floor at 0."""
    if pv < PVALUE_SCORE_FLOOR:
        return 0.0
    return math.log10(pv) / 17.0 + 1.0


def score_size(attr_count: int, k: int = DEFAULT_SIZE_NORMALIZER) -> float:
    return min(attr_count / k, 1.0)


# ---------------------------------------------------------------------------
# Hard constraints
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Constraints:
    """Hard admission bundle for mined redescriptions.

    `max_support` of None means unbounded; `min_ref_jaccard` of None falls
    back to `min_jaccard` (refinement then gates exactly like admission).
    """

    min_jaccard: float = 0.6
    min_ref_jaccard: float | None = None
    max_pvalue: float = 0.01
    min_support: int = 10
    max_support: int | None = None

    def __post_init__(self) -> None:
        if not 0.0 <= self.min_jaccard <= 1.0:
            raise ValueError("min_jaccard must lie in [0, 1]")
        if not 0.0 <= self.max_pvalue <= 1.0:
            raise ValueError("max_pvalue must lie in [0, 1]")
        if self.min_support < 0:
            raise ValueError("min_support must be non-negative")
        if self.max_support is not None and self.max_support < self.min_support:
            raise ValueError(
                f"max_support ({self.max_support}) must not be below min_support ({self.min_support})"
            )
        if self.min_ref_jaccard is not None and self.min_ref_jaccard > self.min_jaccard:
            raise ValueError("min_ref_jaccard must not exceed min_jaccard")

    @property
    def ref_jaccard(self) -> float:
        return self.min_jaccard if self.min_ref_jaccard is None else self.min_ref_jaccard

    def admits_support(self, n: int) -> bool:
        """The support bounds alone, for pre-screens that know only |supp|."""
        return self.min_support <= n and (self.max_support is None or n <= self.max_support)

    def admits(self, r: Redescription) -> bool:
        return (
            r.j_qnm >= self.min_jaccard
            and r.p_value <= self.max_pvalue
            and self.admits_support(r.support_size)
        )
