"""Redescription quality measures.

Covers the accuracy measures (classic Jaccard plus its query-non-missing,
optimistic, and pessimistic variants under missing values), the binomial-tail
significance p-value, the variability index, set-level redundancy measures
(average element/attribute Jaccard), the normalized significance and
query-size scores, and the packed member matrix that reduction and evaluation
share, with its one pairwise Jaccard kernel: it gives both the similarities
of reduction's picks and evaluation's redundancy. The weighted selection
score lives in `reduce`.

Canonical redescription support uses query-non-missing semantics throughout:
supp(R) is the set of instances both queries definitely describe.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.special import betainc

from .dataset import Dataset
from .query import (
    Query,
    TriSupport,
    _print_node,
    pack_masks,
    print_query,
    query_attr_count,
    query_attrs,
    tri_support,
    unpack_rows,
)

PVALUE_SCORE_FLOOR = 1e-17
SIZE_NORMALIZER = 20


def mask_jaccard(a: int, b: int) -> float:
    union = (a | b).bit_count()
    return (a & b).bit_count() / union if union else 0.0


def row_sizes(words: np.ndarray) -> np.ndarray:
    """Set bits per row of packed words (see `query.pack_masks`)."""
    return np.bitwise_count(words).sum(axis=1, dtype=np.int64)


def overlap_counts(
    words: np.ndarray, sizes: np.ndarray, mask: int
) -> tuple[np.ndarray, np.ndarray]:
    """Intersection and union sizes of each row of `words`, whose `row_sizes`
    are `sizes`, with the bitmask `mask`."""
    row = pack_masks([mask], 64 * words.shape[1])
    inter = np.bitwise_count(words & row).sum(axis=1, dtype=np.int64)
    return inter, sizes + mask.bit_count() - inter


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
        full = (1 << tri1.n) - 1
        in1, un1 = tri1.in_mask, tri1.unk_mask
        in2, un2 = tri2.in_mask, tri2.unk_mask
        out1, out2 = full & ~(in1 | un1), full & ~(in2 | un2)
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


def binomial_tail(overlap: int, supp1: int, supp2: int, total: int) -> float:
    """P(X >= overlap) for X ~ Binomial(total, supp1/total * supp2/total),
    as the regularized incomplete beta I_p(overlap, total - overlap + 1),
    clamped to [0, 1]."""
    if overlap <= 0:
        return 1.0
    p = (supp1 / total) * (supp2 / total)
    value = float(betainc(overlap, total - overlap + 1, p))
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
    supp_mask: int  # supp(R) as a bitmask: the rows both queries definitely describe
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
        """Statistics of canonical queries q1, q2 (see `query`) with supports tri1, tri2."""
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
            supp_mask=tri1.in_mask & tri2.in_mask,
            j_qnm=variants.qnm,
            j_opt=variants.opt,
            j_pess=variants.pess,
            p_value=p_value(counts, tri1.n),
            support_size=counts.n_ii,
            attrs=attrs,
            attr_count=query_attr_count(q1) + query_attr_count(q2),
            key=(_print_node(q1.root, dataset.view1), _print_node(q2.root, dataset.view2)),
        )

    @classmethod
    def evaluate(cls, q1: Query, q2: Query, dataset: Dataset) -> "Redescription":
        """`create` with the supports of the canonical queries q1 and q2."""
        return cls.create(
            q1, q2, tri_support(q1, dataset.view1), tri_support(q2, dataset.view2), dataset
        )

    @property
    def variability(self) -> float:
        return self.j_opt - self.j_pess

    @property
    def n_elements(self) -> int:
        return self.tri1.n


class RedescriptionSet:
    """Ordered collection holding one member per support, the more accurate
    of any two. Equal keys mean equal queries, so equal supports and
    accuracy: a second copy of a member is refused."""

    def __init__(self):
        self.members: list[Redescription] = []
        self._by_supp: dict[int, int] = {}

    def __len__(self) -> int:
        return len(self.members)

    def __iter__(self):
        return iter(self.members)

    def add(self, red: Redescription) -> bool:
        """Append red if no member has its support; otherwise put red in that
        member's place if red is strictly more accurate. False if refused."""
        held = self._by_supp.get(red.supp_mask)
        if held is None:
            self._by_supp[red.supp_mask] = len(self.members)
            self.members.append(red)
        elif red.j_qnm > self.members[held].j_qnm:
            self.members[held] = red
        else:
            return False
        return True

    def recheck(self, constraints: "Constraints", dataset: Dataset) -> None:
        """Post-pass assertion that every member satisfies the constraints and
        that its key is the canonical text of its queries."""
        for m in self.members:
            if not constraints.admits(m):
                raise AssertionError(f"constraint violation in mined set: {m.key}")
            if m.key != (print_query(m.q1, dataset.view1), print_query(m.q2, dataset.view2)):
                raise AssertionError(f"non-canonical queries in mined set: {m.key}")


# ---------------------------------------------------------------------------
# Normalized scores
# ---------------------------------------------------------------------------


def score_pval(pv: float) -> float:
    """Linearized significance in [0, 1]; values below 1e-17 floor at 0."""
    if pv < PVALUE_SCORE_FLOOR:
        return 0.0
    return math.log10(pv) / 17.0 + 1.0


def score_size(attr_count: int) -> float:
    return min(attr_count / SIZE_NORMALIZER, 1.0)


# ---------------------------------------------------------------------------
# Packed member matrix
# ---------------------------------------------------------------------------

# cells per block of the bulk kernels, so each temporary stays within 256 KB:
# bits unpacked by `PackedMembers._bit_blocks`, and words per block of picks
# in `_jaccards` and of rows in `aej`/`aaj` (one pick at a time against a
# large pool, as a single pick's row scan needs anyway)
_BLOCK_CELLS = 1 << 15


class PackedMembers:
    """A member list packed once for bulk work: reduction, evaluation and occurrence counts.

    Supports are rows of uint64 words (see `query.pack_masks`),
    attributes a boolean incidence matrix over the distinct (view, attribute)
    pairs. Each float64 entry is the double a per-member Python loop gives:
    the score terms that do not depend on the reduced set come from Python
    scalar arithmetic, and Jaccard counts below 2**53 convert exactly, so each
    quotient is int / int's double (dividing by max(union, 1) gives an empty
    union's 0.0, its intersection being empty too).
    """

    def __init__(self, members: list[Redescription]) -> None:
        if not members:
            raise ValueError("cannot pack an empty member list")
        self.members = members
        self.n_elements = members[0].n_elements
        self.words = pack_masks([r.supp_mask for r in members], self.n_elements)
        self.sizes = row_sizes(self.words)

        self.attr_sizes = np.array([len(r.attrs) for r in members], dtype=np.int64)
        self.attr_col: dict[tuple[int, int], int] = {}
        cols = np.fromiter(
            (self.attr_col.setdefault(a, len(self.attr_col)) for r in members for a in r.attrs),
            dtype=np.intp,
            count=int(self.attr_sizes.sum()),
        )
        self.incidence = np.zeros((len(members), len(self.attr_col)), dtype=bool)
        self.incidence[np.repeat(np.arange(len(members)), self.attr_sizes), cols] = True
        # the pairwise kernels' layout: word w of every member is one row
        self.word_cols = np.ascontiguousarray(self.words.T)
        self.attr_cols = np.ascontiguousarray(np.packbits(self.incidence, axis=1).T)

        def column(values) -> np.ndarray:
            return np.fromiter(values, dtype=np.float64, count=len(members))

        self.inaccuracy = column(1.0 - r.j_qnm for r in members)
        self.pval_score = column(score_pval(r.p_value) for r in members)
        self.rel_support = column(r.support_size / self.n_elements for r in members)
        self.size_score = column(score_size(r.attr_count) for r in members)
        self.variability = column(r.variability for r in members)

    def __len__(self) -> int:
        return len(self.members)

    def _bit_blocks(self):
        """(first row, unpacked support bits) per block of rows."""
        step = max(1, _BLOCK_CELLS // self.n_elements)
        for lo in range(0, len(self), step):
            yield lo, unpack_rows(self.words[lo : lo + step], self.n_elements)

    def support_sums(self, weights: np.ndarray) -> np.ndarray:
        """Per member, the sum of `weights` over the elements it supports."""
        out = np.empty(len(self))
        for lo, bits in self._bit_blocks():
            out[lo : lo + len(bits)] = (bits * weights).sum(axis=1)
        return out

    def element_counts(self) -> np.ndarray:
        """Per element, how many members support it."""
        counts = np.zeros(self.n_elements)
        for _, bits in self._bit_blocks():
            counts += bits.sum(axis=0)
        return counts

    def element_similarity(self, picks: np.ndarray) -> np.ndarray:
        """Support Jaccard of every member (columns) against each member in `picks` (rows)."""
        return _jaccards(self.word_cols, self.sizes, picks)

    def attribute_similarity(self, picks: np.ndarray) -> np.ndarray:
        """Attribute-set Jaccard of every member (columns) against each member in `picks` (rows)."""
        return _jaccards(self.attr_cols, self.attr_sizes, picks)


def _jaccards(cols: np.ndarray, sizes: np.ndarray, picks: np.ndarray) -> np.ndarray:
    """out[a, b]: the Jaccard of member picks[a]'s set with member b's, where
    column b of `cols` holds member b's set as words and `sizes[b]` its size.

    Picks go in blocks whose words-by-members temporary stays within
    `_BLOCK_CELLS` words, or one pick's words when those alone are more.
    """
    out = np.empty((len(picks), cols.shape[1]))
    step = max(1, _BLOCK_CELLS // max(cols.size, 1))
    for lo in range(0, len(picks), step):
        block = picks[lo : lo + step]
        shared = cols[:, block].T[:, :, None] & cols
        inter = np.bitwise_count(shared).sum(axis=1, dtype=np.int64)
        out[lo : lo + len(block)] = inter / np.maximum(sizes[block, None] + sizes - inter, 1)
    return out


def _mean_jaccard_over_others(cols: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """Per member, the mean Jaccard of its set against every other member's.

    Column i of `cols` holds member i's set as packed words, `sizes[i]` its
    size. Members go in the blocks of picks that `_jaccards` takes, so no
    block's pairs outgrow `_BLOCK_CELLS`. Each member's entry for itself
    becomes +0.0, which leaves a non-negative running sum's bits alone, so
    the last prefix sum of a row is the left-to-right sum over the other
    members; an equal copy in another column is another member.
    """
    m = len(sizes)
    out = np.empty(m)
    step = max(1, _BLOCK_CELLS // max(cols.size, 1))
    for lo in range(0, m, step):
        rows = np.arange(lo, min(lo + step, m))
        similarity = _jaccards(cols, sizes, rows)
        similarity[np.arange(len(rows)), rows] = 0.0
        out[lo : lo + len(rows)] = np.cumsum(similarity, axis=1)[:, -1] / max(m - 1, 1)
    return out


def aej(packed: PackedMembers) -> np.ndarray:
    """Per member, the average Jaccard of its support against every other member's."""
    return _mean_jaccard_over_others(packed.word_cols, packed.sizes)


def aaj(packed: PackedMembers) -> np.ndarray:
    """Per member, the average Jaccard of its attribute set against every other member's."""
    return _mean_jaccard_over_others(packed.attr_cols, packed.attr_sizes)


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
        for name in ("min_jaccard", "min_ref_jaccard", "max_pvalue"):
            value = getattr(self, name)
            if value is not None and not 0.0 <= value <= 1.0:  # also rejects NaN
                raise ValueError(f"{name} must lie in [0, 1], got {value}")
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

    def admits_support(self, n: int | np.ndarray) -> bool | np.ndarray:
        """The support bounds alone (elementwise on arrays), for pre-screens that know |supp|."""
        return (self.min_support <= n) & (self.max_support is None or n <= self.max_support)

    def admits(self, r: Redescription) -> bool:
        return (
            r.j_qnm >= self.min_jaccard
            and r.p_value <= self.max_pvalue
            and self.admits_support(r.support_size)
        )
