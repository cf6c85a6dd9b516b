"""Conjunctive refinement of redescriptions.

A redescription whose support contains another's can refine it: conjoining
the two query pairs preserves the smaller support exactly and never lowers
accuracy. Before conjoining, the refiner's numeric interval literals are
tightened to the observed hull of the target support, which maximizes the
chance of a strict accuracy gain.

Refiners must be conjunctive (a literal or an AND of literals); disjunctive
refiners are skipped. Subset tests use definite (query-non-missing) supports,
so unknown-status instances never witness containment.

Whether a refinement improves is decided from supports before any query is
built: the conjunction's support is the Kleene intersection of r's supports
with the tightened refiner's, so only a strict accuracy gain pays for
minimizing the conjoined queries and printing the new redescription.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .dataset import Dataset, NUMERIC
from . import query  # tri_support is reached through its module, where bench/tracer.py wraps it
from .measures import (
    Constraints,
    Redescription,
    RedescriptionSet,
    StatusCounts,
    jaccard_variants,
    overlap_counts,
    row_sizes,
)
from .measures import mask_jaccard  # unused here; kept bound because bench/tracer.py counts calls through it
from .query import (
    And,
    Literal,
    Query,
    canonicalize,
    is_conjunctive,
    iter_literals,
    mask_to_bools,
    minimize_query,
    pack_masks,
)


@dataclass(frozen=True)
class RefinementOutcome:
    refined: Redescription
    improved: bool
    applied: bool


def _tighten_query(q: Query, target_rows: np.ndarray, view) -> Query:
    """Shrink each non-negated interval literal to its intersection with the
    observed hull of the target rows; other literals pass through."""
    tightened = []
    for lit in iter_literals(q.root):
        if lit.kind == NUMERIC and not lit.negated:
            values = view.columns[lit.attr][target_rows]
            values = values[~np.isnan(values)]
            if values.size:
                lo = max(lit.lo, float(values.min()))
                hi = min(lit.hi, float(values.max()))
                lit = Literal(lit.attr, NUMERIC, lo, hi)
        tightened.append(lit)
    return Query(tightened[0] if len(tightened) == 1 else And(tuple(tightened)))


def _tightened_queries(
    ref: Redescription, target_mask: int, dataset: Dataset
) -> tuple[Query, Query]:
    """Both refiner queries tightened to the hull of the target rows. They
    need not be canonical: `tri_support` and `minimize_query` take any query."""
    rows = np.flatnonzero(mask_to_bools(target_mask, ref.n_elements))
    return (
        _tighten_query(ref.q1, rows, dataset.view1),
        _tighten_query(ref.q2, rows, dataset.view2),
    )


def tighten_bounds(ref: Redescription, target_mask: int, dataset: Dataset) -> Redescription:
    """Refiner with numeric bounds shrunk to the hull of the rows in `target_mask`.

    Requires conjunctive queries and target ⊆ supp(ref); guarantees
    target ⊆ supp(result) ⊆ supp(ref).
    """
    if not (is_conjunctive(ref.q1) and is_conjunctive(ref.q2)):
        raise ValueError("refiner queries must be conjunctive")
    if target_mask & ~ref.supp_mask:
        raise ValueError("target support is not contained in the refiner's support")
    q1, q2 = map(canonicalize, _tightened_queries(ref, target_mask, dataset))
    return Redescription.evaluate(q1, q2, dataset)


def refine_pair(r: Redescription, ref: Redescription, dataset: Dataset) -> RefinementOutcome:
    """Refine r with ref when supp(r) ⊆ supp(ref).

    The conjunction of r's queries with the bound-tightened refiner queries
    keeps supp(r) and never lowers accuracy. `improved` flags a strict
    accuracy gain, and only then is the conjunction built: `refined` is its
    minimized form, and otherwise `refined` is r itself. The gain is decided
    from supports alone, as `tri_support` of a conjunction is the Kleene
    intersection of its parts and minimization keeps the tri-valued support,
    so no discarded candidate is minimized or evaluated.
    """
    # the cheap mask test first: most pairs in `construct_and_refine` are not nested
    if r.supp_mask & ~ref.supp_mask or not (is_conjunctive(ref.q1) and is_conjunctive(ref.q2)):
        return RefinementOutcome(refined=r, improved=False, applied=False)
    if r.key == ref.key:
        # conjoining a redescription with itself is the identity
        return RefinementOutcome(refined=r, improved=False, applied=True)
    t1, t2 = _tightened_queries(ref, r.supp_mask, dataset)
    tri1 = r.tri1.intersect(query.tri_support(t1, dataset.view1))
    tri2 = r.tri2.intersect(query.tri_support(t2, dataset.view2))
    if not jaccard_variants(StatusCounts.from_supports(tri1, tri2)).qnm > r.j_qnm:
        return RefinementOutcome(refined=r, improved=False, applied=True)
    q1 = minimize_query(Query(And((r.q1.root, t1.root))), dataset.view1)
    q2 = minimize_query(Query(And((r.q2.root, t2.root))), dataset.view2)
    return RefinementOutcome(
        refined=Redescription.create(q1, q2, tri1, tri2, dataset), improved=True, applied=True
    )


def construct_and_refine(
    rules1: Sequence,
    rules2: Sequence,
    rset: RedescriptionSet,
    constraints: Constraints,
    dataset: Dataset,
    refine: bool = True,
) -> RedescriptionSet:
    """Cartesian-product candidate generation, refined when `refine` is set.

    The Jaccard screen on packed supports (floor `ref_jaccard` when refining,
    else `min_jaccard`) only prefilters: `Constraints.admits` takes no pair it
    drops. When refining, each candidate refines, and is refined by, every
    member before the admission check, so it can improve members it never joins.
    A refined member keeps its support, so it takes its own place in `rset`:
    the walk over the members never deletes one.
    """
    floor = constraints.ref_jaccard if refine else constraints.min_jaccard
    words2 = pack_masks([r2.tri.in_mask for r2 in rules2], dataset.n_elements)
    sizes2 = row_sizes(words2)
    for r1 in rules1:
        overlap, union = overlap_counts(words2, sizes2, r1.tri.in_mask)
        for j in np.flatnonzero(overlap / np.maximum(union, 1) >= floor):
            r2 = rules2[j]
            candidate = Redescription.create(r1.query, r2.query, r1.tri, r2.tri, dataset)
            for idx in range(len(rset.members) if refine else 0):
                outcome = refine_pair(rset.members[idx], candidate, dataset)
                if outcome.improved:
                    rset.add(outcome.refined)  # same support, more accurate: takes idx
                back = refine_pair(candidate, rset.members[idx], dataset)
                if back.improved:
                    candidate = back.refined
            if constraints.admits(candidate):
                rset.add(candidate)
    return rset
