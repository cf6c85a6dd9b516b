"""Conjunctive refinement of redescriptions.

A redescription whose support contains another's can refine it: conjoining
the two query pairs preserves the smaller support exactly and never lowers
accuracy. Before conjoining, the refiner's numeric interval literals are
tightened to the observed hull of the target support, which maximizes the
chance of a strict accuracy gain.

Refiners must be conjunctive (a literal or an AND of literals); disjunctive
refiners are skipped. Subset tests use definite (query-non-missing) supports,
so unknown-status instances never witness containment.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .dataset import Dataset, NUMERIC
from .measures import Constraints, Redescription, RedescriptionSet, overlap_counts
from .measures import mask_jaccard  # unused here; kept bound because bench/tracer.py counts calls through it
from .query import (
    And,
    Leaf,
    Literal,
    Query,
    TriSupport,
    canonicalize,
    is_conjunctive,
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
    if isinstance(q.root, Leaf):
        leaves = [q.root.literal]
    else:
        leaves = [child.literal for child in q.root.children]
    tightened = []
    for lit in leaves:
        if lit.kind == NUMERIC and not lit.negated:
            values = view.columns[lit.attr][target_rows]
            values = values[~np.isnan(values)]
            if values.size:
                lo = max(lit.lo, float(values.min()))
                hi = min(lit.hi, float(values.max()))
                lit = Literal(lit.attr, NUMERIC, lo, hi)
        tightened.append(Leaf(lit))
    root = tightened[0] if len(tightened) == 1 else And(tuple(tightened))
    return Query(root, q.view_id)


def _tightened_queries(
    ref: Redescription, target_mask: int, dataset: Dataset
) -> tuple[Query, Query]:
    """Both refiner queries tightened to the hull of the target rows, in the
    canonical form `Redescription.create` would give them."""
    rows = np.flatnonzero(mask_to_bools(target_mask, ref.n_elements))
    return (
        canonicalize(_tighten_query(ref.q1, rows, dataset.view1)),
        canonicalize(_tighten_query(ref.q2, rows, dataset.view2)),
    )


def tighten_bounds(ref: Redescription, target_support: frozenset[int] | set[int], dataset: Dataset) -> Redescription:
    """Refiner with numeric bounds shrunk to the hull of `target_support`.

    Requires conjunctive queries and target_support ⊆ supp(ref); guarantees
    target_support ⊆ supp(result) ⊆ supp(ref).
    """
    if not (is_conjunctive(ref.q1) and is_conjunctive(ref.q2)):
        raise ValueError("refiner queries must be conjunctive")
    target_mask = TriSupport.from_sets(target_support, (), ref.n_elements).in_mask
    if target_mask & ~ref.supp_mask:
        raise ValueError("target support is not contained in the refiner's support")
    return Redescription.evaluate(*_tightened_queries(ref, target_mask, dataset), dataset)


def strict_witness(r: Redescription, tightened_ref: Redescription) -> bool:
    """True when some instance supported by one of r's queries is not
    supported by the refiner's corresponding query; conjoining then strictly
    shrinks the union, so accuracy strictly rises (for nonempty support)."""
    gap1 = r.tri1.in_mask & ~tightened_ref.tri1.in_mask
    gap2 = r.tri2.in_mask & ~tightened_ref.tri2.in_mask
    return bool(gap1 | gap2)


def refine_pair(r: Redescription, ref: Redescription, dataset: Dataset) -> RefinementOutcome:
    """Refine r with ref when supp(r) ⊆ supp(ref).

    The refined redescription conjoins r's queries with the bound-tightened
    refiner queries (minimized); its support equals supp(r) and its accuracy
    never drops. `improved` flags a strict accuracy gain.
    """
    if not (is_conjunctive(ref.q1) and is_conjunctive(ref.q2)):
        return RefinementOutcome(refined=r, improved=False, applied=False)
    if r.supp_mask & ~ref.supp_mask:
        return RefinementOutcome(refined=r, improved=False, applied=False)
    if r.key == ref.key:
        # conjoining a redescription with itself is the identity
        return RefinementOutcome(refined=r, improved=False, applied=True)
    t1, t2 = _tightened_queries(ref, r.supp_mask, dataset)
    q1 = minimize_query(Query(And((r.q1.root, t1.root)), r.q1.view_id), dataset.view1)
    q2 = minimize_query(Query(And((r.q2.root, t2.root)), r.q2.view_id), dataset.view2)
    refined = Redescription.evaluate(q1, q2, dataset)
    return RefinementOutcome(
        refined=refined, improved=refined.j_qnm > r.j_qnm, applied=True
    )


def construct_and_refine(
    rules1: Sequence,
    rules2: Sequence,
    rset: RedescriptionSet,
    constraints: Constraints,
    dataset: Dataset,
) -> RedescriptionSet:
    """Cartesian-product candidate generation with bidirectional refinement.

    Every candidate pair at or above the refinement accuracy floor refines,
    and is refined by, every current member before the admission check; a
    candidate below the admission floor can therefore still improve members
    it never joins.
    """
    words2 = pack_masks([r2.tri.in_mask for r2 in rules2], dataset.n_elements)
    for r1 in rules1:
        overlap, union = overlap_counts(words2, r1.tri.in_mask)
        for j in np.flatnonzero(overlap / np.maximum(union, 1) >= constraints.ref_jaccard):
            r2 = rules2[j]
            candidate = Redescription.create(r1.query, r2.query, r1.tri, r2.tri, dataset)
            idx = 0
            while idx < len(rset.members):
                outcome = refine_pair(rset.members[idx], candidate, dataset)
                if outcome.improved:
                    rset.replace(idx, outcome.refined)
                if idx < len(rset.members):
                    back = refine_pair(candidate, rset.members[idx], dataset)
                    if back.improved:
                        candidate = back.refined
                idx += 1
            if constraints.admits(candidate):
                rset.add(candidate)
    return rset
