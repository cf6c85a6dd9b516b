"""Reference code the tests compare the library against.

Plain, slow versions of what `redesc` does in bulk, which tests import the
way they import `conftest` helpers:

- a row-by-row three-valued query interpreter that shares no code with
  `tri_support`, its own attribute check, and supports as Python sets
- `Not` over a whole subtree, which the library's queries never hold, and
  the raw text that carries it into the parser as `!(...)`
- the query tokenizer as one regex match per token
- the per-node tree, the scalar pair, refinement and disjunction screens,
  full-build refinement, the brute-force greedy reduction and the pairwise
  set redundancy: the loops each optimized layer replaced
- the mined set's one-member-per-support rule as a scan of a plain list
- one whole `mine` -> `reduce` -> `eval` run composed from them, with every
  support taken row by row (no literal memo) and every tree scored densely
  on float64 targets, so the command line's output files can be pinned byte
  for byte (`reference_pipeline`)
- the packed forms the library's bulk entry points take, built from lists
- cell-by-cell view access and a CSV writer for views (the library only
  reads them)
"""

from __future__ import annotations

import csv
import math
import re
from dataclasses import dataclass
from itertools import product
from pathlib import Path

import numpy as np

from redesc.config import RunConfig
from redesc.dataset import BOOLEAN, CATEGORICAL, NUMERIC, Dataset, View, concat_rows, make_artificial
from redesc.interchange import write_records
from redesc.measures import PackedMembers, Redescription
from redesc.mine import Rule, RuleSet, _bootstrap_targets, _mode_accepts
from redesc.query import (
    And,
    Leaf,
    Literal,
    Node,
    Or,
    Query,
    QueryStructureError,
    QuerySyntaxError,
    TriSupport,
    _merge_intervals,
    _remove_leaf,
    canonicalize,
    is_conjunctive,
    mask_to_bools,
    print_query,
    query_attr_count,
)
from redesc.reduce import EQUAL_WEIGHTS, _Selection
from redesc.refine import RefinementOutcome, _tightened_queries
from redesc.tree import Split, _edge_literal

FALSE = 0
UNKNOWN = 1
TRUE = 2


@dataclass(frozen=True)
class Not:
    """Negation of a whole subtree, as query text's `!(...)` writes it; the
    library reads it only through `raw_text` and the parser."""

    child: Node


def raw_text(node, view: View) -> str:
    """Query text of a raw tree as it stands: every group in parentheses,
    and a `Not` as `!(...)`."""
    if isinstance(node, Leaf):
        return print_query(Query(node, 1), view)
    if isinstance(node, Not):
        return f"!({raw_text(node.child, view)})"
    op = " & " if isinstance(node, And) else " | "
    return op.join(f"({raw_text(c, view)})" for c in node.children)


# ---------------------------------------------------------------------------
# Row-by-row interpreter
# ---------------------------------------------------------------------------


def _eval_literal_row(lit: Literal, view: View, row: int) -> int:
    col = view.columns[lit.attr]
    if lit.kind == CATEGORICAL:
        code = col[row]
        if code < 0:
            return UNKNOWN
        holds = view.attributes[lit.attr].categories[int(code)] == lit.category
    else:
        x = col[row]
        if math.isnan(x):
            return UNKNOWN
        if lit.kind == BOOLEAN:
            holds = x == 1.0
        else:
            holds = lit.lo <= x <= lit.hi
    value = TRUE if holds else FALSE
    return 2 - value if lit.negated else value


def _eval_node_row(node: Node, view: View, row: int) -> int:
    if isinstance(node, Leaf):
        return _eval_literal_row(node.literal, view, row)
    if isinstance(node, And):
        value = TRUE
        for child in node.children:
            value = min(value, _eval_node_row(child, view, row))
            if value == FALSE:
                return FALSE
        return value
    if isinstance(node, Or):
        value = FALSE
        for child in node.children:
            value = max(value, _eval_node_row(child, view, row))
            if value == TRUE:
                return TRUE
        return value
    return 2 - _eval_node_row(node.child, view, row)


def check_attrs(node: Node, view: View) -> None:
    """Raise the library's QueryStructureError for the first literal, in
    preorder, whose attribute the view lacks or has as another kind."""
    for lit in _literals(node):
        if lit.attr < 0 or lit.attr >= view.n_cols:
            raise QueryStructureError(f"attribute id {lit.attr} out of range for view")
        attr = view.attributes[lit.attr]
        if attr.kind != lit.kind:
            raise QueryStructureError(
                f"literal kind {lit.kind} does not match attribute {attr.name!r} ({attr.kind})"
            )


def _literals(node: Node):
    if isinstance(node, Leaf):
        return [node.literal]
    if isinstance(node, (And, Or)):
        return [lit for child in node.children for lit in _literals(child)]
    return _literals(node.child)


def eval_query(q: Query, view: View, row: int) -> int:
    """Evaluate one instance row; returns FALSE, UNKNOWN, or TRUE."""
    check_attrs(q.root, view)
    return _eval_node_row(q.root, view, row)


def row_values(q: Query, view: View) -> list[int]:
    """The query's value on every row of the view."""
    check_attrs(q.root, view)
    return [_eval_node_row(q.root, view, row) for row in range(view.n_rows)]


def row_support(q: Query, view: View) -> TriSupport:
    """The query's support, one row at a time."""
    values = row_values(q, view)
    return from_sets(
        [i for i, v in enumerate(values) if v == TRUE],
        [i for i, v in enumerate(values) if v == UNKNOWN],
        view.n_rows,
    )


def row_evaluate(q1: Query, q2: Query, dataset: Dataset) -> Redescription:
    """`Redescription.evaluate` with row-by-row supports."""
    return Redescription.create(
        q1, q2, row_support(q1, dataset.view1), row_support(q2, dataset.view2), dataset
    )


# ---------------------------------------------------------------------------
# Per-token tokenizer
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
    | (?P<le><=)
    | (?P<num>[+-]?(?:inf(?:inity)?\b|\d+(?:\.\d*)?(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?))
    | (?P<name>[A-Za-z_][A-Za-z0-9_./]*)
    | (?P<sym>[&|!()\[\]=])
    """,
    re.VERBOSE,
)


def reference_tokenize(text: str) -> list[tuple[str, str, int]]:
    """The query tokens of `text`, one regex match per token."""
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise QuerySyntaxError(f"unexpected character {text[pos]!r}", pos)
        kind = m.lastgroup
        if kind != "ws":
            tokens.append((kind, m.group(), pos))
        pos = m.end()
    tokens.append(("eof", "", len(text)))
    return tokens


# ---------------------------------------------------------------------------
# Supports as sets
# ---------------------------------------------------------------------------


def _mask_set(mask: int, n: int) -> frozenset[int]:
    return frozenset(np.flatnonzero(mask_to_bools(mask, n)).tolist())


def from_sets(in_set, unk_set, n: int) -> TriSupport:
    """The support whose in and unknown instances are the given ids."""
    in_mask = 0
    for e in in_set:
        in_mask |= 1 << e
    unk_mask = 0
    for e in unk_set:
        unk_mask |= 1 << e
    return TriSupport(in_mask, unk_mask, n)


def in_set(tri: TriSupport) -> frozenset[int]:
    return _mask_set(tri.in_mask, tri.n)


def unk_set(tri: TriSupport) -> frozenset[int]:
    return _mask_set(tri.unk_mask, tri.n)


def supp(r: Redescription) -> frozenset[int]:
    """supp(R): the instances both queries definitely describe."""
    return _mask_set(r.supp_mask, r.n_elements)


def set_jaccard(a, b) -> float:
    a, b = set(a), set(b)
    union = a | b
    return len(a & b) / len(union) if union else 0.0


# ---------------------------------------------------------------------------
# Packed forms the bulk entry points take
# ---------------------------------------------------------------------------


def packed(pool) -> PackedMembers:
    """A nonempty pool packed as `reduce_set` and `eval` pack it."""
    return PackedMembers(list(pool))


def selection(pool, picks=()) -> _Selection:
    """A greedy state over the packed pool, as `reduce_set` starts one per
    weight row, with the rows `picks` taken in order."""
    state = _Selection(packed(pool))
    for i in picks:
        state.take(i)
    return state


# ---------------------------------------------------------------------------
# Trees
# ---------------------------------------------------------------------------


def reference_best_split(cover, view, targets, min_leaf_size):
    """The per-node dense scoring that presorting replaced, kept as the
    bit-for-bit reference: every node argsorts each numeric attribute, each
    attribute is its own block, and each categorical sum is scored alone.
    Boolean targets are scored as float64 like any other."""
    n = len(cover)
    if n < 2 * min_leaf_size:
        return None
    sub = targets[cover].astype(np.float64)
    if np.all(sub.max(axis=0) == sub.min(axis=0)):
        return None
    tot = sub.sum(axis=0)
    base = float((tot**2).sum()) / n
    best = None  # (gain, attr id, split)
    for attr_id, attr in enumerate(view.attributes):
        col = view.columns[attr_id][cover]
        if attr.kind == NUMERIC:
            finite = ~np.isnan(col)
            vals = col[finite]
            order = np.argsort(vals, kind="stable")
            xs = vals[order]
            nl = np.flatnonzero(xs[1:] != xs[:-1]) + 1
            if nl.size == 0:
                continue
            sl = np.cumsum(sub[np.flatnonzero(finite)[order]], axis=0)[nl - 1]
            score = (sl**2).sum(axis=1) / nl + ((tot - sl) ** 2).sum(axis=1) / (n - nl)
            labels = [float((xs[c - 1] + xs[c]) / 2.0) for c in nl.tolist()]
        else:
            codes = [1.0] if attr.kind == BOOLEAN else range(len(attr.categories))
            nl, score = [], []
            for code in codes:
                left = col == code
                sl = sub[left].sum(axis=0)
                nl.append(int(left.sum()))
                sq_left, sq_right = float((sl**2).sum()), float(((tot - sl) ** 2).sum())
                score.append(sq_left / max(nl[-1], 1) + sq_right / max(n - nl[-1], 1))
            nl, score = np.array(nl), np.array(score)
            labels = list(attr.categories) if attr.kind == CATEGORICAL else [None]
        gain = (score - base) / n
        gain[(nl < min_leaf_size) | (nl > n - min_leaf_size)] = -np.inf
        pick = int(gain.argmax())
        if gain[pick] > (0.0 if best is None else best[0]):
            if attr.kind == NUMERIC:
                split = Split(attr_id, NUMERIC, float(gain[pick]), threshold=labels[pick])
            else:
                split = Split(attr_id, attr.kind, float(gain[pick]), category=labels[pick])
            best = (float(gain[pick]), attr_id, split)
    return None if best is None else best[2]


def reference_build_tree(view, targets, params):
    """`build_tree` with the reference scoring at every node: (cover, split,
    edge literals from the root) in the order `Tree.iter_nodes` yields the
    nodes. Rows route by the left edge literal, evaluated row by row."""
    out = []
    queue = [(np.arange(view.n_rows), 0, ())]
    while queue:
        cover, depth, path = queue.pop(0)
        split = None
        if depth + 1 <= params.max_depth - 1:
            split = reference_best_split(cover, view, targets, params.min_leaf_size)
        out.append((cover, split, path))
        if split is not None:
            left_lit = _edge_literal(view, split, True)
            right_lit = _edge_literal(view, split, False)
            go_left = np.array([_eval_literal_row(left_lit, view, i) == TRUE for i in cover], bool)
            queue.append((cover[go_left], depth + 1, path + (left_lit,)))
            queue.append((cover[~go_left], depth + 1, path + (right_lit,)))
    return out


def reference_minimize(q: Query, view: View) -> Query:
    """The greedy leaf-removal loop that rebuilds each candidate with
    `_remove_leaf` and compares its support, taken row by row, to the
    input's."""
    current = canonicalize(q)
    base = row_values(current, view)
    changed = True
    while changed:
        changed = False
        n_leaves = query_attr_count(current)
        if n_leaves <= 1:
            break
        for target in range(n_leaves):
            candidate_root, _ = _remove_leaf(current.root, target)
            if candidate_root is None:
                continue
            candidate = Query(candidate_root, q.view_id)
            if row_values(candidate, view) == base:
                current = candidate
                changed = True
                break
    return canonicalize(Query(_merge_intervals(current.root), q.view_id))


def reference_rules(view: View, targets, params, view_id: int) -> list[Query]:
    """`extract_rules` over the reference tree: one minimized conjunction of
    edge literals per non-root node."""
    rules = []
    for _cover, _split, path in reference_build_tree(view, targets, params):
        if path:
            root = Leaf(path[0]) if len(path) == 1 else And(tuple(Leaf(c) for c in path))
            rules.append(reference_minimize(Query(root, view_id), view))
    return rules


# ---------------------------------------------------------------------------
# Pairing, refinement and disjunction screens
# ---------------------------------------------------------------------------


def scalar_pair_screen(rules1, rules2, constraints):
    """Pairs that refinement-off pairing admits when no cell is missing and
    every p-value passes, in product order: the support bounds and the
    Jaccard floor, an empty union at Jaccard 0."""
    c = constraints
    for (i, r1), (j, r2) in product(enumerate(rules1), enumerate(rules2)):
        overlap = (r1.tri.in_mask & r2.tri.in_mask).bit_count()
        if not (c.min_support <= overlap and (c.max_support is None or overlap <= c.max_support)):
            continue
        union = (r1.tri.in_mask | r2.tri.in_mask).bit_count()
        if (overlap / union if union else 0.0) < c.min_jaccard:
            continue
        yield i, j


def scalar_refinement_screen(rules1, rules2, constraints):
    """Pairs the scalar screen admits, in product order: the loop that
    `construct_and_refine` ran before its rules were packed."""
    for (i, r1), (j, r2) in product(enumerate(rules1), enumerate(rules2)):
        union = (r1.tri.in_mask | r2.tri.in_mask).bit_count()
        quick_j = (r1.tri.in_mask & r2.tri.in_mask).bit_count() / union if union else 0.0
        if quick_j >= constraints.ref_jaccard:
            yield i, j


def scalar_disjunction_screen(red, rules, constraints, sides):
    """(side, rule index) of every improving rule on the given sides, best
    first, as the scalar loop that `combine_disjunctive` ran before its rules
    were packed."""
    c = constraints
    improving = []
    for side in sides:
        own = red.tri1 if side == 1 else red.tri2
        other = red.tri2 if side == 1 else red.tri1
        for i, rule in enumerate(rules.rules(side)):
            in_new = own.in_mask | rule.tri.in_mask
            overlap = (in_new & other.in_mask).bit_count()
            if not (c.min_support <= overlap and (c.max_support is None or overlap <= c.max_support)):
                continue
            union = (in_new | other.in_mask).bit_count()
            j_new = overlap / union if union else 0.0
            if j_new > red.j_qnm:
                improving.append((j_new, side, i))
    improving.sort(key=lambda t: t[0], reverse=True)
    return [(side, i) for _, side, i in improving]


def strict_witness(r: Redescription, tightened_ref: Redescription) -> bool:
    """True when some instance supported by one of r's queries is not
    supported by the refiner's corresponding query; conjoining then strictly
    shrinks the union, so accuracy strictly rises (for nonempty support)."""
    gap1 = r.tri1.in_mask & ~tightened_ref.tri1.in_mask
    gap2 = r.tri2.in_mask & ~tightened_ref.tri2.in_mask
    return bool(gap1 | gap2)


def full_build_refine_pair(r, ref, dataset):
    """`refine_pair` as it was before the gain was decided from supports:
    every applied refinement is minimized and evaluated from its queries, row
    by row, and `improved` compares the result's accuracy."""
    if not (is_conjunctive(ref.q1) and is_conjunctive(ref.q2)):
        return RefinementOutcome(refined=r, improved=False, applied=False)
    if r.supp_mask & ~ref.supp_mask:
        return RefinementOutcome(refined=r, improved=False, applied=False)
    if r.key == ref.key:
        return RefinementOutcome(refined=r, improved=False, applied=True)
    t1, t2 = _tightened_queries(ref, r.supp_mask, dataset)
    q1 = reference_minimize(Query(And((r.q1.root, t1.root)), r.q1.view_id), dataset.view1)
    q2 = reference_minimize(Query(And((r.q2.root, t2.root)), r.q2.view_id), dataset.view2)
    refined = row_evaluate(q1, q2, dataset)
    return RefinementOutcome(refined=refined, improved=refined.j_qnm > r.j_qnm, applied=True)


# ---------------------------------------------------------------------------
# Brute-force greedy reduction: plain sets, dict counting, and textbook
# formula transcriptions
# ---------------------------------------------------------------------------


def pv_score(pv):
    return math.log10(pv) / 17.0 + 1.0 if pv >= 1e-17 else 0.0


def size_score(count):
    return count / 20.0 if count < 20 else 1.0


def oracle_specific(pool, w):
    n = pool[0].n_elements
    e_ocur = [0] * n
    a_ocur = {}
    for r in pool:
        for e in supp(r):
            e_ocur[e] += 1
        for a in r.attrs:
            a_ocur[a] = a_ocur.get(a, 0) + 1
    e_tot = sum(e_ocur)
    a_tot = sum(a_ocur.values())
    best_i, best_score = 0, float("inf")
    for i, r in enumerate(pool):
        score = (
            w.j * (1.0 - r.j_qnm)
            + w.pval * pv_score(r.p_value)
            + w.elem_jaccard * (sum(e_ocur[e] for e in supp(r)) / e_tot if e_tot else 0.0)
            + w.attr_jaccard * (sum(a_ocur.get(a, 0) for a in r.attrs) / a_tot if a_tot else 0.0)
            + w.query_size * size_score(r.attr_count)
            + w.variability * (r.j_opt - r.j_pess)
        )
        if score < best_score:
            best_i, best_score = i, score
    return pool[best_i]


def oracle_best(pool, reduced, w, n, supports=None):
    total = pool[0].n_elements
    k = len(reduced)
    taken = {id(r) for r in reduced}
    supports = supports or {id(r): set(supp(r)) for r in pool}
    best_r, best_score = None, float("inf")
    for r in pool:
        if id(r) in taken:
            continue
        elem_sim = max(
            (set_jaccard(supports[id(r)], supports[id(m)]) for m in reduced), default=0.0
        )
        attr_sim = max((set_jaccard(r.attrs, m.attrs) for m in reduced), default=0.0)
        blend = (k / n) * pv_score(r.p_value) + (1 - k / n) * (r.support_size / total)
        score = (
            w.j * (1.0 - r.j_qnm)
            + w.pval * blend
            + w.elem_jaccard * elem_sim
            + w.attr_jaccard * attr_sim
            + w.query_size * size_score(r.attr_count)
            + w.variability * (r.j_opt - r.j_pess)
        )
        if score < best_score:
            best_r, best_score = r, score
    return best_r


def oracle_reduce(pool, w, n):
    supports = {id(r): set(supp(r)) for r in pool}
    selected = [oracle_specific(pool, w)]
    while len(selected) < n:
        nxt = oracle_best(pool, selected, w, n, supports)
        if nxt is None:
            break
        selected.append(nxt)
    return selected


# ---------------------------------------------------------------------------
# Pairwise set redundancy
# ---------------------------------------------------------------------------


def _mean_over_others(r, members, similarity) -> float:
    """Mean of `similarity(m)` over every member m that is not r itself,
    summed left to right; 0.0 when there is none."""
    total, count = 0.0, 0
    for m in members:
        if m is not r:
            total += similarity(m)
            count += 1
    return total / count if count else 0.0


def loop_aej(r, members):
    own = supp(r)
    return _mean_over_others(r, members, lambda m: set_jaccard(own, supp(m)))


def loop_aaj(r, members):
    return _mean_over_others(r, members, lambda m: set_jaccard(r.attrs, m.attrs))


# ---------------------------------------------------------------------------
# The whole pipeline
# ---------------------------------------------------------------------------


def _harvest(queries, dataset: Dataset, view_id: int, rules: RuleSet, mode: str) -> None:
    view = dataset.view(view_id)
    for q in queries:
        if _mode_accepts(q, mode):
            rules.add(view_id, Rule(query=q, tri=row_support(q, view), text=print_query(q, view)))


def support_set_add(members: list, red: Redescription) -> bool:
    """`RedescriptionSet.add` as a scan of a plain list: a member with red's
    key refuses red; otherwise a member with red's support gives way to red,
    in its place, only when red is more accurate; otherwise red is appended."""
    if any(m.key == red.key for m in members):
        return False
    for i, m in enumerate(members):
        if m.supp_mask == red.supp_mask:
            if red.j_qnm > m.j_qnm:
                members[i] = red
                return True
            return False
    members.append(red)
    return True


def _refine_into(rules1, rules2, members, constraints, dataset) -> None:
    """`construct_and_refine` over the scalar screen, refining by full builds."""
    for i, j in scalar_refinement_screen(rules1, rules2, constraints):
        r1, r2 = rules1[i], rules2[j]
        candidate = Redescription.create(r1.query, r2.query, r1.tri, r2.tri, dataset)
        for idx in range(len(members)):
            outcome = full_build_refine_pair(members[idx], candidate, dataset)
            if outcome.improved:
                support_set_add(members, outcome.refined)
            back = full_build_refine_pair(candidate, members[idx], dataset)
            if back.improved:
                candidate = back.refined
        if constraints.admits(candidate):
            support_set_add(members, candidate)


def _or_extend(red: Redescription, side: int, rule: Rule, dataset: Dataset) -> Redescription:
    own = red.q1 if side == 1 else red.q2
    q = canonicalize(Query(Or((own.root, rule.query.root)), side))
    return row_evaluate(q, red.q2, dataset) if side == 1 else row_evaluate(red.q1, q, dataset)


def _disjunctions(base, rules, constraints, dataset, params) -> list[Redescription]:
    """`combine_disjunctive` over the scalar screen, with row-by-row supports."""
    threshold = (
        constraints.min_jaccard
        if params.disjunction_threshold is None
        else params.disjunction_threshold
    )
    out = []
    for red in base:
        if red.j_qnm < threshold:
            out.append(red)
            continue
        current, added = red, {1: 0, 2: 0}
        while True:
            sides = [side for side in (1, 2) if added[side] < params.max_disjuncts]
            picks = scalar_disjunction_screen(current, rules, constraints, sides)
            extended = (
                (_or_extend(current, side, rules.rules(side)[i], dataset), side) for side, i in picks
            )
            accepted = next(((e, side) for e, side in extended if constraints.admits(e)), None)
            if accepted is None:
                break
            current, side = accepted
            added[side] += 1
        out.append(current)
    return out


def reference_mine(dataset: Dataset, constraints, params) -> list[Redescription]:
    """`mine` built from the reference layers."""
    rules = RuleSet()
    n = dataset.n_elements
    labels = np.concatenate([np.ones(n), np.zeros(n)])
    seeds = np.random.SeedSequence(params.seed).spawn(2)
    for view_id, seed in ((1, seeds[0]), (2, seeds[1])):
        view = dataset.view(view_id)
        doubled = concat_rows(view, make_artificial(view, seed))
        targets = _bootstrap_targets(doubled, labels)
        queries = reference_rules(doubled, targets, params.pct, view_id)
        _harvest(queries, dataset, view_id, rules, params.operator_mode)

    members: list[Redescription] = []
    done1 = done2 = 0
    for _ in range(params.max_iter):
        grown = []  # both trees grow before either view's rules are harvested
        for view_id in (1, 2):
            recent = rules.rules(3 - view_id)[-params.target_window :]
            if recent:
                targets = np.array(
                    [[float(r.tri.in_mask >> row & 1) for r in recent] for row in range(n)]
                )
                view = dataset.view(view_id)
                grown.append((view_id, reference_rules(view, targets, params.pct, view_id)))
        for view_id, queries in grown:
            _harvest(queries, dataset, view_id, rules, params.operator_mode)

        rules1, rules2 = rules.rules1, rules.rules2
        blocks = ((rules1[:done1], rules2[done2:]), (rules1[done1:], rules2))
        done1, done2 = len(rules1), len(rules2)
        before = {m.key for m in members}
        for block1, block2 in blocks:
            if params.use_refinement:
                _refine_into(block1, block2, members, constraints, dataset)
            else:
                for i, j in scalar_pair_screen(block1, block2, constraints):
                    r1, r2 = block1[i], block2[j]
                    candidate = Redescription.create(r1.query, r2.query, r1.tri, r2.tri, dataset)
                    if constraints.admits(candidate):
                        support_set_add(members, candidate)
        fresh = [m for m in members if m.key not in before]

        if params.operator_mode == "all":
            for extended in _disjunctions(fresh, rules, constraints, dataset, params):
                support_set_add(members, extended)

        if len(members) > params.max_set_size:
            members = oracle_reduce(members, EQUAL_WEIGHTS, params.max_set_size // 2)
    return members


def _log10_floored(pv: float) -> float:
    return math.log10(max(pv, 1e-17))


def _write_eval(members, dataset: Dataset, out_dir: Path) -> None:
    """The two CSV files of `eval`, from pairwise loops over the members."""
    with (out_dir / "eval_redescriptions.csv").open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["query1", "query2", "j_qnm", "j_opt", "j_pess", "p_value", "log10_p_value",
             "variability", "support_size", "attr_count", "aej", "aaj"]
        )
        for m in members:
            floats = (m.j_qnm, m.j_opt, m.j_pess, m.p_value, _log10_floored(m.p_value),
                      m.j_opt - m.j_pess)
            writer.writerow(
                [*m.key, *map(repr, floats), m.support_size, m.attr_count,
                 repr(loop_aej(m, members)), repr(loop_aaj(m, members))]
            )
    count = len(members)
    summary = {
        "redescriptions": count,
        "element_coverage": len(set().union(*map(supp, members))) / dataset.n_elements,
        "attribute_coverage": len(set().union(*(m.attrs for m in members)))
        / (dataset.view1.n_cols + dataset.view2.n_cols),
        "mean_j_qnm": sum(m.j_qnm for m in members) / count,
        "mean_log10_p_value": sum(_log10_floored(m.p_value) for m in members) / count,
        "mean_aej": sum(loop_aej(m, members) for m in members) / count,
        "mean_aaj": sum(loop_aaj(m, members) for m in members) / count,
        "mean_norm_query_size": sum(size_score(m.attr_count) for m in members) / count,
    }
    with (out_dir / "eval_summary.csv").open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(list(summary))
        writer.writerow([repr(v) if isinstance(v, float) else v for v in summary.values()])


def reference_pipeline(dataset: Dataset, cfg: RunConfig, out_dir: Path) -> None:
    """Write the files of `redesc mine`, then `redesc reduce` on mined.tsv,
    then `redesc eval` on the first weight row's set of the first size, all
    under one run config. With nothing mined, `reduce` and `eval` write
    nothing."""
    mined = reference_mine(dataset, cfg.constraints, cfg.mining)
    write_records(out_dir / "mined.tsv", mined)
    if not mined:
        return
    reduced = {}
    for size in cfg.sizes:
        for row, w in enumerate(cfg.weight_rows, start=1):
            reduced[row, size] = oracle_reduce(mined, w, size)
            write_records(out_dir / f"reduced_w{row}_n{size}.tsv", reduced[row, size])
    _write_eval(reduced[1, cfg.sizes[0]], dataset, out_dir)


# ---------------------------------------------------------------------------
# Cells and view files
# ---------------------------------------------------------------------------


class _Missing:
    """Singleton marker for a missing cell value."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "MISSING"


MISSING = _Missing()


def value_at(view: View, row: int, col: int):
    """Cell value as a Python object, or MISSING."""
    attr = view.attributes[col]
    raw = view.columns[col][row]
    if attr.kind == CATEGORICAL:
        return MISSING if raw < 0 else attr.categories[int(raw)]
    if np.isnan(raw):
        return MISSING
    if attr.kind == BOOLEAN:
        return bool(raw == 1.0)
    return float(raw)


def views_equal(a: View, b: View) -> bool:
    """Same attributes and the same cells, missing cells included."""
    if a.attributes != b.attributes or a.n_rows != b.n_rows:
        return False
    for x, y in zip(a.columns, b.columns):
        if x.dtype.kind == "f":
            if not np.array_equal(x, y, equal_nan=True):
                return False
        elif not np.array_equal(x, y):
            return False
    return True


def write_view(view: View, path: str | Path) -> None:
    """Write a View in the CSV format `load_view` reads (missing cells as '?')."""
    with Path(path).open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow([a.name for a in view.attributes])
        for i in range(view.n_rows):
            row = []
            for j, attr in enumerate(view.attributes):
                v = value_at(view, i, j)
                if v is MISSING:
                    row.append("?")
                elif attr.kind == BOOLEAN:
                    row.append("1" if v else "0")
                elif attr.kind == NUMERIC:
                    row.append(repr(v))
                else:
                    row.append(v)
            writer.writerow(row)


def write_schema(view: View, path: str | Path) -> None:
    lines = [f"{a.name} = {a.kind}" for a in view.attributes]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
