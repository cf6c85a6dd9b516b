"""Multi-target clustering tree induction over one view.

Trees split on single-attribute tests chosen to maximize the summed
per-target variance reduction of a target matrix of one of two kinds. The
cross-view trees get a boolean matrix of rule supports, scored exactly from
its nonzeros with every numeric attribute of a node at once; the bootstrap
tree gets standardized real-valued targets, scored densely one attribute at a
time. On 0/1 targets both paths choose the same split. Every non-root node
doubles as a conjunctive rule: the AND of the edge conditions on its root
path. A node's rows route by its split's left edge literal, as `query`
evaluates it: definitely true goes left, all else (missing cells too) right,
so each cover holds its rule's in-set and lies within its in-or-unknown set.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Iterator, NamedTuple, Sequence

import numpy as np

from .dataset import BOOLEAN, CATEGORICAL, NUMERIC, View
from .query import And, Leaf, Literal, Node as QueryNode, Query, _literal_support
from .query import mask_to_bools, minimize_query

_INF = float("inf")
# numeric cells per block of `_sparse_tests` work arrays (each stays near 2 MB)
_BLOCK_CELLS = 1 << 18


@dataclass(frozen=True)
class PctParams:
    """Induction limits: `max_depth` counts node levels (1 = root only)."""

    max_depth: int = 7
    min_leaf_size: int = 2

    def __post_init__(self) -> None:
        if self.max_depth < 1:
            raise ValueError("max_depth must be at least 1")
        if self.min_leaf_size < 1:
            raise ValueError("min_leaf_size must be at least 1")


@dataclass(frozen=True)
class Split:
    """Chosen test: numeric `value <= threshold`, boolean is-true, or
    categorical equals(category). Gain is the variance reduction achieved."""

    attr: int
    kind: str
    gain: float
    threshold: float | None = None
    category: str | None = None


@dataclass
class TreeNode:
    cover: np.ndarray
    depth: int
    split: Split | None = None
    left: "TreeNode | None" = None
    right: "TreeNode | None" = None


@dataclass
class Tree:
    root: TreeNode
    view: View
    view_id: int
    params: PctParams

    def iter_nodes(self) -> Iterator[TreeNode]:
        queue = deque([self.root])
        while queue:
            node = queue.popleft()
            yield node
            if node.left is not None:
                queue.append(node.left)
            if node.right is not None:
                queue.append(node.right)

    @property
    def n_nodes(self) -> int:
        return sum(1 for _ in self.iter_nodes())


class _Tests(NamedTuple):
    """Candidate tests of some attributes, one row of `score` per attribute.

    `score` is the summed sl²/nl + sr²/nr over targets (−inf where a position
    holds no test) and `nl` the left-side sizes, broadcast against it. A
    numeric test cuts between `values[row, nl - 1]` and `values[row, nl]`;
    a categorical column is the category code, a boolean row holds one test.
    """

    attrs: Sequence[int]
    nl: np.ndarray
    score: np.ndarray
    values: np.ndarray | None = None


def _dense_tests(cover: np.ndarray, view: View, targets: np.ndarray):
    """(base score, one `_Tests` per attribute) for any real target matrix,
    or None on constant targets."""
    sub = targets[cover]
    if np.all(sub.max(axis=0) == sub.min(axis=0)):
        return None
    n = len(cover)
    tot = sub.sum(axis=0)
    blocks = []
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
            blocks.append(_Tests([attr_id], nl[None], score[None], xs[None]))
        else:
            # a boolean attribute is one test: the single label 1.0 (true)
            codes = [1.0] if attr.kind == BOOLEAN else range(len(attr.categories))
            nl, score = [], []
            for code in codes:
                left = col == code
                sl = sub[left].sum(axis=0)
                nl.append(int(left.sum()))
                sq_left, sq_right = float((sl**2).sum()), float(((tot - sl) ** 2).sum())
                score.append(sq_left / max(nl[-1], 1) + sq_right / max(n - nl[-1], 1))
            blocks.append(_Tests([attr_id], np.array([nl]), np.array([score])))
    return float((tot**2).sum()) / n, blocks


def _sparse_tests(cover: np.ndarray, view: View, targets: np.ndarray):
    """`_dense_tests` for a boolean target matrix, from its nonzeros alone.

    Every sum is an integer below 2**53, so each score is the double the
    dense path computes. Numeric attributes are scored together: with the
    nonzeros ordered by target, then by the attribute's row rank, the k-th
    nonzero of target t raises sl_t² by 2k + 1 and Σ tot·sl by tot_t, at the
    same position in every attribute's order.
    """
    n, n_targets = len(cover), targets.shape[1]
    ts, rows = np.nonzero(targets[cover].T)  # grouped by target
    tot = np.bincount(ts, minlength=n_targets)
    if np.all((tot == 0) | (tot == n)):
        return None
    total_sq = float((tot**2).sum())
    blocks = []
    num = [i for i, attr in enumerate(view.attributes) if attr.kind == NUMERIC]
    if num:
        x = np.stack([view.columns[i][cover] for i in num])
        order = np.argsort(x, axis=1, kind="stable")  # missing values last
        xs = np.take_along_axis(x, order, axis=1)
        rank = np.empty_like(order)
        np.put_along_axis(rank, order, np.arange(n), axis=1)
        k = np.arange(len(ts)) - (np.cumsum(tot) - tot)[ts]
        sq_left = np.empty((len(num), n - 1))  # Σ sl² after each left-side size
        cross = np.empty_like(sq_left)  # Σ tot·sl
        step = max(1, _BLOCK_CELLS // len(ts))
        for lo in range(0, len(num), step):
            key = rank[lo : lo + step, rows] + ts * n
            key.sort(axis=1)
            key += (np.arange(len(key)) * n)[:, None] - ts * n  # attribute-major rank
            for out, weights in ((sq_left, 2 * k + 1), (cross, tot[ts])):
                counts = np.bincount(key.ravel(), np.tile(weights, len(key)), len(key) * n)
                out[lo : lo + len(key)] = counts.reshape(len(key), n).cumsum(axis=1)[:, :-1]
        nl = np.arange(1, n)
        score = sq_left / nl + (total_sq - 2.0 * cross + sq_left) / (n - nl)
        score[(xs[:, 1:] == xs[:, :-1]) | np.isnan(xs[:, 1:])] = -_INF
        blocks.append(_Tests(num, nl[None], score, xs))
    cat = [i for i, attr in enumerate(view.attributes) if attr.kind != NUMERIC]
    if cat:
        # test index per cell: the category code, 0 for a true boolean, -1 for none
        width = max(len(view.attributes[i].categories) or 1 for i in cat)
        x = np.stack([view.columns[i][cover] for i in cat])
        boolean = np.array([view.attributes[i].kind == BOOLEAN for i in cat])[:, None]
        codes = np.where(boolean, (x == 1.0) - 1, x).astype(np.intp)
        slot = np.where(codes >= 0, codes + (np.arange(len(cat)) * width)[:, None], -1)
        nl = np.bincount(slot[slot >= 0], minlength=len(cat) * width).reshape(len(cat), width)
        hit = slot[:, rows]
        keep = hit >= 0
        sl = np.bincount(
            (hit * n_targets + ts)[keep], minlength=len(cat) * width * n_targets
        ).reshape(len(cat), width, n_targets)
        sq_left, sq_right = (sl**2).sum(axis=2), ((tot - sl) ** 2).sum(axis=2)
        score = sq_left / np.maximum(nl, 1) + sq_right / np.maximum(n - nl, 1)
        blocks.append(_Tests(cat, nl, score))
    return total_sq / n, blocks


def best_split(
    cover: np.ndarray, view: View, targets: np.ndarray, min_leaf_size: int = 1
) -> Split | None:
    """Scan every candidate single-attribute test and return the one with the
    largest positive variance reduction, or None.

    Candidates are numeric thresholds at midpoints between consecutive
    distinct observed values, boolean is-true, and categorical equality with
    each label. Ties resolve to the lowest attribute id, then the lowest
    threshold / earliest category. A boolean target matrix is scored from its
    nonzeros, any other densely; both give the same split, gain included.
    """
    n = len(cover)
    if n < 2 * min_leaf_size:
        return None
    scored = (_sparse_tests if targets.dtype == np.bool_ else _dense_tests)(cover, view, targets)
    if scored is None:
        return None  # constant targets: zero variance everywhere
    base, blocks = scored
    tops = {}  # attribute id -> (gain, tests, row, column) of its best test
    for tests in blocks:
        gain = (tests.score - base) / n
        nl = np.broadcast_to(tests.nl, gain.shape)
        gain[(nl < min_leaf_size) | (nl > n - min_leaf_size)] = -_INF
        picks = gain.argmax(axis=1)  # first max = lowest threshold / earliest category
        for row, (attr_id, pick) in enumerate(zip(tests.attrs, picks.tolist())):
            tops[attr_id] = (float(gain[row, pick]), tests, row, pick)
    best = None
    for attr_id in sorted(tops):  # strict > keeps the lowest attribute id on ties
        if tops[attr_id][0] > (0.0 if best is None else tops[best][0]):
            best = attr_id
    if best is None:
        return None
    gain, tests, row, pick = tops[best]
    attr = view.attributes[best]
    if attr.kind == NUMERIC:
        cut = int(np.broadcast_to(tests.nl, tests.score.shape)[row, pick])
        xs = tests.values[row]
        return Split(best, NUMERIC, gain, threshold=float((xs[cut - 1] + xs[cut]) / 2.0))
    category = attr.categories[pick] if attr.kind == CATEGORICAL else None
    return Split(best, attr.kind, gain, category=category)


def build_tree(view: View, targets: np.ndarray, params: PctParams, view_id: int = 1) -> Tree:
    """Recursive best-first induction until depth, leaf-size, or no positive
    split stops growth. Fully deterministic for fixed inputs."""
    targets = np.asarray(targets)
    if targets.dtype != np.bool_:
        targets = targets.astype(np.float64, copy=False)
    if targets.ndim == 1:
        targets = targets[:, None]
    if targets.shape[0] != view.n_rows:
        raise ValueError("target matrix row count differs from view")
    root = TreeNode(cover=np.arange(view.n_rows, dtype=np.int64), depth=0)
    stack = [root]
    while stack:
        node = stack.pop()
        if node.depth + 1 > params.max_depth - 1:
            continue
        if len(node.cover) < 2 * params.min_leaf_size:
            continue
        split = best_split(node.cover, view, targets, params.min_leaf_size)
        if split is None:
            continue
        left = _literal_support(_edge_literal(view, split, True), view).in_mask
        left_mask = mask_to_bools(left, view.n_rows)[node.cover]
        node.split = split
        node.left = TreeNode(cover=node.cover[left_mask], depth=node.depth + 1)
        node.right = TreeNode(cover=node.cover[~left_mask], depth=node.depth + 1)
        stack.append(node.right)
        stack.append(node.left)
    return Tree(root=root, view=view, view_id=view_id, params=params)


def _next_observed(view: View, attr: int, threshold: float) -> float:
    """Smallest observed value strictly above `threshold` in the column; used
    to express a 'greater than' branch as a closed interval that is exact on
    this view."""
    col = view.columns[attr]
    above = col[col > threshold]  # NaN compares false
    if above.size == 0:
        return float(np.nextafter(threshold, _INF))
    return float(above.min())


def _edge_literal(view: View, split: Split, follow_left: bool) -> Literal:
    if split.kind == NUMERIC:
        if follow_left:
            return Literal(split.attr, NUMERIC, lo=-_INF, hi=split.threshold)
        return Literal(split.attr, NUMERIC, lo=_next_observed(view, split.attr, split.threshold))
    if split.kind == BOOLEAN:
        return Literal(split.attr, BOOLEAN, negated=not follow_left)
    return Literal(split.attr, CATEGORICAL, category=split.category, negated=not follow_left)


def extract_rules(tree: Tree) -> list[tuple[Query, np.ndarray]]:
    """One conjunctive rule per non-root node: the AND of the edge conditions
    on the path from the root, with same-attribute intervals intersected.
    Returned covers are the node covers from induction."""
    results: list[tuple[Query, np.ndarray]] = []
    queue: deque[tuple[TreeNode, tuple[Literal, ...]]] = deque([(tree.root, ())])
    while queue:
        node, conds = queue.popleft()
        if conds:
            root: QueryNode = Leaf(conds[0]) if len(conds) == 1 else And(
                tuple(Leaf(c) for c in conds)
            )
            q = minimize_query(Query(root, tree.view_id), tree.view)
            results.append((q, node.cover))
        if node.split is not None:
            left_lit = _edge_literal(tree.view, node.split, True)
            right_lit = _edge_literal(tree.view, node.split, False)
            queue.append((node.left, conds + (left_lit,)))
            queue.append((node.right, conds + (right_lit,)))
    return results
