"""Multi-target clustering tree induction over one view.

Trees split on single-attribute tests chosen to maximize the summed
per-target variance reduction of a binary target matrix. Every non-root node
doubles as a conjunctive rule: the AND of the edge conditions on its root
path. Missing values route to the right (test-false) branch during
induction, which keeps extracted rules consistent with the three-valued
query semantics: such instances re-evaluate to unknown, never to in.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .dataset import BOOLEAN, CATEGORICAL, NUMERIC, View
from .query import And, Leaf, Literal, Node as QueryNode, Query, minimize_query

_INF = float("inf")


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


def _split_sides(view: View, attr: int, split: Split, cover: np.ndarray) -> np.ndarray:
    """Boolean mask over `cover` rows: True where the test holds (left side).
    Missing values land on the right side."""
    col = view.columns[attr][cover]
    if split.kind == NUMERIC:
        return (col <= split.threshold) & ~np.isnan(col)
    if split.kind == BOOLEAN:
        return col == 1.0
    code = view.attributes[attr].category_code(split.category)
    return col == code


def best_split(
    cover: np.ndarray, view: View, targets: np.ndarray, min_leaf_size: int = 1
) -> Split | None:
    """Scan every candidate single-attribute test and return the one with the
    largest positive variance reduction, or None.

    Candidates are numeric thresholds at midpoints between consecutive
    distinct observed values, boolean is-true, and categorical equality with
    each label. Ties resolve to the lowest attribute id, then the lowest
    threshold / earliest category.
    """
    n = len(cover)
    if n < 2 * min_leaf_size:
        return None
    sub = targets[cover]
    if np.all(sub.max(axis=0) == sub.min(axis=0)):
        return None  # constant targets: zero variance everywhere
    tot = sub.sum(axis=0)
    base = float((tot**2).sum()) / n

    best: Split | None = None
    for attr_id, attr in enumerate(view.attributes):
        col = view.columns[attr_id][cover]
        if attr.kind == NUMERIC:
            finite = ~np.isnan(col)
            nf = int(finite.sum())
            if nf < min_leaf_size:
                continue
            order = np.argsort(col[finite], kind="stable")
            xs = col[finite][order]
            ts = sub[finite][order]
            csum = np.cumsum(ts, axis=0)
            boundaries = np.nonzero(xs[1:] != xs[:-1])[0] + 1  # left-side sizes
            if boundaries.size == 0:
                continue
            nl = boundaries.astype(np.float64)
            nr = n - nl
            valid = (nl >= min_leaf_size) & (nr >= min_leaf_size)
            if not valid.any():
                continue
            sl = csum[boundaries - 1]
            score = (sl**2).sum(axis=1) / nl + ((tot - sl) ** 2).sum(axis=1) / nr
            gain = (score - base) / n
            gain[~valid] = -_INF
            pick = int(np.argmax(gain))  # first max = lowest threshold
            if gain[pick] > 0.0 and (best is None or gain[pick] > best.gain):
                cut = boundaries[pick]
                threshold = float((xs[cut - 1] + xs[cut]) / 2.0)
                best = Split(attr_id, NUMERIC, float(gain[pick]), threshold=threshold)
        else:
            # a boolean attribute is one test: the single label 1.0 (true)
            tests = [(1.0, None)] if attr.kind == BOOLEAN else enumerate(attr.categories)
            for code, label in tests:
                left = col == code
                nl = int(left.sum())
                nr = n - nl
                if nl < min_leaf_size or nr < min_leaf_size:
                    continue
                sl = sub[left].sum(axis=0)
                score = float((sl**2).sum()) / nl + float(((tot - sl) ** 2).sum()) / nr
                gain = (score - base) / n
                if gain > 0.0 and (best is None or gain > best.gain):
                    best = Split(attr_id, attr.kind, gain, category=label)
    return best


def build_tree(view: View, targets: np.ndarray, params: PctParams, view_id: int = 1) -> Tree:
    """Recursive best-first induction until depth, leaf-size, or no positive
    split stops growth. Fully deterministic for fixed inputs."""
    targets = np.asarray(targets, dtype=np.float64)
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
        left_mask = _split_sides(view, split.attr, split, node.cover)
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
