"""Multi-target clustering tree induction over one view.

Trees split on single-attribute tests chosen to maximize the summed
per-target variance reduction of a target matrix of one of two kinds. The
cross-view trees get a boolean matrix of rule supports, scored exactly from
its nonzeros with every numeric attribute of a node at once; the bootstrap
tree gets standardized real-valued targets, whose prefix sums run densely one
attribute at a time. On 0/1 targets both paths choose the same split. Each
tree sorts every numeric attribute once, at the root (as SLIQ does), and
splits the sorted row lists down with the rows, so no node sorts; both paths
score into the same two blocks, one for numeric and one for categorical and
boolean attributes. Every non-root node doubles as a conjunctive rule: the
AND of the edge conditions on its root path. A node's rows route by its
split's left edge literal, as `query` evaluates it: definitely true goes
left, all else (missing cells too) right, so each cover holds its rule's
in-set and lies within its in-or-unknown set.
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
    holds no test) and `nl` the left-side sizes, broadcast against it. Both
    scoring paths return one block of each layout. Numeric: column `nl - 1`
    cuts between `values[row, nl - 1]` and `values[row, nl]`, the attribute's
    cover values in sorted order. Categorical: the column is the category
    code; a boolean row holds one test.
    """

    attrs: Sequence[int]
    nl: np.ndarray
    score: np.ndarray
    values: np.ndarray | None = None


def _numeric_attrs(view: View) -> list[int]:
    return [i for i, attr in enumerate(view.attributes) if attr.kind == NUMERIC]


def _category_attrs(view: View) -> list[int]:
    """Boolean and categorical attributes: each tests membership of a code."""
    return [i for i, attr in enumerate(view.attributes) if attr.kind != NUMERIC]


def presort(view: View, cover: np.ndarray) -> np.ndarray:
    """The rows of `cover` in each numeric attribute's stable order, missing
    values last: one row of row ids per numeric attribute.

    `build_tree` sorts once at the root and keeps each child's rows in this
    order; on an ascending cover that equals sorting at the node, ties
    included.
    """
    num = _numeric_attrs(view)
    x = np.stack([view.columns[i][cover] for i in num]) if num else np.empty((0, len(cover)))
    return cover[np.argsort(x, axis=1, kind="stable")]


def _numeric_order(cover: np.ndarray, view: View, num: list[int], order: np.ndarray):
    """(sorted positions within the cover, sorted values, cut mask) of the
    numeric attributes `num`; the mask marks each left-side size `nl` at
    `nl - 1` where the values at `nl - 1` and `nl` are distinct and observed."""
    pos = np.empty(view.n_rows, dtype=np.intp)
    pos[cover] = np.arange(len(cover))
    xs = np.stack([view.columns[i][rows] for i, rows in zip(num, order)])
    cuts = (xs[:, 1:] != xs[:, :-1]) & ~np.isnan(xs[:, 1:])
    return pos[order], xs, cuts


def _category_slots(cover: np.ndarray, view: View, cat: list[int]):
    """(slot of each cell's test, -1 for none; left-side size per attribute
    and test index) of attributes `cat`. A test index is the category code,
    0 for a true boolean; the slot is attribute row × width + test index."""
    width = max(len(view.attributes[i].categories) or 1 for i in cat)
    x = np.stack([view.columns[i][cover] for i in cat])
    boolean = np.array([view.attributes[i].kind == BOOLEAN for i in cat])[:, None]
    codes = np.where(boolean, (x == 1.0) - 1, x).astype(np.intp)
    slot = np.where(codes >= 0, codes + (np.arange(len(cat)) * width)[:, None], -1)
    nl = np.bincount(slot[slot >= 0], minlength=len(cat) * width).reshape(len(cat), width)
    return slot, nl


def _category_block(cat, nl: np.ndarray, sl: np.ndarray, tot: np.ndarray, n: int) -> _Tests:
    """Score the categorical tests from their left-side target sums `sl`."""
    sq_left, sq_right = (sl**2).sum(axis=2), ((tot - sl) ** 2).sum(axis=2)
    score = sq_left / np.maximum(nl, 1) + sq_right / np.maximum(n - nl, 1)
    return _Tests(cat, nl, score)


def _dense_tests(cover: np.ndarray, view: View, targets: np.ndarray, order: np.ndarray):
    """(base score, test blocks) for any real target matrix, or None on
    constant targets.

    Each numeric attribute's prefix sums run over its sorted finite rows,
    gathered into one buffer per node and summed in place two target columns
    per step: as complex numbers, whose addition adds the real and imaginary
    parts separately, so every column sees the additions of a plain cumsum.
    """
    n, n_targets = len(cover), targets.shape[1]
    num, cat = _numeric_attrs(view), _category_attrs(view)
    node = np.zeros((n, n_targets + n_targets % 2))  # zero pad to an even width
    node[:, :n_targets] = targets[cover]
    sub = node[:, :n_targets]
    if np.all(sub.max(axis=0) == sub.min(axis=0)):
        return None
    tot = sub.sum(axis=0)
    blocks = []
    if num:
        ranked, xs, cuts = _numeric_order(cover, view, num, order)
        score = np.full(cuts.shape, -_INF)
        buf, picked = np.empty_like(node), np.empty_like(node)
        pairs = buf.view(np.complex128)
        scratch = np.empty((n, n_targets))
        for row, cut in enumerate(cuts):
            nl = np.flatnonzero(cut) + 1
            if nl.size == 0:
                continue
            m = nl[-1]  # rows up to the last cut
            # mode="clip": the default mode buffers `out`
            np.take(node, ranked[row, :m], axis=0, out=buf[:m], mode="clip")
            np.cumsum(pairs[:m], axis=0, out=pairs[:m])
            sl = np.take(buf, nl - 1, axis=0, out=picked[: nl.size], mode="clip")[:, :n_targets]
            sr = np.subtract(tot, sl, out=scratch[: nl.size])
            sq_right = np.square(sr, out=sr).sum(axis=1)
            sq_left = np.square(sl, out=sl).sum(axis=1)
            score[row, nl - 1] = sq_left / nl + sq_right / (n - nl)
        blocks.append(_Tests(num, np.arange(1, n)[None], score, xs))
    if cat:
        slot, nl = _category_slots(cover, view, cat)
        sl = np.zeros(nl.shape + (n_targets,))
        by_slot = sl.reshape(-1, n_targets)
        for s in np.flatnonzero(nl).tolist():
            by_slot[s] = sub[slot[s // nl.shape[1]] == s].sum(axis=0)
        blocks.append(_category_block(cat, nl, sl, tot, n))
    return float((tot**2).sum()) / n, blocks


def _sparse_tests(cover: np.ndarray, view: View, targets: np.ndarray, order: np.ndarray):
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
    num, cat = _numeric_attrs(view), _category_attrs(view)
    blocks = []
    if num:
        ranked, xs, cuts = _numeric_order(cover, view, num, order)
        rank = np.empty_like(ranked)
        np.put_along_axis(rank, ranked, np.arange(n), axis=1)
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
        score[~cuts] = -_INF
        blocks.append(_Tests(num, nl[None], score, xs))
    if cat:
        slot, nl = _category_slots(cover, view, cat)
        # one bin per (slot, target); cells with no test drop out
        hit = slot[:, rows]
        keep = hit >= 0
        sl = np.bincount(
            (hit * n_targets + ts)[keep], minlength=nl.size * n_targets
        ).reshape(nl.shape + (n_targets,))
        blocks.append(_category_block(cat, nl, sl, tot, n))
    return total_sq / n, blocks


def best_split(
    cover: np.ndarray, view: View, targets: np.ndarray, min_leaf_size: int, order: np.ndarray
) -> Split | None:
    """Scan every candidate single-attribute test and return the one with the
    largest positive variance reduction, or None.

    Candidates are numeric thresholds at midpoints between consecutive
    distinct observed values, boolean is-true, and categorical equality with
    each label. Ties resolve to the lowest attribute id, then the lowest
    threshold / earliest category. A boolean target matrix is scored from its
    nonzeros, any other densely; both give the same split, gain included.
    `order` is `presort(view, cover)`, or the rows of a child's cover in that
    order as `build_tree` splits them down.
    """
    n = len(cover)
    if n < 2 * min_leaf_size:
        return None
    score_tests = _sparse_tests if targets.dtype == np.bool_ else _dense_tests
    scored = score_tests(cover, view, targets, order)
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
        xs = tests.values[row]
        return Split(best, NUMERIC, gain, threshold=float((xs[pick] + xs[pick + 1]) / 2.0))
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
    stack = [(root, presort(view, root.cover))]  # each node with its cover's sort order
    while stack:
        node, order = stack.pop()
        if node.depth + 1 > params.max_depth - 1:
            continue
        if len(node.cover) < 2 * params.min_leaf_size:
            continue
        split = best_split(node.cover, view, targets, params.min_leaf_size, order)
        if split is None:
            continue
        left = _literal_support(_edge_literal(view, split, True), view).in_mask
        in_left = mask_to_bools(left, view.n_rows)
        left_mask = in_left[node.cover]
        node.split = split
        node.left = TreeNode(cover=node.cover[left_mask], depth=node.depth + 1)
        node.right = TreeNode(cover=node.cover[~left_mask], depth=node.depth + 1)
        # filtering keeps each sorted row list in order, so no child sorts again
        goes_left = in_left[order]
        for child, side in ((node.right, ~goes_left), (node.left, goes_left)):
            stack.append((child, order[side].reshape(len(order), len(child.cover))))
    return Tree(root=root, view=view, view_id=view_id)


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
