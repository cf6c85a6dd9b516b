"""Multi-target clustering tree induction over one view.

Trees split on single-attribute tests chosen to maximize the summed
per-target variance reduction of a target matrix of one of two kinds. The
cross-view trees get a boolean matrix of rule supports, scored exactly from
its nonzeros with every numeric attribute of a node at once; the bootstrap
tree gets standardized real-valued targets, whose prefix sums run densely one
attribute at a time. On 0/1 targets both paths choose the same split. Each
view keeps its attributes as two blocks, built once per view: its numeric
columns as one matrix, and its boolean and categorical cells as one matrix
of test slots, so a node gathers each with a single `take`. Each tree sorts
every numeric attribute once, at the root (as SLIQ does), and splits the
sorted row lists down with the rows, so no node sorts; both paths score into
the same two blocks of tests, one for numeric and one for categorical and
boolean attributes. The dense prefix sums run over blocks of a fixed number
of cells gathered straight from the caller's targets, each block carrying
the last prefix row of the one before, so a node copies no target matrix.
Every non-root node doubles as a conjunctive rule: the AND of the edge
literals on its root path, a query of `Literal` and `And` nodes. Neither the
tree nor its rules hold a view id: `mine` pairs each tree with the view it
grew the tree for. A split is its left edge literal, and a node's rows
route by it as `query` evaluates it: definitely true goes left, all else
(missing cells too) right, so each cover holds its rule's in-set and lies
within its in-or-unknown set.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, replace
from typing import Iterator, NamedTuple, Sequence

import numpy as np

from .dataset import BOOLEAN, CATEGORICAL, NUMERIC, View
from .query import And, Literal, Query, _literal_support
from .query import mask_to_bools, minimize_query

_INF = float("inf")
# numeric cells per block of `_sparse_tests` work arrays (each stays near 2 MB)
_BLOCK_CELLS = 1 << 18
# target cells per block of `_dense_tests` prefix sums (each block is 256 KB)
_DENSE_CELLS = 1 << 15


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
    """Chosen test as its left edge literal: numeric `value <= cut`, boolean
    is-true, or categorical equals(label). Gain is the variance reduction
    achieved; the literal's support on the node is the scored left side."""

    literal: Literal
    gain: float


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


class _AttributeBlocks(NamedTuple):
    """A view's attributes as two matrices, one row per attribute.

    `values` holds the numeric columns `num`. `slots` holds, for the boolean
    and categorical attributes `cat`, each cell's test slot: attribute row ×
    `width` + test index, or -1 for none. A test index is the category code,
    0 for a true boolean.
    """

    num: list[int]
    values: np.ndarray
    cat: list[int]
    slots: np.ndarray
    width: int


def _attribute_blocks(view: View) -> _AttributeBlocks:
    """`view`'s attribute blocks, built once per view (the view is immutable)."""
    if view._attribute_blocks is None:
        num = [i for i, attr in enumerate(view.attributes) if attr.kind == NUMERIC]
        cat = [i for i, attr in enumerate(view.attributes) if attr.kind != NUMERIC]
        values = np.empty((len(num), view.n_rows))
        for row, i in enumerate(num):
            values[row] = view.columns[i]
        width = max((len(view.attributes[i].categories) or 1 for i in cat), default=1)
        slots = np.empty((len(cat), view.n_rows), dtype=np.intp)
        for row, i in enumerate(cat):
            col = view.columns[i]
            codes = (col == 1.0) - 1 if view.attributes[i].kind == BOOLEAN else col
            slots[row] = np.where(codes >= 0, codes + row * width, -1)
        values.setflags(write=False)
        slots.setflags(write=False)
        view._attribute_blocks = _AttributeBlocks(num, values, cat, slots, width)
    return view._attribute_blocks


def presort(view: View, cover: np.ndarray) -> np.ndarray:
    """The rows of `cover` in each numeric attribute's stable order, missing
    values last: one row of row ids per numeric attribute.

    `build_tree` sorts once at the root and keeps each child's rows in this
    order; on an ascending cover that equals sorting at the node, ties
    included.
    """
    x = _attribute_blocks(view).values[:, cover]
    return cover[np.argsort(x, axis=1, kind="stable")]


def _numeric_order(view: View, order: np.ndarray):
    """(sorted values, cut mask) of the numeric attributes at a node whose
    rows are `order`; the mask marks each left-side size `nl` at `nl - 1`
    where the values at `nl - 1` and `nl` are distinct and observed."""
    xs = np.take_along_axis(_attribute_blocks(view).values, order, axis=1)
    cuts = (xs[:, 1:] != xs[:, :-1]) & ~np.isnan(xs[:, 1:])
    return xs, cuts


def _category_slots(cover: np.ndarray, view: View):
    """(slot of each cell's test at the node, -1 for none; left-side size per
    attribute and test index) of the boolean and categorical attributes."""
    blocks = _attribute_blocks(view)
    slot = blocks.slots[:, cover]
    nl = np.bincount(slot[slot >= 0], minlength=len(blocks.cat) * blocks.width)
    return slot, nl.reshape(len(blocks.cat), blocks.width)


def _category_block(cat, nl: np.ndarray, sl: np.ndarray, tot: np.ndarray, n: int) -> _Tests:
    """Score the categorical tests from their left-side target sums `sl`."""
    sq_left, sq_right = (sl**2).sum(axis=2), ((tot - sl) ** 2).sum(axis=2)
    score = sq_left / np.maximum(nl, 1) + sq_right / np.maximum(n - nl, 1)
    return _Tests(cat, nl, score)


def _dense_tests(cover: np.ndarray, view: View, targets: np.ndarray, order: np.ndarray):
    """(base score, test blocks) for any real target matrix, or None on
    constant targets.

    Each numeric attribute's prefix sums run over its sorted finite rows in
    blocks of `_DENSE_CELLS` cells, gathered straight from `targets` and
    summed in place two target columns per step: as complex numbers, whose
    addition adds the real and imaginary parts separately. A block first
    adds the last prefix row of the block before into its first row, so
    every column sees the additions of one plain cumsum over all the rows.
    """
    targets = np.asarray(targets, dtype=np.float64)  # no copy when already float64
    n, n_targets = len(cover), targets.shape[1]
    blocks = _attribute_blocks(view)
    sub = targets[cover]  # transient: freed before the prefix-sum blocks
    if np.all(sub.max(axis=0) == sub.min(axis=0)):
        return None
    tot = sub.sum(axis=0)
    del sub
    tests = []
    if blocks.cat:
        slot, nl = _category_slots(cover, view)
        sl = np.zeros(nl.shape + (n_targets,))
        by_slot = sl.reshape(-1, n_targets)
        for s in np.flatnonzero(nl).tolist():
            by_slot[s] = targets[cover[slot[s // blocks.width] == s]].sum(axis=0)
        tests.append(_category_block(blocks.cat, nl, sl, tot, n))
    if blocks.num:
        xs, cuts = _numeric_order(view, order)
        score = np.full(cuts.shape, -_INF)
        width = n_targets + n_targets % 2
        step = max(1, _DENSE_CELLS // width)  # rows per block
        buf = np.zeros((min(step, n), width))  # zero pad: odd widths still add as pairs
        picked, carry = np.empty_like(buf), np.empty(width)
        pairs = buf.view(np.complex128)
        for row, cut in enumerate(cuts):
            nl = np.flatnonzero(cut) + 1
            if nl.size == 0:
                continue
            m = nl[-1]  # rows up to the last cut
            # the cuts of rows [lo, lo + step) are nl[first:last]
            bounds = np.searchsorted(nl, np.arange(0, m + step, step), "right").tolist()
            for lo, first, last in zip(range(0, m, step), bounds, bounds[1:]):
                k = min(step, m - lo)
                # mode="clip": the default mode buffers `out`
                np.take(targets, order[row, lo : lo + k], axis=0, out=buf[:k, :n_targets], mode="clip")
                if lo:
                    buf[0] += carry
                np.cumsum(pairs[:k], axis=0, out=pairs[:k])
                carry[:] = buf[k - 1]
                at = nl[first:last]
                if at.size == 0:
                    continue
                sl = np.take(buf, at - 1 - lo, axis=0, out=picked[: at.size], mode="clip")[:, :n_targets]
                sr = np.subtract(tot, sl, out=buf[: at.size, :n_targets])
                sq_right = np.square(sr, out=sr).sum(axis=1)
                sq_left = np.square(sl, out=sl).sum(axis=1)
                score[row, at - 1] = sq_left / at + sq_right / (n - at)
        tests.append(_Tests(blocks.num, np.arange(1, n)[None], score, xs))
    return float((tot**2).sum()) / n, tests


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
    blocks = _attribute_blocks(view)
    tests = []
    if blocks.num:
        xs, cuts = _numeric_order(view, order)
        pos = np.empty(view.n_rows, dtype=np.intp)
        pos[cover] = np.arange(n)
        rank = np.empty_like(order)
        np.put_along_axis(rank, pos[order], np.arange(n), axis=1)
        k = np.arange(len(ts)) - (np.cumsum(tot) - tot)[ts]
        sq_left = np.empty((len(blocks.num), n - 1))  # Σ sl² after each left-side size
        cross = np.empty_like(sq_left)  # Σ tot·sl
        step = max(1, _BLOCK_CELLS // len(ts))
        for lo in range(0, len(blocks.num), step):
            key = rank[lo : lo + step, rows] + ts * n
            key.sort(axis=1)
            key += (np.arange(len(key)) * n)[:, None] - ts * n  # attribute-major rank
            for out, weights in ((sq_left, 2 * k + 1), (cross, tot[ts])):
                counts = np.bincount(key.ravel(), np.tile(weights, len(key)), len(key) * n)
                out[lo : lo + len(key)] = counts.reshape(len(key), n).cumsum(axis=1)[:, :-1]
        nl = np.arange(1, n)
        score = sq_left / nl + (total_sq - 2.0 * cross + sq_left) / (n - nl)
        score[~cuts] = -_INF
        tests.append(_Tests(blocks.num, nl[None], score, xs))
    if blocks.cat:
        slot, nl = _category_slots(cover, view)
        # one bin per (slot, target); cells with no test drop out
        hit = slot[:, rows]
        keep = hit >= 0
        sl = np.bincount(
            (hit * n_targets + ts)[keep], minlength=nl.size * n_targets
        ).reshape(nl.shape + (n_targets,))
        tests.append(_category_block(blocks.cat, nl, sl, tot, n))
    return total_sq / n, tests


def best_split(
    cover: np.ndarray, view: View, targets: np.ndarray, min_leaf_size: int, order: np.ndarray
) -> Split | None:
    """Scan every candidate single-attribute test and return the one with the
    largest positive variance reduction, or None.

    Candidates are numeric cuts between consecutive distinct observed values
    a < b, boolean is-true, and categorical equality with each label. The
    split is its left edge literal, built at the scored test: a numeric cut
    is `a / 2 + b / 2`, or a where that rounds up to b, so it lies in [a, b).
    Ties resolve to the lowest attribute id, then the lowest cut / earliest
    category. A boolean target matrix is scored from its nonzeros, any other
    densely; both give the same split, gain included. `order` is
    `presort(view, cover)`, or the rows of a child's cover in that order as
    `build_tree` splits them down.
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
        a, b = tests.values[row, pick : pick + 2].tolist()
        # halving first cannot overflow, as a sum near the top of the range can;
        # a midpoint that rounds up to b would put b's rows left too
        cut = a / 2.0 + b / 2.0
        return Split(Literal(best, NUMERIC, hi=cut if cut < b else a), gain)
    category = attr.categories[pick] if attr.kind == CATEGORICAL else None
    return Split(Literal(best, attr.kind, category=category), gain)


def build_tree(view: View, targets: np.ndarray, params: PctParams) -> Tree:
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
        in_left = mask_to_bools(_literal_support(split.literal, view).in_mask, view.n_rows)
        left_mask = in_left[node.cover]
        node.split = split
        node.left = TreeNode(cover=node.cover[left_mask], depth=node.depth + 1)
        node.right = TreeNode(cover=node.cover[~left_mask], depth=node.depth + 1)
        # filtering keeps each sorted row list in order, so no child sorts again
        goes_left = in_left[order]
        for child, side in ((node.right, ~goes_left), (node.left, goes_left)):
            stack.append((child, order[side].reshape(len(order), len(child.cover))))
    return Tree(root=root, view=view)


def _right_literal(view: View, left: Literal) -> Literal:
    """The right edge of a split whose left edge is `left`: the left literal
    negated, or for a numeric cut (which lies below an observed value) the
    interval from the smallest value observed above it, exact on this view."""
    if left.kind != NUMERIC:
        return replace(left, negated=True)
    col = view.columns[left.attr]
    return Literal(left.attr, NUMERIC, lo=float(col[col > left.hi].min()))  # NaN compares false


def extract_rules(tree: Tree) -> list[tuple[Query, np.ndarray]]:
    """One conjunctive rule per non-root node: the AND of the edge conditions
    on the path from the root, with same-attribute intervals intersected.
    Returned covers are the node covers from induction."""
    results: list[tuple[Query, np.ndarray]] = []
    queue: deque[tuple[TreeNode, tuple[Literal, ...]]] = deque([(tree.root, ())])
    while queue:
        node, conds = queue.popleft()
        if conds:
            q = minimize_query(Query(conds[0] if len(conds) == 1 else And(conds)), tree.view)
            results.append((q, node.cover))
        if node.split is not None:
            left = node.split.literal
            queue.append((node.left, conds + (left,)))
            queue.append((node.right, conds + (_right_literal(tree.view, left),)))
    return results
