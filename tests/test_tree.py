"""Variance-reduction splitting, tree growth, and rule extraction."""

import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from redesc import tree as tree_module
from redesc.dataset import BOOLEAN, CATEGORICAL, NUMERIC, Attribute, View
from redesc.mine import _standardized
from redesc.query import Literal, tri_support
from redesc.tree import (
    PctParams,
    Split,
    Tree,
    TreeNode,
    best_split,
    build_tree,
    extract_rules,
    presort,
)

from conftest import make_view, random_view
from reference import (
    FALSE,
    TRUE,
    _eval_literal_row,
    in_set,
    reference_best_split,
    reference_build_tree,
    unk_set,
)


def _variance_sum(rows: np.ndarray) -> float:
    if rows.size == 0:
        return 0.0
    return float(rows.var(axis=0).sum())


def oracle_best_split(cover, view, targets, min_leaf_size):
    """Independent exhaustive scan using plain numpy variances."""
    sub = targets[cover]
    n = len(cover)
    base = _variance_sum(sub)
    best = None
    for attr_id, attr in enumerate(view.attributes):
        col = view.columns[attr_id][cover]
        candidates = []
        if attr.kind == NUMERIC:
            obs = np.unique(col[~np.isnan(col)])
            mids = (obs[1:] + obs[:-1]) / 2.0
            candidates = [("num", float(t)) for t in mids]
        elif attr.kind == BOOLEAN:
            candidates = [("bool", None)]
        else:
            candidates = [("cat", lab) for lab in attr.categories]
        for kind, payload in candidates:
            if kind == "num":
                left = (col <= payload) & ~np.isnan(col)
            elif kind == "bool":
                left = col == 1.0
            else:
                left = col == attr.category_code(payload)
            nl, nr = int(left.sum()), n - int(left.sum())
            if nl < min_leaf_size or nr < min_leaf_size:
                continue
            h = base - (nl / n) * _variance_sum(sub[left]) - (nr / n) * _variance_sum(sub[~left])
            if h > 1e-12 and (best is None or h > best[0] + 1e-12):
                best = (h, attr_id, kind, payload)
    return best


def _drawn_view(rng, n_rows, kinds, levels, missing_rate):
    """Columns of the given kinds; numeric values on `levels` grid points, so
    small level counts make ties."""
    attributes, columns = [], []
    for j, kind in enumerate(kinds):
        codes = rng.integers(0, levels, n_rows)
        missing = rng.random(n_rows) < missing_rate
        if kind == CATEGORICAL:
            attributes.append(Attribute(f"a{j}", kind, ("p", "q", "r", "s")))
            columns.append(np.where(missing, -1, codes % 4).astype(np.int32))
        else:
            attributes.append(Attribute(f"a{j}", kind))
            values = codes * 0.25 - 3.0 if kind == NUMERIC else codes % 2.0
            columns.append(np.where(missing, np.nan, values))
    return View(attributes, columns)


_KINDS = st.lists(st.sampled_from([NUMERIC, BOOLEAN, CATEGORICAL]), min_size=1, max_size=5)
# dense prefix-sum blocks of one cell, of three rows, or of the default size
_DENSE_BLOCKS = st.sampled_from(["cell", "rows", "default"])


def _dense_cells(block: str, n_targets: int) -> int:
    width = n_targets + n_targets % 2
    return {"cell": 1, "rows": 3 * width, "default": tree_module._DENSE_CELLS}[block]


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_rows=st.integers(2, 70),
    kinds=_KINDS,
    levels=st.sampled_from([2, 5, 1000]),
    n_targets=st.sampled_from([1, 2, 3, 84, 129]),
    missing_rate=st.sampled_from([0.0, 0.1, 0.4]),
    min_leaf_size=st.integers(1, 5),
    sorted_cover=st.booleans(),
    block=_DENSE_BLOCKS,
)
def test_scoring_equals_per_node_reference_property(
    seed, n_rows, kinds, levels, n_targets, missing_rate, min_leaf_size, sorted_cover, block
):
    """Presorted, block-scored splits on real-valued targets equal the
    per-node reference bit for bit, on ascending and unsorted covers alike,
    whatever the size of the prefix-sum blocks that carry a row between
    them."""
    rng = np.random.default_rng(seed)
    view = _drawn_view(rng, n_rows, kinds, levels, missing_rate)
    targets = rng.standard_normal((n_rows, n_targets))
    targets[:, rng.random(n_targets) < 0.2] = 1.5  # constant columns
    cover = rng.permutation(n_rows)[: rng.integers(1, n_rows + 1)]
    if sorted_cover:
        cover = np.sort(cover)
    with mock.patch.object(tree_module, "_DENSE_CELLS", _dense_cells(block, n_targets)):
        got = best_split(cover, view, targets, min_leaf_size, presort(view, cover))
    want = reference_best_split(cover, view, targets, min_leaf_size)
    assert got == want
    if got is not None:
        assert got.gain.hex() == want.gain.hex()


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_rows=st.integers(2, 90),
    kinds=_KINDS,
    levels=st.sampled_from([2, 5, 1000]),
    n_targets=st.sampled_from([1, 3, 84]),
    missing_rate=st.sampled_from([0.0, 0.2]),
    boolean=st.booleans(),
    min_leaf_size=st.integers(1, 5),
    block=_DENSE_BLOCKS,
)
def test_presorted_tree_equals_per_node_reference_property(
    seed, n_rows, kinds, levels, n_targets, missing_rate, boolean, min_leaf_size, block
):
    """Sorting once per tree and partitioning the sorted rows down it grows
    the tree a per-node sort grows: every node's cover and split, gain bits
    included, for boolean and real-valued targets and any size of dense
    prefix-sum block."""
    rng = np.random.default_rng(seed)
    view = _drawn_view(rng, n_rows, kinds, levels, missing_rate)
    if boolean:
        targets = rng.random((n_rows, n_targets)) < 0.4
    else:
        targets = rng.standard_normal((n_rows, n_targets))
    params = PctParams(max_depth=5, min_leaf_size=min_leaf_size)
    with mock.patch.object(tree_module, "_DENSE_CELLS", _dense_cells(block, n_targets)):
        tree = build_tree(view, targets, params)
    got = [(node.cover, node.split) for node in tree.iter_nodes()]
    want = reference_build_tree(view, targets, params)
    assert len(got) == len(want)
    for (cover, split), (ref_cover, ref_split, _) in zip(got, want):
        assert cover.tolist() == ref_cover.tolist()
        assert split == ref_split
        if split is not None:
            assert split.gain.hex() == ref_split.gain.hex()


def test_build_tree_working_set_is_bounded():
    """A tree on real-valued targets copies no target matrix per node: the
    tracemalloc peak of `build_tree`, beyond its inputs, stays under 2.5
    target matrices (with per-node copies it was about 4.9)."""
    n_rows, n_targets = 4000, 84
    rng = np.random.default_rng(29)
    view = _drawn_view(rng, n_rows, [NUMERIC] * 6 + [BOOLEAN] * 4, 1000, 0.05)
    targets = rng.standard_normal((n_rows, n_targets))
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        tree = build_tree(view, targets, PctParams(max_depth=3))
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        if not tracing:
            tracemalloc.stop()
    assert tree.root.split is not None and tree.n_nodes > 1
    assert peak < 2.5 * n_rows * n_targets * 8


class TestBestSplit:
    def test_perfect_separation_takes_all_variance(self):
        view = make_view([("x", NUMERIC, [1.0, 2.0, 3.0, 8.0, 9.0, 10.0])])
        targets = np.array([1, 1, 1, 0, 0, 0], dtype=float)[:, None]
        cover = np.arange(6)
        split = best_split(cover, view, targets, 1, presort(view, cover))
        assert split is not None
        assert split.literal == Literal(0, NUMERIC, hi=5.5)
        assert split.gain == pytest.approx(_variance_sum(targets), abs=1e-12)

    def test_constant_targets_yield_nothing(self):
        view = make_view([("x", NUMERIC, [1.0, 2.0, 3.0, 4.0])])
        targets = np.ones((4, 2))
        assert best_split(np.arange(4), view, targets, 1, presort(view, np.arange(4))) is None

    def test_min_leaf_size_blocks_extreme_cuts(self):
        view = make_view([("x", NUMERIC, [1.0, 2.0, 3.0, 4.0])])
        targets = np.array([1, 0, 0, 0], dtype=float)[:, None]
        split = best_split(np.arange(4), view, targets, 2, presort(view, np.arange(4)))
        assert split is None or split.literal.hi == 2.5

    @pytest.mark.parametrize("dtype", [np.float64, np.bool_])
    def test_agrees_with_exhaustive_oracle(self, dtype):
        rng = np.random.default_rng(21)
        for trial in range(60):
            view = random_view(rng, 30, n_num=4, n_bool=0)
            targets = (rng.random((30, 3)) < 0.5).astype(dtype)
            cover = np.sort(rng.choice(30, 24, replace=False))
            got = best_split(cover, view, targets, 2, presort(view, cover))
            want = oracle_best_split(cover, view, targets, 2)
            if want is None:
                assert got is None
                continue
            assert got is not None
            assert got.gain == pytest.approx(want[0], abs=1e-9)
            # identity only checked when the optimum is isolated
            second = _oracle_second_best(cover, view, targets, 2, want)
            if second is None or want[0] - second > 1e-9:
                assert got.literal == Literal(want[1], NUMERIC, hi=want[3])

    def test_boolean_and_categorical_candidates(self):
        view = make_view(
            [
                ("f", BOOLEAN, [True, True, False, False]),
                ("k", "categorical", ["a", "a", "b", "c"]),
            ]
        )
        targets = np.array([1, 1, 0, 0], dtype=float)[:, None]
        split = best_split(np.arange(4), view, targets, 1, presort(view, np.arange(4)))
        assert split is not None and split.gain == pytest.approx(0.25, abs=1e-12)
        assert split.literal.attr == 0  # tie with k=a resolves to the lower attribute id


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_rows=st.integers(1, 50),
    kinds=st.lists(st.sampled_from([NUMERIC, BOOLEAN, CATEGORICAL]), min_size=1, max_size=6),
    levels=st.sampled_from([2, 4, 1000]),
    n_targets=st.sampled_from([1, 3, 64]),
    density=st.sampled_from([0.05, 0.5, 0.95]),
    min_leaf_size=st.integers(1, 5),
)
def test_sparse_scoring_equals_dense_property(
    seed, n_rows, kinds, levels, n_targets, density, min_leaf_size
):
    """A boolean target matrix takes the sparse path, its float copy the dense
    one; both must return the same split with the same gain, bit for bit."""
    rng = np.random.default_rng(seed)
    attributes, columns = [], []
    for j, kind in enumerate(kinds):
        codes = rng.integers(0, levels, n_rows)
        missing = rng.random(n_rows) < 0.05
        if kind == CATEGORICAL:
            attributes.append(Attribute(f"a{j}", kind, ("p", "q", "r", "s")))
            columns.append(np.where(missing, -1, codes % 4).astype(np.int32))
        else:
            attributes.append(Attribute(f"a{j}", kind))
            values = codes * 0.25 - 3.0 if kind == NUMERIC else codes % 2.0
            columns.append(np.where(missing, np.nan, values))
    view = View(attributes, columns)
    targets = rng.random((n_rows, n_targets)) < density
    targets[:, rng.random(n_targets) < 0.2] = False  # all-zero columns
    targets[:, rng.random(n_targets) < 0.2] = True  # all-one columns
    cover = np.flatnonzero(rng.random(n_rows) < rng.choice([0.2, 0.7, 1.0]))
    order = presort(view, cover)
    sparse = best_split(cover, view, targets, min_leaf_size, order)
    dense = best_split(cover, view, targets.astype(float), min_leaf_size, order)
    assert sparse == dense
    if sparse is not None:
        assert sparse.gain == dense.gain


# a cell of magnitude in [2**-20, 2**1), or zero
_cell = st.builds(
    lambda m, j, sign: sign * math.ldexp(m, j),
    st.floats(1.0, 2.0, exclude_max=True),
    st.integers(-20, 0),
    st.sampled_from([1.0, -1.0]),
) | st.just(0.0)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(
    rows=st.lists(st.tuples(_cell, _cell, st.booleans(), st.booleans()), min_size=4, max_size=30),
    below_top=st.integers(0, 2100),
    dense=st.booleans(),
)
@example(
    rows=[(1.0, 0.0, False, True), (1.25, 0.0, False, True), (1.5, 0.0, True, False), (1.75, 1.0, True, False)],
    below_top=0,
    dense=False,
)
def test_power_of_two_scaling_changes_no_bit_property(rows, below_top, dense):
    """Scaling a numeric column by 2**k, for any k that keeps every cell
    finite and every nonzero cell's half normal, leaves its standardized
    bootstrap target bit for bit, and `best_split`'s attribute and gain; the
    cut scales by exactly 2**k."""
    x, y, t1, t2 = (np.array(column) for column in zip(*rows))
    magnitudes = np.abs(x[x != 0])
    assume(magnitudes.size > 0)
    k = 1024 - math.frexp(magnitudes.max())[1] - below_top  # below_top 0: top cell in [2**1023, 2**1024)
    assume(k >= -1020 - math.frexp(magnitudes.min())[1])  # smallest cell at least 2**-1021
    scaled = np.ldexp(x, k)
    assert np.isfinite(scaled).all()
    assert _standardized(scaled).tobytes() == _standardized(x).tobytes()

    targets = np.column_stack([t1, t2])
    if dense:
        targets = targets.astype(float)
    splits = []
    for column in (x, scaled):
        view = make_view([("x", NUMERIC, list(column)), ("y", NUMERIC, list(y))])
        cover = np.arange(len(rows))
        splits.append(best_split(cover, view, targets, 1, presort(view, cover)))
    plain, big = splits
    if plain is None:
        assert big is None
        return
    assert (big.literal.attr, big.gain) == (plain.literal.attr, plain.gain)
    want = math.ldexp(plain.literal.hi, k) if plain.literal.attr == 0 else plain.literal.hi
    assert big.literal.hi == want


def _oracle_second_best(cover, view, targets, min_leaf_size, best):
    sub = targets[cover]
    n = len(cover)
    base = _variance_sum(sub)
    runner = None
    for attr_id, attr in enumerate(view.attributes):
        col = view.columns[attr_id][cover]
        if attr.kind != NUMERIC:
            continue
        obs = np.unique(col[~np.isnan(col)])
        for t in (obs[1:] + obs[:-1]) / 2.0:
            if attr_id == best[1] and t == best[3]:
                continue
            left = (col <= t) & ~np.isnan(col)
            nl, nr = int(left.sum()), n - int(left.sum())
            if nl < min_leaf_size or nr < min_leaf_size:
                continue
            h = base - (nl / n) * _variance_sum(sub[left]) - (nr / n) * _variance_sum(sub[~left])
            if runner is None or h > runner:
                runner = h
    return runner


class TestBuildTree:
    def test_depth_one_is_root_only(self):
        view = make_view([("x", NUMERIC, [1.0, 2.0, 3.0, 4.0])])
        targets = np.array([1, 1, 0, 0], dtype=float)
        tree = build_tree(view, targets, PctParams(max_depth=1, min_leaf_size=1))
        assert tree.n_nodes == 1
        assert extract_rules(tree) == []

    def test_separable_data_reaches_pure_leaves(self):
        rng = np.random.default_rng(2)
        x = np.concatenate([rng.uniform(0, 1, 20), rng.uniform(5, 6, 20)])
        view = make_view([("x", NUMERIC, list(x))])
        targets = np.array([1.0] * 20 + [0.0] * 20)
        tree = build_tree(view, targets, PctParams(max_depth=3, min_leaf_size=2))
        for node in tree.iter_nodes():
            if node.split is None:
                vals = targets[node.cover]
                assert vals.min() == vals.max()

    def test_deterministic_for_fixed_inputs(self):
        rng = np.random.default_rng(3)
        view = random_view(rng, 50, n_num=3, n_bool=1)
        targets = (rng.random((50, 4)) < 0.4).astype(float)
        params = PctParams(max_depth=4, min_leaf_size=2)
        t1 = build_tree(view, targets, params)
        t2 = build_tree(view, targets, params)
        r1 = [(str(q.root), list(c)) for q, c in extract_rules(t1)]
        r2 = [(str(q.root), list(c)) for q, c in extract_rules(t2)]
        assert r1 == r2

    def test_node_count_bounded_and_covers_shrink(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            view = random_view(rng, 60, n_num=3, n_bool=1)
            targets = (rng.random((60, 5)) < 0.5).astype(float)
            depth = int(rng.integers(1, 6))
            tree = build_tree(view, targets, PctParams(max_depth=depth, min_leaf_size=1))
            assert tree.n_nodes <= 2**depth - 1
            for node in tree.iter_nodes():
                if node.split is not None:
                    assert node.split.gain > 0
                    assert len(node.left.cover) < len(node.cover)
                    assert len(node.right.cover) < len(node.cover)
                    assert len(node.left.cover) + len(node.right.cover) == len(node.cover)

    def test_missing_values_route_right(self):
        view = make_view([("x", NUMERIC, [1.0, 2.0, None, 8.0, 9.0, None])])
        targets = np.array([1, 1, 0, 0, 0, 0], dtype=float)
        tree = build_tree(view, targets, PctParams(max_depth=2, min_leaf_size=1))
        assert tree.root.split is not None
        assert set(tree.root.right.cover) >= {2, 5}


class TestExtractRules:
    def test_complete_depth_three_tree_yields_six_rules(self):
        # three levels fully split: 2 nodes one edge deep, 4 two edges deep
        rows = []
        targets = []
        for a in (0.0, 1.0):
            for b in (0.0, 1.0):
                for c in (0.0, 1.0):
                    for _ in range(3):
                        rows.append((a, b, c))
                        targets.append((a, b, c))
        view = make_view(
            [
                ("a", NUMERIC, [r[0] for r in rows]),
                ("b", NUMERIC, [r[1] for r in rows]),
                ("c", NUMERIC, [r[2] for r in rows]),
            ]
        )
        tree = build_tree(view, np.array(targets, dtype=float), PctParams(max_depth=3, min_leaf_size=1))
        rules = extract_rules(tree)
        assert len(rules) == 6
        depth_counts = {}
        for node in tree.iter_nodes():
            depth_counts[node.depth] = depth_counts.get(node.depth, 0) + 1
        assert depth_counts == {0: 1, 1: 2, 2: 4}

    def test_left_left_path_intersects_intervals(self):
        view = make_view([("x", NUMERIC, [0.5, 1.5, 2.5, 3.5])])
        root = TreeNode(cover=np.arange(4), depth=0, split=Split(Literal(0, NUMERIC, hi=3.0), 1.0))
        left = TreeNode(cover=np.arange(3), depth=1, split=Split(Literal(0, NUMERIC, hi=1.0), 1.0))
        root.left = left
        root.right = TreeNode(cover=np.array([3]), depth=1)
        left.left = TreeNode(cover=np.array([0]), depth=2)
        left.right = TreeNode(cover=np.array([1, 2]), depth=2)
        tree = Tree(root=root, view=view)
        rules = dict()
        for q, cover in extract_rules(tree):
            rules[tuple(cover)] = q
        deepest = rules[(0,)]
        assert isinstance(deepest.root, Literal)
        assert deepest.root.lo == float("-inf")
        assert deepest.root.hi == 1.0

    def test_rules_reevaluate_to_node_covers_on_complete_data(self):
        rng = np.random.default_rng(6)
        for _ in range(15):
            view = random_view(rng, 40, n_num=2, n_bool=1, n_cat=1)
            targets = (rng.random((40, 3)) < 0.5).astype(float)
            tree = build_tree(view, targets, PctParams(max_depth=4, min_leaf_size=2))
            for q, cover in extract_rules(tree):
                tri = tri_support(q, view)
                assert in_set(tri) == frozenset(int(i) for i in cover)
                assert unk_set(tri) == frozenset()


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_rows=st.integers(4, 60),
    missing_rate=st.sampled_from([0.1, 0.3, 0.6]),
    boolean=st.booleans(),
)
def test_covers_bracket_rule_supports_with_missing_cells_property(
    seed, n_rows, missing_rate, boolean
):
    """Each node cover holds its rule's in-set and lies within its
    in-or-unknown set, and rows missing the split attribute go right, for
    boolean (cross-view) and real-valued (bootstrap-style) targets alike."""
    rng = np.random.default_rng(seed)
    view = random_view(rng, n_rows, n_num=2, n_bool=1, n_cat=1, missing_rate=missing_rate)
    if boolean:
        targets = rng.random((n_rows, 4)) < 0.5
    else:
        targets = rng.standard_normal((n_rows, 4))
    tree = build_tree(view, targets, PctParams(max_depth=4, min_leaf_size=1))
    for node in tree.iter_nodes():
        if node.split is not None:
            missing = node.cover[view.missing_mask(node.split.literal.attr)[node.cover]]
            assert set(missing.tolist()) <= set(node.right.cover.tolist())
    for q, cover in extract_rules(tree):
        tri = tri_support(q, tree.view)
        assert in_set(tri) <= frozenset(cover.tolist()) <= in_set(tri) | unk_set(tri)


def _ulps_above(base: float, steps: int) -> float:
    for _ in range(steps):
        base = math.nextafter(base, math.inf)
    return base


# cells a few ulps apart around zero, the subnormals, the smallest normal and
# a few larger magnitudes, or missing
_NEIGHBOUR = st.builds(
    _ulps_above,
    st.sampled_from([0.0, 3 * 2.0**-1074, 2.0**-1022, -(2.0**-1022), 1.0, -1.0, 0.1, 1e300]),
    st.integers(0, 3),
) | st.none()
_A = math.nextafter(1.0, 2.0)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    rows=st.lists(st.tuples(_NEIGHBOUR, _NEIGHBOUR, st.booleans(), st.booleans()), min_size=2, max_size=40),
    dense=st.booleans(),
    min_leaf_size=st.integers(1, 3),
)
@example(
    rows=[(_A, 0.0, True, True)] * 3 + [(math.nextafter(_A, 2.0), 0.0, False, False)] * 3,
    dense=True,
    min_leaf_size=1,
)
@example(
    rows=[(3 * 2.0**-1074, 0.0, True, True)] * 3 + [(4 * 2.0**-1074, 0.0, False, False)] * 3,
    dense=False,
    min_leaf_size=3,
)
def test_split_literal_routes_the_scored_sides_property(rows, dense, min_leaf_size):
    """Every split's left edge literal holds exactly the rows scored left:
    each child's cover is the node's cover filtered by its edge literal,
    evaluated row by row (left: definitely true; right: not false, so missing
    cells go right), each child holds at least `min_leaf_size` rows, and a
    numeric cut lies in [a, b) of the neighbours it falls between."""
    x, y, t1, t2 = (list(column) for column in zip(*rows))
    view = make_view([("x", NUMERIC, x), ("y", NUMERIC, y)])
    targets = np.column_stack([t1, t2])
    if dense:
        targets = targets.astype(float)
    tree = build_tree(view, targets, PctParams(max_depth=4, min_leaf_size=min_leaf_size))
    for node in tree.iter_nodes():
        if node.split is None:
            continue
        left = node.split.literal
        right = tree_module._right_literal(view, left)
        cover = node.cover.tolist()
        assert node.left.cover.tolist() == [i for i in cover if _eval_literal_row(left, view, i) == TRUE]
        assert node.right.cover.tolist() == [i for i in cover if _eval_literal_row(right, view, i) != FALSE]
        assert min(len(node.left.cover), len(node.right.cover)) >= min_leaf_size
        if left.kind == NUMERIC:
            col = view.columns[left.attr]
            assert col[node.left.cover].max() <= left.hi < np.nanmin(col[node.right.cover])
