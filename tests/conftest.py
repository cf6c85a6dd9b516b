"""Shared builders: hand-made views, random corpora, and synthetic pools."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import strategies as st

# weight rows sweeping importance from balanced toward pure accuracy, with a
# diversity-only row last
ACCURACY_LADDER = [
    (0.2, 0.2, 0.2, 0.2, 0.2, 0.0),
    (0.4, 0.2, 0.1, 0.1, 0.2, 0.0),
    (0.6, 0.2, 0.0, 0.0, 0.2, 0.0),
    (0.0, 0.2, 0.3, 0.3, 0.2, 0.0),
]

# weight rows raising the accuracy-stability weight while the rest stay equal
STABILITY_LADDER = [
    (0.2, 0.2, 0.2, 0.2, 0.19, 0.01),
    (0.18, 0.18, 0.18, 0.18, 0.18, 0.1),
    (0.14, 0.14, 0.14, 0.14, 0.14, 0.3),
    (0.1, 0.1, 0.1, 0.1, 0.1, 0.5),
    (0.06, 0.06, 0.06, 0.06, 0.06, 0.7),
]

from redesc.dataset import (
    BOOLEAN,
    CATEGORICAL,
    NUMERIC,
    Attribute,
    Dataset,
    View,
)
from redesc.measures import Redescription
from redesc.mine import Rule
from redesc.query import And, Leaf, Literal, Or, Query, TriSupport, canonicalize


def make_view(spec: list[tuple[str, str, list]]) -> View:
    """Build a view from (name, kind, values) triples; None marks missing."""
    attributes = []
    columns = []
    for j, (name, kind, values) in enumerate(spec):
        if kind == CATEGORICAL:
            labels = sorted({v for v in values if v is not None})
            code = {lab: i for i, lab in enumerate(labels)}
            col = np.array([-1 if v is None else code[v] for v in values], dtype=np.int32)
            attributes.append(Attribute(j, name, CATEGORICAL, tuple(labels)))
        else:
            col = np.array(
                [np.nan if v is None else float(v) for v in values], dtype=np.float64
            )
            attributes.append(Attribute(j, name, kind))
        columns.append(col)
    return View(attributes, columns)


def make_dataset(spec1, spec2) -> Dataset:
    v1 = make_view(spec1)
    v2 = make_view(spec2)
    return Dataset(v1, v2)


def random_view(rng: np.random.Generator, n_rows: int, n_num=2, n_bool=1, n_cat=0,
                missing_rate: float = 0.0) -> View:
    spec = []
    for i in range(n_num):
        vals = list(np.round(rng.uniform(-5, 5, n_rows), 3))
        spec.append((f"x{i}", NUMERIC, vals))
    for i in range(n_bool):
        vals = [bool(v) for v in rng.integers(0, 2, n_rows)]
        spec.append((f"b{i}", BOOLEAN, vals))
    for i in range(n_cat):
        vals = [f"c{v}" for v in rng.integers(0, 3, n_rows)]
        spec.append((f"k{i}", CATEGORICAL, vals))
    if missing_rate > 0:
        spec = [
            (name, kind, [None if rng.random() < missing_rate else v for v in vals])
            for name, kind, vals in spec
        ]
    return make_view(spec)


def random_query(rng: np.random.Generator, view: View, view_id: int, depth: int = 2) -> Query:
    return canonicalize(Query(_random_node(rng, view, depth), view_id))


def _random_literal(rng: np.random.Generator, view: View) -> Leaf:
    attr_id = int(rng.integers(0, view.n_cols))
    attr = view.attributes[attr_id]
    negated = bool(rng.random() < 0.2)
    if attr.kind == NUMERIC:
        col = view.columns[attr_id]
        obs = col[~np.isnan(col)]
        if obs.size == 0:
            lo, hi = -1.0, 1.0
        else:
            lo, hi = sorted(rng.choice(obs, 2, replace=True))
            lo, hi = float(lo), float(hi)
        if rng.random() < 0.2:
            lo = float("-inf")
        if rng.random() < 0.2:
            hi = float("inf")
        return Leaf(Literal(attr_id, NUMERIC, lo, hi, negated=negated))
    if attr.kind == BOOLEAN:
        return Leaf(Literal(attr_id, BOOLEAN, negated=negated))
    label = attr.categories[int(rng.integers(0, len(attr.categories)))]
    return Leaf(Literal(attr_id, CATEGORICAL, category=label, negated=negated))


def _random_node(rng: np.random.Generator, view: View, depth: int):
    if depth == 0 or rng.random() < 0.35:
        return _random_literal(rng, view)
    kind = rng.random()
    if kind < 0.45:
        n = int(rng.integers(2, 4))
        return And(tuple(_random_node(rng, view, depth - 1) for _ in range(n)))
    if kind < 0.9:
        n = int(rng.integers(2, 4))
        return Or(tuple(_random_node(rng, view, depth - 1) for _ in range(n)))
    from redesc.query import Not

    return Not(_random_node(rng, view, depth - 1))


# ---------------------------------------------------------------------------
# The worked climate/species dataset behind the documented examples
# ---------------------------------------------------------------------------


@pytest.fixture
def climate_species_dataset() -> Dataset:
    n = 8
    rng = np.random.default_rng(7)
    spec1 = [
        (name, NUMERIC, list(np.round(rng.uniform(-10, 30, n), 1)))
        for name in ("t6", "t7", "p6", "t9p", "t7p")
    ]
    spec2 = [
        (name, BOOLEAN, [bool(v) for v in rng.integers(0, 2, n)])
        for name in ("Polarbear", "MountainHare", "Woodmouse", "ArcticFox")
    ]
    return make_dataset(spec1, spec2)


# ---------------------------------------------------------------------------
# Synthetic redescription pools (fabricated supports, real statistics)
# ---------------------------------------------------------------------------


def _random_mask(rng: np.random.Generator, n: int, density: float) -> int:
    mask = 0
    for bit in np.nonzero(rng.random(n) < density)[0]:
        mask |= 1 << int(bit)
    return mask


def fabricate_pool(
    rng: np.random.Generator,
    size: int,
    n_elements: int = 200,
    n_attrs: int = 30,
    missing: bool = False,
) -> tuple[list[Redescription], Dataset]:
    """Pool of redescriptions with random supports over a boolean dataset.

    Queries are conjunctions of distinct boolean literals, so attribute sets
    and query sizes vary; statistics are computed by the production code from
    the fabricated supports.
    """
    spec1 = [(f"a{i}", BOOLEAN, [False] * n_elements) for i in range(n_attrs)]
    spec2 = [(f"z{i}", BOOLEAN, [False] * n_elements) for i in range(n_attrs)]
    dataset = make_dataset(spec1, spec2)
    pool = []
    seen = set()
    while len(pool) < size:
        in1 = _random_mask(rng, n_elements, rng.uniform(0.05, 0.5))
        # perturb the first support so accuracies spread over (0, 1]
        flip = _random_mask(rng, n_elements, rng.uniform(0.0, 0.3))
        in2 = in1 ^ flip
        if missing:
            unk1 = _random_mask(rng, n_elements, rng.uniform(0.0, 0.25)) & ~in1
            unk2 = _random_mask(rng, n_elements, rng.uniform(0.0, 0.25)) & ~in2
        else:
            unk1 = unk2 = 0
        tri1 = TriSupport(in1, unk1, n_elements)
        tri2 = TriSupport(in2, unk2, n_elements)
        ids1 = sorted(rng.choice(n_attrs, int(rng.integers(1, 6)), replace=False))
        ids2 = sorted(rng.choice(n_attrs, int(rng.integers(1, 6)), replace=False))
        q1 = _bool_conj(ids1, 1)
        q2 = _bool_conj(ids2, 2)
        red = Redescription.create(q1, q2, tri1, tri2, dataset)
        if red.key in seen:
            continue
        seen.add(red.key)
        pool.append(red)
    return pool, dataset


def _bool_conj(attr_ids, view_id: int) -> Query:
    leaves = tuple(Leaf(Literal(int(a), BOOLEAN)) for a in attr_ids)
    root = leaves[0] if len(leaves) == 1 else And(leaves)
    return canonicalize(Query(root, view_id))


# ---------------------------------------------------------------------------
# Planted two-view corpus: a 2-attribute numeric box in view 1 and a
# 2-literal boolean conjunction in view 2 pick out the same instances.
# ---------------------------------------------------------------------------


def planted_dataset(
    seed: int = 11,
    n: int = 200,
    planted: int = 40,
    overlap_each: int = 10,
    missing_rate: float = 0.0,
) -> tuple[Dataset, frozenset[int]]:
    rng = np.random.default_rng(seed)
    ids = [int(x) for x in rng.permutation(n)]
    S = set(ids[:planted])
    N0 = set(ids[planted : planted + 20])         # share the a0 box only
    N1 = set(ids[planted + 20 : planted + 40])    # share the a1 box only
    X0 = set(ids[planted + 40 : planted + 40 + overlap_each])  # extra b0 carriers
    X1 = set(ids[planted + 50 : planted + 50 + overlap_each])  # extra b1 carriers

    def box_column(inside) -> np.ndarray:
        col = np.empty(n)
        for i in range(n):
            if i in inside:
                col[i] = rng.uniform(2.0, 3.0)
            else:
                col[i] = rng.uniform(0.0, 1.0) if rng.random() < 0.5 else rng.uniform(4.0, 5.0)
        return np.round(col, 4)

    in_a0 = S | N0
    in_a1 = S | N1
    spec1 = [
        ("a0", NUMERIC, list(box_column(in_a0))),
        ("a1", NUMERIC, list(box_column(in_a1))),
    ]
    for i in range(2, 8):
        spec1.append((f"a{i}", NUMERIC, list(np.round(rng.uniform(0, 10, n), 4))))

    b0 = S | X0
    b1 = S | X1
    spec2 = [
        ("b0", BOOLEAN, [i in b0 for i in range(n)]),
        ("b1", BOOLEAN, [i in b1 for i in range(n)]),
    ]
    for i in range(2, 8):
        noise = rng.random(n) < 0.3
        spec2.append((f"b{i}", BOOLEAN, [bool(v) for v in noise]))

    if missing_rate > 0:
        spec1 = [
            (name, kind, [None if rng.random() < missing_rate else v for v in vals])
            for name, kind, vals in spec1
        ]
    return make_dataset(spec1, spec2), frozenset(S)


def refinement_benefit_dataset(seed: int = 19, n: int = 150):
    """Corpus where conjunctive refinement provably helps.

    A small concept S is described exactly in view 2 (b0) but only loosely in
    view 1 (the a0 box also covers ten false friends F). A larger concept
    T ⊃ S is described exactly on both sides (a1 box, b1), so the T pair
    refines the S pair: tightening the a1 box onto S's rows expels F and
    lifts the S pair's accuracy to 1.0.
    """
    rng = np.random.default_rng(seed)
    S = set(range(0, 30))
    T = set(range(0, 60))
    F = set(range(60, 70))

    def box_column(inside) -> list:
        col = []
        for i in range(n):
            if i in inside:
                col.append(round(rng.uniform(2.0, 3.0), 4))
            else:
                col.append(
                    round(rng.uniform(0.0, 1.0) if rng.random() < 0.5 else rng.uniform(4.0, 5.0), 4)
                )
        return col

    spec1 = [
        ("a0", NUMERIC, box_column(S | F)),
        ("a1", NUMERIC, box_column(T)),
    ]
    for i in range(2, 6):
        spec1.append((f"a{i}", NUMERIC, list(np.round(rng.uniform(0, 10, n), 4))))
    spec2 = [
        ("b0", BOOLEAN, [i in S for i in range(n)]),
        ("b1", BOOLEAN, [i in T for i in range(n)]),
    ]
    for i in range(2, 6):
        spec2.append((f"b{i}", BOOLEAN, [bool(v) for v in rng.random(n) < 0.3]))
    return make_dataset(spec1, spec2), frozenset(S), frozenset(T)


# ---------------------------------------------------------------------------
# Rule lists with drawn definite supports, for the packed pair screens
# ---------------------------------------------------------------------------

# Jaccard floors including the values random pairs hit exactly
JACCARD_FLOORS = st.one_of(st.sampled_from([0.0, 0.25, 1 / 3, 0.5, 1.0]), st.floats(0.0, 1.0))


@st.composite
def rule_supports(draw, max_rules: int = 6):
    """(n, view-1 masks, view-2 masks, min_support, max_support): word-edge
    instance counts, empty and full supports, and empty rule lists."""
    n = draw(st.one_of(st.sampled_from([1, 63, 64, 65]), st.integers(1, 130)))
    mask = st.one_of(st.sampled_from([0, 2**n - 1]), st.integers(0, 2**n - 1))
    masks1 = draw(st.lists(mask, max_size=max_rules))
    masks2 = draw(st.lists(mask, max_size=max_rules))
    lo = draw(st.integers(0, n))
    hi = draw(st.one_of(st.none(), st.integers(lo, n)))
    return n, masks1, masks2, lo, hi


def placeholder_dataset(n: int) -> Dataset:
    """One constant boolean attribute per view: enough to name rule queries."""
    return make_dataset([("a0", BOOLEAN, [False] * n)], [("b0", BOOLEAN, [False] * n)])


def mask_rules(masks, view_id: int, n: int) -> list:
    """Rules over a placeholder query with the given definite supports; each
    holds its own query and support object, so calls can be traced by `is`."""
    return [
        Rule(Query(Leaf(Literal(0, BOOLEAN)), view_id), TriSupport(m, 0, n), f"r{view_id}.{i}")
        for i, m in enumerate(masks)
    ]


# ---------------------------------------------------------------------------
# Small drawn datasets for whole mining runs
# ---------------------------------------------------------------------------


def latent_dataset(n: int, seed: int, missing: float) -> Dataset:
    """n rows (missing cells at the given rate, labels that look like numbers
    included) whose two views share one latent split."""
    rng = np.random.default_rng(seed)
    latent = rng.random(n) < 0.5

    def noisy(flip):
        return latent ^ (rng.random(n) < flip)

    spec1 = [
        ("x0", NUMERIC, list(np.round(noisy(0.1) * 3 + rng.normal(0, 1, n), 2))),
        ("x1", NUMERIC, list(np.round(rng.uniform(0, 5, n), 2))),
        ("k", CATEGORICAL, [("1", "2.5")[int(v)] if rng.random() < 0.8 else "lo_k" for v in noisy(0.2)]),
    ]
    spec2 = [
        ("b0", BOOLEAN, list(noisy(0.1))),
        ("b1", BOOLEAN, list(rng.random(n) < 0.5)),
        ("c", CATEGORICAL, [("-3", "inf")[int(v)] for v in noisy(0.15)]),
    ]
    spec1, spec2 = (
        [(name, kind, [None if rng.random() < missing else v for v in vals]) for name, kind, vals in spec]
        for spec in (spec1, spec2)
    )
    return make_dataset(spec1, spec2)


@st.composite
def small_latent_datasets(draw):
    """A `latent_dataset` of 20 to 60 rows, with or without missing cells."""
    n = draw(st.integers(20, 60))
    seed = draw(st.integers(0, 2**32 - 1))
    return latent_dataset(n, seed, draw(st.sampled_from([0.0, 0.1])))
