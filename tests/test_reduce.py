"""Occurrence profiling and scalarized greedy selection."""

import dataclasses
import math
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from redesc.measures import Redescription
from redesc.query import mask_to_bools
from redesc.reduce import (
    WeightVector,
    compute_occurrence,
    find_best,
    find_specific,
    reduce_set,
)

from conftest import ACCURACY_LADDER, STABILITY_LADDER, fabricate_pool
from reference import pv_score, oracle_reduce, oracle_specific, packed, selection, set_jaccard, supp


class TestComputeOccurrence:
    def test_disjoint_supports_count_once(self):
        rng = np.random.default_rng(1)
        pool, _ = fabricate_pool(rng, 6, n_elements=50)
        # rebuild with forced-disjoint supports
        from redesc.measures import Redescription
        from redesc.query import TriSupport

        ds_pool = []
        for i, r in enumerate(pool):
            tri = TriSupport(0b1111 << (4 * i), 0, 50)
            ds_pool.append(Redescription.create(r.q1, r.q2, tri, tri, _dataset()))
        profile = compute_occurrence(packed(ds_pool))
        assert set(np.unique(profile.element_counts)) <= {0.0, 1.0}

    def test_singleton_profile_is_support_indicator(self):
        rng = np.random.default_rng(2)
        pool, _ = fabricate_pool(rng, 1, n_elements=30)
        profile = compute_occurrence(packed(pool))
        assert {int(e) for e in np.nonzero(profile.element_counts)[0]} == set(supp(pool[0]))

    def test_matches_double_loop_recount(self):
        rng = np.random.default_rng(3)
        pool, _ = fabricate_pool(rng, 50, n_elements=80)
        cand = packed(pool)
        profile = compute_occurrence(cand)
        for e in range(80):
            assert profile.element_counts[e] == sum(1 for r in pool if e in supp(r))
        attrs = {a for r in pool for a in r.attrs}
        assert len(profile.attribute_counts) == len(attrs)
        for a in attrs:
            count = profile.attribute_counts[cand.attr_col[a]]
            assert count == sum(1 for r in pool if a in r.attrs)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 2**32 - 1),
    size=st.integers(1, 70),
    n_elements=st.integers(1, 150),
    repeats=st.lists(st.integers(0, 69), max_size=4),
)
def test_compute_occurrence_matches_per_member_loop_property(seed, size, n_elements, repeats):
    rng = np.random.default_rng(seed)
    pool, _ = fabricate_pool(rng, size, n_elements=n_elements, missing=True)
    pool += [pool[i % size] for i in repeats]  # rows listed twice count twice
    element_counts = np.zeros(n_elements)
    attribute_counts = {}
    for m in pool:
        element_counts += mask_to_bools(m.supp_mask, n_elements)
        for a in m.attrs:
            attribute_counts[a] = attribute_counts.get(a, 0) + 1
    cand = packed(pool)
    profile = compute_occurrence(cand)
    assert profile.element_counts.dtype == element_counts.dtype
    assert np.array_equal(profile.element_counts, element_counts)
    assert list(cand.attr_col) == list(attribute_counts)
    assert profile.attribute_counts.tolist() == list(attribute_counts.values())


def _dataset():
    from conftest import make_dataset

    spec1 = [(f"a{i}", "boolean", [False] * 50) for i in range(30)]
    spec2 = [(f"z{i}", "boolean", [False] * 50) for i in range(30)]
    return make_dataset(spec1, spec2)


class TestFindSpecific:
    def test_pure_accuracy_weight_takes_max_accuracy(self):
        rng = np.random.default_rng(4)
        pool, _ = fabricate_pool(rng, 60, n_elements=100)
        profile = compute_occurrence(packed(pool))
        pick = pool[find_specific(selection(pool, WeightVector(1, 0, 0, 0, 0, 0), 1), profile)[0]]
        assert pick.j_qnm == max(r.j_qnm for r in pool)

    def test_pure_size_weight_takes_fewest_literals(self):
        rng = np.random.default_rng(5)
        pool, _ = fabricate_pool(rng, 60, n_elements=100)
        profile = compute_occurrence(packed(pool))
        pick = pool[find_specific(selection(pool, WeightVector(0, 0, 0, 0, 1, 0), 1), profile)[0]]
        assert pick.attr_count == min(r.attr_count for r in pool)

    def test_balanced_row_matches_oracle(self):
        rng = np.random.default_rng(6)
        pool, _ = fabricate_pool(rng, 100, n_elements=120, missing=True)
        profile = compute_occurrence(packed(pool))
        w = WeightVector.from_row(ACCURACY_LADDER[0])
        assert pool[find_specific(selection(pool, w, 1), profile)[0]] is oracle_specific(pool, w)


class TestFindBest:
    def test_pure_element_similarity_picks_least_overlap(self):
        rng = np.random.default_rng(7)
        pool, _ = fabricate_pool(rng, 40, n_elements=80)
        w = WeightVector(0, 0, 0, 1, 0, 0)
        pick = pool[find_best(selection(pool, w, 10, [0]))[0]]
        overlaps = {
            id(r): set_jaccard(supp(r), supp(pool[0])) for r in pool[1:]
        }
        assert overlaps[id(pick)] == min(overlaps.values())

    def test_late_steps_blend_toward_significance(self):
        rng = np.random.default_rng(8)
        pool, _ = fabricate_pool(rng, 30, n_elements=60)
        w = WeightVector(0, 1, 0, 0, 0, 0)
        n = 10
        k = n - 1
        pick = pool[find_best(selection(pool, w, n, range(k)))[0]]
        remaining = pool[k:]
        scores = {
            id(r): (k / n) * pv_score(r.p_value) + (1 - k / n) * r.support_size / 60
            for r in remaining
        }
        assert scores[id(pick)] == min(scores.values())

    def test_accuracy_heavy_row_matches_oracle_stepwise(self):
        rng = np.random.default_rng(9)
        pool, _ = fabricate_pool(rng, 200, n_elements=150, missing=True)
        w = WeightVector.from_row(ACCURACY_LADDER[1])
        got = reduce_set(pool, [w], [30])[0]
        want = oracle_reduce(pool, w, 30)
        assert [id(m) for m in got.members] == [id(m) for m in want]


# weights drawn with zeros common: a zero weight drops its term and makes ties
_weight = st.one_of(st.just(0.0), st.floats(0.0, 1.0))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 2**32 - 1),
    size=st.integers(2, 60),
    n_elements=st.integers(1, 140),
    missing=st.booleans(),
    row=st.lists(_weight, min_size=5, max_size=6),
    data=st.data(),
)
def test_reduce_set_matches_oracle_property(seed, size, n_elements, missing, row, data):
    rng = np.random.default_rng(seed)
    pool, dataset = fabricate_pool(rng, size, n_elements=n_elements, missing=missing)
    _insert_twins(pool, dataset, data)
    w = WeightVector.from_row(row)
    n = data.draw(st.integers(1, len(pool) + 5))
    got = reduce_set(pool, [w], [n])[0].members
    assert [id(m) for m in got] == [id(m) for m in oracle_reduce(pool, w, n)]


def _insert_twins(pool, dataset, data):
    """Insert drawn equal-support duplicates into the pool: an equal copy ties
    on every term, a different query pair over the same supports ties on all
    but the attribute terms."""
    size = len(pool)
    for i in data.draw(st.lists(st.integers(0, size - 1), max_size=6)):
        donor = pool[data.draw(st.integers(0, size - 1))]
        twin = data.draw(
            st.sampled_from(
                [
                    dataclasses.replace(pool[i]),
                    Redescription.create(donor.q1, donor.q2, pool[i].tri1, pool[i].tri2, dataset),
                ]
            )
        )
        pool.insert(data.draw(st.integers(0, len(pool))), twin)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 2**32 - 1),
    size=st.integers(2, 30),
    n_elements=st.integers(1, 120),
    missing=st.booleans(),
    rows=st.lists(st.lists(_weight, min_size=5, max_size=6), min_size=1, max_size=4),
    data=st.data(),
)
def test_lockstep_lanes_match_oracle_property(seed, size, n_elements, missing, rows, data):
    # every (size, weight row) lane of one call is the set a call of its own
    # would select: lanes of different sizes blend with their own k/n, and a
    # lane whose candidates run out stops while the others go on
    rng = np.random.default_rng(seed)
    pool, dataset = fabricate_pool(rng, size, n_elements=n_elements, missing=missing)
    _insert_twins(pool, dataset, data)
    weights = [WeightVector.from_row(row) for row in rows]
    sizes = data.draw(
        st.lists(st.integers(1, len(pool) + 5), min_size=1, max_size=3, unique=True)
    )
    got = reduce_set(pool, weights, sizes)
    lanes = [(n, w) for n in sizes for w in weights]
    assert [(out.n, out.weights) for out in got] == lanes
    for out, (n, w) in zip(got, lanes):
        assert [id(m) for m in out.members] == [id(m) for m in oracle_reduce(pool, w, n)]


class TestReduceSet:
    def test_requesting_more_than_pool_returns_everything(self):
        rng = np.random.default_rng(10)
        pool, _ = fabricate_pool(rng, 20, n_elements=50)
        out = reduce_set(pool, [WeightVector.from_row(ACCURACY_LADDER[0])], [100])[0]
        assert len(out.members) == 20
        assert set(map(id, out.members)) == set(map(id, pool))

    def test_deterministic_for_identical_inputs(self):
        rng = np.random.default_rng(11)
        pool, _ = fabricate_pool(rng, 80, n_elements=100)
        w = [WeightVector.from_row(row) for row in ACCURACY_LADDER]
        first = reduce_set(pool, w, [25])
        second = reduce_set(pool, w, [25])
        for a, b in zip(first, second):
            assert [id(m) for m in a.members] == [id(m) for m in b.members]

    def test_no_duplicates_and_size_bound(self):
        rng = np.random.default_rng(12)
        pool, _ = fabricate_pool(rng, 120, n_elements=100, missing=True)
        for reduced in reduce_set(pool, [WeightVector.from_row(r) for r in STABILITY_LADDER], [40]):
            ids = [id(m) for m in reduced.members]
            assert len(set(ids)) == len(ids)
            assert len(ids) <= 40

    def test_trim_scale_pool(self):
        # the size of mine's max_set_size trim: thousands of picks from a pool
        # of thousands, which a per-pick rescan of the picked set cannot afford
        rng = np.random.default_rng(19)
        pool, _ = fabricate_pool(rng, 3000, n_elements=200, missing=True)
        equal = WeightVector(0.2, 0.2, 0.2, 0.2, 0.2, 0.0)
        started = time.perf_counter()
        out = reduce_set(pool, [equal], [1500])[0]
        elapsed = time.perf_counter() - started
        ids = [id(m) for m in out.members]
        assert len(ids) == len(set(ids)) == 1500
        assert set(ids) <= {id(r) for r in pool}
        assert elapsed < 30.0

    def test_empty_pool_gives_one_empty_set_per_weight_row(self):
        rows = [WeightVector.from_row(r) for r in ACCURACY_LADDER]
        out = reduce_set([], rows, [5, 7])
        assert [(s.members, s.weights, s.n) for s in out] == [
            ([], w, n) for n in (5, 7) for w in rows
        ]

    def test_accuracy_trend_over_ladder(self):
        rng = np.random.default_rng(14)
        pool, _ = fabricate_pool(rng, 500, n_elements=150)
        rows = [WeightVector.from_row(r) for r in ACCURACY_LADDER[:3]]
        means = [
            sum(m.j_qnm for m in out.members) / len(out.members)
            for out in reduce_set(pool, rows, [40])
        ]
        assert means[0] <= means[1] + 1e-12 <= means[2] + 2e-12

    def test_zero_variability_weight_ignores_unknown_cells(self):
        # only definite-support quantities enter when the stability weight is
        # zero, so wiping every unknown set must not change any selection
        from redesc.measures import Redescription
        from redesc.query import TriSupport

        rng = np.random.default_rng(16)
        pool, dataset = fabricate_pool(rng, 120, n_elements=80, missing=True)
        resolved = [
            Redescription.create(
                r.q1,
                r.q2,
                TriSupport(r.tri1.in_mask, 0, 80),
                TriSupport(r.tri2.in_mask, 0, 80),
                dataset,
            )
            for r in pool
        ]
        w = WeightVector.from_row(ACCURACY_LADDER[0])  # stability weight 0
        got = [m.key for m in reduce_set(pool, [w], [30])[0].members]
        want = [m.key for m in reduce_set(resolved, [w], [30])[0].members]
        assert got == want

    def test_stability_trend_over_ladder(self):
        rng = np.random.default_rng(15)
        pool, _ = fabricate_pool(rng, 500, n_elements=150, missing=True)
        rows = [WeightVector.from_row(r) for r in STABILITY_LADDER]
        means = [
            sum(m.variability for m in out.members) / len(out.members)
            for out in reduce_set(pool, rows, [40])
        ]
        for a, b in zip(means, means[1:]):
            assert a >= b - 1e-12
        assert means[0] > means[-1]


def test_weight_vector_validation():
    for bad in (-0.1, math.nan, math.inf):
        with pytest.raises(ValueError, match="weights must be finite and non-negative"):
            WeightVector(bad, 0, 0, 0, 0, 0)
    with pytest.raises(ValueError):
        WeightVector.from_row([0.1, 0.2])
    five = WeightVector.from_row([0.2, 0.2, 0.2, 0.2, 0.2])
    assert five.variability == 0.0
