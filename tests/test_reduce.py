"""Occurrence profiling and scalarized greedy selection."""

import dataclasses
import math
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from redesc.measures import Constraints, PackedMembers, Redescription
from redesc.query import mask_to_bools
from redesc.reduce import (
    WeightVector,
    compute_occurrence,
    find_best,
    find_specific,
    reduce_set,
)

from conftest import ACCURACY_LADDER, STABILITY_LADDER, fabricate_pool


# ---------------------------------------------------------------------------
# Brute-force rescoring oracle, independent of the production paths: plain
# sets, dict counting, and textbook formula transcriptions.
# ---------------------------------------------------------------------------


def _set_jaccard(a, b):
    a, b = set(a), set(b)
    u = a | b
    return len(a & b) / len(u) if u else 0.0


def _pv_score(pv):
    return math.log10(pv) / 17.0 + 1.0 if pv >= 1e-17 else 0.0


def _size_score(count):
    return count / 20.0 if count < 20 else 1.0


def oracle_specific(pool, w):
    n = pool[0].n_elements
    e_ocur = [0] * n
    a_ocur = {}
    for r in pool:
        for e in r.supp:
            e_ocur[e] += 1
        for a in r.attrs:
            a_ocur[a] = a_ocur.get(a, 0) + 1
    e_tot = sum(e_ocur)
    a_tot = sum(a_ocur.values())
    best_i, best_score = 0, float("inf")
    for i, r in enumerate(pool):
        score = (
            w.j * (1.0 - r.j_qnm)
            + w.pval * _pv_score(r.p_value)
            + w.elem_jaccard * (sum(e_ocur[e] for e in r.supp) / e_tot if e_tot else 0.0)
            + w.attr_jaccard * (sum(a_ocur.get(a, 0) for a in r.attrs) / a_tot if a_tot else 0.0)
            + w.query_size * _size_score(r.attr_count)
            + w.variability * (r.j_opt - r.j_pess)
        )
        if score < best_score:
            best_i, best_score = i, score
    return pool[best_i]


def oracle_best(pool, reduced, w, n, supports=None):
    total = pool[0].n_elements
    k = len(reduced)
    taken = {id(r) for r in reduced}
    supports = supports or {id(r): set(r.supp) for r in pool}
    best_r, best_score = None, float("inf")
    for r in pool:
        if id(r) in taken:
            continue
        elem_sim = max(
            (_set_jaccard(supports[id(r)], supports[id(m)]) for m in reduced), default=0.0
        )
        attr_sim = max((_set_jaccard(r.attrs, m.attrs) for m in reduced), default=0.0)
        blend = (k / n) * _pv_score(r.p_value) + (1 - k / n) * (r.support_size / total)
        score = (
            w.j * (1.0 - r.j_qnm)
            + w.pval * blend
            + w.elem_jaccard * elem_sim
            + w.attr_jaccard * attr_sim
            + w.query_size * _size_score(r.attr_count)
            + w.variability * (r.j_opt - r.j_pess)
        )
        if score < best_score:
            best_r, best_score = r, score
    return best_r


def oracle_reduce(pool, w, n):
    supports = {id(r): set(r.supp) for r in pool}
    selected = [oracle_specific(pool, w)]
    while len(selected) < n:
        nxt = oracle_best(pool, selected, w, n, supports)
        if nxt is None:
            break
        selected.append(nxt)
    return selected


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
        profile = compute_occurrence(ds_pool)
        assert set(np.unique(profile.element_counts)) <= {0.0, 1.0}

    def test_singleton_profile_is_support_indicator(self):
        rng = np.random.default_rng(2)
        pool, _ = fabricate_pool(rng, 1, n_elements=30)
        profile = compute_occurrence(pool)
        assert {int(e) for e in np.nonzero(profile.element_counts)[0]} == set(pool[0].supp)

    def test_matches_double_loop_recount(self):
        rng = np.random.default_rng(3)
        pool, _ = fabricate_pool(rng, 50, n_elements=80)
        profile = compute_occurrence(pool)
        for e in range(80):
            assert profile.element_counts[e] == sum(1 for r in pool if e in r.supp)
        attrs = {a for r in pool for a in r.attrs}
        for a in attrs:
            assert profile.attribute_counts[a] == sum(1 for r in pool if a in r.attrs)


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
    pool += [pool[i % size] for i in repeats]  # objects listed twice count twice
    element_counts = np.zeros(n_elements)
    attribute_counts = {}
    for m in pool:
        element_counts += mask_to_bools(m.supp_mask, n_elements)
        for a in m.attrs:
            attribute_counts[a] = attribute_counts.get(a, 0) + 1
    for source in (pool, PackedMembers(pool)):
        profile = compute_occurrence(source)
        assert profile.element_counts.dtype == element_counts.dtype
        assert np.array_equal(profile.element_counts, element_counts)
        assert list(profile.attribute_counts.items()) == list(attribute_counts.items())


def _dataset():
    from conftest import make_dataset

    spec1 = [(f"a{i}", "boolean", [False] * 50) for i in range(30)]
    spec2 = [(f"z{i}", "boolean", [False] * 50) for i in range(30)]
    return make_dataset(spec1, spec2)


class TestFindSpecific:
    def test_pure_accuracy_weight_takes_max_accuracy(self):
        rng = np.random.default_rng(4)
        pool, _ = fabricate_pool(rng, 60, n_elements=100)
        profile = compute_occurrence(pool)
        pick = find_specific(pool, profile, WeightVector(1, 0, 0, 0, 0, 0))
        assert pick.j_qnm == max(r.j_qnm for r in pool)

    def test_pure_size_weight_takes_fewest_literals(self):
        rng = np.random.default_rng(5)
        pool, _ = fabricate_pool(rng, 60, n_elements=100)
        profile = compute_occurrence(pool)
        pick = find_specific(pool, profile, WeightVector(0, 0, 0, 0, 1, 0))
        assert pick.attr_count == min(r.attr_count for r in pool)

    def test_balanced_row_matches_oracle(self):
        rng = np.random.default_rng(6)
        pool, _ = fabricate_pool(rng, 100, n_elements=120, missing=True)
        profile = compute_occurrence(pool)
        w = WeightVector.from_row(ACCURACY_LADDER[0])
        assert find_specific(pool, profile, w) is oracle_specific(pool, w)


class TestFindBest:
    def test_pure_element_similarity_picks_least_overlap(self):
        rng = np.random.default_rng(7)
        pool, _ = fabricate_pool(rng, 40, n_elements=80)
        w = WeightVector(0, 0, 0, 1, 0, 0)
        reduced = [pool[0]]
        pick = find_best(pool, reduced, w, n=10)
        overlaps = {
            id(r): _set_jaccard(r.supp, pool[0].supp) for r in pool[1:]
        }
        assert overlaps[id(pick)] == min(overlaps.values())

    def test_late_steps_blend_toward_significance(self):
        rng = np.random.default_rng(8)
        pool, _ = fabricate_pool(rng, 30, n_elements=60)
        w = WeightVector(0, 1, 0, 0, 0, 0)
        n = 10
        reduced = pool[: n - 1]
        pick = find_best(pool, reduced, w, n=n)
        remaining = [r for r in pool if id(r) not in {id(m) for m in reduced}]
        k = n - 1
        scores = {
            id(r): (k / n) * _pv_score(r.p_value) + (1 - k / n) * r.support_size / 60
            for r in remaining
        }
        assert scores[id(pick)] == min(scores.values())

    def test_object_listed_twice_is_excluded_once_picked(self):
        rng = np.random.default_rng(17)
        pool, _ = fabricate_pool(rng, 15, n_elements=60)
        w = WeightVector(1, 0, 0, 0, 0, 0)
        best = max(pool, key=lambda r: r.j_qnm)
        doubled = [best] + pool + [best]
        assert find_best(doubled, [], w, n=5) is best
        assert find_best(doubled, [best], w, n=5) is not best
        out = reduce_set(doubled, [WeightVector.from_row(ACCURACY_LADDER[0])], 40)[0]
        ids = [id(m) for m in out.members]
        assert len(ids) == len(set(ids)) == len(pool)

    def test_reduced_member_outside_pool_enters_similarity(self):
        rng = np.random.default_rng(18)
        pool, _ = fabricate_pool(rng, 30, n_elements=70, missing=True)
        outsider = fabricate_pool(rng, 1, n_elements=70)[0][0]
        assert all(r is not outsider for r in pool)
        elem = find_best(pool, [outsider], WeightVector(0, 0, 0, 1, 0, 0), n=10)
        assert elem is min(pool, key=lambda r: _set_jaccard(r.supp, outsider.supp))
        attr = find_best(pool, [outsider], WeightVector(0, 0, 1, 0, 0, 0), n=10)
        assert attr is min(pool, key=lambda r: _set_jaccard(r.attrs, outsider.attrs))
        # an equal copy outside the pool excludes nothing: exclusion is by identity
        best = max(pool, key=lambda r: r.j_qnm)
        copy = dataclasses.replace(best)
        assert copy == best and copy is not best
        assert find_best(pool, [copy], WeightVector(1, 0, 0, 0, 0, 0), n=10) is best

    def test_accuracy_heavy_row_matches_oracle_stepwise(self):
        rng = np.random.default_rng(9)
        pool, _ = fabricate_pool(rng, 200, n_elements=150, missing=True)
        w = WeightVector.from_row(ACCURACY_LADDER[1])
        got = reduce_set(pool, [w], 30)[0]
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
    # equal-support duplicates: an equal copy ties on every term, a different
    # query pair over the same supports ties on all but the attribute terms
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
    w = WeightVector.from_row(row)
    n = data.draw(st.integers(1, len(pool) + 5))
    got = reduce_set(pool, [w], n)[0].members
    assert [id(m) for m in got] == [id(m) for m in oracle_reduce(pool, w, n)]


class TestReduceSet:
    def test_requesting_more_than_pool_returns_everything(self):
        rng = np.random.default_rng(10)
        pool, _ = fabricate_pool(rng, 20, n_elements=50)
        out = reduce_set(pool, [WeightVector.from_row(ACCURACY_LADDER[0])], 100)[0]
        assert len(out.members) == 20
        assert set(map(id, out.members)) == set(map(id, pool))

    def test_deterministic_for_identical_inputs(self):
        rng = np.random.default_rng(11)
        pool, _ = fabricate_pool(rng, 80, n_elements=100)
        w = [WeightVector.from_row(row) for row in ACCURACY_LADDER]
        first = reduce_set(pool, w, 25)
        second = reduce_set(pool, w, 25)
        for a, b in zip(first, second):
            assert [id(m) for m in a.members] == [id(m) for m in b.members]

    def test_no_duplicates_and_size_bound(self):
        rng = np.random.default_rng(12)
        pool, _ = fabricate_pool(rng, 120, n_elements=100, missing=True)
        for reduced in reduce_set(pool, [WeightVector.from_row(r) for r in STABILITY_LADDER], 40):
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
        out = reduce_set(pool, [equal], 1500)[0]
        elapsed = time.perf_counter() - started
        assert out.status == "ok"
        ids = [id(m) for m in out.members]
        assert len(ids) == len(set(ids)) == 1500
        assert set(ids) <= {id(r) for r in pool}
        assert elapsed < 30.0

    def test_constraint_refilter_and_warning_status(self):
        rng = np.random.default_rng(13)
        pool, _ = fabricate_pool(rng, 30, n_elements=60)
        impossible = Constraints(min_jaccard=1.0, max_pvalue=0.0, min_support=61)
        out = reduce_set(pool, [WeightVector(1, 0, 0, 0, 0, 0)], 5, constraints=impossible)[0]
        assert out.members == [] and out.status.startswith("warning")
        floor = Constraints(min_jaccard=0.5, max_pvalue=1.0, min_support=1)
        kept = reduce_set(pool, [WeightVector(1, 0, 0, 0, 0, 0)], 100, constraints=floor)[0]
        assert all(m.j_qnm >= 0.5 for m in kept.members)

    def test_accuracy_trend_over_ladder(self):
        rng = np.random.default_rng(14)
        pool, _ = fabricate_pool(rng, 500, n_elements=150)
        rows = [WeightVector.from_row(r) for r in ACCURACY_LADDER[:3]]
        means = [
            sum(m.j_qnm for m in out.members) / len(out.members)
            for out in reduce_set(pool, rows, 40)
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
        got = [m.key for m in reduce_set(pool, [w], 30)[0].members]
        want = [m.key for m in reduce_set(resolved, [w], 30)[0].members]
        assert got == want

    def test_stability_trend_over_ladder(self):
        rng = np.random.default_rng(15)
        pool, _ = fabricate_pool(rng, 500, n_elements=150, missing=True)
        rows = [WeightVector.from_row(r) for r in STABILITY_LADDER]
        means = [
            sum(m.variability for m in out.members) / len(out.members)
            for out in reduce_set(pool, rows, 40)
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
