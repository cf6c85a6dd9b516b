"""Accuracy variants, significance, redundancy measures, and scores."""

import dataclasses
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.stats import binom

import redesc
import redesc.measures as measures_module
from redesc.measures import (
    Constraints,
    Redescription,
    RedescriptionSet,
    StatusCounts,
    aaj,
    aej,
    binomial_tail,
    jaccard_variants,
    mask_jaccard,
    overlap_counts,
    p_value,
    row_sizes,
    score_pval,
    score_size,
)
from redesc.query import (
    And,
    Or,
    Query,
    TriSupport,
    bools_to_mask,
    mask_to_bools,
    pack_masks,
    parse_query,
)
from redesc.reduce import OccurrenceProfile, WeightVector, compute_occurrence, find_specific

from conftest import fabricate_pool, make_dataset
from reference import (
    from_sets,
    loop_aaj,
    loop_aej,
    packed,
    selection,
    set_jaccard,
    supp,
    support_set_add,
)


# ---------------------------------------------------------------------------
# Exhaustive-completion oracle for the accuracy variants
# ---------------------------------------------------------------------------


def completion_extremes(c: StatusCounts) -> tuple[float, float]:
    """Best and worst classic Jaccard over every resolution of unknown cells.

    Classic Jaccard depends on a completion only through how many unknown
    cells resolve each way per status category, so scanning those counts
    covers all completions exactly.
    """
    base_inter = c.n_ii
    base_union = c.n_ii + c.n_io + c.n_oi
    best, worst = -1.0, 2.0
    for k1 in range(c.n_iu + 1):
        for k2 in range(c.n_ui + 1):
            for m1 in range(c.n_uo + 1):
                for m2 in range(c.n_ou + 1):
                    for a in range(c.n_uu + 1):
                        for s in range(c.n_uu - a + 1):
                            inter = base_inter + k1 + k2 + a
                            union = base_union + c.n_iu + c.n_ui + a + s + m1 + m2
                            j = inter / union if union else 0.0
                            best = max(best, j)
                            worst = min(worst, j)
    return best, worst


def random_counts(rng: np.random.Generator, total: int, max_unknown_cells: int | None = None):
    """Random status table; with a cap, unknown-bearing categories are drawn
    first within the cell budget and the rest fills the definite categories."""
    if max_unknown_cells is None:
        draws = rng.multinomial(total, rng.dirichlet(np.ones(9)))
        return StatusCounts(*[int(x) for x in draws])
    budget = int(rng.integers(0, max_unknown_cells + 1))
    n_uu = int(rng.integers(0, budget // 2 + 1))
    singles = rng.multinomial(budget - 2 * n_uu, [0.25] * 4)
    n_iu, n_ui, n_uo, n_ou = (int(x) for x in singles)
    remaining = total - (n_iu + n_ui + n_uo + n_ou + n_uu)
    definite = rng.multinomial(remaining, rng.dirichlet(np.ones(4)))
    n_ii, n_io, n_oi, n_oo = (int(x) for x in definite)
    return StatusCounts(
        n_ii=n_ii, n_io=n_io, n_iu=n_iu,
        n_oi=n_oi, n_oo=n_oo, n_ou=n_ou,
        n_ui=n_ui, n_uo=n_uo, n_uu=n_uu,
    )


def _mask(elements) -> int:
    return sum(1 << e for e in elements)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(n=st.one_of(st.sampled_from([1, 63, 64, 65]), st.integers(1, 300)), data=st.data())
def test_overlap_counts_match_scalar_bit_counts_property(n, data):
    mask = st.one_of(st.just(0), st.integers(0, 2**n - 1))
    masks = data.draw(st.lists(mask, max_size=6))
    probe = data.draw(mask)
    words = pack_masks(masks, n)
    assert words.shape == (len(masks), -(-n // 64))
    sizes = row_sizes(words)
    assert sizes.tolist() == [a.bit_count() for a in masks]
    inter, union = overlap_counts(words, sizes, probe)
    assert inter.tolist() == [(a & probe).bit_count() for a in masks]
    assert union.tolist() == [(a | probe).bit_count() for a in masks]
    for rows in (sizes, inter, union):
        assert rows.dtype == np.int64
    empty = pack_masks([], n)
    assert [a.shape for a in overlap_counts(empty, row_sizes(empty), probe)] == [(0,), (0,)]
    for a in masks + [probe]:
        assert bools_to_mask(mask_to_bools(a, n)) == a
        assert mask_to_bools(a, n).tolist() == [bool(a >> i & 1) for i in range(n)]


class TestJaccard:
    """`mask_jaccard` over bitmasks, checked against the set oracle."""

    @staticmethod
    def _both(a, b) -> float:
        value = mask_jaccard(_mask(a), _mask(b))
        assert value == set_jaccard(a, b)
        return value

    def test_simple_overlap(self):
        assert self._both({1, 2, 3}, {2, 3, 4}) == 0.5

    def test_identity(self):
        assert self._both({1, 2}, {1, 2}) == 1.0

    def test_both_empty_is_zero(self):
        assert self._both(set(), set()) == 0.0

    def test_worked_example_34_of_38(self):
        # 34 locations described by both queries, 38 by at least one
        described_by_both = set(range(34))
        described_by_one = described_by_both | {100, 101, 102, 103}
        value = self._both(described_by_one, described_by_both)
        assert value == 34 / 38
        assert round(value, 3) == 0.895


class TestJaccardVariants:
    def test_complete_data_collapses_to_classic(self):
        rng = np.random.default_rng(1)
        for _ in range(300):
            c = random_counts(rng, 80, max_unknown_cells=0)
            v = jaccard_variants(c)
            union = c.n_ii + c.n_io + c.n_oi
            classic = c.n_ii / union if union else 0.0
            assert v.qnm == v.opt == v.pess == classic

    def test_chain_ordering_fuzz(self):
        rng = np.random.default_rng(2)
        for _ in range(10_000):
            v = jaccard_variants(random_counts(rng, 60))
            assert v.pess <= v.qnm + 1e-12
            assert v.qnm <= v.opt + 1e-12
            assert 0.0 <= v.pess and v.opt <= 1.0

    def test_matches_completion_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(300):
            c = random_counts(rng, 40, max_unknown_cells=12)
            v = jaccard_variants(c)
            best, worst = completion_extremes(c)
            assert abs(v.opt - best) < 1e-12
            assert abs(v.pess - worst) < 1e-12

    def test_zero_denominators(self):
        c = StatusCounts(0, 0, 0, 0, 10, 0, 0, 0, 0)
        v = jaccard_variants(c)
        assert v == (0.0, 0.0, 0.0)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.lists(st.integers(0, 10**9), min_size=9, max_size=9))
@example([0] * 9)
@example([0, 0, 1, 0, 0, 0, 0, 0, 0])
@example([3, 1, 0, 1, 5, 0, 0, 0, 0])
def test_accuracy_variants_keep_their_order_property(counters):
    """Exact, without a tolerance: the three variants divide integer counts,
    and correctly rounded division is monotone."""
    c = StatusCounts(*counters)
    v = jaccard_variants(c)
    assert 0.0 <= v.pess <= v.qnm <= v.opt <= 1.0
    if c.n_iu == c.n_ou == c.n_ui == c.n_uo == c.n_uu == 0:
        assert v.pess == v.qnm == v.opt


class TestVariability:
    def _with_both_unknown(self, overlap: int, both_unknown: int) -> Redescription:
        n = overlap + both_unknown
        in_mask = (1 << overlap) - 1
        unk_mask = ((1 << n) - 1) ^ in_mask
        tri = TriSupport(in_mask, unk_mask, n)
        spec = [("a0", "boolean", [False] * n)]
        dataset = make_dataset(spec, [("z0", "boolean", [False] * n)])
        q1 = parse_query("a0", dataset.view1)
        q2 = parse_query("z0", dataset.view2)
        return Redescription.create(q1, q2, tri, tri, dataset)

    def test_complete_data_has_zero_variability(self):
        r = self._with_both_unknown(45, 0)
        assert r.variability == 0.0

    def test_pessimistic_45_gives_spread_55(self):
        r = self._with_both_unknown(45, 55)
        assert r.j_opt == 1.0 and r.j_pess == 0.45
        assert abs(r.variability - 0.55) < 1e-12

    def test_pessimistic_88_gives_spread_12(self):
        r = self._with_both_unknown(88, 12)
        assert r.j_opt == 1.0 and r.j_pess == 0.88
        assert abs(r.variability - 0.12) < 1e-12

    def test_zero_iff_no_unknowns_for_nonempty_support(self):
        rng = np.random.default_rng(4)
        for _ in range(500):
            c = random_counts(rng, 50)
            if c.n_ii == 0:
                continue  # degenerate empty-support tables can mask unknowns
            v = jaccard_variants(c)
            has_unknown = (c.n_iu + c.n_ui + c.n_uo + c.n_ou + c.n_uu) > 0
            assert ((v.opt - v.pess) > 0) == has_unknown


class TestPValue:
    def test_zero_overlap_is_one(self):
        assert binomial_tail(0, 10, 20, 50) == 1.0

    def test_hand_expanded_binomial(self):
        # two trials at joint probability 0.25, both hits: 0.25**2
        assert binomial_tail(2, 1, 1, 2) == pytest.approx(0.0625, abs=1e-15)

    def test_matches_extended_precision_sum(self):
        rng = np.random.default_rng(5)
        mpmath.mp.dps = 60
        for _ in range(500):
            total = int(rng.integers(1, 51))
            s1 = int(rng.integers(0, total + 1))
            s2 = int(rng.integers(0, total + 1))
            o = int(rng.integers(0, total + 1))
            got = binomial_tail(o, s1, s2, total)
            p = mpmath.mpf(s1) / total * mpmath.mpf(s2) / total
            want = float(
                sum(
                    mpmath.binomial(total, k) * p**k * (1 - p) ** (total - k)
                    for k in range(o, total + 1)
                )
            )
            assert abs(got - want) < 1e-10

    def test_monotone_nonincreasing_in_overlap(self):
        rng = np.random.default_rng(6)
        for _ in range(100):
            total = int(rng.integers(2, 51))
            s1 = int(rng.integers(1, total + 1))
            s2 = int(rng.integers(1, total + 1))
            tail = [binomial_tail(o, s1, s2, total) for o in range(total + 1)]
            assert all(a >= b - 1e-15 for a, b in zip(tail, tail[1:]))

    def test_p_value_uses_definite_supports(self):
        tri1 = from_sets({0, 1, 2}, {3}, 6)
        tri2 = from_sets({0, 1}, {4}, 6)
        c = StatusCounts.from_supports(tri1, tri2)
        assert p_value(c, 6) == binomial_tail(2, 3, 2, 6)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(
    total=st.integers(1, 20_000),
    k_frac=st.floats(0.0, 1.0),
    s1_frac=st.floats(0.0, 1.0),
    s2_frac=st.floats(0.0, 1.0),
)
@example(total=37, k_frac=0.0, s1_frac=0.4, s2_frac=0.7)  # k = 0
@example(total=37, k_frac=1.0, s1_frac=0.9, s2_frac=0.8)  # k = n
@example(total=37, k_frac=0.5, s1_frac=1.0, s2_frac=1.0)  # p = 1
@example(total=37, k_frac=1.0, s1_frac=1.0, s2_frac=1.0)  # k = n, p = 1
def test_binomial_tail_equals_binom_sf_property(total, k_frac, s1_frac, s2_frac):
    k, s1, s2 = (round(f * total) for f in (k_frac, s1_frac, s2_frac))
    p = (s1 / total) * (s2 / total)
    want = min(1.0, max(0.0, float(binom.sf(k - 1, total, p))))
    assert repr(binomial_tail(k, s1, s2, total)) == repr(want)


def test_cli_import_leaves_scipy_stats_unloaded():
    src = Path(redesc.__file__).resolve().parents[1]
    code = "import sys, redesc.cli; print('scipy.stats' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(src)}
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, encoding="utf-8", check=True
    )
    assert out.stdout.strip() == "False"


class TestSetMeasures:
    def _worked_set(self, climate_species_dataset):
        ds = climate_species_dataset
        q_box = "[-1.8 <= t7 <= 4.4] & [12.1 <= p6 <= 21.2]"
        q_two_box = (
            "[-1.8 <= t7 <= 4.4] & [12.1 <= p6 <= 21.2]"
            " | [-1.6 <= t6 <= 1.5] & [21.6 <= p6 <= 30.1]"
        )
        q_hare_box = "[7.2 <= t9p <= 17.2] & [13.5 <= t7p <= 22.7]"
        r_base = Redescription.evaluate(
            parse_query(q_box, ds.view1), parse_query("Polarbear", ds.view2), ds
        )
        r_wide = Redescription.evaluate(
            parse_query(q_two_box, ds.view1), parse_query("Polarbear", ds.view2), ds
        )
        r_hare = Redescription.evaluate(
            parse_query(q_hare_box, ds.view1),
            parse_query("MountainHare", ds.view2),
            ds,
        )
        return r_base, r_wide, r_hare

    def test_attribute_redundancy_three_quarters(self, climate_species_dataset):
        r_base, r_wide, _ = self._worked_set(climate_species_dataset)
        assert aaj(packed([r_base, r_wide])).tolist() == [0.75, 0.75]

    def test_attribute_redundancy_zero(self, climate_species_dataset):
        _, r_wide, r_hare = self._worked_set(climate_species_dataset)
        assert aaj(packed([r_wide, r_hare])).tolist() == [0.0, 0.0]

    def test_query_size_of_two_box_pair_is_five(self, climate_species_dataset):
        _, r_wide, _ = self._worked_set(climate_species_dataset)
        assert r_wide.attr_count == 5

    def test_identical_supports_give_full_element_redundancy(self):
        rng = np.random.default_rng(7)
        pool, _ = fabricate_pool(rng, 3, n_elements=30)
        tri = pool[0].tri1
        same = [
            Redescription.create(p.q1, p.q2, tri, tri, _dataset_of(pool))
            for p in pool
        ]
        assert aej(packed(same)).tolist() == [1.0, 1.0, 1.0]

    def test_singletons_score_zero(self):
        rng = np.random.default_rng(8)
        pool, _ = fabricate_pool(rng, 1, n_elements=20)
        assert aej(packed(pool)).tolist() == aaj(packed(pool)).tolist() == [0.0]

    def test_equal_but_distinct_member_drops_exactly_one_copy(self):
        rng = np.random.default_rng(12)
        (a, b), _ = fabricate_pool(rng, 2, n_elements=40)
        twin = dataclasses.replace(a)
        assert twin == a and twin is not a
        members = [a, twin, b]
        # a drops only itself: its equal twin is another member, at Jaccard 1
        assert aej(packed(members))[0] == (1.0 + mask_jaccard(a.supp_mask, b.supp_mask)) / 2
        assert aaj(packed(members))[0] == (1.0 + set_jaccard(a.attrs, b.attrs)) / 2


def _dataset_of(pool):
    # fabricate_pool builds all members over one shared dataset shape
    spec1 = [(f"a{i}", "boolean", [False] * pool[0].n_elements) for i in range(30)]
    spec2 = [(f"z{i}", "boolean", [False] * pool[0].n_elements) for i in range(30)]
    return make_dataset(spec1, spec2)


# block sizes for the pairwise Jaccard kernel: one row or word per block, a
# few, and the default
_BLOCKS = st.sampled_from([1, 3, 40, measures_module._BLOCK_CELLS])


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 2**32 - 1),
    # past 181 members, even one word per member takes more than one block of rows
    size=st.one_of(st.integers(1, 12), st.integers(182, 190)),
    n_elements=st.integers(1, 150),
    missing=st.booleans(),
    block_cells=_BLOCKS,
    data=st.data(),
)
def test_set_redundancy_matches_pairwise_loop_property(
    seed, size, n_elements, missing, block_cells, data
):
    rng = np.random.default_rng(seed)
    pool, _ = fabricate_pool(rng, size, n_elements=n_elements, missing=missing)
    members = list(pool)
    # equal copies listed next to their originals
    for _ in range(data.draw(st.integers(0, 3))):
        twin = dataclasses.replace(data.draw(st.sampled_from(pool)))
        members.insert(data.draw(st.integers(0, len(members))), twin)
    if size > 12:
        assert len(members) > block_cells // len(members)
    want = [repr((loop_aej(r, members), loop_aaj(r, members))) for r in members]
    with mock.patch.object(measures_module, "_BLOCK_CELLS", block_cells):
        got = list(zip(aej(packed(members)).tolist(), aaj(packed(members)).tolist()))
    assert [repr(pair) for pair in got] == want


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 2**32 - 1),
    size=st.integers(1, 12),
    n_elements=st.integers(1, 150),
    missing=st.booleans(),
    block_cells=_BLOCKS,
    data=st.data(),
)
def test_pick_similarities_match_set_jaccards_property(
    seed, size, n_elements, missing, block_cells, data
):
    rng = np.random.default_rng(seed)
    pool, _ = fabricate_pool(rng, size, n_elements=n_elements, missing=missing)
    # any order, with repeats, as lanes of one greedy step may pick
    picks = data.draw(st.lists(st.integers(0, size - 1), min_size=1, max_size=2 * size))
    want = [
        [repr((set_jaccard(supp(pool[a]), supp(b)), set_jaccard(pool[a].attrs, b.attrs)))
         for b in pool]
        for a in picks
    ]
    cand = packed(pool)
    with mock.patch.object(measures_module, "_BLOCK_CELLS", block_cells):
        elem = cand.element_similarity(np.array(picks))
        attr = cand.attribute_similarity(np.array(picks))
    got = [[repr(pair) for pair in zip(*rows)] for rows in zip(elem.tolist(), attr.tolist())]
    assert got == want


class TestScores:
    def test_pval_fixed_points(self):
        assert score_pval(1.0) == 1.0
        assert score_pval(1e-17) == pytest.approx(0.0, abs=1e-12)
        assert score_pval(1e-18) == 0.0
        assert score_pval(0.0) == 0.0

    def test_size_fixed_points(self):
        assert score_size(5) == 0.25
        assert score_size(25) == 1.0
        assert score_size(20) == 1.0

    def test_pval_monotone_on_supported_range(self):
        values = np.logspace(-17, 0, 200)
        mapped = [score_pval(v) for v in values]
        assert all(a <= b + 1e-12 for a, b in zip(mapped, mapped[1:]))
        assert all(0.0 <= m <= 1.0 for m in mapped)

    def test_all_scores_in_unit_interval(self):
        rng = np.random.default_rng(9)
        pool, _ = fabricate_pool(rng, 40, n_elements=60, missing=True)
        cand = packed(pool)
        profile = compute_occurrence(cand)
        element_total = profile.element_counts.sum()
        attribute_total = profile.attribute_counts.sum()
        assert element_total == sum(r.support_size for r in pool)
        assert attribute_total == sum(len(r.attrs) for r in pool)
        reduced = pool[:5]
        for r in pool:
            attr_counts = [profile.attribute_counts[cand.attr_col[a]] for a in r.attrs]
            values = (
                score_pval(r.p_value),
                score_size(r.attr_count),
                sum(profile.element_counts[e] for e in supp(r)) / element_total,
                sum(attr_counts) / attribute_total,
                max(mask_jaccard(r.supp_mask, m.supp_mask) for m in reduced),
                max(set_jaccard(r.attrs, m.attrs) for m in reduced),
                r.variability,
            )
            for value in values:
                assert 0.0 <= value <= 1.0

    def test_occurrence_scores_empty_profile_denominator(self):
        rng = np.random.default_rng(10)
        pool, _ = fabricate_pool(rng, 2, n_elements=10)
        # both occurrence terms are 0 for every candidate, so the first row wins
        w = WeightVector(0.0, 0.0, 1.0, 1.0, 0.0, 0.0)
        for order in (pool, pool[::-1]):
            state = selection(order, w, 1)
            attrs = len(state.cand.attr_col)
            empty = OccurrenceProfile(np.zeros(10), np.zeros(attrs, dtype=np.int64))
            assert find_specific(state, empty)[0] == 0


class TestConstraints:
    def test_ref_floor_defaults_to_admission_floor(self):
        c = Constraints(min_jaccard=0.7)
        assert c.ref_jaccard == 0.7

    def test_ref_floor_must_not_exceed_admission_floor(self):
        with pytest.raises(ValueError):
            Constraints(min_jaccard=0.5, min_ref_jaccard=0.6)

    def test_admits_all_bounds(self):
        rng = np.random.default_rng(11)
        pool, _ = fabricate_pool(rng, 50, n_elements=100)
        c = Constraints(min_jaccard=0.5, max_pvalue=0.05, min_support=5, max_support=80)
        for r in pool:
            expected = (
                r.j_qnm >= 0.5
                and r.p_value <= 0.05
                and 5 <= r.support_size <= 80
            )
            assert c.admits(r) == expected



@pytest.mark.parametrize("shape", ["unordered", "duplicate", "leaf-after-group"])
def test_recheck_raises_on_member_built_from_non_canonical_query(shape):
    """`recheck` asserts what every query builder guarantees: canonical queries."""
    flags = [True] * 12 + [False] * 8
    ds = make_dataset(
        [("a", "boolean", flags), ("b", "boolean", flags), ("d", "boolean", flags)],
        [("c", "boolean", flags)],
    )
    a, b, d = (parse_query(text, ds.view1).root for text in ("a", "b", "d"))
    root = {
        "unordered": And((b, a)),
        "duplicate": And((a, a)),
        "leaf-after-group": Or((And((a, b)), d)),
    }[shape]
    red = Redescription.evaluate(Query(root), parse_query("c", ds.view2), ds)
    constraints = Constraints(min_jaccard=0.5, max_pvalue=1.0, min_support=5)
    assert constraints.admits(red)  # only the query form is wrong
    rset = RedescriptionSet()
    rset.add(red)
    with pytest.raises(AssertionError, match="non-canonical"):
        rset.recheck(constraints, ds)


def _support_pool() -> list[Redescription]:
    """Interval pairs on two copies of 0..4: pairs share a support whenever
    their intervals meet on the same rows, and share an accuracy too when
    their union is the same. Each pair of the first intervals is built twice,
    as two objects with one key."""
    values = [0.0, 1.0, 2.0, 3.0, 4.0]
    ds = make_dataset([("x", "numeric", values)], [("y", "numeric", values)])
    spans = [(lo, hi) for lo in values for hi in values if lo <= hi]

    def build(s1, s2):
        return Redescription.evaluate(
            parse_query(f"[{s1[0]} <= x <= {s1[1]}]", ds.view1),
            parse_query(f"[{s2[0]} <= y <= {s2[1]}]", ds.view2),
            ds,
        )

    pool = [build(s1, s2) for s1 in spans for s2 in spans]
    return pool + [build(s1, s2) for s1 in spans[:4] for s2 in spans[:4]]


SUPPORT_POOL = _support_pool()


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.lists(st.integers(0, len(SUPPORT_POOL) - 1), max_size=30))
def test_set_add_equals_the_list_reference(picks):
    """`RedescriptionSet.add` answers and keeps exactly what the linear scan
    of `support_set_add` does: one member per support, a strictly more
    accurate one in the held place, and a second copy of a key refused."""
    rset, members = RedescriptionSet(), []
    for i in picks:
        assert rset.add(SUPPORT_POOL[i]) == support_set_add(members, SUPPORT_POOL[i])
    assert [id(m) for m in rset.members] == [id(m) for m in members]
