"""Support-preserving conjunctive refinement and its guarantees."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import redesc.refine as refine_module
from redesc.dataset import BOOLEAN, NUMERIC
from redesc.measures import Constraints, Redescription, RedescriptionSet
from redesc.mine import Rule
from redesc.query import (
    And,
    Leaf,
    Literal,
    Or,
    Query,
    canonicalize,
    iter_literals,
    parse_query,
    print_query,
    tri_support,
)
from redesc.refine import construct_and_refine, refine_pair, tighten_bounds

from conftest import JACCARD_FLOORS, make_dataset, mask_rules, placeholder_dataset, rule_supports
from reference import full_build_refine_pair, scalar_refinement_screen, strict_witness


def random_two_view_dataset(rng, n_rows, missing_rate=0.1):
    def numeric(name):
        vals = [
            None if rng.random() < missing_rate else round(float(v), 3)
            for v in rng.uniform(0, 10, n_rows)
        ]
        return (name, NUMERIC, vals)

    def boolean(name):
        vals = [
            None if rng.random() < missing_rate else bool(b)
            for b in rng.integers(0, 2, n_rows)
        ]
        return (name, BOOLEAN, vals)

    spec1 = [numeric("x0"), numeric("x1"), boolean("f0")]
    spec2 = [numeric("y0"), numeric("y1"), boolean("g0")]
    return make_dataset(spec1, spec2)


def random_conjunctive(rng, view, view_id, max_literals=3):
    leaves = []
    for attr_id in rng.choice(view.n_cols, int(rng.integers(1, max_literals + 1)), replace=False):
        attr = view.attributes[int(attr_id)]
        if attr.kind == NUMERIC:
            col = view.columns[int(attr_id)]
            obs = col[~np.isnan(col)]
            # wide intervals keep most fuzzed supports non-empty
            lo = np.quantile(obs, rng.uniform(0.0, 0.35))
            hi = np.quantile(obs, rng.uniform(0.65, 1.0))
            leaves.append(Leaf(Literal(int(attr_id), NUMERIC, float(lo), float(hi))))
        else:
            leaves.append(Leaf(Literal(int(attr_id), BOOLEAN, negated=bool(rng.random() < 0.15))))
    root = leaves[0] if len(leaves) == 1 else And(tuple(leaves))
    return canonicalize(Query(root, view_id))


def nested_pair(rng, dataset):
    """(r, ref) with supp(r) ⊆ supp(ref) by construction: r conjoins extra
    literals onto ref's queries."""
    ref_q1 = random_conjunctive(rng, dataset.view1, 1, 2)
    ref_q2 = random_conjunctive(rng, dataset.view2, 2, 2)
    extra1 = random_conjunctive(rng, dataset.view1, 1, 1)
    extra2 = random_conjunctive(rng, dataset.view2, 2, 1)
    r_q1 = canonicalize(Query(And((ref_q1.root, extra1.root)), 1))
    r_q2 = canonicalize(Query(And((ref_q2.root, extra2.root)), 2))
    ref = Redescription.evaluate(ref_q1, ref_q2, dataset)
    r = Redescription.evaluate(r_q1, r_q2, dataset)
    return r, ref


class TestTightenBounds:
    def test_interval_shrinks_to_observed_hull(self):
        values = [12.1, 15.0, 18.5, 21.2, 40.0, 5.0]
        ds = make_dataset(
            [("p6", NUMERIC, values)],
            [("g", BOOLEAN, [True, True, True, True, False, False])],
        )
        q1 = Query(Leaf(Literal(0, NUMERIC, 0.0, 100.0)), 1)
        q2 = Query(Leaf(Literal(0, BOOLEAN)), 2)
        ref = Redescription.evaluate(q1, q2, ds)
        tightened = tighten_bounds(ref, 0b1111, ds)
        lit = next(iter_literals(tightened.q1.root))
        assert (lit.lo, lit.hi) == (12.1, 21.2)

    def test_own_support_hull_keeps_support(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            ds = random_two_view_dataset(rng, 30)
            q1 = random_conjunctive(rng, ds.view1, 1)
            q2 = random_conjunctive(rng, ds.view2, 2)
            ref = Redescription.evaluate(q1, q2, ds)
            tightened = tighten_bounds(ref, ref.supp_mask, ds)
            assert tightened.supp_mask == ref.supp_mask

    def test_containment_chain(self):
        rng = np.random.default_rng(2)
        checked = 0
        for _ in range(200):
            ds = random_two_view_dataset(rng, 25)
            r, ref = nested_pair(rng, ds)
            if r.supp_mask == 0:
                continue
            tightened = tighten_bounds(ref, r.supp_mask, ds)
            assert r.supp_mask & ~tightened.supp_mask == 0
            assert tightened.supp_mask & ~ref.supp_mask == 0
            checked += 1
        assert checked > 50

    def test_intervals_never_grow(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            ds = random_two_view_dataset(rng, 25)
            r, ref = nested_pair(rng, ds)
            tightened = tighten_bounds(ref, r.supp_mask, ds)
            for before, after in zip(
                iter_literals(ref.q1.root), iter_literals(tightened.q1.root)
            ):
                if before.kind == NUMERIC and not before.negated:
                    assert after.lo >= before.lo
                    assert after.hi <= before.hi

    def test_result_is_canonical(self):
        # a parsed refiner keeps overlapping intervals, which the hull makes equal
        ds = make_dataset(
            [("x", NUMERIC, [1.0, 2.0, 3.0, 4.0, 8.0])],
            [("g", BOOLEAN, [True, True, True, True, False])],
        )
        q1 = parse_query("[0.0 <= x <= 5.0] & [1.0 <= x <= 9.0]", ds.view1, 1)
        ref = Redescription.evaluate(q1, parse_query("g", ds.view2, 2), ds)
        tightened = tighten_bounds(ref, 0b0110, ds)
        assert tightened.q1 == canonicalize(tightened.q1)
        assert tightened.key == ("[2.0 <= x <= 3.0]", "g")

    def test_disjunctive_refiner_refused(self):
        ds = make_dataset(
            [("x", NUMERIC, [1.0, 2.0])], [("g", BOOLEAN, [True, False])]
        )
        q1 = Query(
            Or((Leaf(Literal(0, NUMERIC, 0, 1)), Leaf(Literal(0, NUMERIC, 2, 3)))), 1
        )
        q2 = Query(Leaf(Literal(0, BOOLEAN)), 2)
        ref = Redescription.evaluate(q1, q2, ds)
        with pytest.raises(ValueError, match="conjunctive"):
            tighten_bounds(ref, 0, ds)


class TestRefinePair:
    def test_non_subset_leaves_input_unchanged(self):
        ds = make_dataset(
            [("x", NUMERIC, [1.0, 2.0, 3.0, 4.0])],
            [("g", BOOLEAN, [True, True, False, False])],
        )
        r = Redescription.evaluate(
            Query(Leaf(Literal(0, NUMERIC, 0, 2.5)), 1),
            Query(Leaf(Literal(0, BOOLEAN)), 2),
            ds,
        )
        ref = Redescription.evaluate(
            Query(Leaf(Literal(0, NUMERIC, 3, 5)), 1),
            Query(Leaf(Literal(0, BOOLEAN)), 2),
            ds,
        )
        outcome = refine_pair(r, ref, ds)
        assert not outcome.applied
        assert outcome.refined == r

    def test_self_refinement_is_neutral(self):
        rng = np.random.default_rng(4)
        for _ in range(40):
            ds = random_two_view_dataset(rng, 20)
            q1 = random_conjunctive(rng, ds.view1, 1)
            q2 = random_conjunctive(rng, ds.view2, 2)
            r = Redescription.evaluate(q1, q2, ds)
            outcome = refine_pair(r, r, ds)
            assert outcome.applied
            assert outcome.refined.supp_mask == r.supp_mask
            assert outcome.refined.j_qnm == pytest.approx(r.j_qnm, abs=1e-15)
            assert not outcome.improved

    def test_constructed_witness_strictly_improves(self):
        # instance 4 is described by r's first query only and escapes the
        # tightened refiner, so the union must shrink
        ds = make_dataset(
            [("x", NUMERIC, [1.0, 2.0, 3.0, 4.0, 9.0, 20.0])],
            [("y", NUMERIC, [1.0, 1.0, 1.0, 1.0, 5.0, 9.0])],
        )
        r = Redescription.evaluate(
            Query(Leaf(Literal(0, NUMERIC, 0.0, 10.0)), 1),
            Query(Leaf(Literal(0, NUMERIC, 0.0, 2.0)), 2),
            ds,
        )
        ref = Redescription.evaluate(
            Query(Leaf(Literal(0, NUMERIC, 0.0, 30.0)), 1),
            Query(Leaf(Literal(0, NUMERIC, 0.0, 30.0)), 2),
            ds,
        )
        assert r.supp_mask & ~ref.supp_mask == 0
        outcome = refine_pair(r, ref, ds)
        tightened = tighten_bounds(ref, r.supp_mask, ds)
        assert strict_witness(r, tightened)
        assert outcome.improved
        assert outcome.refined.supp_mask == r.supp_mask
        assert outcome.refined.j_qnm > r.j_qnm

    def test_guarantees_hold_on_fuzzed_nested_pairs(self):
        rng = np.random.default_rng(5)
        applied = 0
        for _ in range(400):
            ds = random_two_view_dataset(rng, 24)
            r, ref = nested_pair(rng, ds)
            if r.supp_mask == 0:
                continue
            outcome = refine_pair(r, ref, ds)
            assert outcome.applied
            assert outcome.refined.supp_mask == r.supp_mask
            assert outcome.refined.j_qnm >= r.j_qnm - 1e-15
            if r.key == ref.key:
                assert outcome.refined == r  # self-refinement is the identity
                continue
            tightened = tighten_bounds(ref, r.supp_mask, ds)
            if strict_witness(r, tightened):
                assert outcome.refined.j_qnm > r.j_qnm
            applied += 1
        assert applied > 150


def _tenths(lo: float, hi: float):
    return st.floats(lo, hi).map(lambda v: round(v, 1))


def _small_dataset(draw):
    """Two small views, three columns each, with missing cells."""
    n = draw(st.integers(1, 30))

    def column(name, kind, values):
        cells = draw(st.lists(values, min_size=n, max_size=n))
        for i in draw(st.lists(st.integers(0, n - 1), max_size=n // 4)):
            cells[i] = None  # a missing cell
        return (name, kind, cells)

    num, flag = _tenths(0.0, 10.0), st.booleans()
    return make_dataset(
        [column("x0", NUMERIC, num), column("x1", NUMERIC, num), column("f0", BOOLEAN, flag)],
        [column("y0", NUMERIC, num), column("y1", NUMERIC, num), column("g0", BOOLEAN, flag)],
    )


def _small_leaf(draw, view):
    attr = draw(st.integers(0, view.n_cols - 1))
    if view.attributes[attr].kind == BOOLEAN:
        return Leaf(Literal(attr, BOOLEAN, negated=draw(st.booleans())))
    # wide intervals keep most supports non-empty
    return Leaf(Literal(attr, NUMERIC, draw(_tenths(-1.0, 4.0)), draw(_tenths(6.0, 11.0))))


@st.composite
def nested_pairs(draw):
    """(dataset, r, ref): two small views with missing cells, and r's queries
    conjoin one more literal onto ref's, so supp(r) ⊆ supp(ref)."""
    ds = _small_dataset(draw)
    queries = {}
    for view_id, view in ((1, ds.view1), (2, ds.view2)):
        leaves = [_small_leaf(draw, view) for _ in range(draw(st.integers(1, 2)))]
        ref_root = leaves[0] if len(leaves) == 1 else And(tuple(leaves))
        queries[view_id] = (
            canonicalize(Query(And((ref_root, _small_leaf(draw, view))), view_id)),
            canonicalize(Query(ref_root, view_id)),
        )
    r = Redescription.evaluate(queries[1][0], queries[2][0], ds)
    ref = Redescription.evaluate(queries[1][1], queries[2][1], ds)
    return ds, r, ref


@settings(max_examples=100, deadline=None, derandomize=True)
@given(nested_pairs())
def test_refinement_keeps_support_and_accuracy_property(case):
    ds, r, ref = case
    outcome = refine_pair(r, ref, ds)
    assert outcome.applied  # nested and conjunctive by construction
    assert outcome.refined.supp_mask == r.supp_mask
    assert outcome.refined.j_qnm >= r.j_qnm


@st.composite
def unrelated_pairs(draw):
    """(dataset, r, ref) drawn independently: the supports are rarely nested,
    and a refiner query is sometimes a disjunction."""
    ds = _small_dataset(draw)

    def query(view, view_id):
        leaves = [_small_leaf(draw, view) for _ in range(draw(st.integers(1, 3)))]
        if len(leaves) == 1:
            return Query(leaves[0], view_id)
        ctor = draw(st.sampled_from([And, And, Or]))
        return canonicalize(Query(ctor(tuple(leaves)), view_id))

    r, ref = (
        Redescription.evaluate(query(ds.view1, 1), query(ds.view2, 2), ds) for _ in range(2)
    )
    return ds, r, ref


def _assert_matches_full_build(ds, r, ref):
    for a, b in ((r, ref), (ref, r), (r, r)):
        got = refine_pair(a, b, ds)
        want = full_build_refine_pair(a, b, ds)
        assert (got.improved, got.applied) == (want.improved, want.applied)
        assert got.refined == (want.refined if want.improved else a)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(nested_pairs())
def test_matches_full_build_on_nested_pairs_property(case):
    _assert_matches_full_build(*case)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(unrelated_pairs())
def test_matches_full_build_on_unrelated_pairs_property(case):
    _assert_matches_full_build(*case)


def _rule(q_text, view, view_id, dataset):
    from redesc.query import parse_query

    q = parse_query(q_text, view, view_id)
    return Rule(query=q, tri=tri_support(q, view), text=print_query(q, view))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(case=rule_supports(), ref_jaccard=JACCARD_FLOORS)
@example(case=(64, [0, 1], [0, 3], 0, None), ref_jaccard=0.0)  # empty unions pass at 0
def test_refinement_screen_matches_scalar_loop_property(case, ref_jaccard):
    n, masks1, masks2, _, _ = case
    ds = placeholder_dataset(n)
    rules1, rules2 = mask_rules(masks1, 1, n), mask_rules(masks2, 2, n)
    # a support floor above n admits no candidate, so the set stays empty and
    # each screened pair is created once, in screen order
    constraints = Constraints(min_jaccard=1.0, min_ref_jaccard=ref_jaccard, min_support=n + 1)
    created = []

    class Spy(Redescription):
        @classmethod
        def create(cls, q1, q2, tri1, tri2, dataset):
            created.append((
                next(i for i, r in enumerate(rules1) if r.tri is tri1),
                next(j for j, r in enumerate(rules2) if r.tri is tri2),
            ))
            return Redescription.create(q1, q2, tri1, tri2, dataset)

    rset = RedescriptionSet()
    with mock.patch.object(refine_module, "Redescription", Spy):
        construct_and_refine(rules1, rules2, rset, constraints, ds)
    assert len(rset) == 0
    assert created == list(scalar_refinement_screen(rules1, rules2, constraints))


class TestConstructAndRefine:
    def _fixture(self):
        # ten instances; r_main describes {0..3} on both sides; the wide rules
        # describe supersets that tighten onto it
        x = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0]
        y = [1.0, 1.5, 2.0, 2.5, 9.0, 9.1, 9.2, 9.3, 9.4, 9.5]
        ds = make_dataset([("x", NUMERIC, x)], [("y", NUMERIC, y)])
        return ds

    def test_low_accuracy_candidate_improves_member_but_stays_out(self):
        ds = self._fixture()
        member = Redescription.evaluate(
            Query(Leaf(Literal(0, NUMERIC, 0.0, 4.5)), 1),
            Query(Leaf(Literal(0, NUMERIC, 0.0, 2.2)), 2),
            ds,
        )
        assert member.supp_mask == 0b111 and member.j_qnm == 0.75
        rset = RedescriptionSet()
        rset.add(member)
        # candidate pair: j = 4/10 = 0.4, inside [min_ref_jaccard, min_jaccard);
        # its support strictly contains the member's, so it refines the member
        # but cannot itself be refined past the admission floor
        rules1 = [_rule("[0.0 <= x <= 20.0]", ds.view1, 1, ds)]
        rules2 = [_rule("[0.0 <= y <= 3.0]", ds.view2, 2, ds)]
        constraints = Constraints(
            min_jaccard=0.9, min_ref_jaccard=0.3, max_pvalue=1.0, min_support=1
        )
        before_j = member.j_qnm
        construct_and_refine(rules1, rules2, rset, constraints, ds)
        assert len(rset.members) == 1  # candidate itself was never admitted
        refined = rset.members[0]
        assert refined.supp_mask == member.supp_mask
        assert refined.j_qnm > before_j

    def test_collapses_to_plain_creation_when_floors_match(self):
        ds = self._fixture()
        rules1 = [
            _rule("[0.0 <= x <= 4.5]", ds.view1, 1, ds),
            _rule("[0.0 <= x <= 20.0]", ds.view1, 1, ds),
        ]
        rules2 = [
            _rule("[0.0 <= y <= 3.0]", ds.view2, 2, ds),
            _rule("[0.0 <= y <= 20.0]", ds.view2, 2, ds),
        ]
        constraints = Constraints(min_jaccard=0.9, max_pvalue=1.0, min_support=1)
        rset = RedescriptionSet()
        construct_and_refine(rules1, rules2, rset, constraints, ds)
        plain = construct_and_refine(rules1, rules2, RedescriptionSet(), constraints, ds, refine=False)
        assert {m.supp_mask for m in rset.members} == {p.supp_mask for p in plain.members}
        for member in rset.members:
            assert member.j_qnm >= 0.9

    def test_member_supports_never_change(self):
        rng = np.random.default_rng(6)
        ds = random_two_view_dataset(rng, 30, missing_rate=0.05)
        rules1 = [
            Rule(query=q, tri=tri_support(q, ds.view1), text=print_query(q, ds.view1))
            for q in (random_conjunctive(rng, ds.view1, 1) for _ in range(6))
        ]
        rules2 = [
            Rule(query=q, tri=tri_support(q, ds.view2), text=print_query(q, ds.view2))
            for q in (random_conjunctive(rng, ds.view2, 2) for _ in range(6))
        ]
        constraints = Constraints(min_jaccard=0.3, min_ref_jaccard=0.1, max_pvalue=1.0, min_support=1)
        rset = RedescriptionSet()
        construct_and_refine(rules1[:3], rules2[:3], rset, constraints, ds)
        supports_before = [m.supp_mask for m in rset.members]
        construct_and_refine(rules1[3:], rules2[3:], rset, constraints, ds)
        assert [m.supp_mask for m in rset.members][: len(supports_before)] == supports_before

    def test_member_after_a_refined_member_is_still_refined(self):
        # a and m have distinct supports, both nested in the candidate's: the
        # walk refines a in place and goes on to refine m in place too
        ds = self._fixture()
        rules1 = [_rule("[0.0 <= x <= 20.0]", ds.view1, 1, ds)]
        rules2 = [_rule("[0.0 <= y <= 3.0]", ds.view2, 2, ds)]
        a = Redescription.evaluate(
            Query(Leaf(Literal(0, NUMERIC, 0.0, 4.5)), 1),
            Query(Leaf(Literal(0, NUMERIC, 0.0, 2.2)), 2),
            ds,
        )
        m = Redescription.evaluate(
            Query(Leaf(Literal(0, NUMERIC, 0.0, 3.5)), 1),
            Query(Leaf(Literal(0, NUMERIC, 0.0, 1.7)), 2),
            ds,
        )
        assert (a.supp_mask, m.supp_mask) == (0b111, 0b11)
        rset = RedescriptionSet()
        for member in (a, m):
            assert rset.add(member)
        constraints = Constraints(
            min_jaccard=0.9, min_ref_jaccard=0.3, max_pvalue=1.0, min_support=1
        )
        construct_and_refine(rules1, rules2, rset, constraints, ds)
        assert [r.supp_mask for r in rset.members] == [a.supp_mask, m.supp_mask]
        for refined, before in zip(rset.members, (a, m)):
            assert refined.j_qnm > before.j_qnm
