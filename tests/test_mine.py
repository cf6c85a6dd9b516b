"""Bootstrap, cross-view iteration, candidate creation, and the full loop."""

import importlib
from collections import Counter
from itertools import product
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from redesc.dataset import BOOLEAN, NUMERIC
from redesc.interchange import read_records, write_records
from redesc.measures import Constraints, Redescription, RedescriptionSet
from redesc.mine import (
    OPERATOR_MODES,
    MiningParams,
    Rule,
    RuleSet,
    combine_disjunctive,
    construct_targets,
    init_rules,
    mine,
)
from redesc.query import (
    Leaf,
    Literal,
    Query,
    TriSupport,
    canonicalize,
    iter_literals,
    mask_to_bools,
    parse_query,
    print_query,
    tri_support,
)
from redesc.refine import construct_and_refine
from redesc.tree import PctParams

from conftest import (
    JACCARD_FLOORS,
    make_dataset,
    mask_rules,
    placeholder_dataset,
    planted_dataset,
    refinement_benefit_dataset,
    rule_supports,
    small_latent_datasets,
)
from reference import from_sets, scalar_disjunction_screen, scalar_pair_screen

# the package re-exports the `mine` function under the submodule's name
mine_module = importlib.import_module("redesc.mine")
refine_module = importlib.import_module("redesc.refine")


def _rule(text, view, view_id):
    q = parse_query(text, view, view_id)
    return Rule(query=q, tri=tri_support(q, view), text=print_query(q, view))


def _bimodal_dataset(seed=2, n=100):
    rng = np.random.default_rng(seed)
    low = rng.uniform(-0.3, 0.3, n // 2)
    high = rng.uniform(9.7, 10.3, n // 2)
    a0 = np.concatenate([low, high])
    a1 = a0 + rng.uniform(-0.1, 0.1, n)
    spec1 = [("a0", NUMERIC, list(np.round(a0, 3))), ("a1", NUMERIC, list(np.round(a1, 3)))]
    spec2 = [("b0", BOOLEAN, [bool(v) for v in rng.integers(0, 2, n)])]
    return make_dataset(spec1, spec2)


class TestInitRules:
    def test_bimodal_column_splits_near_gap(self):
        ds = _bimodal_dataset()
        params = MiningParams(pct=PctParams(max_depth=4, min_leaf_size=5), seed=0)
        rules = init_rules(ds, params)
        assert rules.rules1
        bounds = [
            b
            for rule in rules.rules1
            for lit in iter_literals(rule.query.root)
            for b in (lit.lo, lit.hi)
            if np.isfinite(b)
        ]
        assert any(2.0 < b < 8.0 for b in bounds)

    def test_pure_noise_still_produces_rules(self):
        rng = np.random.default_rng(3)
        n = 80
        spec1 = [(f"a{i}", NUMERIC, list(np.round(rng.uniform(0, 1, n), 4))) for i in range(3)]
        spec2 = [(f"b{i}", BOOLEAN, [bool(v) for v in rng.integers(0, 2, n)]) for i in range(3)]
        ds = make_dataset(spec1, spec2)
        rules = init_rules(ds, MiningParams(pct=PctParams(max_depth=4, min_leaf_size=4), seed=1))
        assert rules.rules1 and rules.rules2

    def test_fixed_seed_reproduces_rule_set(self):
        ds = _bimodal_dataset()
        params = MiningParams(pct=PctParams(max_depth=4, min_leaf_size=5), seed=42)
        a = init_rules(ds, params)
        b = init_rules(ds, params)
        assert [r.text for r in a.rules1] == [r.text for r in b.rules1]
        assert [r.text for r in a.rules2] == [r.text for r in b.rules2]


class TestConstructTargets:
    def _rules(self, masks, n):
        ds = make_dataset(
            [("x", NUMERIC, [0.0] * n)], [("y", NUMERIC, [0.0] * n)]
        )
        q = parse_query("[0.0 <= x <= 1.0]", ds.view1, 1)
        return [
            Rule(query=q, tri=from_sets(m, set(), n), text=f"r{i}")
            for i, m in enumerate(masks)
        ]

    def test_indicator_column(self):
        rules = self._rules([{0, 2}], 3)
        out = construct_targets(rules, 3)
        assert out.shape == (3, 1)
        assert list(out[:, 0]) == [1.0, 0.0, 1.0]

    def test_empty_support_gives_zero_column(self):
        rules = self._rules([set()], 3)
        assert construct_targets(rules, 3).sum() == 0.0

    def test_column_mass_matches_support_sizes(self):
        rng = np.random.default_rng(4)
        masks = [set(int(x) for x in rng.choice(20, rng.integers(0, 20), replace=False)) for _ in range(7)]
        rules = self._rules(masks, 20)
        out = construct_targets(rules, 20)
        assert out.shape == (20, 7)
        assert out.dtype == np.bool_ and out.flags.c_contiguous
        assert [int(c) for c in out.sum(axis=0)] == [len(m) for m in masks]
        for j, rule in enumerate(rules):
            assert out[:, j].tolist() == mask_to_bools(rule.tri.in_mask, 20).tolist()

    def test_window_keeps_most_recent(self):
        rules = self._rules([{0}, {1}, {2}], 3)
        out = construct_targets(rules, 3, window=2)
        assert out.shape == (3, 2)
        assert list(out[:, 0]) == [0.0, 1.0, 0.0]


def _pair_without_refinement(rules1, rules2, constraints, ds) -> list[Redescription]:
    return construct_and_refine(rules1, rules2, RedescriptionSet(), constraints, ds, refine=False).members


class TestPairingWithoutRefinement:
    def _fixture(self):
        n = 30
        x = [1.0] * 12 + [5.0] * 18
        y = [True] * 12 + [False] * 18
        ds = make_dataset([("x", NUMERIC, x)], [("y", BOOLEAN, y)])
        return ds

    def test_identical_supports_kept_at_full_accuracy(self):
        ds = self._fixture()
        r1 = _rule("[0.0 <= x <= 2.0]", ds.view1, 1)
        r2 = _rule("y", ds.view2, 2)
        kept = _pair_without_refinement(
            [r1], [r2], Constraints(min_jaccard=0.9, max_pvalue=0.05, min_support=5), ds
        )
        assert len(kept) == 1 and kept[0].j_qnm == 1.0

    def test_disjoint_supports_discarded(self):
        ds = self._fixture()
        r1 = _rule("[4.0 <= x <= 6.0]", ds.view1, 1)
        r2 = _rule("y", ds.view2, 2)
        kept = _pair_without_refinement(
            [r1], [r2], Constraints(min_jaccard=0.1, max_pvalue=1.0, min_support=1), ds
        )
        assert kept == []

    def test_small_support_discarded_despite_full_accuracy(self):
        n = 30
        x = [1.0] * 5 + [5.0] * 25
        y = [True] * 5 + [False] * 25
        ds = make_dataset([("x", NUMERIC, x)], [("y", BOOLEAN, y)])
        r1 = _rule("[0.0 <= x <= 2.0]", ds.view1, 1)
        r2 = _rule("y", ds.view2, 2)
        kept = _pair_without_refinement(
            [r1], [r2], Constraints(min_jaccard=0.5, max_pvalue=1.0, min_support=10), ds
        )
        assert kept == []


@settings(max_examples=100, deadline=None, derandomize=True)
@given(case=rule_supports(), min_jaccard=JACCARD_FLOORS)
@example(case=(64, [0, 1], [0, 3], 0, None), min_jaccard=0.0)  # empty unions pass at 0
def test_pair_screen_matches_scalar_loop_property(case, min_jaccard):
    n, masks1, masks2, lo, hi = case
    ds = placeholder_dataset(n)
    rules1, rules2 = mask_rules(masks1, 1, n), mask_rules(masks2, 2, n)
    constraints = Constraints(min_jaccard=min_jaccard, max_pvalue=1.0, min_support=lo, max_support=hi)
    # every rule has the same query, so the set keeps one member per key: the
    # spy records each created pair, and with it whether `admits` takes it
    created = []

    class Spy(Redescription):
        @classmethod
        def create(cls, q1, q2, tri1, tri2, dataset):
            red = Redescription.create(q1, q2, tri1, tri2, dataset)
            created.append((
                next(i for i, r in enumerate(rules1) if r.tri is tri1),
                next(j for j, r in enumerate(rules2) if r.tri is tri2),
                constraints.admits(red),
            ))
            return red

    with mock.patch.object(refine_module, "Redescription", Spy):
        construct_and_refine(rules1, rules2, RedescriptionSet(), constraints, ds, refine=False)
    # without unknown cells j_qnm is the screened Jaccard and every p-value is
    # at most 1, so the admitted pairs show the screen: it drops none that
    # the scalar loop keeps, and keeps their order
    admitted = [(i, j) for i, j, admits in created if admits]
    assert admitted == list(scalar_pair_screen(rules1, rules2, constraints))


class TestCombineDisjunctive:
    def _two_box(self):
        n = 60
        A = set(range(0, 15))
        B = set(range(15, 30))
        a0 = []
        for i in range(n):
            if i in A:
                a0.append(0.5)
            elif i in B:
                a0.append(4.5)
            else:
                a0.append(8.5)
        b0 = [i in (A | B) for i in range(n)]
        ds = make_dataset([("a0", NUMERIC, a0)], [("b0", BOOLEAN, b0)])
        return ds, A, B

    def test_two_box_concept_reaches_full_accuracy_in_one_step(self):
        ds, A, B = self._two_box()
        rules = RuleSet()
        rules.add(1, _rule("[0.0 <= a0 <= 1.0]", ds.view1, 1))
        rules.add(1, _rule("[4.0 <= a0 <= 5.0]", ds.view1, 1))
        rules.add(2, _rule("b0", ds.view2, 2))
        base_rule = rules.rules1[0]
        from redesc.measures import Redescription

        base = Redescription.create(
            base_rule.query, rules.rules2[0].query, base_rule.tri, rules.rules2[0].tri, ds
        )
        assert base.j_qnm == 0.5
        constraints = Constraints(min_jaccard=0.4, max_pvalue=1.0, min_support=5)
        params = MiningParams(operator_mode="all", disjunction_threshold=0.4, max_disjuncts=2)
        out = combine_disjunctive([base], rules, constraints, ds, params)
        assert len(out) == 1
        assert out[0].j_qnm == 1.0
        assert "|" in out[0].key[0]

    def test_no_improving_rule_returns_base_unchanged(self):
        ds, A, B = self._two_box()
        rules = RuleSet()
        rules.add(1, _rule("[0.0 <= a0 <= 1.0]", ds.view1, 1))
        rules.add(2, _rule("b0", ds.view2, 2))
        from redesc.measures import Redescription

        base = Redescription.create(
            rules.rules1[0].query,
            rules.rules2[0].query,
            rules.rules1[0].tri,
            rules.rules2[0].tri,
            ds,
        )
        constraints = Constraints(min_jaccard=0.4, max_pvalue=1.0, min_support=5)
        params = MiningParams(operator_mode="all", disjunction_threshold=0.4)
        out = combine_disjunctive([base], rules, constraints, ds, params)
        assert out == [base]

    def test_below_gate_base_passes_through(self):
        ds, A, B = self._two_box()
        rules = RuleSet()
        rules.add(1, _rule("[0.0 <= a0 <= 1.0]", ds.view1, 1))
        rules.add(1, _rule("[4.0 <= a0 <= 5.0]", ds.view1, 1))
        rules.add(2, _rule("b0", ds.view2, 2))
        from redesc.measures import Redescription

        base = Redescription.create(
            rules.rules1[0].query,
            rules.rules2[0].query,
            rules.rules1[0].tri,
            rules.rules2[0].tri,
            ds,
        )
        constraints = Constraints(min_jaccard=0.4, max_pvalue=1.0, min_support=5)
        params = MiningParams(operator_mode="all", disjunction_threshold=0.9)
        out = combine_disjunctive([base], rules, constraints, ds, params)
        assert out == [base]


class _AdmitNothing(Constraints):
    def admits(self, r):
        return False


@settings(max_examples=100, deadline=None, derandomize=True)
@given(
    case=rule_supports(),
    threshold=JACCARD_FLOORS,
    max_disjuncts=st.integers(0, 2),
    data=st.data(),
)
def test_disjunction_screen_matches_scalar_loop_property(case, threshold, max_disjuncts, data):
    n, masks1, masks2, lo, hi = case
    ds = placeholder_dataset(n)
    rules = RuleSet()
    for view_id, masks in ((1, masks1), (2, masks2)):
        for rule in mask_rules(masks, view_id, n):
            assert rules.add(view_id, rule)
    mask = st.integers(0, 2**n - 1)
    base = []
    for _ in range(data.draw(st.integers(1, 4))):
        in1, in2, unk1, unk2 = (data.draw(mask) for _ in range(4))
        base.append(Redescription.create(
            Query(Leaf(Literal(0, BOOLEAN)), 1), Query(Leaf(Literal(0, BOOLEAN)), 2),
            TriSupport(in1, unk1 & ~in1, n), TriSupport(in2, unk2 & ~in2, n), ds,
        ))
    # nothing is admitted, so each gated base tries every improving rule once,
    # best first, and stops after one step
    constraints = _AdmitNothing(min_jaccard=1.0, max_pvalue=1.0, min_support=lo, max_support=hi)
    params = MiningParams(disjunction_threshold=threshold, max_disjuncts=max_disjuncts)
    tried = []

    def spy(red, side, rule, dataset):
        tried.append((side, next(i for i, r in enumerate(rules.rules(side)) if r is rule)))
        return red

    with mock.patch.object(mine_module, "_or_extend", spy):
        out = combine_disjunctive(base, rules, constraints, ds, params)
    assert out == base
    expected = [
        pick
        for red in base
        if red.j_qnm >= threshold
        for pick in scalar_disjunction_screen(red, rules, constraints, (1, 2) if max_disjuncts else ())
    ]
    assert tried == expected


PLANTED_CONSTRAINTS = Constraints(min_jaccard=0.9, max_pvalue=0.01, min_support=10)


def _planted_params(**kw):
    defaults = dict(
        max_iter=3,
        pct=PctParams(max_depth=7, min_leaf_size=5),
        seed=0,
        operator_mode="conjunctive",
    )
    defaults.update(kw)
    return MiningParams(**defaults)


class TestMine:
    @pytest.mark.parametrize("use_refinement", [True, False], ids=["refine", "no-refine"])
    def test_each_rule_pair_scored_once(self, monkeypatch, use_refinement):
        ds, _ = planted_dataset(seed=11)
        scored: list[tuple[str, str]] = []
        blocks: list[int] = []
        refine_flags: set[bool] = set()
        rule_sets = []

        def spy(original):
            def wrapped(rules1, rules2, *args, **kwargs):
                blocks.append(len(rules1) * len(rules2))
                refine_flags.add(kwargs["refine"])
                scored.extend((r1.text, r2.text) for r1, r2 in product(rules1, rules2))
                return original(rules1, rules2, *args, **kwargs)
            return wrapped

        def keep_rules(*args, **kwargs):
            rule_sets.append(init_rules(*args, **kwargs))
            return rule_sets[-1]

        monkeypatch.setattr(refine_module, "construct_and_refine", spy(refine_module.construct_and_refine))
        monkeypatch.setattr(mine_module, "init_rules", keep_rules)
        mine(ds, PLANTED_CONSTRAINTS, _planted_params(max_iter=3, use_refinement=use_refinement))

        (rules,) = rule_sets
        assert refine_flags == {use_refinement}
        assert any(blocks[2:]), "later rounds harvested no new rule"
        counts = Counter(scored)
        assert max(counts.values()) == 1
        assert set(counts) == {
            (r1.text, r2.text) for r1, r2 in product(rules.rules1, rules.rules2)
        }

    @pytest.mark.parametrize("use_refinement", [True, False], ids=["refine", "no-refine"])
    def test_disjunctions_extend_only_current_members(self, monkeypatch, use_refinement):
        """Every base handed to `combine_disjunctive` is a member of the set
        at that point: a candidate that replaced a same-support member and
        was displaced later in the round is not extended."""
        ds, _ = planted_dataset(seed=0)
        sets, bases = [], []
        combine = mine_module.combine_disjunctive

        class Recording(RedescriptionSet):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                sets.append(self)

        def spy(base, *args):
            members = {id(m) for m in sets[-1].members}  # the set the round added to
            bases.append([id(b) in members for b in base])
            return combine(base, *args)

        monkeypatch.setattr(mine_module, "RedescriptionSet", Recording)
        monkeypatch.setattr(mine_module, "combine_disjunctive", spy)
        params = _planted_params(
            max_iter=2,
            pct=PctParams(max_depth=4, min_leaf_size=3),
            use_refinement=use_refinement,
            operator_mode="all",
        )
        mine(ds, Constraints(min_jaccard=0.5, max_pvalue=0.05, min_support=5), params)
        assert any(bases)
        assert all(all(current) for current in bases)

    def test_planted_redescription_recovered(self):
        ds, S = planted_dataset(seed=11)
        result = mine(ds, PLANTED_CONSTRAINTS, _planted_params())
        target = 0
        for e in S:
            target |= 1 << e
        hits = [m for m in result.members if m.supp_mask == target]
        assert hits and any(m.j_qnm == 1.0 for m in hits)

    def test_candidate_count_nondecreasing_in_iterations(self):
        ds, _ = planted_dataset(seed=11)
        small = mine(ds, PLANTED_CONSTRAINTS, _planted_params(max_iter=1))
        large = mine(ds, PLANTED_CONSTRAINTS, _planted_params(max_iter=3))
        assert len(large.members) >= len(small.members)

    def test_monotone_accumulation_of_supports(self):
        ds, _ = planted_dataset(seed=11)
        small = mine(ds, PLANTED_CONSTRAINTS, _planted_params(max_iter=1))
        large = mine(ds, PLANTED_CONSTRAINTS, _planted_params(max_iter=3))
        assert {m.supp_mask for m in small.members} <= {m.supp_mask for m in large.members}

    def test_all_members_satisfy_constraints(self):
        ds, _ = planted_dataset(seed=11)
        result = mine(ds, PLANTED_CONSTRAINTS, _planted_params())
        for m in result.members:
            assert PLANTED_CONSTRAINTS.admits(m)

    def test_no_duplicate_pairs_or_supports(self):
        ds, _ = planted_dataset(seed=11)
        result = mine(ds, PLANTED_CONSTRAINTS, _planted_params())
        keys = [m.key for m in result.members]
        supports = [m.supp_mask for m in result.members]
        assert len(set(keys)) == len(keys)
        assert len(set(supports)) == len(supports)

    def test_noise_corpus_yields_nearly_nothing(self):
        rng = np.random.default_rng(5)
        n = 120
        spec1 = [
            (f"a{i}", NUMERIC, list(np.round(rng.uniform(0, 10, n), 3))) for i in range(6)
        ]
        spec2 = [
            (f"b{i}", BOOLEAN, [bool(v) for v in rng.integers(0, 2, n)]) for i in range(6)
        ]
        ds = make_dataset(spec1, spec2)
        # simulated chance that two random supports of typical rule size agree
        # at the admission floor: it should be negligible
        agreements = 0
        for _ in range(2000):
            s1 = frozenset(int(x) for x in rng.choice(n, 30, replace=False))
            s2 = frozenset(int(x) for x in rng.choice(n, 30, replace=False))
            if len(s1 & s2) / len(s1 | s2) >= 0.9:
                agreements += 1
        assert agreements == 0
        result = mine(
            ds,
            PLANTED_CONSTRAINTS,
            _planted_params(max_iter=2, pct=PctParams(max_depth=5, min_leaf_size=5), seed=3),
        )
        assert len(result.members) <= 2

    def test_refinement_never_hurts_and_sometimes_helps(self):
        ds, S, T = refinement_benefit_dataset()
        constraints = Constraints(
            min_jaccard=0.7, min_ref_jaccard=0.4, max_pvalue=0.01, min_support=10
        )
        on = mine(ds, constraints, _planted_params(max_iter=2, use_refinement=True, operator_mode="conjneg"))
        off = mine(ds, constraints, _planted_params(max_iter=2, use_refinement=False, operator_mode="conjneg"))
        on_by = {m.supp_mask: m.j_qnm for m in on.members}
        off_by = {m.supp_mask: m.j_qnm for m in off.members}
        common = set(on_by) & set(off_by)
        assert common
        assert all(on_by[s] >= off_by[s] - 1e-15 for s in common)
        assert any(on_by[s] > off_by[s] + 1e-15 for s in common)

    def test_memory_cap_trims_via_reduction(self):
        ds, _ = planted_dataset(seed=11)
        constraints = Constraints(min_jaccard=0.5, max_pvalue=0.05, min_support=10)
        result = mine(
            ds,
            constraints,
            _planted_params(max_iter=2, max_set_size=10, operator_mode="conjneg"),
        )
        assert len(result.members) <= 10


@st.composite
def small_mining_cases(draw):
    """A drawn small dataset with mining settings under which the set trim runs."""
    ds = draw(small_latent_datasets())
    params = MiningParams(
        max_iter=2,
        pct=PctParams(max_depth=3, min_leaf_size=3),
        seed=draw(st.integers(0, 1000)),
        use_refinement=draw(st.booleans()),
        operator_mode=draw(st.sampled_from(OPERATOR_MODES)),
        max_set_size=draw(st.sampled_from([3, 6, 12])),
    )
    return ds, params


@settings(max_examples=25, deadline=None, derandomize=True)
@given(case=small_mining_cases())
def test_mined_members_are_canonical_and_read_back_property(tmp_path_factory, case):
    """Every builder leaves canonical queries: the key is their canonical text,
    and the written set reads back with the same keys in the same order."""
    ds, params = case
    result = mine(ds, Constraints(min_jaccard=0.3, max_pvalue=0.5, min_support=3), params)
    assert len(result) <= params.max_set_size
    for m in result:
        assert m.q1 == canonicalize(m.q1) and m.q2 == canonicalize(m.q2)
        assert m.key == (print_query(m.q1, ds.view1), print_query(m.q2, ds.view2))
    path = tmp_path_factory.mktemp("mined") / "mined.tsv"
    write_records(path, result)
    members, rejected = read_records(path, ds)
    assert not rejected
    assert [m.key for m in members] == [m.key for m in result]
