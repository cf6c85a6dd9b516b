"""Three-valued evaluation, the per-view literal memo, grammar round-trips,
and minimization."""

import dataclasses
from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import redesc.query as query_module
from redesc.dataset import (
    BOOLEAN,
    CATEGORICAL,
    NUMERIC,
    SchemaError,
    View,
    concat_rows,
    make_artificial,
)
from redesc.query import (
    And,
    Literal,
    Or,
    Query,
    QueryStructureError,
    QuerySyntaxError,
    canonicalize,
    is_conjunctive,
    iter_literals,
    memoize_literals,
    minimize_query,
    pack_masks,
    parse_query,
    print_query,
    tri_support,
    unpack_rows,
)

from conftest import _random_literal, _random_node, make_view, random_query, random_view
from reference import (
    FALSE,
    TRUE,
    UNKNOWN,
    Not,
    check_attrs,
    eval_query,
    in_set,
    raw_text,
    reference_minimize,
    reference_tokenize,
    row_support,
    row_values,
    unk_set,
    value_at,
)


def _interval(attr, lo=float("-inf"), hi=float("inf"), negated=False):
    return Literal(attr, NUMERIC, lo, hi, negated=negated)


# row counts on both sides of the byte and 64-bit word edges of the masks
EDGE_ROWS = [1, 7, 8, 9, 63, 64, 65]


def _raw_query_view(seed, n_rows, depth, missing):
    """A view with numeric, boolean and categorical columns, and a raw
    (uncanonicalized) query tree over it: nested same-operator nodes,
    duplicate children and negated literals all occur."""
    rng = np.random.default_rng(seed)
    try:
        view = random_view(rng, n_rows, n_num=2, n_bool=1, n_cat=1, missing_rate=missing)
    except SchemaError:  # every categorical cell missing: no label to test
        assume(False)
    return view, Query(_random_node(rng, view, depth))


def _tri_values(tri):
    return [
        TRUE if tri.in_mask >> r & 1 else UNKNOWN if tri.unk_mask >> r & 1 else FALSE
        for r in range(tri.n)
    ]


def _cold_copy(view):
    """The same cells in a new view, whose literal memo starts empty."""
    return View(view.attributes, view.columns)


class TestKleeneSemantics:
    def test_literal_on_missing_is_unknown(self):
        view = make_view([("x", NUMERIC, [None])])
        q = Query(_interval(0, 0.0, 5.0))
        assert eval_query(q, view, 0) == UNKNOWN

    @pytest.mark.parametrize(
        "a,b,expected",
        [
            (TRUE, TRUE, TRUE),
            (TRUE, FALSE, FALSE),
            (TRUE, UNKNOWN, UNKNOWN),
            (FALSE, FALSE, FALSE),
            (FALSE, UNKNOWN, FALSE),
            (UNKNOWN, UNKNOWN, UNKNOWN),
        ],
    )
    def test_and_table(self, a, b, expected):
        view, q = self._two_input_query(And, a, b)
        assert eval_query(q, view, 0) == expected

    @pytest.mark.parametrize(
        "a,b,expected",
        [
            (TRUE, TRUE, TRUE),
            (TRUE, FALSE, TRUE),
            (TRUE, UNKNOWN, TRUE),
            (FALSE, FALSE, FALSE),
            (FALSE, UNKNOWN, UNKNOWN),
            (UNKNOWN, UNKNOWN, UNKNOWN),
        ],
    )
    def test_or_table(self, a, b, expected):
        view, q = self._two_input_query(Or, a, b)
        assert eval_query(q, view, 0) == expected

    @pytest.mark.parametrize("v,expected", [(TRUE, FALSE), (FALSE, TRUE), (UNKNOWN, UNKNOWN)])
    def test_not_table(self, v, expected):
        cell = {TRUE: 1.0, FALSE: 10.0, UNKNOWN: None}[v]
        view = make_view([("x", NUMERIC, [cell])])
        q = Query(Not(_interval(0, 0.0, 5.0)))
        assert eval_query(q, view, 0) == expected

    @staticmethod
    def _two_input_query(ctor, a, b):
        # one column per operand; value 1.0 hits [0,5], 10.0 misses, None unknown
        cell = {TRUE: 1.0, FALSE: 10.0, UNKNOWN: None}
        view = make_view([("x", NUMERIC, [cell[a]]), ("y", NUMERIC, [cell[b]])])
        q = Query(ctor((_interval(0, 0.0, 5.0), _interval(1, 0.0, 5.0))))
        return view, q

    def test_information_monotonicity(self):
        # a definite outcome never changes when a missing cell gets a value
        rng = np.random.default_rng(42)
        checked = 0
        for _ in range(200):
            view = random_view(rng, 6, n_num=2, n_bool=1, missing_rate=0.4)
            q = random_query(rng, view, depth=2)
            for row in range(view.n_rows):
                before = eval_query(q, view, row)
                if before == UNKNOWN:
                    continue
                missing_cols = [
                    j for j in range(view.n_cols) if bool(view.missing_mask(j)[row])
                ]
                if not missing_cols:
                    continue
                j = missing_cols[0]
                resolved = [list(c) for c in view.columns]
                resolved[j][row] = float(rng.uniform(-5, 5)) if view.attributes[j].kind == NUMERIC else float(rng.integers(0, 2))
                patched = make_view(
                    [
                        (a.name, a.kind, [v if not np.isnan(v) else None for v in col])
                        for a, col in zip(view.attributes, (np.array(c) for c in resolved))
                    ]
                )
                assert eval_query(q, patched, row) == before
                checked += 1
        assert checked > 100


class TestTriSupport:
    def test_complete_data_has_no_unknowns(self):
        rng = np.random.default_rng(0)
        view = random_view(rng, 20)
        q = random_query(rng, view)
        assert unk_set(tri_support(q, view)) == frozenset()

    def test_single_literal_partition(self):
        view = make_view([("x", NUMERIC, [0.5, 2.0, None])])
        q = Query(_interval(0, 0.0, 1.0))
        tri = tri_support(q, view)
        assert in_set(tri) == frozenset({0})
        assert unk_set(tri) == frozenset({2})

    def test_vectorized_matches_row_interpreter(self):
        # oracle: the row-by-row interpreter, kept independent of the
        # columnwise path
        rng = np.random.default_rng(17)
        for _ in range(150):
            view = random_view(rng, 20, n_num=3, n_bool=1, n_cat=1, missing_rate=0.1)
            q = random_query(rng, view, depth=3)
            tri = tri_support(q, view)
            expected_in = {r for r in range(20) if eval_query(q, view, r) == TRUE}
            expected_unk = {r for r in range(20) if eval_query(q, view, r) == UNKNOWN}
            assert in_set(tri) == expected_in
            assert unk_set(tri) == expected_unk

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n_rows=st.sampled_from(EDGE_ROWS),
        depth=st.integers(0, 4),
        missing=st.sampled_from([0.0, 0.2]),
    )
    def test_matches_row_interpreter_property(self, seed, n_rows, depth, missing):
        view, q = _raw_query_view(seed, n_rows, depth, missing)
        assert _tri_values(tri_support(q, view)) == row_values(q, view)

    def test_attribute_out_of_range_rejected(self):
        view = make_view([("x", NUMERIC, [1.0])])
        from redesc.query import QueryStructureError

        with pytest.raises(QueryStructureError):
            tri_support(Query(_interval(5, 0, 1)), view)

    def test_complete_data_agrees_with_two_valued_semantics(self):
        # brute-force boolean interpreter, no third truth value anywhere
        def two_valued(node, view, row):
            if isinstance(node, Literal):
                lit = node
                attr = view.attributes[lit.attr]
                cell = value_at(view, row, lit.attr)
                if attr.kind == NUMERIC:
                    holds = lit.lo <= cell <= lit.hi
                elif attr.kind == "boolean":
                    holds = cell is True
                else:
                    holds = cell == lit.category
                return not holds if lit.negated else holds
            if isinstance(node, And):
                return all(two_valued(c, view, row) for c in node.children)
            return any(two_valued(c, view, row) for c in node.children)

        rng = np.random.default_rng(99)
        for _ in range(200):
            view = random_view(rng, 10, n_num=2, n_bool=1, n_cat=1, missing_rate=0.0)
            q = random_query(rng, view, depth=3)
            for row in range(view.n_rows):
                got = eval_query(q, view, row)
                assert got in (TRUE, FALSE)
                assert (got == TRUE) == two_valued(q.root, view, row)

    def test_set_level_and_or_match_reevaluation(self):
        rng = np.random.default_rng(23)
        for _ in range(60):
            view = random_view(rng, 15, n_num=2, n_bool=1, missing_rate=0.2)
            qa = random_query(rng, view, depth=2)
            qb = random_query(rng, view, depth=2)
            ta, tb = tri_support(qa, view), tri_support(qb, view)
            t_and = tri_support(Query(And((qa.root, qb.root))), view)
            t_or = tri_support(Query(Or((qa.root, qb.root))), view)
            assert ta.intersect(tb) == t_and
            assert ta.union(tb) == t_or


@settings(max_examples=150, deadline=None, derandomize=True)
@given(n=st.one_of(st.sampled_from([1, 63, 64, 65, 128]), st.integers(1, 300)), data=st.data())
def test_unpack_rows_puts_bit_i_in_column_i_property(n, data):
    masks = data.draw(st.lists(st.integers(0, 2**n - 1), max_size=6))
    bits = unpack_rows(pack_masks(masks, n), n)
    assert bits.dtype == np.bool_ and bits.shape == (len(masks), n)
    assert bits.tolist() == [[bool(mask >> i & 1) for i in range(n)] for mask in masks]


class TestGrammar:
    def test_interval_conjunction_example(self):
        view = make_view([("t7", NUMERIC, [0.0]), ("p6", NUMERIC, [15.0])])
        q = parse_query("[ -1.8 <= t7 <= 4.4 ] & [ 12.1 <= p6 <= 21.2 ]", view)
        assert isinstance(q.root, And)
        lits = q.root.children
        assert [(l.lo, l.hi) for l in lits] == [(-1.8, 4.4), (12.1, 21.2)]

    def test_boolean_negation_example(self):
        view = make_view(
            [
                ("Woodmouse", BOOLEAN, [True]),
                ("ArcticFox", BOOLEAN, [True]),
                ("MountainHare", BOOLEAN, [False]),
            ]
        )
        q = parse_query("Woodmouse & ArcticFox & !MountainHare", view)
        assert isinstance(q.root, And)
        negs = [c.negated for c in q.root.children]
        assert sorted(negs) == [False, False, True]

    def test_inverted_bounds_rejected(self):
        view = make_view([("x", NUMERIC, [1.0])])
        with pytest.raises(QuerySyntaxError, match="inverted"):
            parse_query("[5 <= x <= 3]", view)

    def test_unknown_attribute_rejected(self):
        view = make_view([("x", NUMERIC, [1.0])])
        with pytest.raises(QuerySyntaxError, match="unknown attribute"):
            parse_query("y", view)

    @pytest.mark.parametrize("opener, closer", [("(", ")"), ("!", "")], ids=["paren", "not"])
    def test_nesting_past_the_bound_rejected_at_its_token(self, opener, closer):
        # the parser recurses per level: past the bound it stops with a syntax
        # error instead of exhausting Python's recursion limit
        view = make_view([("x", BOOLEAN, [True, False])])
        bound = query_module._MAX_NESTING
        q = parse_query(opener * bound + "x" + closer * bound, view)
        assert q.root == Literal(0, BOOLEAN, negated=opener == "!" and bound % 2 == 1)
        message = rf"nest more than {bound} deep \(at position {bound}\)"
        for depth in (bound + 1, 5000):
            with pytest.raises(QuerySyntaxError, match=message):
                parse_query(opener * depth + "x" + closer * depth, view)

    def test_and_binds_tighter_than_or(self):
        view = make_view([(n, BOOLEAN, [True]) for n in ("a", "b", "c")])
        q = parse_query("a | b & c", view)
        assert isinstance(q.root, Or)

    def test_infinite_bounds_round_trip(self):
        view = make_view([("x", NUMERIC, [1.0])])
        q = parse_query("[-inf <= x <= 3.5]", view)
        assert print_query(q, view) == "[-inf <= x <= 3.5]"

    def test_parse_print_identity_fuzz(self):
        rng = np.random.default_rng(5)
        for _ in range(300):
            view = random_view(rng, 8, n_num=2, n_bool=2, n_cat=1)
            q = random_query(rng, view, depth=3)
            text = print_query(q, view)
            assert parse_query(text, view) == canonicalize(q)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(
        seed=st.integers(0, 2**32 - 1),
        depth=st.integers(0, 3),
        missing=st.sampled_from([0.0, 0.2]),
    )
    def test_canonical_form_property(self, seed, depth, missing):
        # raw trees, not canonicalized: nested same-operator nodes and
        # duplicate children occur
        rng = np.random.default_rng(seed)
        view = random_view(rng, 8, n_num=2, n_bool=2, n_cat=1, missing_rate=missing)
        raw = Query(_random_node(rng, view, depth))
        canon = canonicalize(raw)
        assert canonicalize(canon) == canon
        assert parse_query(print_query(raw, view), view) == canon
        assert print_query(canon, view) == print_query(raw, view)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n_rows=st.sampled_from(EDGE_ROWS),
        depth=st.integers(0, 4),
        missing=st.sampled_from([0.0, 0.2]),
    )
    def test_negation_over_groups_property(self, seed, n_rows, depth, missing):
        # `!(...)` over any group parses to negated literals under swapped
        # connectives; strong Kleene logic keeps every row's value
        rng = np.random.default_rng(seed)
        try:
            view = random_view(rng, n_rows, n_num=2, n_bool=1, n_cat=1, missing_rate=missing)
        except SchemaError:  # every categorical cell missing: no label to test
            assume(False)
        raw = Query(_random_node(rng, view, depth, nots=True))
        q = parse_query(raw_text(raw.root, view), view)
        assert _tri_values(tri_support(q, view)) == row_values(raw, view)
        text = print_query(q, view)
        assert "!(" not in text
        assert parse_query(text, view) == q

    def test_negated_group_prints_on_its_literals(self):
        view = make_view([(n, BOOLEAN, [True]) for n in ("a", "b", "c")])
        assert print_query(parse_query("!(a & !b)", view), view) == "!a | b"
        assert print_query(parse_query("!(a | b & c)", view), view) == "!a & (!b | !c)"
        assert parse_query("!!(a | b)", view) == parse_query("a | b", view)

    def test_categorical_equality_round_trip(self):
        view = make_view([("k", "categorical", ["red", "blue", "red"])])
        q = parse_query("k=red", view)
        assert in_set(tri_support(q, view)) == frozenset({0, 2})
        assert print_query(q, view) == "k=red"


class TestMinimize:
    def test_interval_intersection(self):
        view = make_view([("x", NUMERIC, [1.0, 3.0, 6.0, 11.0])])
        q = Query(And((_interval(0, 0, 10), _interval(0, 2, 5))))
        m = minimize_query(q, view)
        assert isinstance(m.root, Literal)
        assert (m.root.lo, m.root.hi) == (2.0, 5.0)

    def test_no_op_when_every_literal_matters(self):
        view = make_view(
            [("x", NUMERIC, [1.0, 5.0, 9.0]), ("y", NUMERIC, [0.0, 1.0, 1.0])]
        )
        q = Query(And((_interval(0, 0, 6), _interval(1, 0.5, 1.5))))
        m = minimize_query(q, view)
        assert m == canonicalize(q)

    def test_full_range_literal_dropped(self):
        # oracle: append a literal spanning the whole observed column range,
        # then verify supports stay equal after the drop
        rng = np.random.default_rng(31)
        for _ in range(50):
            view = random_view(rng, 15, n_num=3, n_bool=0, missing_rate=0.0)
            attr = int(rng.integers(0, 3))
            col = view.columns[attr]
            base = Query(
                And((_interval(0, -2.0, 2.0), _interval(1, -3.0, 3.0)))
            )
            redundant = _interval(attr, float(col.min()) - 1, float(col.max()) + 1)
            q = Query(And(base.root.children + (redundant,)))
            m = minimize_query(q, view)
            assert tri_support(m, view) == tri_support(q, view)
            assert sum(1 for _ in iter_literals(m.root)) < 3

    def test_preserves_tri_support_fuzz(self):
        rng = np.random.default_rng(77)
        for _ in range(1000):
            view = random_view(rng, 12, n_num=2, n_bool=1, missing_rate=0.15)
            q = random_query(rng, view, depth=2)
            m = minimize_query(q, view)
            assert tri_support(m, view) == tri_support(q, view)

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n_rows=st.sampled_from(EDGE_ROWS),
        depth=st.integers(0, 3),
        missing=st.sampled_from([0.0, 0.2]),
    )
    def test_matches_reevaluating_loop_property(self, seed, n_rows, depth, missing):
        view, q = _raw_query_view(seed, n_rows, depth, missing)
        m = minimize_query(q, view)
        assert m == reference_minimize(q, view)
        assert row_values(m, view) == row_values(q, view)

    def test_never_grows_literal_count(self):
        rng = np.random.default_rng(13)
        for _ in range(200):
            view = random_view(rng, 10, n_num=2, n_bool=1)
            q = random_query(rng, view, depth=2)
            m = minimize_query(q, view)
            assert sum(1 for _ in iter_literals(m.root)) <= sum(1 for _ in iter_literals(q.root))


class TestLiteralMemo:
    """Each view memoizes its literal supports; the memo must never change a
    result, and a derived view must never read another view's memo."""

    def test_each_literal_is_computed_once_per_view(self, monkeypatch):
        computed = []
        compute = query_module._compute_literal_supports

        def recording(lits, view):
            computed.extend((lit, id(view)) for lit in lits)
            return compute(lits, view)

        monkeypatch.setattr(query_module, "_compute_literal_supports", recording)
        rng = np.random.default_rng(3)
        view = random_view(rng, 30, n_num=3, n_bool=1, n_cat=1, missing_rate=0.1)
        queries = [random_query(rng, view, depth=3) for _ in range(20)]
        for q in queries + queries:
            tri_support(q, view)
            minimize_query(q, view)
        assert set(Counter(computed).values()) == {1}
        assert {lit for lit, _ in computed} == {
            lit for q in queries for lit in iter_literals(q.root)
        }
        cold = _cold_copy(view)
        tri_support(queries[0], cold)
        assert {lit for lit, v in computed if v == id(cold)} == set(iter_literals(queries[0].root))

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n_rows=st.sampled_from(EDGE_ROWS),
        depth=st.integers(0, 3),
        missing=st.sampled_from([0.0, 0.2]),
    )
    def test_warm_view_matches_cold_copy_and_rows_property(self, seed, n_rows, depth, missing):
        view, q = _raw_query_view(seed, n_rows, depth, missing)
        rng = np.random.default_rng([seed, 1])
        for _ in range(3):  # other queries over the same columns share literals
            tri_support(Query(_random_node(rng, view, depth)), view)
        minimized = minimize_query(q, view)  # fills the memo with q's literals
        warm = tri_support(q, view)
        assert set(iter_literals(canonicalize(q).root)) <= set(view._literal_supports)
        cold = _cold_copy(view)
        assert warm == tri_support(q, cold)
        assert minimized == minimize_query(q, view) == minimize_query(q, cold)
        assert _tri_values(warm) == row_values(q, view)
        assert _tri_values(tri_support(minimized, view)) == row_values(q, view)

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n_rows=st.sampled_from(EDGE_ROWS),
        depth=st.integers(0, 3),
        missing=st.sampled_from([0.0, 0.2]),
        doubled_first=st.booleans(),
    )
    def test_doubled_view_never_serves_the_original_property(
        self, seed, n_rows, depth, missing, doubled_first
    ):
        # the bootstrap stacks a view on its shuffled twin; both are views of
        # the same attributes, so only the memo's owner keeps them apart
        view, q = _raw_query_view(seed, n_rows, depth, missing)
        doubled = concat_rows(view, make_artificial(view, seed))
        if doubled_first:
            on_doubled = tri_support(q, doubled)
            assert view._literal_supports == {}
            on_view = tri_support(q, view)
        else:
            on_view = tri_support(q, view)
            on_doubled = tri_support(q, doubled)
        assert on_view.n == n_rows and on_doubled.n == 2 * n_rows
        assert on_view == tri_support(q, _cold_copy(view))
        assert on_doubled == tri_support(q, _cold_copy(doubled))
        assert _tri_values(on_view) == row_values(q, view)
        # the doubled view's first half is the view itself
        assert _tri_values(on_doubled)[:n_rows] == _tri_values(on_view)


    @settings(max_examples=120, deadline=None, derandomize=True)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n_rows=st.sampled_from(EDGE_ROWS + [130]),
        missing=st.sampled_from([0.0, 0.1, 0.3, 0.6]),
        data=st.data(),
    )
    def test_batch_matches_row_interpreter_property(self, seed, n_rows, missing, data):
        rng = np.random.default_rng(seed)
        try:
            view = random_view(rng, n_rows, n_num=2, n_bool=2, n_cat=2, missing_rate=missing)
        except SchemaError:  # every categorical cell missing: no label to test
            assume(False)
        drawn = [_random_literal(rng, view) for _ in range(12)]
        drawn += [Literal(0, NUMERIC), Literal(1, NUMERIC, hi=0.0), Literal(0, NUMERIC, lo=0.0)]
        pool = drawn + [dataclasses.replace(lit, negated=not lit.negated) for lit in drawn]
        batch = data.draw(st.lists(st.sampled_from(pool), max_size=40))  # repeats too
        for lit in data.draw(st.lists(st.sampled_from(pool), max_size=6)):
            tri_support(Query(lit), view)  # already in the memo
        cells = data.draw(st.sampled_from([1, 64, query_module._BLOCK_CELLS]))
        with mock.patch.object(query_module, "_BLOCK_CELLS", cells):  # blocks of 1, some, all
            memoize_literals(batch, view)
        assert set(batch) <= set(view._literal_supports)
        for lit in set(batch):
            q = Query(lit)
            assert view._literal_supports[lit] == row_support(q, view)
            assert tri_support(q, view) is view._literal_supports[lit]

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n_rows=st.sampled_from(EDGE_ROWS),
        depth=st.integers(0, 2),
        fault=st.sampled_from(["past-end", "negative", "kind"]),
        data=st.data(),
    )
    def test_bad_literal_raises_on_every_use_property(self, seed, n_rows, depth, fault, data):
        view, q = _raw_query_view(seed, n_rows, depth, 0.2)
        if fault == "past-end":
            bad = Literal(view.n_cols + data.draw(st.integers(0, 3)), BOOLEAN)
        elif fault == "negative":
            bad = Literal(-data.draw(st.integers(1, 3)), NUMERIC, 0.0, 1.0)
        else:
            attr = data.draw(st.integers(0, view.n_cols - 1))
            kind = data.draw(st.sampled_from([BOOLEAN, NUMERIC, CATEGORICAL]))
            assume(kind != view.attributes[attr].kind)
            bad = Literal(attr, kind, category="c0" if kind == CATEGORICAL else None)
        ctor = data.draw(st.sampled_from([And, Or]))
        children = [q.root, bad] if data.draw(st.booleans()) else [bad, q.root]
        query = Query(ctor(tuple(children)))
        with pytest.raises(QueryStructureError) as expected:
            check_attrs(query.root, view)
        for _ in range(2):  # a failed literal never enters the memo
            for evaluate in (tri_support, minimize_query):
                with pytest.raises(QueryStructureError) as raised:
                    evaluate(query, view)
                assert str(raised.value) == str(expected.value)
        assert bad not in view._literal_supports


_TOKEN_PIECES = [
    "x", "_a1", "b.c/d", "inf", "infinity", "infx", "1", "2.5", ".5", "1e", "e3", "E-2", "+", "-",
    ".", "<=", "<", "=", "&", "|", "!", "(", ")", "[", "]", " ", "\t", "\n", "\r",
    "#", "$", "\u00e9", "\u0663", "\u2028", "\u00a0",
]


@settings(max_examples=400, deadline=None, derandomize=True)
@given(
    text=st.one_of(
        st.lists(st.sampled_from(_TOKEN_PIECES), max_size=20).map("".join),
        st.text(max_size=20),
    )
)
def test_tokenizer_matches_per_token_reference_property(text):
    try:
        want = reference_tokenize(text)
    except QuerySyntaxError as exc:
        with pytest.raises(QuerySyntaxError) as raised:
            query_module._tokenize(text)
        assert (str(raised.value), raised.value.position) == (str(exc), exc.position)
    else:
        assert query_module._tokenize(text) == want

def test_is_conjunctive():
    a = _interval(0, 0, 1)
    b = _interval(1, 0, 1)
    assert is_conjunctive(Query(a))
    assert is_conjunctive(Query(And((a, b))))
    assert not is_conjunctive(Query(Or((a, b))))
    assert not is_conjunctive(Query(And((a, Or((a, b))))))
