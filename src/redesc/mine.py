"""Iterative two-view rule mining.

Each view is bootstrapped unsupervised: a shuffled twin of the view is
appended, a tree learns to tell original from shuffled rows, and every tree
node becomes a conjunctive rule. The loop then alternates views, using one
view's rule supports as the binary targets for the other view's next tree.
Redescriptions are the constraint-surviving pairs from the Cartesian product
of the two rule lists, paired by one loop that optionally refines them
(`refine.construct_and_refine`), then extended with accuracy-gated disjunctions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import reduce, refine
from .dataset import CATEGORICAL, Dataset, concat_rows, make_artificial
from .measures import Constraints, Redescription, RedescriptionSet, overlap_counts, row_sizes
from .measures import mask_jaccard  # unused here; kept bound because bench/tracer.py counts calls through it
from .query import Or, Query, TriSupport, _print_node, canonicalize, iter_literals, pack_masks, tri_support, unpack_rows
from .tree import PctParams, Tree, build_tree, extract_rules

OPERATOR_MODES = ("conjunctive", "conjneg", "all")


@dataclass(frozen=True)
class MiningParams:
    max_iter: int = 3
    pct: PctParams = field(default_factory=PctParams)
    seed: int = 0
    use_refinement: bool = True
    operator_mode: str = "all"
    target_window: int = 64
    max_set_size: int = 10_000
    disjunction_threshold: float | None = None  # None: fall back to min_jaccard
    max_disjuncts: int = 2

    def __post_init__(self) -> None:
        if self.max_iter < 1:
            raise ValueError("max_iter must be at least 1")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")
        if self.max_set_size < 2:
            raise ValueError(f"max_set_size must be at least 2, got {self.max_set_size}")
        if self.operator_mode not in OPERATOR_MODES:
            raise ValueError(f"operator_mode must be one of {OPERATOR_MODES}")
        if self.target_window < 1:
            raise ValueError("target_window must be at least 1")
        t = self.disjunction_threshold
        if t is not None and not 0.0 <= t <= 1.0:
            raise ValueError(f"disjunction_threshold must lie in [0, 1], got {t}")
        if self.max_disjuncts < 0:
            raise ValueError(f"max_disjuncts must be non-negative, got {self.max_disjuncts}")


@dataclass(frozen=True)
class Rule:
    """A conjunctive query plus its support over the original instances."""

    query: Query
    tri: TriSupport
    text: str


class RuleSet:
    """Per-view rule lists, deduplicated by canonical query text."""

    def __init__(self) -> None:
        self.rules1: list[Rule] = []
        self.rules2: list[Rule] = []
        self._keys: tuple[set[str], set[str]] = (set(), set())

    def rules(self, view_id: int) -> list[Rule]:
        return self.rules1 if view_id == 1 else self.rules2

    def add(self, view_id: int, rule: Rule) -> bool:
        keys = self._keys[view_id - 1]
        if rule.text in keys:
            return False
        keys.add(rule.text)
        self.rules(view_id).append(rule)
        return True


def _mode_accepts(q: Query, mode: str) -> bool:
    """Conjunctive mode rejects any negated literal."""
    return mode != "conjunctive" or not any(lit.negated for lit in iter_literals(q.root))


def _harvest(tree: Tree, dataset: Dataset, view_id: int, rules: RuleSet, mode: str) -> None:
    """Extract a tree's rules, re-evaluate them on the original view, and add
    the mode-surviving ones."""
    view = dataset.view(view_id)
    for q, _cover in extract_rules(tree):
        if _mode_accepts(q, mode):
            rules.add(view_id, Rule(query=q, tri=tri_support(q, view), text=_print_node(q.root, view)))


def _standardized(column: np.ndarray) -> np.ndarray:
    """Unit-variance copy with missing cells at the mean (zero deviation).

    Cells so large that the mean or the squared deviations could overflow,
    or so small that the squares would underflow, are first scaled by a power
    of two, which changes no bit of the result.
    """
    finite = ~np.isnan(column)
    out = np.zeros(len(column))
    if finite.sum() < 2:
        return out
    values = column[finite]
    top = np.abs(values).max()
    # n·(2·top)² must stay below 2**1022, and top² above 2**-1000
    if not 2.0**-500 <= top < 2.0**510 / math.sqrt(len(values)):
        values = np.ldexp(values, -np.frexp(top)[1])
    std = values.std()
    if std == 0:
        return out
    out[finite] = (values - values.mean()) / std
    return out


def _bootstrap_targets(doubled, labels: np.ndarray) -> np.ndarray:
    """Clustering targets for the unsupervised pass: the original-vs-shuffled
    label plus every attribute of the doubled view, all standardized.

    A shuffled twin preserves each column's value multiset exactly, so the
    label alone yields zero variance gain for every single-attribute split;
    the attribute self-targets make the criterion seek genuine clusters, and
    the label starts separating once a node is no longer 50/50.
    """
    width = 1 + sum(len(a.categories) if a.kind == CATEGORICAL else 1 for a in doubled.attributes)
    targets = np.empty((doubled.n_rows, width))
    column = iter(targets.T)  # views of the columns, filled in order
    next(column)[:] = _standardized(labels)
    for attr, col in zip(doubled.attributes, doubled.columns):
        if attr.kind == CATEGORICAL:
            for code in range(len(attr.categories)):
                indicator = np.where(col >= 0, (col == code).astype(float), np.nan)
                next(column)[:] = _standardized(indicator)
        else:
            next(column)[:] = _standardized(col)
    return targets


def _bootstrap(dataset: Dataset, view_id: int, seed, params: MiningParams, rules: RuleSet) -> None:
    """Cluster one view's original rows together with a shuffled twin and
    harvest the tree's rules; the doubled view, its targets and the tree are
    released on return."""
    view = dataset.view(view_id)
    n = dataset.n_elements
    doubled = concat_rows(view, make_artificial(view, seed))
    targets = _bootstrap_targets(doubled, np.concatenate([np.ones(n), np.zeros(n)]))
    tree = build_tree(doubled, targets, params.pct)
    _harvest(tree, dataset, view_id, rules, params.operator_mode)


def init_rules(dataset: Dataset, params: MiningParams) -> RuleSet:
    """Unsupervised bootstrap: per view, cluster the original rows together
    with a shuffled twin and harvest the resulting tree's rules."""
    seeds = np.random.SeedSequence(params.seed).spawn(2)
    rules = RuleSet()
    for view_id, seed in ((1, seeds[0]), (2, seeds[1])):
        _bootstrap(dataset, view_id, seed, params, rules)
    return rules


def construct_targets(rules: Sequence[Rule], n_elements: int, window: int) -> np.ndarray:
    """Boolean indicator matrix of the most recent rules' supports (one
    column per rule, True where the rule definitely holds)."""
    if not rules:
        raise ValueError("rule list is empty")
    words = pack_masks([rule.tri.in_mask for rule in rules[-window:]], n_elements)
    return np.ascontiguousarray(unpack_rows(words, n_elements).T)


def _or_extend(red: Redescription, side: int, rule: Rule, dataset: Dataset) -> Redescription:
    if side == 1:
        q1 = canonicalize(Query(Or((red.q1.root, rule.query.root))))
        return Redescription.create(q1, red.q2, red.tri1.union(rule.tri), red.tri2, dataset)
    q2 = canonicalize(Query(Or((red.q2.root, rule.query.root))))
    return Redescription.create(red.q1, q2, red.tri1, red.tri2.union(rule.tri), dataset)


def combine_disjunctive(
    base: Sequence[Redescription],
    rules: RuleSet,
    constraints: Constraints,
    dataset: Dataset,
    params: MiningParams,
) -> list[Redescription]:
    """Greedy accuracy-gated disjunction building.

    Only redescriptions already at or above the gate threshold are extended;
    each step ORs the same-view rule that most increases accuracy while all
    constraints keep holding, up to `max_disjuncts` added disjuncts per query.
    Bases that no rule improves are returned unchanged.
    """
    threshold = (
        constraints.min_jaccard
        if params.disjunction_threshold is None
        else params.disjunction_threshold
    )
    n = dataset.n_elements
    words = {side: pack_masks([r.tri.in_mask for r in rules.rules(side)], n) for side in (1, 2)}
    out: list[Redescription] = []
    for red in base:
        if red.j_qnm < threshold:
            out.append(red)
            continue
        current = red
        added = {1: 0, 2: 0}
        while added[1] < params.max_disjuncts or added[2] < params.max_disjuncts:
            improving: list[tuple[float, int, Rule]] = []
            for side in (1, 2):
                if added[side] >= params.max_disjuncts:
                    continue
                own = current.tri1 if side == 1 else current.tri2
                other = current.tri2 if side == 1 else current.tri1
                in_new = words[side] | pack_masks([own.in_mask], n)
                overlap, union = overlap_counts(in_new, row_sizes(in_new), other.in_mask)
                j_new = overlap / np.maximum(union, 1)
                screen = constraints.admits_support(overlap) & (j_new > current.j_qnm)
                for i in np.flatnonzero(screen):
                    improving.append((float(j_new[i]), side, rules.rules(side)[i]))
            # best accuracy first; stable sort keeps generation order on ties
            improving.sort(key=lambda c: c[0], reverse=True)
            accepted = None
            for j_new, side, rule in improving:
                extended = _or_extend(current, side, rule, dataset)
                if constraints.admits(extended):
                    accepted = (extended, side)
                    break
            if accepted is None:
                break
            current, side = accepted
            added[side] += 1
        out.append(current)
    return out


def mine(dataset: Dataset, constraints: Constraints, params: MiningParams) -> RedescriptionSet:
    """Full mining loop: bootstrap, then `max_iter` rounds of cross-view
    target construction, tree induction, rule harvesting, pairing (refined
    when `params.use_refinement` is set), and disjunction building. The set
    keeps one member per support (see `RedescriptionSet`)."""
    rules = init_rules(dataset, params)
    rset = RedescriptionSet()
    n = dataset.n_elements
    done1 = done2 = 0  # rules of each view paired in earlier rounds

    for _ in range(params.max_iter):
        new_trees: list[tuple[int, Tree]] = []
        for view_id in (1, 2):
            opposing = rules.rules(2 if view_id == 1 else 1)
            if not opposing:
                continue
            targets = construct_targets(opposing, n, params.target_window)
            new_trees.append((view_id, build_tree(dataset.view(view_id), targets, params.pct)))
        for view_id, tree in new_trees:
            _harvest(tree, dataset, view_id, rules, params.operator_mode)

        # Rule lists only grow, so the unpaired part of rules1 × rules2 is, in
        # product order, the old view-1 rules with the new view-2 rules, then
        # the new view-1 rules with every view-2 rule.
        rules1, rules2 = rules.rules1, rules.rules2
        blocks = ((rules1[:done1], rules2[done2:]), (rules1[done1:], rules2))
        done1, done2 = len(rules1), len(rules2)
        before_keys = {m.key for m in rset.members}
        for block1, block2 in blocks:
            refine.construct_and_refine(
                block1, block2, rset, constraints, dataset, refine=params.use_refinement
            )
        # the round's new members: a candidate that `add` took may since have
        # been displaced by a more accurate one of the same support
        fresh = [m for m in rset.members if m.key not in before_keys]

        if params.operator_mode == "all" and fresh:
            for extended in combine_disjunctive(fresh, rules, constraints, dataset, params):
                rset.add(extended)

        if len(rset) > params.max_set_size:
            reduced = reduce.reduce_set(rset, [reduce.EQUAL_WEIGHTS], [params.max_set_size // 2])[0]
            trimmed = RedescriptionSet()
            for member in reduced.members:
                trimmed.add(member)
            rset = trimmed

    rset.recheck(constraints, dataset)
    return rset
