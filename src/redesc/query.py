"""Query ASTs with three-valued evaluation against a view.

Queries are logical formulas over one view's attributes: AND/OR/NOT over
interval, boolean, and categorical literals. Evaluation uses strong Kleene
semantics with the truth ordering FALSE < UNKNOWN < TRUE: a literal over a
missing cell is UNKNOWN, AND takes the minimum, OR the maximum, and NOT swaps
TRUE/FALSE while fixing UNKNOWN.

`tri_support` is the one evaluator: it folds each literal's `TriSupport`
masks with `intersect` (AND), `union` (OR) and `negate` (NOT).
Each view memoizes its literal supports, which serve `tri_support`,
`minimize_query` and tree routing. Literals missing from the memo, one
(`_literal_support`) or a batch (`memoize_literals`: an interchange file's
literals), are checked against the view's attribute table there, and only
there, then computed by `_compute_literal_supports`, the one place literals
meet a column: per attribute, one boolean block compares the column with
every literal's bounds or code. A literal that fails the check raises
`QueryStructureError` and is never memoized, so it raises on every use. Every
conversion between int bitmasks (bit i = row i), packed `uint64` word rows
(`pack_masks`) and boolean row bits (`unpack_rows`, `bools_to_mask`) lives
here too.

A redescription's queries are canonical (see `canonicalize`) from the moment
they are built: `parse_query` and `minimize_query` (tree rules, refinements)
return canonical queries, and disjunctions and tightened refiners are
canonicalized where they are made. No consumer re-checks; only `print_query`
canonicalizes whatever it is handed.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import reduce
from typing import Iterable, Iterator, Sequence, Union

import numpy as np

from .dataset import BOOLEAN, CATEGORICAL, NUMERIC, View

_INF = float("inf")


class QuerySyntaxError(ValueError):
    """Query text that does not conform to the grammar."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class QueryStructureError(ValueError):
    """Query referencing attributes that do not exist in the target view."""


@dataclass(frozen=True)
class Literal:
    """Single attribute test, optionally negated.

    Numeric attributes use a closed interval [lo, hi] with infinite endpoints
    allowed; boolean attributes test is-true; categorical attributes test
    equality with one label.
    """

    attr: int
    kind: str
    lo: float = -_INF
    hi: float = _INF
    category: str | None = None
    negated: bool = False

    def __post_init__(self) -> None:
        if self.kind == NUMERIC and self.lo > self.hi:
            raise ValueError(f"inverted interval bounds [{self.lo}, {self.hi}]")
        if self.kind == CATEGORICAL and self.category is None:
            raise ValueError("categorical literal requires a category label")


@dataclass(frozen=True)
class Leaf:
    literal: Literal


@dataclass(frozen=True)
class And:
    children: tuple["Node", ...]


@dataclass(frozen=True)
class Or:
    children: tuple["Node", ...]


@dataclass(frozen=True)
class Not:
    child: "Node"


Node = Union[Leaf, And, Or, Not]


@dataclass(frozen=True)
class Query:
    root: Node
    view_id: int


# ---------------------------------------------------------------------------
# Tri-valued supports
# ---------------------------------------------------------------------------


def bools_to_mask(flags: np.ndarray) -> int:
    """Pack a boolean row vector into an int bitmask (bit i = row i)."""
    packed = np.packbits(flags.astype(np.uint8), bitorder="little")
    return int.from_bytes(packed.tobytes(), "little")


def pack_masks(masks: Sequence[int], n: int) -> np.ndarray:
    """One row of uint64 words per bitmask over n instances: bit i stays bit i."""
    nbytes = 8 * max(1, -(-n // 64))
    raw = b"".join(mask.to_bytes(nbytes, "little") for mask in masks)
    return np.frombuffer(raw, dtype=np.uint64).reshape(len(masks), nbytes // 8)


def unpack_rows(words: np.ndarray, n: int) -> np.ndarray:
    """Boolean rows of packed words (see `pack_masks`): column i is bit i."""
    return np.unpackbits(words.view(np.uint8), axis=-1, count=n, bitorder="little").view(bool)


def mask_to_bools(mask: int, n: int) -> np.ndarray:
    return unpack_rows(pack_masks([mask], n), n)[0]


@dataclass(frozen=True)
class TriSupport:
    """Partition of the instance set by query outcome.

    `in_mask` marks instances the query definitely describes, `unk_mask` those
    whose status is unknown due to missing values; everything else is out.
    Masks are int bitmasks over instance ids 0..n-1.
    """

    in_mask: int
    unk_mask: int
    n: int

    def __post_init__(self) -> None:
        if self.in_mask & self.unk_mask:
            raise ValueError("in and unknown sets overlap")
        if self.in_mask >> self.n or self.unk_mask >> self.n:
            raise ValueError("mask bits beyond instance count")

    def intersect(self, other: "TriSupport") -> "TriSupport":
        """Kleene AND combined at the set level (min per instance)."""
        in_mask = self.in_mask & other.in_mask
        nf1 = self.in_mask | self.unk_mask
        nf2 = other.in_mask | other.unk_mask
        return TriSupport(in_mask, (nf1 & nf2) & ~in_mask, self.n)

    def union(self, other: "TriSupport") -> "TriSupport":
        """Kleene OR combined at the set level (max per instance)."""
        in_mask = self.in_mask | other.in_mask
        return TriSupport(in_mask, (self.unk_mask | other.unk_mask) & ~in_mask, self.n)

    def negate(self) -> "TriSupport":
        """Kleene NOT: in and out swap, unknown stays."""
        out_mask = ((1 << self.n) - 1) & ~(self.in_mask | self.unk_mask)
        return TriSupport(out_mask, self.unk_mask, self.n)


# ---------------------------------------------------------------------------
# Vectorized support computation
# ---------------------------------------------------------------------------


def _check_literal(lit: Literal, view: View) -> None:
    if lit.attr < 0 or lit.attr >= view.n_cols:
        raise QueryStructureError(f"attribute id {lit.attr} out of range for view")
    if view.attributes[lit.attr].kind != lit.kind:
        raise QueryStructureError(
            f"literal kind {lit.kind} does not match attribute "
            f"{view.attributes[lit.attr].name!r} ({view.attributes[lit.attr].kind})"
        )


def _literal_support(lit: Literal, view: View) -> TriSupport:
    """The literal's support on `view`, computed once per view: the view is
    immutable and `Literal` is frozen, so the memo never goes stale."""
    cached = view._literal_supports.get(lit)
    if cached is None:
        memoize_literals([lit], view)
        cached = view._literal_supports[lit]
    return cached


def memoize_literals(lits: Iterable[Literal], view: View) -> None:
    """Put the support of every literal of `lits` that `view`'s memo lacks
    into it, each checked against the view's attribute table first."""
    memo = view._literal_supports
    fresh = [lit for lit in dict.fromkeys(lits) if lit not in memo]
    for lit in fresh:
        _check_literal(lit, view)
    memo.update(zip(fresh, _compute_literal_supports(fresh, view)))


# literal x row cells per boolean block of `_compute_literal_supports`
# (each block stays near 64 KB)
_BLOCK_CELLS = 1 << 16


def _compute_literal_supports(lits: Sequence[Literal], view: View) -> list[TriSupport]:
    """Supports of checked literals on `view`. Per attribute, the column meets
    every literal's bounds or code at once, one row of a boolean block each."""
    n = view.n_rows
    by_attr: dict[int, list[int]] = {}
    for i, lit in enumerate(lits):
        by_attr.setdefault(lit.attr, []).append(i)
    out: list = [None] * len(lits)
    step = max(1, _BLOCK_CELLS // max(n, 1))
    for attr, where in by_attr.items():
        col = view.columns[attr][None, :]
        known, unk_mask = _unknown(view, attr)
        for lo in range(0, len(where), step):
            block = where[lo : lo + step]
            group = [lits[i] for i in block]
            if group[0].kind == CATEGORICAL:
                codes = [view.attributes[attr].category_code(lit.category) for lit in group]
                holds = col == np.array(codes)[:, None]
            elif group[0].kind == BOOLEAN:
                holds = np.repeat(col == 1.0, len(group), axis=0)
            else:
                bounds = np.array([(lit.lo, lit.hi) for lit in group])
                holds = (col >= bounds[:, :1]) & (col <= bounds[:, 1:])
            holds ^= np.array([lit.negated for lit in group])[:, None]
            holds &= known
            rows = np.packbits(holds, axis=1, bitorder="little")
            for i, row in zip(block, rows):
                out[i] = TriSupport(int.from_bytes(row.tobytes(), "little"), unk_mask, n)
    return out


def _unknown(view: View, attr: int) -> tuple[np.ndarray, int]:
    """`attr`'s known cells as row flags, and its missing cells as a bitmask,
    computed once per view."""
    cached = view._unknowns.get(attr)
    if cached is None:
        missing = view.missing_mask(attr)
        cached = view._unknowns[attr] = (~missing, bools_to_mask(missing))
    return cached


def _fold(node: Node, supports: Iterator[TriSupport]) -> TriSupport:
    """Combine the supports of `node`'s literals, consumed in preorder."""
    if isinstance(node, Leaf):
        return next(supports)
    if isinstance(node, Not):
        return _fold(node.child, supports).negate()
    combine = TriSupport.intersect if isinstance(node, And) else TriSupport.union
    return reduce(combine, [_fold(child, supports) for child in node.children])


def tri_support(q: Query, view: View) -> TriSupport:
    """Partition all instances of `view` by the query outcome."""
    return _fold(q.root, (_literal_support(lit, view) for lit in iter_literals(q.root)))


# ---------------------------------------------------------------------------
# Structure helpers
# ---------------------------------------------------------------------------


def iter_literals(node: Node) -> Iterator[Literal]:
    """The literals of `node` in preorder."""
    if isinstance(node, Leaf):
        yield node.literal
    elif isinstance(node, Not):
        yield from iter_literals(node.child)
    else:
        for child in node.children:
            if isinstance(child, Leaf):  # no generator per leaf of a conjunction
                yield child.literal
            else:
                yield from iter_literals(child)


def query_attrs(q: Query) -> frozenset[int]:
    """Set of attribute ids used by the query."""
    return frozenset(lit.attr for lit in iter_literals(q.root))


def query_attr_count(q: Query) -> int:
    """Number of literal occurrences (query size contribution)."""
    return sum(1 for _ in iter_literals(q.root))


def is_conjunctive(q: Query) -> bool:
    """True when the query is a single literal or an AND of literals."""
    root = q.root
    if isinstance(root, Leaf):
        return True
    return isinstance(root, And) and all(isinstance(c, Leaf) for c in root.children)


def _leaf_key(lit: Literal):
    return (
        lit.attr,
        lit.negated,
        lit.lo,
        lit.hi,
        lit.category if lit.category is not None else "",
    )


def _node_key(node: Node):
    if isinstance(node, Leaf):
        return (0, _leaf_key(node.literal))
    if isinstance(node, And):
        return (1, tuple(_node_key(c) for c in node.children))
    if isinstance(node, Or):
        return (2, tuple(_node_key(c) for c in node.children))
    return (3, _node_key(node.child))


def _canon_node(node: Node) -> Node:
    if isinstance(node, Leaf):
        return node
    if isinstance(node, Not):
        child = _canon_node(node.child)
        if isinstance(child, Leaf):
            lit = child.literal
            return Leaf(Literal(lit.attr, lit.kind, lit.lo, lit.hi, lit.category, not lit.negated))
        if isinstance(child, Not):
            return child.child
        return Not(child)
    same = And if isinstance(node, And) else Or
    flat: list[Node] = []
    for child in node.children:
        c = _canon_node(child)
        if isinstance(c, same):
            flat.extend(c.children)
        else:
            flat.append(c)
    unique: dict = {}
    for c in flat:
        unique.setdefault(_node_key(c), c)
    ordered = [unique[k] for k in sorted(unique)]
    if len(ordered) == 1:
        return ordered[0]
    return same(tuple(ordered))


def canonicalize(q: Query) -> Query:
    """Canonical form: negations folded into leaves where possible, nested
    same-operator nodes flattened, duplicate children dropped, children
    ordered by (attribute id, bounds)."""
    return Query(_canon_node(q.root), q.view_id)


# ---------------------------------------------------------------------------
# Printing
# ---------------------------------------------------------------------------


def _fmt_num(x: float) -> str:
    return repr(float(x))


def _print_literal(lit: Literal, view: View) -> str:
    name = view.attributes[lit.attr].name
    if lit.kind == NUMERIC:
        body = f"[{_fmt_num(lit.lo)} <= {name} <= {_fmt_num(lit.hi)}]"
    elif lit.kind == BOOLEAN:
        body = name
    else:
        body = f"{name}={lit.category}"
    return f"!{body}" if lit.negated else body


def _print_node(node: Node, view: View) -> str:
    if isinstance(node, Leaf):
        return _print_literal(node.literal, view)
    if isinstance(node, Not):
        return f"!({_print_node(node.child, view)})"
    if isinstance(node, And):
        parts = []
        for c in node.children:
            text = _print_node(c, view)
            parts.append(f"({text})" if isinstance(c, Or) else text)
        return " & ".join(parts)
    return " | ".join(_print_node(c, view) for c in node.children)


def print_query(q: Query, view: View) -> str:
    """Canonical text form; `parse_query(print_query(q))` round-trips."""
    return _print_node(canonicalize(q).root, view)


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------

# One match per token, with the whitespace before it. A character that
# starts no token and is not whitespace is `bad`, and the tokenizer rejects
# it; no alternative matches whitespace, so none starts inside a run of it.
_TOKEN_RE = re.compile(
    r"""
    (\s*)
    (?:
      (<=)
    | ([+-]?(?:inf(?:inity)?\b|\d+(?:\.\d*)?(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?))
    | ([A-Za-z_][A-Za-z0-9_./]*)
    | ([&|!()\[\]=])
    | (\S)
    )
    """,
    re.VERBOSE,
)


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    """(kind, text, position) per token, read by one scan of the whole text."""
    tokens = []
    pos = 0
    for ws, le, num, name, sym, bad in _TOKEN_RE.findall(text):
        pos += len(ws)
        if bad:
            raise QuerySyntaxError(f"unexpected character {bad!r}", pos)
        token = sym or name or num or le
        tokens.append(("sym" if sym else "name" if name else "num" if num else "le", token, pos))
        pos += len(token)
    tokens.append(("eof", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str, view: View, view_id: int):
        self.tokens = _tokenize(text)
        self.i = 0
        self.view = view
        self.view_id = view_id

    def peek(self):
        return self.tokens[self.i]

    def take(self, kind: str, value: str | None = None):
        tok = self.tokens[self.i]
        if tok[0] != kind or (value is not None and tok[1] != value):
            expected = value if value is not None else kind
            raise QuerySyntaxError(f"expected {expected!r}, got {tok[1] or 'end of input'!r}", tok[2])
        self.i += 1
        return tok

    def parse(self) -> Query:
        node = self.parse_or()
        tok = self.peek()
        if tok[0] != "eof":
            raise QuerySyntaxError(f"unexpected trailing input {tok[1]!r}", tok[2])
        return canonicalize(Query(node, self.view_id))

    def parse_or(self) -> Node:
        children = [self.parse_and()]
        while self.peek()[:2] == ("sym", "|"):
            self.take("sym", "|")
            children.append(self.parse_and())
        return children[0] if len(children) == 1 else Or(tuple(children))

    def parse_and(self) -> Node:
        children = [self.parse_factor()]
        while self.peek()[:2] == ("sym", "&"):
            self.take("sym", "&")
            children.append(self.parse_factor())
        return children[0] if len(children) == 1 else And(tuple(children))

    def parse_factor(self) -> Node:
        tok = self.peek()
        if tok[:2] == ("sym", "!"):
            self.take("sym", "!")
            return Not(self.parse_factor())
        if tok[:2] == ("sym", "("):
            self.take("sym", "(")
            node = self.parse_or()
            self.take("sym", ")")
            return node
        if tok[:2] == ("sym", "["):
            return self.parse_interval()
        if tok[0] == "name":
            return self.parse_named()
        raise QuerySyntaxError(f"expected a literal, got {tok[1] or 'end of input'!r}", tok[2])

    def parse_number(self) -> float:
        tok = self.take("num")
        return float(tok[1])

    def parse_interval(self) -> Node:
        open_tok = self.take("sym", "[")
        lo = self.parse_number()
        self.take("le")
        name_tok = self.take("name")
        self.take("le")
        hi = self.parse_number()
        self.take("sym", "]")
        attr_id = self.resolve(name_tok, NUMERIC)
        if lo > hi:
            raise QuerySyntaxError(f"inverted interval bounds [{lo}, {hi}]", open_tok[2])
        return Leaf(Literal(attr_id, NUMERIC, lo, hi))

    def parse_named(self) -> Node:
        name_tok = self.take("name")
        if self.peek()[:2] == ("sym", "="):
            self.take("sym", "=")
            label_tok = self.peek()
            if label_tok[0] not in ("name", "num"):
                raise QuerySyntaxError("expected a category label after '='", label_tok[2])
            self.i += 1
            attr_id = self.resolve(name_tok, CATEGORICAL)
            attr = self.view.attributes[attr_id]
            if label_tok[1] not in attr.categories:
                raise QuerySyntaxError(
                    f"unknown category {label_tok[1]!r} for attribute {attr.name!r}",
                    label_tok[2],
                )
            return Leaf(Literal(attr_id, CATEGORICAL, category=label_tok[1]))
        attr_id = self.resolve(name_tok, BOOLEAN)
        return Leaf(Literal(attr_id, BOOLEAN))

    def resolve(self, name_tok, expected_kind: str) -> int:
        name = name_tok[1]
        try:
            attr_id = self.view.attribute_id(name)
        except Exception:
            raise QuerySyntaxError(f"unknown attribute name {name!r}", name_tok[2]) from None
        kind = self.view.attributes[attr_id].kind
        if kind != expected_kind:
            raise QuerySyntaxError(
                f"attribute {name!r} is {kind}, not {expected_kind}", name_tok[2]
            )
        return attr_id


def parse_query(text: str, view: View, view_id: int) -> Query:
    """Parse query text against a view's attribute table.

    Grammar: literals are `NAME` (boolean), `!NAME`, `NAME=LABEL`
    (categorical), and `[NUM <= NAME <= NUM]` (numeric interval, `inf`
    endpoints allowed); connectives are `&`, `|`, `!` and parentheses, with
    `&` binding tighter than `|`. The result is canonical.
    """
    return _Parser(text, view, view_id).parse()


# ---------------------------------------------------------------------------
# Minimization
# ---------------------------------------------------------------------------


def _remove_leaf(node: Node, target: int) -> tuple[Node | None, int]:
    """Rebuild `node` without the target-th leaf (preorder index).

    Returns (new node or None when emptied, number of leaves consumed).
    """
    if isinstance(node, Leaf):
        return (None, 1) if target == 0 else (node, 1)
    if isinstance(node, Not):
        child, used = _remove_leaf(node.child, target)
        return (None if child is None else Not(child)), used
    consumed = 0
    kept: list[Node] = []
    for child in node.children:
        new_child, used = _remove_leaf(child, target - consumed)
        consumed += used
        if new_child is not None:
            kept.append(new_child)
    if not kept:
        return None, consumed
    if len(kept) == 1:
        return kept[0], consumed
    ctor = And if isinstance(node, And) else Or
    return ctor(tuple(kept)), consumed


def _merge_intervals(node: Node) -> Node:
    if isinstance(node, Leaf):
        return node
    if isinstance(node, Not):
        return Not(_merge_intervals(node.child))
    children = [_merge_intervals(c) for c in node.children]
    if isinstance(node, Or):
        return Or(tuple(children))
    by_attr: dict[int, Literal] = {}
    rest: list[Node] = []
    for child in children:
        if (
            isinstance(child, Leaf)
            and child.literal.kind == NUMERIC
            and not child.literal.negated
        ):
            lit = child.literal
            prev = by_attr.get(lit.attr)
            if prev is None:
                by_attr[lit.attr] = lit
                continue
            lo, hi = max(prev.lo, lit.lo), min(prev.hi, lit.hi)
            if lo <= hi:
                by_attr[lit.attr] = Literal(lit.attr, NUMERIC, lo, hi)
            else:
                rest.append(child)  # empty intersection is unrepresentable; keep both
        else:
            rest.append(child)
    merged: list[Node] = [Leaf(lit) for lit in by_attr.values()] + rest
    if len(merged) == 1:
        return merged[0]
    return And(tuple(merged))


def minimize_query(q: Query, view: View) -> Query:
    """Support-preserving simplification.

    Greedily drops any literal whose removal leaves the tri-valued support
    unchanged, then intersects same-attribute interval literals under a
    common AND. The canonical result evaluates identically to the input on `view`.
    """
    current = canonicalize(q)
    # literal supports in preorder; dropping leaf `target` drops its entry
    supports = [_literal_support(lit, view) for lit in iter_literals(current.root)]
    base = _fold(current.root, iter(supports))
    changed = True
    while changed:
        changed = False
        if len(supports) <= 1:
            break
        for target in range(len(supports)):
            candidate_root, _ = _remove_leaf(current.root, target)  # never None: 2+ leaves
            rest = supports[:target] + supports[target + 1:]
            if _fold(candidate_root, iter(rest)) == base:
                current = Query(candidate_root, q.view_id)
                supports = rest
                changed = True
                break
    return canonicalize(Query(_merge_intervals(current.root), q.view_id))
