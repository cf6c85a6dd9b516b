"""Outside-in tracer: spans around the calls into each layer of `redesc`.

The tracer replaces each traced function at every place it is bound (its
home module, every module that imported it with `from .x import f`, and the
package namespace), so calls through any binding are recorded. Nothing under
`src/` is edited. A span is (name, start, end, parent); spans are kept in
memory and written out when the run ends. A function's self time is its span
time minus the time covered by its child spans.

Before patching, every expected binding site must exist and hold the same
object as the home module, and no other `redesc` module may bind a traced
function. A refactor that moves, renames or re-imports a traced function
therefore fails the traced run instead of silently dropping a layer.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from pathlib import Path

import numpy as np

PKG = "redesc"

# name -> (home module, attribute, other modules binding the same object).
# `redesc.mine` is reached through sys.modules: the package attribute of that
# name is the `mine` function.
SPANNED = {
    "dataset.load_dataset": ("dataset", "load_dataset", ("cli", "")),
    "dataset.make_artificial": ("dataset", "make_artificial", ("mine", "")),
    "query.tri_support": ("query", "tri_support", ("measures", "mine", "interchange", "")),
    "query.minimize_query": ("query", "minimize_query", ("refine", "tree", "")),
    "query.parse_query": ("query", "parse_query", ("interchange", "")),
    "measures.p_value": ("measures", "p_value", ("",)),
    "measures.aej": ("measures", "aej", ("cli", "")),
    "measures.aaj": ("measures", "aaj", ("cli", "")),
    "tree.best_split": ("tree", "best_split", ("",)),
    "tree.build_tree": ("tree", "build_tree", ("mine", "")),
    "mine.init_rules": ("mine", "init_rules", ()),
    "mine.construct_targets": ("mine", "construct_targets", ()),
    "mine.combine_disjunctive": ("mine", "combine_disjunctive", ()),
    "mine.mine": ("mine", "mine", ("cli", "")),
    # mine() imports these two lazily from their home modules
    "refine.construct_and_refine": ("refine", "construct_and_refine", ("",)),
    "refine.refine_pair": ("refine", "refine_pair", ("",)),
    "refine.tighten_bounds": ("refine", "tighten_bounds", ("",)),
    "reduce.compute_occurrence": ("reduce", "compute_occurrence", ("",)),
    "reduce.find_specific": ("reduce", "find_specific", ("",)),
    "reduce.find_best": ("reduce", "find_best", ("",)),
    "reduce.reduce_set": ("reduce", "reduce_set", ("cli", "")),
    "interchange.read_records": ("interchange", "read_records", ("cli",)),
    "interchange.write_records": ("interchange", "write_records", ("cli",)),
    # build_parser() looks these up when `main` runs
    "cli.cmd_mine": ("cli", "cmd_mine", ()),
    "cli.cmd_reduce": ("cli", "cmd_reduce", ()),
    "cli.cmd_eval": ("cli", "cmd_eval", ()),
}

# Called millions of times: a call counter only, no spans.
COUNTED = {
    "measures.mask_jaccard": ("measures", "mask_jaccard", ("mine", "refine", "reduce")),
}

# Classmethods are patched on their class.
CLASSMETHODS = {
    "measures.Redescription.create": ("measures", "Redescription", "create"),
}

# Functions whose per-call latency percentiles are reported.
PERCENTILES = ("tree.best_split", "query.tri_support", "refine.refine_pair", "reduce.find_best")

COMMANDS = ("cli.cmd_mine", "cli.cmd_reduce", "cli.cmd_eval")


class TraceSiteError(RuntimeError):
    """A traced function is missing from, or bound outside, its expected sites."""


def _module(short: str):
    name = f"{PKG}.{short}" if short else PKG
    try:
        return sys.modules[name]
    except KeyError:
        raise TraceSiteError(f"module {name} is not imported") from None


def _sites(table: dict) -> dict[str, tuple[object, list]]:
    """Resolve each traced name to its original object and binding modules,
    checking that every expected site holds that very object."""
    resolved = {}
    for name, (home, attr, others) in table.items():
        home_mod = _module(home)
        if not hasattr(home_mod, attr):
            raise TraceSiteError(f"{home_mod.__name__}.{attr} does not exist")
        original = getattr(home_mod, attr)
        modules = [home_mod]
        for short in others:
            mod = _module(short)
            bound = getattr(mod, attr, None)
            if bound is not original:
                raise TraceSiteError(
                    f"{mod.__name__}.{attr} is not {home_mod.__name__}.{attr}; "
                    "the traced binding sites are out of date"
                )
            modules.append(mod)
        resolved[name] = (original, modules)
    return resolved


def _check_no_other_sites(resolved: dict) -> None:
    by_id = {id(orig): (name, {id(m) for m in mods}) for name, (orig, mods) in resolved.items()}
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == PKG or mod_name.startswith(PKG + ".")):
            continue
        for attr, value in vars(mod).items():
            hit = by_id.get(id(value))
            if hit is not None and id(mod) not in hit[1]:
                raise TraceSiteError(
                    f"{mod_name}.{attr} binds traced function {hit[0]} at an "
                    "unexpected site; add it to the tracer's site table"
                )


class Tracer:
    """Records spans and counters for one worker process."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.spans: list = []  # (name id, start, end, parent index)
        self.stack: list[int] = []
        self.counters: dict[str, float] = {}
        self.calls: dict[str, list[int]] = {}
        self._undo: list[tuple[object, str, object]] = []
        self._views: dict[int, object] = {}
        self._literals: set = set()

    # -- recording ---------------------------------------------------------

    def _name_id(self, name: str) -> int:
        self.names.append(name)
        return len(self.names) - 1

    def wrap(self, name: str, fn, after=None):
        """`fn` recording one span per call; `after(args, result)` updates
        counters once the span has ended."""
        name_id = self._name_id(name)
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            index = len(spans)
            spans.append(None)
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name_id, start, end, parent)
            if after is not None:
                after(args, result)
            return result

        return traced

    def count(self, name: str, fn):
        cell = self.calls.setdefault(name, [0])

        @functools.wraps(fn)
        def counted(*args):
            cell[0] += 1
            return fn(*args)

        return counted

    def bump(self, key: str, amount: float = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    # -- counters derived from arguments and results -------------------------

    def _after_hooks(self) -> dict:
        from redesc.query import iter_literals

        def tri_support(args, result):
            q, view = args[0], args[1]
            self._views[id(view)] = view  # keep ids unique for the whole run
            for lit in iter_literals(q.root):
                self.bump("query.literal_evals")
                self._literals.add((id(view), lit))

        return {
            "tree.build_tree": lambda a, r: self.bump("tree.nodes", r.n_nodes),
            "tree.best_split": lambda a, r: self.bump("tree.best_split.none", r is None),
            "query.tri_support": tri_support,
            "refine.refine_pair": lambda a, r: self.bump("refine.refine_pair.improved", r.improved),
            "refine.construct_and_refine": lambda a, r: self.bump(
                "mine.pairs", len(a[0]) * len(a[1])
            ),
            "mine.mine": lambda a, r: self.bump("mine.members", len(r)),
            "reduce.reduce_set": lambda a, r: self.bump(
                "reduce.picks", sum(len(s.members) for s in r)
            ),
            "interchange.read_records": lambda a, r: self.bump(
                "interchange.read_records.records", len(r[0]) + len(r[1])
            ),
            "interchange.write_records": lambda a, r: self.bump(
                "interchange.write_records.bytes", os.path.getsize(a[0])
            ),
            "dataset.load_dataset": lambda a, r: self.bump(
                "dataset.load_dataset.cells", r.n_elements * (r.view1.n_cols + r.view2.n_cols)
            ),
        }

    # -- patching ------------------------------------------------------------

    def install(self) -> None:
        spanned = _sites(SPANNED)
        counted = _sites(COUNTED)
        _check_no_other_sites({**spanned, **counted})
        classes = {}
        for name, (home, cls_name, attr) in CLASSMETHODS.items():
            cls = getattr(_module(home), cls_name, None)
            method = None if cls is None else vars(cls).get(attr)
            if not isinstance(method, classmethod):
                raise TraceSiteError(f"{home}.{cls_name}.{attr} is not a classmethod")
            classes[name] = (cls, attr, method)

        hooks = self._after_hooks()
        for name, (original, modules) in spanned.items():
            replacement = self.wrap(name, original, hooks.get(name))
            for mod in modules:
                self._patch(mod, SPANNED[name][1], replacement)
        for name, (original, modules) in counted.items():
            replacement = self.count(name, original)
            for mod in modules:
                self._patch(mod, COUNTED[name][1], replacement)
        for name, (cls, attr, method) in classes.items():
            self._patch(cls, attr, classmethod(self.wrap(name, method.__func__)))

    def _patch(self, owner, attr: str, replacement) -> None:
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, replacement)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- results -------------------------------------------------------------

    def summary(self, spans_path: Path) -> dict:
        """Per-name calls, total and self time, latency percentiles, the
        derived counters, and each command's breakdown; the raw spans are
        written to `spans_path`."""
        rows = np.array(self.spans, dtype=np.float64).reshape(-1, 4)
        name_id = rows[:, 0].astype(np.int64)
        parent = rows[:, 3].astype(np.int64)
        duration = rows[:, 2] - rows[:, 1]
        child = np.zeros(len(rows))
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], duration[has_parent])
        self_time = duration - child
        np.savez(
            spans_path,
            names=np.array(self.names),
            name_id=name_id,
            start=rows[:, 1],
            end=rows[:, 2],
            parent=parent,
        )

        metrics: dict[str, float] = {}
        names = np.array(self.names)
        for name in set(SPANNED) | set(CLASSMETHODS):
            ids = np.nonzero(names == name)[0]
            pick = np.isin(name_id, ids)
            metrics[f"{name}.calls"] = int(pick.sum())
            metrics[f"{name}.total_s"] = float(duration[pick].sum())
            metrics[f"{name}.self_s"] = float(self_time[pick].sum())
            if name in PERCENTILES:
                us = duration[pick] * 1e6
                metrics[f"{name}.p50_us"] = float(np.percentile(us, 50)) if us.size else 0.0
                metrics[f"{name}.p99_us"] = float(np.percentile(us, 99)) if us.size else 0.0
        for name, cell in self.calls.items():
            metrics[f"{name}.calls"] = cell[0]
        c = self.counters
        for key in ("tree.nodes", "query.literal_evals", "mine.pairs", "mine.members",
                    "reduce.picks", "interchange.read_records.records",
                    "interchange.write_records.bytes", "dataset.load_dataset.cells"):
            metrics[key] = c.get(key, 0)

        def ratio(num: float, den: float) -> float:
            return num / den if den else 0.0

        metrics["tree.best_split.none_ratio"] = ratio(
            c.get("tree.best_split.none", 0), metrics["tree.best_split.calls"]
        )
        metrics["refine.refine_pair.improved_ratio"] = ratio(
            c.get("refine.refine_pair.improved", 0), metrics["refine.refine_pair.calls"]
        )
        metrics["query.literal_repeat_ratio"] = 1.0 - ratio(
            len(self._literals), c.get("query.literal_evals", 0)
        ) if c.get("query.literal_evals") else 0.0
        return {"metrics": metrics, "commands": self._by_command(names, name_id, parent,
                                                                  duration, self_time)}

    @staticmethod
    def _by_command(names, name_id, parent, duration, self_time) -> dict:
        """Total and self time of every traced name inside each command."""
        command_of = np.full(len(name_id), -1)
        command_ids = {i for i, n in enumerate(names) if n in COMMANDS}
        for i in range(len(name_id)):
            if name_id[i] in command_ids:
                command_of[i] = i
            elif parent[i] >= 0:
                command_of[i] = command_of[parent[i]]
        out: dict[str, dict[str, dict[str, float]]] = {}
        for i in np.nonzero(command_of >= 0)[0]:
            command = str(names[name_id[command_of[i]]])
            entry = out.setdefault(command, {}).setdefault(
                str(names[name_id[i]]), {"total_s": 0.0, "self_s": 0.0}
            )
            entry["total_s"] += float(duration[i])
            entry["self_s"] += float(self_time[i])
        return out
