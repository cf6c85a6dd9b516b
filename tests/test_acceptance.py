"""Acceptance criteria, one test per criterion.

Each test prints a `[criterion NN] PASS|FAIL` line (visible with `pytest -s`)
and enforces the stated tolerance and time budget. Run with:

    pytest tests/test_acceptance.py -v -s
"""

import time

import numpy as np
import pytest

from redesc.cli import main
from redesc.interchange import read_records
from redesc.measures import (
    Constraints,
    Redescription,
    aaj,
    binomial_tail,
    jaccard_variants,
    score_pval,
    score_size,
)
from redesc.mine import MiningParams, mine
from redesc.query import parse_query
from redesc.reduce import WeightVector, reduce_set
from redesc.refine import refine_pair, tighten_bounds
from redesc.tree import PctParams

from conftest import (
    ACCURACY_LADDER,
    STABILITY_LADDER,
    fabricate_pool,
    planted_dataset,
    refinement_benefit_dataset,
)
from reference import packed, strict_witness, write_schema, write_view
from test_measures import completion_extremes, random_counts
from test_reduce import oracle_reduce
from test_refine import nested_pair, random_two_view_dataset


def _report(num: int, description: str, ok: bool) -> None:
    print(f"\n[criterion {num:02d}] {'PASS' if ok else 'FAIL'} - {description}")
    assert ok, f"criterion {num:02d} failed: {description}"


def test_criterion_01_attribute_redundancy_fixed_points(climate_species_dataset):
    started = time.perf_counter()
    ds = climate_species_dataset
    q_box = "[-1.8 <= t7 <= 4.4] & [12.1 <= p6 <= 21.2]"
    q_two_box = (
        "[-1.8 <= t7 <= 4.4] & [12.1 <= p6 <= 21.2]"
        " | [-1.6 <= t6 <= 1.5] & [21.6 <= p6 <= 30.1]"
    )
    q_hare = "[7.2 <= t9p <= 17.2] & [13.5 <= t7p <= 22.7]"
    r_base = Redescription.evaluate(
        parse_query(q_box, ds.view1, 1), parse_query("Polarbear", ds.view2, 2), ds
    )
    r_wide = Redescription.evaluate(
        parse_query(q_two_box, ds.view1, 1), parse_query("Polarbear", ds.view2, 2), ds
    )
    r_hare = Redescription.evaluate(
        parse_query(q_hare, ds.view1, 1), parse_query("MountainHare", ds.view2, 2), ds
    )
    ok = (
        aaj(packed([r_base, r_wide])).tolist() == [0.75, 0.75]
        and aaj(packed([r_wide, r_hare])).tolist() == [0.0, 0.0]
        and time.perf_counter() - started < 1.0
    )
    _report(1, "hand-encoded pairs give attribute redundancy 0.75 and 0 exactly", ok)


def test_criterion_02_refinement_guarantees():
    started = time.perf_counter()
    rng = np.random.default_rng(202)
    checked = 0
    strict_seen = 0
    ok = True
    while checked < 1000:
        ds = random_two_view_dataset(rng, 24)
        r, ref = nested_pair(rng, ds)
        if r.supp_mask == 0:
            continue
        outcome = refine_pair(r, ref, ds)
        ok &= outcome.applied
        ok &= outcome.refined.supp_mask == r.supp_mask
        ok &= outcome.refined.j_qnm >= r.j_qnm - 1e-15
        if r.key != ref.key:
            tightened = tighten_bounds(ref, r.supp_mask, ds)
            if strict_witness(r, tightened):
                ok &= outcome.refined.j_qnm > r.j_qnm
                strict_seen += 1
        checked += 1
        if not ok:
            break
    elapsed = time.perf_counter() - started
    ok = ok and strict_seen > 50 and elapsed < 10.0
    _report(
        2,
        f"1000 nested pairs: support preserved, accuracy never drops, "
        f"{strict_seen} strict improvements under the witness condition ({elapsed:.1f}s)",
        ok,
    )


def test_criterion_03_accuracy_variant_ordering_and_oracle():
    rng = np.random.default_rng(303)
    ok = True
    for _ in range(10_000):
        v = jaccard_variants(random_counts(rng, 60))
        ok &= v.pess <= v.qnm + 1e-12 and v.qnm <= v.opt + 1e-12
        if not ok:
            break
    for _ in range(400):
        c = random_counts(rng, 40, max_unknown_cells=12)
        v = jaccard_variants(c)
        best, worst = completion_extremes(c)
        ok &= abs(v.opt - best) < 1e-12 and abs(v.pess - worst) < 1e-12
        if not ok:
            break
    for _ in range(500):
        c = random_counts(rng, 60, max_unknown_cells=0)
        union = c.n_ii + c.n_io + c.n_oi
        classic = c.n_ii / union if union else 0.0
        v = jaccard_variants(c)
        ok &= abs(v.qnm - classic) < 1e-12
        ok &= abs(v.opt - classic) < 1e-12
        ok &= abs(v.pess - classic) < 1e-12
        if not ok:
            break
    _report(
        3,
        "pessimistic <= query-non-missing <= optimistic on 10k tables; exact "
        "match to the completion oracle; complete-data collapse",
        ok,
    )


def test_criterion_04_significance_oracle():
    import mpmath

    mpmath.mp.dps = 60
    started = time.perf_counter()
    rng = np.random.default_rng(404)
    ok = True
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
        ok &= abs(got - want) < 1e-10
        if not ok:
            break
    for _ in range(50):
        total = int(rng.integers(2, 51))
        s1 = int(rng.integers(1, total + 1))
        s2 = int(rng.integers(1, total + 1))
        tail = [binomial_tail(o, s1, s2, total) for o in range(total + 1)]
        ok &= all(a >= b - 1e-15 for a, b in zip(tail, tail[1:]))
    elapsed = time.perf_counter() - started
    ok = ok and elapsed < 5.0
    _report(
        4,
        f"binomial tail matches extended-precision summation within 1e-10 and "
        f"is non-increasing in the overlap ({elapsed:.1f}s)",
        ok,
    )


def test_criterion_05_score_fixed_points():
    ok = (
        score_pval(1.0) == 1.0
        and abs(score_pval(1e-17)) < 1e-12
        and score_size(5, 20) == 0.25
        and score_size(25, 20) == 1.0
    )
    _report(5, "significance and size score fixed points are exact", ok)


def test_criterion_06_selection_step_optimality():
    started = time.perf_counter()
    rng = np.random.default_rng(606)
    ok = True
    rows = [WeightVector.from_row(r) for r in ACCURACY_LADDER + STABILITY_LADDER]
    pool, _ = fabricate_pool(rng, 200, n_elements=150, missing=True)
    for w in rows:
        got = reduce_set(pool, [w], 50)[0].members
        want = oracle_reduce(pool, w, 50)
        ok &= [id(m) for m in got] == [id(m) for m in want]
        if not ok:
            break
    elapsed = time.perf_counter() - started
    ok = ok and elapsed < 30.0
    _report(
        6,
        f"every selection step equals the brute-force rescoring oracle across "
        f"{len(rows)} weight rows ({elapsed:.1f}s)",
        ok,
    )


def test_criterion_07_planted_recovery():
    started = time.perf_counter()
    ds, S = planted_dataset(seed=11)
    constraints = Constraints(min_jaccard=0.9, max_pvalue=0.01, min_support=10)
    params = MiningParams(
        max_iter=3,
        pct=PctParams(max_depth=7, min_leaf_size=5),
        seed=0,
        operator_mode="conjunctive",
    )
    result = mine(ds, constraints, params)
    elapsed = time.perf_counter() - started
    target = 0
    for e in S:
        target |= 1 << e
    hits = [m for m in result.members if m.supp_mask == target and m.j_qnm == 1.0]
    ok = bool(hits) and elapsed < 60.0
    _report(
        7,
        f"mining recovers the planted 40-instance box/conjunction pair at full "
        f"accuracy ({elapsed:.1f}s, single-threaded)",
        ok,
    )


def test_criterion_08_refinement_benefit():
    ds, S, T = refinement_benefit_dataset()
    constraints = Constraints(
        min_jaccard=0.7, min_ref_jaccard=0.4, max_pvalue=0.01, min_support=10
    )

    def run(refine_on):
        params = MiningParams(
            max_iter=2,
            pct=PctParams(max_depth=7, min_leaf_size=5),
            seed=0,
            use_refinement=refine_on,
            operator_mode="conjneg",
        )
        return {m.supp_mask: m.j_qnm for m in mine(ds, constraints, params).members}

    with_refine = run(True)
    without = run(False)
    common = set(with_refine) & set(without)
    never_worse = all(with_refine[s] >= without[s] - 1e-15 for s in common)
    strictly_better = sum(1 for s in common if with_refine[s] > without[s] + 1e-15)
    ok = bool(common) and never_worse and strictly_better >= 1
    _report(
        8,
        f"paired runs: refined accuracy never lower on {len(common)} shared "
        f"supports, strictly higher on {strictly_better}",
        ok,
    )


def test_criterion_09_weight_trends():
    rng = np.random.default_rng(909)
    pool, _ = fabricate_pool(rng, 2000, n_elements=200, missing=True)

    accuracy_rows = [WeightVector.from_row(r) for r in ACCURACY_LADDER[:3]]
    j_means = [
        sum(m.j_qnm for m in out.members) / len(out.members)
        for out in reduce_set(pool, accuracy_rows, 50)
    ]
    stability_rows = [WeightVector.from_row(r) for r in STABILITY_LADDER]
    v_means = [
        sum(m.variability for m in out.members) / len(out.members)
        for out in reduce_set(pool, stability_rows, 50)
    ]
    ok = (
        all(a <= b + 1e-12 for a, b in zip(j_means, j_means[1:]))
        and all(a >= b - 1e-12 for a, b in zip(v_means, v_means[1:]))
        and v_means[0] > v_means[-1]
    )
    _report(
        9,
        f"mean accuracy rises along the accuracy ladder {[round(x, 3) for x in j_means]}; "
        f"mean variability falls along the stability ladder {[round(x, 3) for x in v_means]}",
        ok,
    )


def test_criterion_10_determinism_and_round_trip(tmp_path):
    ds, _ = planted_dataset(seed=11)
    paths = {
        "view1": tmp_path / "v1.csv",
        "schema1": tmp_path / "v1.schema",
        "view2": tmp_path / "v2.csv",
        "schema2": tmp_path / "v2.schema",
    }
    write_view(ds.view1, paths["view1"])
    write_schema(ds.view1, paths["schema1"])
    write_view(ds.view2, paths["view2"])
    write_schema(ds.view2, paths["schema2"])
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "min_jaccard = 0.8\nmin_ref_jaccard = 0.5\nmax_pvalue = 0.01\n"
        "min_support = 10\nmax_iter = 2\nmin_leaf_size = 5\n"
        "weights = 0.2,0.2,0.2,0.2,0.2,0.0\nsizes = 10\n",
        encoding="utf-8",
    )
    args = [
        "--view1", str(paths["view1"]), "--schema1", str(paths["schema1"]),
        "--view2", str(paths["view2"]), "--schema2", str(paths["schema2"]),
        "--config", str(cfg),
    ]
    mined = []
    for name in ("m1", "m2"):
        out = tmp_path / name
        assert main(["mine", *args, "--seed", "5", "--out", str(out)]) == 0
        mined.append(out / "mined.tsv")
    byte_identical = mined[0].read_bytes() == mined[1].read_bytes()

    red_out = tmp_path / "red"
    assert main(["reduce", str(mined[0]), *args, "--out", str(red_out)]) == 0
    reduced_path = red_out / "reduced_w1_n10.tsv"

    # statistics written to the file must equal statistics recomputed from
    # queries plus views alone
    loaded, rejected = read_records(reduced_path, ds)
    recorded = [
        line.split("\t")
        for line in reduced_path.read_text(encoding="utf-8").splitlines()
        if line and not line.startswith("#")
    ]
    stats_survive = not rejected and len(loaded) == len(recorded)
    for member, fields in zip(loaded, recorded):
        stats_survive &= fields[2] == repr(member.j_qnm)
        stats_survive &= fields[3] == repr(member.j_opt)
        stats_survive &= fields[4] == repr(member.j_pess)
        stats_survive &= fields[5] == repr(member.p_value)

    ev1, ev2 = tmp_path / "e1", tmp_path / "e2"
    assert main(["eval", str(reduced_path), *args, "--out", str(ev1)]) == 0
    assert main(["eval", str(reduced_path), *args, "--out", str(ev2)]) == 0
    eval_identical = (ev1 / "eval_redescriptions.csv").read_bytes() == (
        ev2 / "eval_redescriptions.csv"
    ).read_bytes()

    ok = byte_identical and stats_survive and eval_identical
    _report(
        10,
        "identically seeded runs write identical bytes and statistics survive "
        "the interchange round-trip bit for bit",
        ok,
    )
