"""Self-test of the benchmark: a small-scale traced run of every workload,
the tracer's binding-site guard, input determinism, and failure without a
source tree.

    PYTHONPATH=src python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import gen  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402

SCALE = 0.3

# Functions each workload must reach; per-layer metrics of the others are 0.
RUNS_ON = {
    "latent_refine": ("tree.best_split", "refine.refine_pair", "mine.combine_disjunctive",
                      "reduce.find_best", "measures.aej"),
    "wide_trees": ("tree.best_split", "refine.construct_and_refine", "reduce.find_best",
                   "measures.aej"),
    "pool_reduce": ("reduce.find_best", "query.parse_query", "measures.aej", "measures.aaj"),
}
NOT_ON = {
    "wide_trees": ("mine.combine_disjunctive",),
    "pool_reduce": ("tree.best_split", "refine.refine_pair", "mine.mine"),
}


@pytest.fixture(scope="module")
def traced_runs(tmp_path_factory):
    """One small traced run per workload, in a temporary copy of the checkout
    so that the run's working files stay out of the source tree."""
    root = tmp_path_factory.mktemp("checkout")
    shutil.copytree(ROOT / "src", root / "src", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", root / "BENCHMARK.json")
    results = {}
    for workload in sorted(gen.WORKLOADS):
        proc = subprocess.run(
            [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "3",
             "--seconds", "0", "--trace", "1", "--scale", str(SCALE)],
            cwd=root, capture_output=True, text=True, timeout=600,
        )
        assert proc.returncode == 0, proc.stderr
        summary = json.loads(
            (root / ".bench_work" / f"{workload}-3" / "summary.json").read_text()
        )
        results[workload] = (json.loads(proc.stdout.splitlines()[-1]), summary)
    return results


@pytest.mark.parametrize("workload", sorted(gen.WORKLOADS))
def test_small_traced_run_is_correct(traced_runs, workload):
    result, summary = traced_runs[workload]
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == run.MIN_REPS * len(summary["runs"][0]["untraced"]["commands"])
    for runs in summary["runs"]:
        assert runs["traced"]["digests"] == runs["untraced"]["digests"]
        assert runs["untraced"]["digests"]


@pytest.mark.parametrize("workload", sorted(gen.WORKLOADS))
def test_every_per_layer_metric_is_reported(traced_runs, workload):
    result, summary = traced_runs[workload]
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(result["metrics"]) == {m["name"] for m in declared["per_layer"]}
    traced = summary["runs"][0]["traced"]["trace"]["metrics"]
    for name in RUNS_ON[workload]:
        assert traced[f"{name}.calls"] > 0, name
    for name in NOT_ON.get(workload, ()):
        assert traced[f"{name}.calls"] == 0, name


def test_inputs_are_deterministic(tmp_path):
    for workload in gen.WORKLOADS:
        a = gen.write_inputs(workload, 5, 1, tmp_path / workload / "a", SCALE)
        b = gen.write_inputs(workload, 5, 1, tmp_path / workload / "b", SCALE)
        assert a.sizes == b.sizes
        for key, path in a.files.items():
            assert Path(path).read_bytes() == Path(b.files[key]).read_bytes(), key


def test_tracer_rejects_a_missing_binding_site(monkeypatch):
    import redesc.cli
    import redesc.measures

    monkeypatch.setattr(redesc.cli, "aej", lambda r, members: redesc.measures.aej(r, members))
    with pytest.raises(tracer.TraceSiteError, match="redesc.cli.aej"):
        tracer.Tracer().install()


def test_tracer_rejects_an_unlisted_binding_site(monkeypatch):
    import redesc.measures
    import redesc.reduce

    monkeypatch.setattr(redesc.reduce, "aej", redesc.measures.aej, raising=False)
    with pytest.raises(tracer.TraceSiteError, match="redesc.reduce.aej"):
        tracer.Tracer().install()


def test_tracer_restores_every_site():
    import redesc
    import redesc.cli

    before = (redesc.cli.mine, redesc.mine, redesc.measures.Redescription.create)
    t = tracer.Tracer()
    t.install()
    assert redesc.cli.mine is not before[0]
    t.uninstall()
    assert (redesc.cli.mine, redesc.mine, redesc.measures.Redescription.create) == before


def test_fails_without_a_source_tree(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "pool_reduce", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
