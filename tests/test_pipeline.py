"""The command line's whole `mine` -> `reduce` -> `eval` run against the plain
reference pipeline of `reference.py`, byte for byte."""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from redesc.cli import main
from redesc.config import RunConfig
from redesc.dataset import load_dataset

from conftest import latent_dataset, small_latent_datasets
from reference import reference_pipeline, write_schema, write_view

# weight row 2: every term weighted (the variability index too), mostly
# accuracy, or significance and element redundancy alone
_WEIGHT_ROWS = st.sampled_from(["0.3,0.1,0.2,0.1,0.2,0.1", "0.6,0.2,0.0,0.0,0.2,0.0", "0,1,0,1,0,0"])


def _config(seed, mode, refine, min_jaccard, min_ref_jaccard, max_set_size, sizes, weights):
    """A run config over the shared small-tree settings, with the equal row
    as weight row 1."""
    lines = [
        f"seed = {seed}",
        f"operator_mode = {mode}",
        f"refine = {refine}",
        f"min_jaccard = {min_jaccard}",
        f"min_ref_jaccard = {min_ref_jaccard}",
        "max_pvalue = 0.5",
        "min_support = 3",
        "max_iter = 2",
        "max_depth = 3",
        "min_leaf_size = 3",
        f"max_set_size = {max_set_size}",
        f"sizes = {sizes}",
        "weights = 0.2,0.2,0.2,0.2,0.2,0.0",
        f"weights = {weights}",
    ]
    return "\n".join(lines) + "\n"


@st.composite
def pipeline_cases(draw):
    """(dataset, run config text): every operator mode, refinement on and
    off, Jaccard floors that small supports hit exactly, and a set cap small
    enough that mining trims."""
    ds = draw(small_latent_datasets())
    min_jaccard = draw(st.sampled_from([0.3, 0.4, 0.5]))
    config = _config(
        seed=draw(st.integers(0, 1000)),
        mode=draw(st.sampled_from(["conj", "conjneg", "all"])),
        refine=draw(st.booleans()),
        min_jaccard=min_jaccard,
        min_ref_jaccard=draw(st.sampled_from([min_jaccard, 0.2])),
        max_set_size=draw(st.sampled_from([4, 8, 12])),
        sizes=draw(st.sampled_from(["3", "5,2"])),
        weights=draw(_WEIGHT_ROWS),
    )
    return ds, config


@settings(max_examples=60, deadline=None, derandomize=True)
@given(case=pipeline_cases())
# with refinement off in `all` mode, a candidate that replaced a member of the
# same support and was displaced later in its round once grew disjunctions
@example(
    case=(latent_dataset(33, 3, 0.1), _config(3, "all", False, 0.3, 0.3, 12, "3", "0,1,0,1,0,0"))
)
def test_cli_pipeline_equals_reference_property(tmp_path_factory, case):
    ds, config = case
    root = tmp_path_factory.mktemp("pipeline")
    paths = {}
    for i, view in ((1, ds.view1), (2, ds.view2)):
        paths[f"view{i}"], paths[f"schema{i}"] = root / f"v{i}.csv", root / f"v{i}.schema"
        write_view(view, paths[f"view{i}"])
        write_schema(view, paths[f"schema{i}"])
    paths["config"] = root / "run.cfg"
    paths["config"].write_text(config, encoding="utf-8")
    args = [arg for key, path in paths.items() for arg in (f"--{key}", str(path))]

    cli_out, ref_out = root / "cli", root / "ref"
    ref_out.mkdir()
    cfg = RunConfig.from_sources(paths["config"], {})
    reference_pipeline(load_dataset(*(paths[k] for k in ("view1", "schema1", "view2", "schema2"))),
                       cfg, ref_out)
    want = {p.name: p.read_bytes() for p in ref_out.iterdir()}

    assert main(["mine", *args, "--out", str(cli_out)]) == 0
    mined = want["mined.tsv"].count(b"\n") > 1  # a header line, then one per member
    code = main(["reduce", str(cli_out / "mined.tsv"), *args, "--out", str(cli_out)])
    assert code == (0 if mined else 2)
    if mined:
        evaluated = cli_out / f"reduced_w1_n{cfg.sizes[0]}.tsv"
        assert main(["eval", str(evaluated), *args, "--out", str(cli_out)]) == 0
    got = {p.name: p.read_bytes() for p in cli_out.iterdir() if p.suffix in (".tsv", ".csv")}
    assert sorted(got) == sorted(want)
    # mined, then reduced, then eval files: a failure names the first stage that differs
    for name in sorted(want, key=lambda name: "mre".index(name[0])):
        assert got[name] == want[name], name
