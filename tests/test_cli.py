import json

import pytest

from relgen.cli import main
from relgen.errors import InvalidConfigError
from relgen.seeding import STREAM_VERSION
from relgen.serialize import (
    file_sha256,
    load_dataset,
    load_manifest,
    read_schema,
)

SMALL = {
    "rows_main": 300,
    "rows_add": 60,
    "num_presamples": 200,
    "main_graph": {"num_nodes": 8},
    "add_graph": {"num_nodes": 5},
}


@pytest.fixture()
def small_config(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(SMALL))
    return path


def generate(tmp_path, small_config, out_name="ds", seed=None):
    out = tmp_path / out_name
    argv = ["generate", "--config", str(small_config), "--out", str(out)]
    if seed is not None:
        argv += ["--seed", str(seed)]
    assert main(argv) == 0
    return out


def test_generate_writes_expected_files(tmp_path, small_config, capsys):
    out = generate(tmp_path, small_config, seed=3)
    for name in ("main.csv", "additional.csv", "schema.json", "schema.dot", "manifest.json"):
        assert (out / name).exists(), name
    header = (out / "main.csv").read_text().splitlines()[0]
    names = header.split(",")
    assert names[-1] == "C"
    assert all(n.startswith("M") for n in names[:-1])
    add_header = (out / "additional.csv").read_text().splitlines()[0].split(",")
    assert add_header[-1] == "C" and all(n.startswith("A") for n in add_header[:-1])


def test_generate_is_byte_reproducible(tmp_path, small_config):
    a = generate(tmp_path, small_config, "a", seed=4)
    b = generate(tmp_path, small_config, "b", seed=4)
    for name in ("main.csv", "additional.csv", "schema.json"):
        assert file_sha256(a / name) == file_sha256(b / name)


def test_flag_overrides_config(tmp_path, small_config):
    out = tmp_path / "rows"
    assert main(["generate", "--config", str(small_config), "--out", str(out), "--rows-main", "17"]) == 0
    assert len((out / "main.csv").read_text().splitlines()) == 18  # header + rows


def test_threads_flag_keeps_output_identical(tmp_path, small_config):
    a = generate(tmp_path, small_config, "t1", seed=5)
    out = tmp_path / "t8"
    assert main([
        "generate", "--config", str(small_config), "--out", str(out), "--seed", "5", "--threads", "8",
    ]) == 0
    for name in ("main.csv", "additional.csv"):
        assert file_sha256(a / name) == file_sha256(out / name)


def test_manifest_does_not_depend_on_output_directory(tmp_path, small_config):
    a = generate(tmp_path, small_config, "a", seed=4)
    b = generate(tmp_path, small_config, "b", seed=4)
    assert (a / "manifest.json").read_bytes() == (b / "manifest.json").read_bytes()


def test_regenerate_accepts_manifest_with_out_dir(tmp_path, small_config, capsys):
    out = generate(tmp_path, small_config, seed=6)
    manifest = load_manifest(out / "manifest.json")
    manifest["config"]["out_dir"] = str(out)  # older manifests recorded it
    (out / "manifest.json").write_text(json.dumps(manifest))
    assert main(["regenerate", str(out / "manifest.json")]) == 0
    assert "identical hashes" in capsys.readouterr().out


def test_regenerate_verifies_hashes(tmp_path, small_config, capsys):
    out = generate(tmp_path, small_config, seed=6)
    assert main(["regenerate", str(out / "manifest.json"), "--out", str(tmp_path / "again")]) == 0
    captured = capsys.readouterr()
    assert "identical hashes" in captured.out
    original = load_manifest(out / "manifest.json")
    again = load_manifest(tmp_path / "again" / "manifest.json")
    assert original["files"] == again["files"]


def test_regenerate_detects_tampering(tmp_path, small_config, capsys):
    out = generate(tmp_path, small_config, seed=7)
    manifest = load_manifest(out / "manifest.json")
    manifest["files"]["main.csv"] = "0" * 64
    (out / "manifest.json").write_text(json.dumps(manifest))
    assert main(["regenerate", str(out / "manifest.json"), "--out", str(tmp_path / "x")]) == 1


def dir_bytes(root):
    return {p.relative_to(root): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


def test_regenerate_in_place_leaves_dataset_untouched(tmp_path, small_config, capsys):
    out = generate(tmp_path, small_config, seed=6)
    assert main(["regenerate", str(out / "manifest.json")]) == 0
    assert "identical hashes" in capsys.readouterr().out
    manifest = load_manifest(out / "manifest.json")
    manifest["config"]["rows_main"] = 301
    (out / "manifest.json").write_text(json.dumps(manifest))
    before = dir_bytes(tmp_path)
    assert main(["regenerate", str(out / "manifest.json")]) == 1
    assert dir_bytes(tmp_path) == before  # main.csv unchanged, no temporary directory left


@pytest.mark.parametrize("use_out", [False, True], ids=["beside", "out"])
def test_regenerate_reads_the_dataset_it_verifies(tmp_path, small_config, capsys, use_out):
    out = generate(tmp_path, small_config, seed=6)
    truncate_main(out)
    before = dir_bytes(out)
    argv = ["regenerate", str(out / "manifest.json")]
    if use_out:
        argv += ["--out", str(tmp_path / "again")]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert "main.csv" in err and "on disk" in err
    assert "regenerated:" not in err  # the regenerated side still matches the manifest
    assert dir_bytes(out) == before


@pytest.mark.parametrize("spelling", ["same", "dotted", "relative"])
def test_regenerate_refuses_out_that_is_the_dataset(tmp_path, small_config, capsys, monkeypatch, spelling):
    # A manifest that no longer matches its files: regenerating into the
    # dataset's own directory would rewrite main.csv to 301 rows.
    out = generate(tmp_path, small_config, seed=6)
    manifest = load_manifest(out / "manifest.json")
    manifest["config"]["rows_main"] = 301
    (out / "manifest.json").write_text(json.dumps(manifest))
    monkeypatch.chdir(tmp_path)
    target = {"same": str(out), "dotted": str(out / ".." / out.name), "relative": out.name}[spelling]
    before = dir_bytes(tmp_path)
    assert main(["regenerate", str(out / "manifest.json"), "--out", target]) == 2
    assert "is the dataset being verified" in capsys.readouterr().err
    assert dir_bytes(tmp_path) == before


def refuses_to_regenerate(tmp_path, out):
    """``regenerate`` with and without --out exits 2 and writes nothing."""
    before = dir_bytes(tmp_path)
    assert main(["regenerate", str(out / "manifest.json")]) == 2
    assert main(["regenerate", str(out / "manifest.json"), "--out", str(tmp_path / "again")]) == 2
    assert dir_bytes(tmp_path) == before
    assert not (tmp_path / "again").exists()


def test_regenerate_rejects_other_stream_version(tmp_path, small_config, capsys):
    out = generate(tmp_path, small_config, seed=6)
    manifest = load_manifest(out / "manifest.json")
    assert manifest["stream_version"] == STREAM_VERSION
    del manifest["stream_version"]  # a version-1 manifest has no field
    (out / "manifest.json").write_text(json.dumps(manifest))
    refuses_to_regenerate(tmp_path, out)
    assert "stream version 1" in capsys.readouterr().err


def test_regenerate_rejects_stream_version_2(tmp_path, small_config, capsys):
    # Version 2 wrote the same bytes at hidden_dim 2 but may round a
    # nearest-centroid distance differently from 8 dimensions on.
    out = generate(tmp_path, small_config, seed=6)
    manifest = load_manifest(out / "manifest.json")
    manifest["stream_version"] = 2
    (out / "manifest.json").write_text(json.dumps(manifest))
    refuses_to_regenerate(tmp_path, out)
    assert "stream version 2" in capsys.readouterr().err


# SHA-256 of the SMALL profile at seed 4, random-stream version 2, unchanged
# by version 3. A change to the stream layout, the CSV format or the schema
# encoding changes these; the manifest's also changes with the config's
# encoding, the tool version or the stream version. These and GOLDEN_EVAL
# are pinned to one toolchain, the one .github/workflows/tests.yml runs:
# x86-64 Linux, CPython 3.11.7, numpy 2.4.6, pytest 9.0.3, hypothesis
# 6.155.2. Another numpy or platform may round differently.
GOLDEN = {
    "main.csv": "ba2f09167a298b3e0ba3d76ae18a22000c7462854b4dbf973c5f223f63ae74fd",
    "additional.csv": "e045bc10c5d6831b7a48fd6259ee1d2d6f6049af4a85e41499b1cfe201d122e5",
    "schema.json": "4eac18586b7e90b032cc601b3b3f3493f74ead2b1560ac699b624b27d369cf5e",
    "manifest.json": "9bd8c960a0808739167bad4128458d986315c2c4d83247cc8622c989b3ff3216",
}

# SHA-256 of what ``relgen eval`` writes for that dataset: a change to the
# neighbours, the scores or the report's encoding changes these.
GOLDEN_EVAL = {
    "eval_report.json": "c005a8098b113e90d137d09db5d72dd1a5961ed9ab0d709a121227bdb567978b",
    "metrics.csv": "be8e6505504d60f12822e3db3b4043d8fe57c82bc0e654b4b902985a8593b94a",
}


# The SMALL profile at seed 4 at two more widths, generated and evaluated.
# hidden_dim 2 leaves relgen's reductions order-free; at 1 one-column slices
# are summed pairwise, and from 8 on sums run in eight lanes, so these pin
# the bytes where a reordered reduction would show. At 1 the coupling node's
# categories are reduced (the pre-run has too few distinct vectors).
GOLDEN_BY_HIDDEN_DIM = {
    1: {
        "main.csv": "aac53248c427f562bec7a166bd743028a118c4b38e763ddb10f3705e045cb33b",
        "additional.csv": "dff1b733157b7fab9c85d510cdf15b7234d29b90a6c281c87f87ee87f1ee7c18",
        "schema.json": "76004f3baace5bd868e552fe839444cc47d97703a8635debbb49a9f94b81f1b8",
        "manifest.json": "160e3cc530a37110cc685152683434dd4506e7b1d74e8b961a0133f47559f040",
        "eval_report.json": "003a96dc452c5006d13ac9d4f3f6063f1b96799d48f83e3fdb55c4dae1d0ae38",
        "metrics.csv": "48a35e269fcbb5cbc32b31a830392525b40339d71dd8c68276459e4b166fa28c",
    },
    8: {
        "main.csv": "4fa5931cf63315ec1c78b881fb731e94f681871fd122bfbada47edd53b1da04d",
        "additional.csv": "07342cae1e316263c752d0de25f3fd111fc56988ef632ed5a57384110cef915f",
        "schema.json": "7fb7eea30008418d1ed19c691a770445bbfc7771a2d4b2d438b374cf8054d789",
        "manifest.json": "85487e3054c2047470a5529fe09f8825286f1523299c0fac7490c8411652d21f",
        "eval_report.json": "e031ac485d3f539975c7606ee33637e83f86902b58c48c59cf23836b459ccd03",
        "metrics.csv": "77cbd1d6a7ab92c518576e13a57eccd563ef8912fa5b4797458fb792045531b6",
    },
}


def test_golden_hashes(tmp_path, small_config):
    out = generate(tmp_path, small_config, seed=4)
    assert {name: file_sha256(out / name) for name in GOLDEN} == GOLDEN


def test_golden_eval_hashes(tmp_path, small_config):
    out = generate(tmp_path, small_config, seed=4)
    assert main(["eval", str(out)]) == 0
    assert {name: file_sha256(out / name) for name in GOLDEN_EVAL} == GOLDEN_EVAL


@pytest.mark.parametrize("hidden_dim", sorted(GOLDEN_BY_HIDDEN_DIM))
def test_golden_hashes_at_other_widths(tmp_path, capsys, hidden_dim):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({**SMALL, "hidden_dim": hidden_dim}))
    out = generate(tmp_path, cfg_path, seed=4)
    assert main(["eval", str(out)]) == 0
    golden = GOLDEN_BY_HIDDEN_DIM[hidden_dim]
    assert {name: file_sha256(out / name) for name in golden} == golden
    assert ("reduced categories" in capsys.readouterr().out) == (hidden_dim == 1)


def test_eval_writes_reports(tmp_path, small_config):
    out = generate(tmp_path, small_config, seed=8)
    assert main(["eval", str(out)]) == 0
    report = json.loads((out / "eval_report.json").read_text())
    assert report["targets"]
    lines = (out / "metrics.csv").read_text().splitlines()
    assert lines[0] == "target,task,metric,condition,value,latently_affected"
    assert len(lines) == 1 + 2 * len(report["targets"])


def test_eval_flags_ablation_dataset(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({**SMALL, "latent_count": 0}))
    out = generate(tmp_path, cfg_path, seed=9)
    assert main(["eval", str(out)]) == 0
    report = json.loads((out / "eval_report.json").read_text())
    assert all(not t["latently_affected"] for t in report["targets"])


def truncate_main(out):
    lines = (out / "main.csv").read_text().splitlines(keepends=True)
    (out / "main.csv").write_text("".join(lines[:201]))


def flip_schema_byte(out):
    data = bytearray((out / "schema.json").read_bytes())
    i = data.rindex(b'"') - 1  # last hex digit of the fingerprint; still valid JSON
    data[i] = ord("a") if data[i] != ord("a") else ord("b")
    (out / "schema.json").write_bytes(bytes(data))


def unlist_main(out):
    manifest = load_manifest(out / "manifest.json")
    del manifest["files"]["main.csv"]
    (out / "manifest.json").write_text(json.dumps(manifest))


@pytest.mark.parametrize(
    "tamper, name",
    [(truncate_main, "main.csv"), (flip_schema_byte, "schema.json"), (unlist_main, "main.csv")],
    ids=["truncated-main", "edited-schema", "unlisted-main"],
)
def test_eval_rejects_dataset_that_differs_from_manifest(tmp_path, small_config, capsys, tamper, name):
    out = generate(tmp_path, small_config, seed=8)
    tamper(out)
    with pytest.raises(InvalidConfigError, match=name):
        load_dataset(out)
    assert main(["eval", str(out)]) == 2
    assert name in capsys.readouterr().err
    assert not (out / "eval_report.json").exists()


def test_eval_without_manifest_fails_cleanly(tmp_path, small_config, capsys):
    out = generate(tmp_path, small_config, seed=8)
    (out / "manifest.json").unlink()
    assert main(["eval", str(out)]) == 2
    assert "manifest.json" in capsys.readouterr().err


def test_export_dot(tmp_path, small_config):
    out = generate(tmp_path, small_config, seed=10)
    target = tmp_path / "viz.dot"
    assert main(["export-dot", str(out / "schema.json"), "--out", str(target)]) == 0
    text = target.read_text()
    assert text.startswith("digraph")
    assert '"C"' in text
    assert text == (out / "schema.dot").read_text()


@pytest.mark.parametrize("spelling", ["same", "dotted", "relative", "default"])
def test_export_dot_refuses_out_that_is_the_schema(tmp_path, small_config, capsys, monkeypatch, spelling):
    # Writing DOT text over the schema would leave a dataset that eval and
    # regenerate refuse. A schema named *.dot is its own default --out.
    out = generate(tmp_path, small_config, seed=10)
    monkeypatch.chdir(tmp_path)
    schema = out / "schema.json"
    if spelling == "default":
        schema = tmp_path / "schema.dot"
        schema.write_bytes((out / "schema.json").read_bytes())
        argv = ["export-dot", str(schema)]
    else:
        target = {"same": str(schema), "dotted": str(out / ".." / out.name / "schema.json"), "relative": f"{out.name}/schema.json"}
        argv = ["export-dot", str(schema), "--out", target[spelling]]
    before = dir_bytes(tmp_path)
    assert main(argv) == 2
    assert "is the schema being read" in capsys.readouterr().err
    assert dir_bytes(tmp_path) == before
    assert main(["regenerate", str(out / "manifest.json")]) == 0


def test_dot_styles_targets_and_labels_edges(tmp_path, small_config):
    out = generate(tmp_path, small_config, seed=11)
    schema, _ = read_schema(out / "schema.json")
    text = (out / "schema.dot").read_text()
    target_names = [schema.merged.node(i).name for i in schema.main_targets()]
    for name in target_names:
        assert f'"{name}" [label="{name}' in text
    assert "#a1d99b" in text and "#9ecae1" in text  # distinct role colors
    assert "label=" in text.split("->")[1]  # edges carry activation labels


def test_load_dataset_round_trips_values(tmp_path, small_config):
    out = generate(tmp_path, small_config, seed=12)
    ds = load_dataset(out)
    assert ds.main_table.row_count == SMALL["rows_main"]
    assert ds.add_table.row_count == SMALL["rows_add"]
    # 64-bit round trip through the CSV
    raw = (out / "main.csv").read_text().splitlines()
    first_numeric = next(
        j for j, c in enumerate(ds.main_table.columns) if c.kind == "numeric"
    )
    cell = raw[1].split(",")[first_numeric]
    assert float(cell) == ds.main_table.columns[first_numeric].values[0]


def test_seed_whose_coupling_node_sees_constant_data_exits_2(tmp_path, capsys):
    """At seed 54 the default profile's C is relu of A3, and its
    pre-activation is never positive over the pre-run: C is constant."""
    out = tmp_path / "ds"
    assert main(["generate", "--seed", "54", "--rows-main", "200", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == (
        "error: coupling node C sees constant pre-run data at seed 54, "
        "so it has no categories to key the tables; pick another seed\n"
    )
    assert not out.exists()


OVERFLOW = {
    "activations": ["identity"],
    "root_distributions": {"family_weights": {"normal": 1.0}, "normal_mean": [0, 0], "normal_std": [1e160, 2e160]},
}


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_generate_whose_values_overflow_when_squared_exits_2(tmp_path, capsys):
    """Root values near 1e160 are finite, but their squares overflow the
    k-means fit of the first categorical node."""
    config = tmp_path / "config.json"
    config.write_text(json.dumps(OVERFLOW))
    out = tmp_path / "ds"
    assert main(["generate", "--config", str(config), "--seed", "0", "--rows-main", "2000", "--out", str(out)]) == 2
    lines = capsys.readouterr().err.splitlines()
    assert [line for line in lines if line.startswith("error:")] == lines[-1:]
    assert lines[-1].startswith("error: node ") and "not finite" in lines[-1]
    assert not out.exists()


def test_bad_command_errors_cleanly(tmp_path, capsys):
    missing = tmp_path / "nope.json"
    missing.write_text("{\"rows_main\": -2}")
    assert main(["generate", "--config", str(missing)]) == 2
    assert "rows_main" in capsys.readouterr().err


@pytest.mark.parametrize(
    "config, key",
    [
        ({"main_graph": 5}, "main_graph"),
        ({"category_count": [4, "x"]}, "category_count"),
        ({"rows_main": "100"}, "rows_main"),
        ({"hidden_dim": 2.5}, "hidden_dim"),
        ({"categorical_probability": "x"}, "categorical_probability"),
        ({"root_distributions": {"mixture_p": "x"}}, "root_distributions.mixture_p"),
        ({"activations": [[1]]}, "activations[0]"),
        ({"root_distributions": {"family_weights": 3}}, "root_distributions.family_weights"),
        ({"root_distributions": {"family_weights": {"normal": "x"}}}, "root_distributions.family_weights.normal"),
        ({"main_graph": {"num_nodes": [5.9, 9]}}, "main_graph.num_nodes[0]"),
        ({"main_graph": {"num_nodes": ["5", 9]}}, "main_graph.num_nodes[0]"),
        ({"category_count": ["4", 2]}, "category_count[0]"),
        ({"coupling_categories": [True, 50]}, "coupling_categories[0]"),
        ({"noise": {"affected_fraction": True}}, "noise.affected_fraction"),
        ({"out_dir": 5}, "out_dir"),
    ],
    ids=[
        "section-is-number",
        "pair-holds-string",
        "rows-is-string",
        "hidden-dim-is-float",
        "probability-is-string",
        "mixture-p-is-string",
        "activation-is-list",
        "family-weights-is-number",
        "family-weight-is-string",
        "node-count-is-float",
        "node-count-is-string",
        "category-mean-is-string",
        "key-mean-is-boolean",
        "noise-fraction-is-boolean",
        "out-dir-is-number",
    ],
)
def test_config_value_of_wrong_type_exits_2(tmp_path, capsys, config, key):
    path = tmp_path / "c.json"
    path.write_text(json.dumps(config))
    assert main(["generate", "--config", str(path), "--out", str(tmp_path / "ds")]) == 2
    err = capsys.readouterr().err
    assert key in err and "Traceback" not in err
    assert len(err.strip().splitlines()) == 1


def drop_files(manifest):
    del manifest["files"]
    return manifest


@pytest.mark.parametrize(
    "malform", [drop_files, lambda manifest: [manifest]], ids=["without-files", "json-list"]
)
@pytest.mark.parametrize("command", ["eval", "regenerate"])
def test_malformed_manifest_exits_2(tmp_path, small_config, capsys, malform, command):
    out = generate(tmp_path, small_config, seed=8)
    manifest_path = out / "manifest.json"
    manifest_path.write_text(json.dumps(malform(load_manifest(manifest_path))))
    capsys.readouterr()
    target = out if command == "eval" else manifest_path
    assert main([command, str(target)]) == 2
    err = capsys.readouterr().err
    assert "manifest.json" in err and "not a manifest" in err
    assert len(err.strip().splitlines()) == 1


def test_regenerate_config_value_of_wrong_type_exits_2(tmp_path, small_config, capsys):
    out = generate(tmp_path, small_config, seed=8)
    manifest_path = out / "manifest.json"
    manifest = load_manifest(manifest_path)
    manifest["config"]["categorical_probability"] = "x"
    manifest_path.write_text(json.dumps(manifest))
    capsys.readouterr()
    assert main(["regenerate", str(manifest_path)]) == 2
    err = capsys.readouterr().err
    assert "categorical_probability" in err and "Traceback" not in err
    assert len(err.strip().splitlines()) == 1


@pytest.mark.parametrize(
    "content, part", [({}, "merged"), ([1], "JSON object")], ids=["empty-object", "json-list"]
)
def test_export_dot_of_non_schema_exits_2(tmp_path, capsys, content, part):
    path = tmp_path / "schema.json"
    path.write_text(json.dumps(content))
    assert main(["export-dot", str(path)]) == 2
    err = capsys.readouterr().err
    assert str(path) in err and part in err and "Traceback" not in err
    assert len(err.strip().splitlines()) == 1


@pytest.mark.parametrize(
    "node, part",
    [
        ({}, "merged.nodes[0] lacks"),
        (
            {
                "index": 0, "name": "C", "role": "coupling", "root_dist": {}, "activation": "identity",
                "weights": None, "pooling": "categorical", "category_count": 3,
            },
            "merged.nodes[0].root_dist lacks",
        ),
    ],
    ids=["empty-node", "empty-root-dist"],
)
def test_export_dot_of_malformed_node_exits_2(tmp_path, capsys, node, part):
    merged = {"nodes": [node], "edges": [], "hidden_dim": 4}
    schema = {"merged": merged, "main_indices": [0], "add_indices": [], "coupling_index": 0, "latent_edges": []}
    path = tmp_path / "schema.json"
    path.write_text(json.dumps(schema))
    assert main(["export-dot", str(path)]) == 2
    err = capsys.readouterr().err
    assert f"{path}: {part}" in err and "Traceback" not in err
    assert len(err.strip().splitlines()) == 1


def _first(nodes, part):
    return next(node for node in nodes if node[part] is not None)


@pytest.mark.parametrize(
    "malform, part",
    [
        (lambda s: s["merged"]["edges"].append([0, 999]), "malformed schema (DegenerateGraphError: edge (0,999)"),
        (lambda s: s["merged"]["nodes"][-1].update(weights="abc"), "merged.nodes[{last}].weights"),
        (lambda s: s["merged"].update(edges=[1, 2]), "merged.edges[0] must be a list"),
        (lambda s: s["merged"].update(nodes=5), "merged.nodes must be a list"),
        (lambda s: s.update(latent_edges=5), "latent_edges must be a list"),
        (
            lambda s: _first(s["merged"]["nodes"], "root_dist").update(
                root_dist={"kind": "gamma", "params": {"scale": 1.0}}
            ),
            "malformed schema (KeyError: 'shape'",
        ),
        (
            lambda s: _first(s["merged"]["nodes"], "root_dist").update(root_dist={"kind": "normal", "params": 5}),
            "merged.nodes[0].root_dist.params must be a JSON object",  # node 0 has no parents: a root
        ),
        (
            lambda s: s["merged"]["nodes"][0].update(index=1),
            "malformed schema (DegenerateGraphError: node indices must be contiguous from 0)",
        ),
        (
            lambda s: s["merged"].update(edges=[e for e in s["merged"]["edges"] if 0 not in e]),
            "malformed schema (DegenerateGraphError: node 0 is isolated)",
        ),
        (
            lambda s: s["merged"]["nodes"][0].update(role="target"),
            "malformed schema (DegenerateGraphError: node 0 role 'target' contradicts degrees)",
        ),
        # The last node is a target; a role outside ROLES is named as unknown, not as contradicting.
        (lambda s: s["merged"]["nodes"][-1].update(role="sink"), "merged.nodes[{last}].role 'sink' is not one of"),
    ],
    ids=["edge-past-the-nodes", "weights-not-numbers", "edges-not-pairs", "nodes-not-a-list",
         "latent-edges-not-a-list", "gamma-without-shape", "params-not-an-object", "indices-not-contiguous",
         "isolated-node", "role-contradicts-degrees", "unknown-role"],
)
def test_export_dot_of_malformed_schema_exits_2(tmp_path, small_config, capsys, malform, part):
    path = generate(tmp_path, small_config, seed=9) / "schema.json"
    schema = json.loads(path.read_text())
    last = len(schema["merged"]["nodes"]) - 1
    malform(schema)
    path.write_text(json.dumps(schema))
    capsys.readouterr()
    assert main(["export-dot", str(path)]) == 2
    err = capsys.readouterr().err
    assert f"{path}: {part.format(last=last)}" in err and "Traceback" not in err
    assert len(err.strip().splitlines()) == 1


def _edit_schema(out, malform):
    """Edit the dataset's schema.json and list its new hash in the manifest,
    so only the schema's own checks can refuse it."""
    path = out / "schema.json"
    schema = json.loads(path.read_text())
    malform(schema)
    path.write_text(json.dumps(schema))
    manifest = json.loads((out / "manifest.json").read_text())
    manifest["files"]["schema.json"] = file_sha256(path)
    (out / "manifest.json").write_text(json.dumps(manifest))
    return path


def _coupling_as_target(schema):
    """C without its edges into the main graph, relabelled a target: every
    other invariant still holds at seed 9."""
    c = schema["coupling_index"]
    schema["merged"]["edges"] = [e for e in schema["merged"]["edges"] if e[0] != c]
    schema["merged"]["nodes"][c]["role"] = "target"


@pytest.mark.parametrize(
    "malform, key",
    [
        (lambda s: s.update(coupling_index=999), "coupling_index 999"),
        (lambda s: s.update(coupling_index=-1), "coupling_index -1"),
        (lambda s: s.update(coupling_index=float(s["coupling_index"])), "coupling_index"),
        (lambda s: s.update(coupling_index=s["coupling_index"] + 1), "add_indices"),
        (lambda s: s["add_indices"].pop(), "add_indices"),
        (lambda s: s["main_indices"].reverse(), "main_indices"),
        (lambda s: s["main_indices"].append(len(s["merged"]["nodes"])), "main_indices"),
        (_coupling_as_target, "coupling_index"),
        (lambda s: s["merged"]["nodes"][-1].update(pooling="mode"), "merged.nodes[{last}].pooling 'mode'"),
        (lambda s: s["merged"]["nodes"][-1].update(activation="gelu"), "merged.nodes[{last}].activation 'gelu'"),
        (
            lambda s: s["merged"]["nodes"][s["coupling_index"]].update(category_count=None),
            "merged.nodes[{c}].category_count",
        ),
        (lambda s: s["prerun_stats"]["conventions"].update(quantile="nearest rank"), "prerun_stats.conventions"),
        (lambda s: s["merged"].update(hidden_dim=0), "merged.hidden_dim 0"),
        (lambda s: s["merged"]["nodes"][0].update(root_dist=None), "merged.nodes[0].root_dist"),
        (
            lambda s: s["merged"]["nodes"][-1].update(root_dist=s["merged"]["nodes"][0]["root_dist"]),
            "merged.nodes[{last}].root_dist",
        ),
        (lambda s: s["merged"]["nodes"][-1].update(activation=None), "merged.nodes[{last}].activation"),
        (lambda s: s["merged"]["nodes"][-1].update(weights=None), "merged.nodes[{last}].weights"),
        (lambda s: s["merged"]["nodes"][-1]["weights"].pop(), "merged.nodes[{last}].weights"),
        (
            lambda s: [row.pop() for row in s["merged"]["nodes"][-1]["weights"]],
            "merged.nodes[{last}].weights",
        ),
        (lambda s: s["prerun_stats"]["quantiles"].pop("0"), "prerun_stats.quantiles.0 must be a pair of 2-component"),
        (
            lambda s: s["prerun_stats"]["quantiles"].update({"0": {"q10": [0.0], "q90": [1.0]}}),
            "prerun_stats.quantiles.0 must be a pair of 2-component",
        ),
        (
            lambda s: s["prerun_stats"]["quantiles"].update({"99": s["prerun_stats"]["quantiles"]["0"]}),
            "prerun_stats names a node index past {last}",
        ),
        (
            lambda s: s["prerun_stats"]["codebooks"].pop(str(s["coupling_index"])),
            "prerun_stats.codebooks.{c} must exist exactly when merged.nodes[{c}].pooling is categorical",
        ),
        (  # node 1 pools by variance at seed 9
            lambda s: s["prerun_stats"]["codebooks"].update({"1": s["prerun_stats"]["codebooks"]["0"]}),
            "prerun_stats.codebooks.1 must exist exactly when merged.nodes[1].pooling is categorical",
        ),
        (
            lambda s: s["prerun_stats"]["codebooks"]["0"].update(centroids=[[0.0, 1.0, 2.0]]),
            "prerun_stats.codebooks.0.centroids must have shape",
        ),
    ],
    ids=["coupling-past-the-nodes", "coupling-negative", "coupling-not-an-int", "coupling-moved",
         "add-node-missing", "main-nodes-reversed", "main-node-past-the-nodes", "coupling-as-target",
         "unknown-pooling", "unknown-activation", "categorical-without-count", "other-conventions",
         "hidden-dim-zero", "root-without-root-dist", "non-root-with-root-dist", "non-root-without-activation",
         "non-root-without-weights", "weights-missing-a-row", "weights-missing-a-column",
         "quantiles-missing-a-node", "quantiles-of-other-width", "quantiles-past-the-nodes", "codebook-missing",
         "codebook-on-numeric-node", "codebook-of-other-shape"],
)
@pytest.mark.parametrize("command", ["eval", "export-dot"])
def test_schema_that_breaks_the_node_layout_exits_2(tmp_path, small_config, capsys, malform, key, command):
    out = generate(tmp_path, small_config, seed=9)
    schema = json.loads((out / "schema.json").read_text())
    key = key.format(last=len(schema["merged"]["nodes"]) - 1, c=schema["coupling_index"])
    path = _edit_schema(out, malform)
    capsys.readouterr()
    assert main([command, str(out if command == "eval" else path)]) == 2
    err = capsys.readouterr().err
    assert f"{path}: {key}" in err and "Traceback" not in err
    assert len(err.strip().splitlines()) == 1
    assert not (out / "eval_report.json").exists()


def test_schema_with_a_repeated_node_name_exits_2(tmp_path, small_config, capsys):
    """The numeric M1 renamed to M0, the name of a categorical node, in the
    schema and the CSV header alike, with both new hashes in the manifest.
    Read by name, the columns would give M0's values twice and M1's never."""
    out = generate(tmp_path, small_config, seed=4)
    schema = json.loads((out / "schema.json").read_text())
    nodes = {node["name"]: node for node in schema["merged"]["nodes"]}
    assert nodes["M0"]["pooling"] == "categorical" and nodes["M1"]["pooling"] != "categorical"
    path = _edit_schema(out, lambda s: s["merged"]["nodes"][nodes["M1"]["index"]].update(name="M0"))
    csv_path = out / "main.csv"
    header, rest = csv_path.read_text().split("\n", 1)
    csv_path.write_text(header.replace("M1,", "M0,") + "\n" + rest)
    manifest = json.loads((out / "manifest.json").read_text())
    manifest["files"]["main.csv"] = file_sha256(csv_path)
    (out / "manifest.json").write_text(json.dumps(manifest))
    capsys.readouterr()
    assert main(["eval", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"{path}: merged.nodes[{nodes['M1']['index']}].name 'M0' repeats the name of" in err
    assert "Traceback" not in err and len(err.strip().splitlines()) == 1
    assert not (out / "eval_report.json").exists()


@pytest.mark.parametrize(
    "malform, key",
    [
        (lambda s: s.pop("seeds"), "schema lacks ['seeds']"),
        (lambda s: s["seeds"].pop("master_seed"), "seeds lacks ['master_seed']"),
        (lambda s: s.pop("prerun_stats"), "schema lacks ['prerun_stats']"),
        (lambda s: s.update(seeds=5), "seeds must be a JSON object"),
        (lambda s: s["seeds"].update(master_seed="7"), "seeds.master_seed must be an integer"),
        (lambda s: s["seeds"].update(master_seed=7.0), "seeds.master_seed must be an integer"),
        (lambda s: s["seeds"].update(master_seed=True), "seeds.master_seed must be an integer"),
        (lambda s: s.update(fingerprint=5), "fingerprint must be a string"),
        (lambda s: s.update(fingerprint=None), "fingerprint must be a string"),
    ],
    ids=["seeds-missing", "master-seed-missing", "prerun-stats-missing", "seeds-not-an-object", "seed-a-string", "seed-a-float", "seed-a-bool", "fingerprint-a-number",
         "fingerprint-null"],
)
def test_schema_with_malformed_seeds_exits_2(tmp_path, small_config, capsys, malform, key):
    out = generate(tmp_path, small_config, seed=9)
    path = _edit_schema(out, malform)
    capsys.readouterr()
    assert main(["eval", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"{path}: {key}" in err and "Traceback" not in err
    assert len(err.strip().splitlines()) == 1
    assert not (out / "eval_report.json").exists()


@pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
def test_eval_of_non_finite_feature_cell_exits_2(tmp_path, small_config, capsys, cell):
    out = generate(tmp_path, small_config, seed=9)
    columns = load_dataset(out).main_table.columns
    j = next(j for j, c in enumerate(columns) if c.kind == "numeric" and c.role != "target")
    path = out / "main.csv"
    lines = path.read_text().splitlines(keepends=True)
    row = lines[5].rstrip("\n").split(",")
    row[j] = cell
    lines[5] = ",".join(row) + "\n"
    path.write_text("".join(lines))
    manifest = json.loads((out / "manifest.json").read_text())
    manifest["files"]["main.csv"] = file_sha256(path)
    (out / "manifest.json").write_text(json.dumps(manifest))
    capsys.readouterr()
    assert main(["eval", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"{path}: column {columns[j].name} holds a non-finite cell" in err and "Traceback" not in err
    assert len(err.strip().splitlines()) == 1
    assert not (out / "eval_report.json").exists()


def test_eval_of_ragged_row_exits_2(tmp_path, small_config, capsys):
    out = generate(tmp_path, small_config, seed=9)
    path = out / "main.csv"
    lines = path.read_text().splitlines(keepends=True)
    lines[5] = lines[5].rstrip("\n").rsplit(",", 1)[0] + "\n"
    path.write_text("".join(lines))
    manifest = json.loads((out / "manifest.json").read_text())
    manifest["files"]["main.csv"] = file_sha256(path)
    (out / "manifest.json").write_text(json.dumps(manifest))
    capsys.readouterr()
    assert main(["eval", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"{path}: each row must hold" in err and "Traceback" not in err
    assert len(err.strip().splitlines()) == 1
    assert not (out / "eval_report.json").exists()
