"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line. Run with `pytest tests/test_acceptance.py -v -s`."""

import json
import time

import numpy as np
import pytest

from relgen.cli import main
from relgen.config import config_from_dict
from relgen.engine import (
    ACTIVATIONS,
    PropagationFn,
    QuantilePair,
    RootDistribution,
    propagate,
    sample_root,
    structural_assign,
)
from relgen.evaluate import EvalConfig, auc_binary, knn_predict, rmse, run_comparison
from relgen.graphs import sample_dag, validate_dag
from relgen.prerun import Codebook, fit_codebook, prerun
from relgen.relational import build_schema, generate_relational, latently_affected_targets
from relgen.serialize import file_sha256, load_manifest
from relgen.tables import pool

from test_evaluate import brute_force_knn, trapezoid_auc

# Fixed fixture for the latent-information criterion: an 8-node main graph
# and a 5-node additional graph whose latent edges demonstrably transmit
# information (the latent sources correlate with the coupling node's parent),
# evaluated over five fixed data seeds.
LATENT_FIXTURE_STRUCTURE_SEED = 23
LATENT_FIXTURE_DATA_SEEDS = (1, 2, 3, 4, 5)


def report(criterion: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance] {criterion}: {status}  {detail}")
    assert ok, f"{criterion}: {detail}"


@pytest.fixture(scope="module")
def default_run(tmp_path_factory):
    """One full default-profile run through the CLI, with its wall time."""
    out = tmp_path_factory.mktemp("accept") / "run_a"
    t0 = time.perf_counter()
    assert main(["generate", "--seed", "0", "--out", str(out)]) == 0
    elapsed = time.perf_counter() - t0
    return out, elapsed


def test_criterion_1_determinism_and_runtime(default_run, tmp_path):
    run_a, elapsed = default_run
    run_b = tmp_path / "run_b"
    assert main(["generate", "--seed", "0", "--out", str(run_b)]) == 0
    run_c = tmp_path / "run_c"
    assert main(["generate", "--seed", "0", "--out", str(run_c), "--threads", "8"]) == 0

    same_bytes = all(
        file_sha256(run_a / name) == file_sha256(run_b / name)
        for name in ("main.csv", "additional.csv", "schema.json")
    )
    same_threads = all(
        file_sha256(run_a / name) == file_sha256(run_c / name)
        for name in ("main.csv", "additional.csv")
    )
    report(
        "criterion 1 determinism+runtime",
        same_bytes and same_threads and elapsed < 60.0,
        f"byte_identical={same_bytes} thread_invariant={same_threads} runtime={elapsed:.1f}s (budget 60s)",
    )


def test_criterion_2_equation_fidelity():
    rng = np.random.default_rng(2024)
    reduction_ok = True
    for _ in range(10_000):
        n = int(rng.integers(1, 4))
        pc = int(rng.integers(1, 4))
        act = list(ACTIVATIONS)[int(rng.integers(len(ACTIVATIONS)))]
        f = PropagationFn(weights=rng.normal(size=(n, pc * n)), activation=act)
        parents = [rng.normal(size=n) for _ in range(pc)]
        lo = rng.normal(size=n)
        q = QuantilePair(q10=lo, q90=lo + rng.random(n))
        with_zero_eps = structural_assign(parents, f, q, np.zeros(n))
        if with_zero_eps.tobytes() != propagate(parents, f).tobytes():
            reduction_ok = False
            break

    pooling_ok = True
    for case in range(10_000):
        n = int(rng.integers(1, 4))
        k = int(rng.integers(2, 9))
        centroids = rng.normal(size=(k, n))
        if case % 10 == 0:
            # construct an exact tie: centroids 0 and 1 mirrored around x
            x = rng.normal(size=n)
            delta = rng.normal(size=n)
            centroids[0] = x + delta
            centroids[1] = x - delta
        else:
            x = rng.normal(size=n)
        cb = Codebook(centroids=centroids, fitted_on=1, requested_k=k)
        got = pool(x, "categorical", cb)
        dists = [float(((x - centroids[l]) ** 2).sum()) for l in range(k)]
        want = min(range(k), key=lambda l: (dists[l], l))
        if got != want:
            pooling_ok = False
            break

    report(
        "criterion 2 equation fidelity",
        reduction_ok and pooling_ok,
        f"noise_free_reduction={reduction_ok} nearest_centroid={pooling_ok} (10^4 cases each)",
    )


def test_criterion_3_structure_suite():
    cfg = config_from_dict({})
    dags_ok = 0
    for seed in range(600):
        dag = sample_dag(cfg, "main", seed, "structure-main", name_prefix="M")
        validate_dag(dag)
        dags_ok += 1
    for seed in range(400):
        dag = sample_dag(cfg, "add", seed, "structure-add", name_prefix="A")
        validate_dag(dag)
        dags_ok += 1

    schemas_ok = 0
    for seed in range(250):
        cfg_latent = config_from_dict({"master_seed": seed, "latent_count": 1})
        schema = build_schema(cfg_latent)
        validate_dag(schema.merged)
        assert any(latently_affected_targets(schema).values()), seed
        schemas_ok += 1
    for seed in range(250):
        cfg_cut = config_from_dict({"master_seed": seed, "latent_count": 0})
        schema = build_schema(cfg_cut)
        validate_dag(schema.merged)
        assert not any(latently_affected_targets(schema).values()), seed
        schemas_ok += 1

    report(
        "criterion 3 structure suite",
        dags_ok == 1000 and schemas_ok == 500,
        f"dags={dags_ok}/1000 schemas={schemas_ok}/500 (acyclic, no isolated, sinks=targets, cut/reach)",
    )


def test_criterion_4_statistical_suite():
    cfg = config_from_dict({})
    coverage_ok = True
    for seed in range(20):
        dag = sample_dag(cfg, "main", seed, "structure-main")
        mats = prerun(dag, 1000, seed)
        parents = dag.parent_map()
        for node in dag.nodes:
            if parents[node.index]:
                continue
            samples = mats[node.index]
            q10 = np.quantile(samples, 0.1, axis=0)
            below = (samples < q10).mean(axis=0)
            if not (np.all(below >= 0.05) and np.all(below <= 0.15)):
                coverage_ok = False

    rng = np.random.default_rng(7)
    means_ok = True
    cases = []
    for _ in range(3):
        mu, sd = rng.uniform(-1, 1), rng.uniform(0.5, 1.5)
        cases.append((RootDistribution("normal", {"mean": mu, "std": sd}), mu))
        a, th = rng.uniform(1, 3), rng.uniform(0.5, 2)
        cases.append((RootDistribution("gamma", {"shape": a, "scale": th}), a * th))
        lam = rng.uniform(0.2, 1)
        cases.append((RootDistribution("mixture", {"p": 0.5, "exp_scale": lam}), 0.5 * lam))
    for case_index, (dist, expected) in enumerate(cases):
        draws = np.concatenate(
            [sample_root(dist, 100, np.random.default_rng((case_index, i))) for i in range(1000)]
        )
        stderr = draws.std() / np.sqrt(draws.size)
        if abs(draws.mean() - expected) >= 3 * stderr:
            means_ok = False

    kmeans_ok = True
    for seed in range(50):
        pts = np.random.default_rng(seed).normal(size=(400, 2))
        trace: list = []
        fit_codebook(pts, 2 + seed % 7, np.random.default_rng(seed + 1), objective_trace=trace)
        diffs = np.diff(trace)
        if len(trace) < 1 or np.any(diffs > 1e-9 * np.abs(trace[:-1])):
            kmeans_ok = False

    report(
        "criterion 4 statistical suite",
        coverage_ok and means_ok and kmeans_ok,
        f"quantile_coverage={coverage_ok} closed_form_means={means_ok} kmeans_monotone={kmeans_ok}",
    )


def test_criterion_5_evaluation_oracles():
    rng = np.random.default_rng(55)
    knn_ok = True
    for case in range(10):
        train_X = rng.normal(size=(100, 5))
        train_y_reg = rng.normal(size=100)
        train_y_cls = rng.integers(0, 3, size=100)
        test_X = np.concatenate([rng.normal(size=(15, 5)), train_X[[case, 99 - case]]])
        mine = knn_predict(train_X, train_y_reg, test_X, k=10, task="regression")
        ref = brute_force_knn(train_X, train_y_reg, test_X, 10, "regression")
        if not np.allclose(mine, ref, atol=1e-9, rtol=0):
            knn_ok = False
        ms, mc = knn_predict(train_X, train_y_cls, test_X, k=10, task="classification")
        rs, rc = brute_force_knn(train_X, train_y_cls, test_X, 10, "classification")
        if not (np.array_equal(mc, rc) and np.allclose(ms, rs, atol=1e-9, rtol=0)):
            knn_ok = False

    auc_ok = True
    for case in range(10):
        scores = rng.normal(size=200)
        if case % 2:
            scores = np.round(scores, 1)  # exercise ties
        labels = rng.integers(0, 2, size=200)
        if labels.min() == labels.max():
            continue
        if abs(auc_binary(scores, labels) - trapezoid_auc(scores, labels)) > 1e-9:
            auc_ok = False

    y = rng.normal(size=500)
    rmse_ok = rmse(y, y) == 0.0

    report(
        "criterion 5 evaluation oracles",
        knn_ok and auc_ok and rmse_ok,
        f"knn_brute_force={knn_ok} rank_vs_trapezoid={auc_ok} perfect_rmse_zero={rmse_ok}",
    )


def _latent_fixture_metrics(latent_count: int) -> dict:
    cfg = config_from_dict(
        {
            "master_seed": LATENT_FIXTURE_STRUCTURE_SEED,
            "latent_count": latent_count,
            "main_graph": {"num_nodes": 8},
            "add_graph": {"num_nodes": 5},
        }
    )
    schema = build_schema(cfg)
    acc: dict = {}
    for data_seed in LATENT_FIXTURE_DATA_SEEDS:
        ds = generate_relational(schema, 10_000, 500, cfg.noise, 1000, data_seed)
        rep = run_comparison(ds, EvalConfig())
        for t in rep.targets:
            acc.setdefault((t.column, t.metric, t.latently_affected), []).append(
                (t.main_only, t.joined)
            )
    return {
        key: (float(np.mean([v[0] for v in vals])), float(np.mean([v[1] for v in vals])))
        for key, vals in acc.items()
    }


def test_criterion_6_latent_information_effect():
    t0 = time.perf_counter()
    latent = _latent_fixture_metrics(latent_count=2)
    ablation = _latent_fixture_metrics(latent_count=0)
    elapsed = time.perf_counter() - t0

    effect_details = []
    effect_ok = False
    for (col, metric, affected), (m, j) in sorted(latent.items()):
        if not affected:
            continue
        if metric == "AUC":
            effect_details.append(f"{col}:dAUC={j - m:+.4f}")
            effect_ok = effect_ok or (j - m) >= 0.02
        else:
            effect_details.append(f"{col}:rmse_ratio={j / m:.4f}")
            effect_ok = effect_ok or (j / m) <= 0.98

    neutral_ok = True
    neutral_details = []
    for (col, metric, _), (m, j) in sorted(ablation.items()):
        if metric == "AUC":
            neutral_details.append(f"{col}:|dAUC|={abs(j - m):.4f}")
            neutral_ok = neutral_ok and abs(j - m) < 0.01
        else:
            neutral_details.append(f"{col}:|ratio-1|={abs(j / m - 1):.4f}")
            neutral_ok = neutral_ok and abs(j / m - 1) < 0.02

    report(
        "criterion 6 latent information effect",
        effect_ok and neutral_ok and elapsed < 300.0,
        f"latent[{' '.join(effect_details)}] ablation[{' '.join(neutral_details)}] "
        f"runtime={elapsed:.0f}s (budget 300s)",
    )


def test_criterion_7_format_suite(default_run, tmp_path):
    run_a, _ = default_run
    schema = json.loads((run_a / "schema.json").read_text())
    merged = {n["index"]: n for n in schema["merged"]["nodes"]}

    main_header = (run_a / "main.csv").read_text().splitlines()[0].split(",")
    add_header = (run_a / "additional.csv").read_text().splitlines()[0].split(",")
    names_ok = (
        main_header == [f"M{i}" for i in range(len(main_header) - 1)] + ["C"]
        and add_header == [f"A{i}" for i in range(len(add_header) - 1)] + ["C"]
    )

    coupling = merged[schema["coupling_index"]]
    k_c = coupling["category_count"]
    ranges_ok = coupling["pooling"] == "categorical" and k_c >= 2
    by_name = {n["name"]: n for n in merged.values()}
    for path, header in ((run_a / "main.csv", main_header), (run_a / "additional.csv", add_header)):
        rows = path.read_text().splitlines()[1:]
        cols = list(zip(*(r.split(",") for r in rows)))
        for name, values in zip(header, cols):
            node = by_name[name]
            if node["pooling"] == "categorical":
                ints = np.array([int(v) for v in values])
                if ints.min() < 0 or ints.max() >= node["category_count"]:
                    ranges_ok = False
            else:
                floats = np.array([float(v) for v in values])
                if not np.isfinite(floats).all():
                    ranges_ok = False

    regen_dir = tmp_path / "regen"
    regen_ok = main(["regenerate", str(run_a / "manifest.json"), "--out", str(regen_dir)]) == 0
    original = load_manifest(run_a / "manifest.json")["files"]
    regenerated = load_manifest(regen_dir / "manifest.json")["files"]
    regen_ok = regen_ok and original == regenerated

    report(
        "criterion 7 format suite",
        names_ok and ranges_ok and regen_ok,
        f"headers={names_ok} kinds_and_ranges={ranges_ok} regenerate_hashes={regen_ok} "
        f"(K_C={k_c})",
    )
