import json

import numpy as np
import pytest

from relgen.config import config_from_dict
from relgen.errors import InvalidConfigError
from relgen.graphs import sample_dag
from relgen.prerun import build_prerun_stats, prerun
from relgen.relational import build_schema, generate_relational
from relgen.serialize import (
    dag_from_dict,
    dag_to_dict,
    dag_to_dot,
    read_csv_table,
    schema_fingerprint,
    schema_from_dict,
    schema_to_dict,
    stats_from_dict,
    stats_to_dict,
    write_csv,
)
from relgen.tables import Column, Table


def test_dag_round_trip_is_exact():
    cfg = config_from_dict({})
    dag = sample_dag(cfg, "main", 17, "structure-main", name_prefix="M")
    once = dag_to_dict(dag)
    again = dag_to_dict(dag_from_dict(json.loads(json.dumps(once))))
    assert once == again
    # weights survive the JSON float round trip bit-for-bit
    rebuilt = dag_from_dict(json.loads(json.dumps(once)))
    for a, b in zip(dag.nodes, rebuilt.nodes):
        if a.weights is not None:
            assert a.weights.tobytes() == b.weights.tobytes()


def test_stats_round_trip_is_exact():
    cfg = config_from_dict({})
    dag = sample_dag(cfg, "main", 18, "structure-main")
    stats = build_prerun_stats(dag, prerun(dag, 250, 18), 18)
    data = json.loads(json.dumps(stats_to_dict(stats)))
    rebuilt = stats_from_dict(data)
    for i, q in stats.quantiles.items():
        assert q.q10.tobytes() == rebuilt.quantiles[i].q10.tobytes()
        assert q.q90.tobytes() == rebuilt.quantiles[i].q90.tobytes()
    for i, cb in stats.codebooks.items():
        assert cb.centroids.tobytes() == rebuilt.codebooks[i].centroids.tobytes()


def test_schema_round_trip_preserves_fingerprint():
    cfg = config_from_dict({"master_seed": 19})
    schema = build_schema(cfg)
    ds = generate_relational(schema, 50, 20, cfg.noise, 100, seed=1)
    data = schema_to_dict(ds.schema, ds.stats, {"master_seed": 19})
    fp = schema_fingerprint(data)
    rebuilt, stats = schema_from_dict(json.loads(json.dumps(data)))
    assert stats is not None
    assert schema_fingerprint(schema_to_dict(rebuilt, stats, {"master_seed": 19})) == fp


def test_csv_round_trip_exotic_floats(tmp_path):
    values = np.array([1e-300, -1e300, 0.1, 3.0000000000000004, -0.0])
    table = Table(columns=[Column("x", "numeric", "feature", values)])
    path = tmp_path / "t.csv"
    write_csv(table, path)
    back = read_csv_table(path, [("x", "numeric", "feature")])
    assert back.columns[0].values.tobytes() == values.tobytes()


@pytest.mark.parametrize("rows", [0, 1, 3])
def test_csv_round_trip_few_rows(tmp_path, rows):
    table = Table(
        columns=[
            Column("x", "numeric", "feature", np.linspace(-1.5, 2.25, rows)),
            Column("k", "categorical", "feature", np.arange(rows, dtype=np.int64) * 7),
        ]
    )
    info = [("x", "numeric", "feature"), ("k", "categorical", "feature")]
    path = tmp_path / "t.csv"
    write_csv(table, path)
    back = read_csv_table(path, info)
    for col, got in zip(table.columns, back.columns):
        assert got.values.dtype == col.values.dtype
        assert got.values.shape == (rows,)
        assert got.values.tobytes() == col.values.tobytes()


def test_csv_non_integer_category_rejected(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("x,k\n0.5,1\n2.5,1.5\n", encoding="utf-8")
    with pytest.raises(InvalidConfigError, match="categorical column k"):
        read_csv_table(path, [("x", "numeric", "feature"), ("k", "categorical", "feature")])


@pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("kind", ["numeric", "categorical"])
def test_csv_non_finite_cell_rejected(tmp_path, cell, kind):
    path = tmp_path / "t.csv"
    path.write_text(f"x,k\n0.5,1\n{cell},1\n", encoding="utf-8")
    with pytest.raises(InvalidConfigError, match=f"{path}: column x holds a non-finite cell"):
        read_csv_table(path, [("x", kind, "feature"), ("k", "categorical", "feature")])


def test_csv_header_mismatch_rejected(tmp_path):
    table = Table(columns=[Column("x", "numeric", "feature", np.zeros(2))])
    path = tmp_path / "t.csv"
    write_csv(table, path)
    with pytest.raises(InvalidConfigError):
        read_csv_table(path, [("y", "numeric", "feature")])


def test_bare_dag_exports_dot():
    cfg = config_from_dict({})
    dag = sample_dag(cfg, "main", 20, "structure-main", name_prefix="M")
    text = dag_to_dot(dag)
    assert text.startswith("digraph")
    for node in dag.nodes:
        assert f'"{node.name}"' in text


def test_missing_config_file_is_clean_error(tmp_path):
    from relgen.config import load_config

    with pytest.raises(InvalidConfigError, match="cannot read config"):
        load_config(tmp_path / "missing.json")
