import json
from dataclasses import fields, is_dataclass
from types import UnionType
from typing import get_args, get_origin, get_type_hints

import numpy as np
import pytest

from relgen.config import _read, _write, config_from_dict
from relgen.errors import InvalidConfigError
from relgen.graphs import DagSpec, sample_dag
from relgen.prerun import PrerunStats, build_prerun_stats, prerun
from relgen.relational import build_schema, generate_relational, run_generation
from relgen.serialize import (
    SchemaFile,
    Seeds,
    dag_to_dot,
    read_csv_table,
    read_schema,
    schema_fingerprint,
    schema_to_dict,
    write_csv,
    write_dataset,
)
from relgen.tables import Column, Table


def test_dag_round_trip_is_exact():
    cfg = config_from_dict({})
    dag = sample_dag(cfg, "main", 17, "structure-main", name_prefix="M")
    once = _write(dag)
    rebuilt = _read(DagSpec, json.loads(json.dumps(once)), "merged")
    assert _write(rebuilt) == once
    # weights survive the JSON float round trip bit-for-bit
    for a, b in zip(dag.nodes, rebuilt.nodes):
        if a.weights is not None:
            assert a.weights.tobytes() == b.weights.tobytes()


def test_stats_round_trip_is_exact():
    cfg = config_from_dict({})
    dag = sample_dag(cfg, "main", 18, "structure-main")
    stats = build_prerun_stats(dag, prerun(dag, 250, 18), 18)
    data = json.loads(json.dumps(_write(stats)))
    rebuilt = _read(PrerunStats, data, "prerun_stats")
    for i, q in stats.quantiles.items():
        assert q.q10.tobytes() == rebuilt.quantiles[i].q10.tobytes()
        assert q.q90.tobytes() == rebuilt.quantiles[i].q90.tobytes()
    for i, cb in stats.codebooks.items():
        assert cb.centroids.tobytes() == rebuilt.codebooks[i].centroids.tobytes()


def test_schema_round_trip_preserves_fingerprint(tmp_path):
    cfg = config_from_dict({"master_seed": 19})
    schema = build_schema(cfg)
    ds = generate_relational(schema, 50, 20, cfg.noise, 100, seed=1)
    data = schema_to_dict(ds.schema, ds.stats, Seeds(master_seed=19))
    fp = schema_fingerprint(data)
    path = tmp_path / "schema.json"
    path.write_text(json.dumps(data))
    rebuilt, file = read_schema(path)
    assert file.prerun_stats is not None and file.seeds.master_seed == 19
    assert schema_fingerprint(schema_to_dict(rebuilt, file.prerun_stats, Seeds(master_seed=19))) == fp


def annotated_fields(tp, out):
    """Add ``Class.field`` to ``out`` for every field of every dataclass the
    annotations of ``tp`` reach."""
    if is_dataclass(tp):
        for name, hint in get_type_hints(tp).items():
            if f"{tp.__name__}.{name}" not in out:
                out.add(f"{tp.__name__}.{name}")
                annotated_fields(hint, out)
    for arg in get_args(tp):
        annotated_fields(arg, out)
    return out


def check_read(tp, read, written, path, seen):
    """Assert that ``read`` is the JSON value ``written`` read as the annotated
    type ``tp``, and add to ``seen`` each field met with a non-null value."""
    origin, args = get_origin(tp), get_args(tp)
    if is_dataclass(tp):
        assert type(read) is tp, path
        hints = get_type_hints(tp)
        for f in fields(tp):
            if written.get(f.name) is not None:
                seen.add(f"{tp.__name__}.{f.name}")
                check_read(hints[f.name], getattr(read, f.name), written[f.name], f"{path}.{f.name}", seen)
    elif origin is UnionType:  # X | None
        check_read(args[0], read, written, path, seen)
    elif origin in (list, set, tuple):
        assert type(read) is origin and len(read) == len(written), path
        types = args if origin is tuple and args[-1] is not Ellipsis else args[:1] * len(written)
        pairs = zip(sorted(read), sorted(written)) if origin is set else zip(read, written)
        for i, (t, (r, w)) in enumerate(zip(types, pairs)):
            check_read(t, r, w, f"{path}[{i}]", seen)
    elif origin is dict:
        assert list(read) == [args[0](k) for k in written], path
        for key, value in written.items():
            check_read(args[1], read[args[0](key)], value, f"{path}.{key}", seen)
    elif tp is np.ndarray:
        assert read.dtype == np.float64 and json.dumps(read.tolist()) == json.dumps(written), path
    else:
        assert type(read) is tp and read == written, path


def test_every_schema_field_is_read_from_the_written_file(tmp_path):
    """Walks the annotations of SchemaFile as the config test walks the
    config's: every field of every dataclass schema.json holds is written
    with a non-null value and read back as its annotated type, bit for bit.

    A new field whose type the reader cannot read, or that the writer leaves
    out, fails here.
    """
    cfg = config_from_dict({"master_seed": 19, "rows_main": 50, "rows_add": 20, "num_presamples": 100})
    write_dataset(run_generation(cfg), cfg, tmp_path)
    _, file = read_schema(tmp_path / "schema.json")
    seen = set()
    check_read(SchemaFile, file, json.loads((tmp_path / "schema.json").read_text()), "schema", seen)
    assert annotated_fields(SchemaFile, set()) - seen == set()


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


@pytest.mark.parametrize(
    "body, match",
    [
        # Every row a cell short: 22 rows of 10 cells would reshape into 20
        # shifted rows of 11.
        ("".join(",".join(["1"] * 10) + "\n" for _ in range(22)), "rows of 10 cells under a header of 11 columns"),
        ("".join(",".join(["1"] * 12) + "\n" for _ in range(3)), "rows of 12 cells under a header of 11 columns"),
        (",".join(["1"] * 11) + "\n" + ",".join(["1"] * 10) + "\n", "each row must hold 11 numeric cells"),
        (",".join(["1"] * 10) + ",x\n", "each row must hold 11 numeric cells"),
    ],
    ids=["every-row-short", "every-row-long", "ragged-row", "non-numeric-cell"],
)
def test_csv_body_not_matching_its_header_rejected(tmp_path, body, match):
    names = [f"c{j}" for j in range(11)]
    path = tmp_path / "t.csv"
    path.write_text(",".join(names) + "\n" + body, encoding="utf-8")
    with pytest.raises(InvalidConfigError, match=f"{path}: {match}"):
        read_csv_table(path, [(name, "numeric", "feature") for name in names])


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
