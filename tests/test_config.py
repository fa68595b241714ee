import json
from dataclasses import fields, is_dataclass, replace
from typing import get_args, get_origin, get_type_hints

import pytest

from relgen.config import (
    GenerationConfig,
    _read,
    config_from_dict,
    config_to_dict,
    load_config,
    with_overrides,
)
from relgen.errors import InvalidConfigError
from relgen.graphs import DagSpec


def test_empty_file_yields_default_profile(tmp_path):
    path = tmp_path / "empty.json"
    path.write_text("")
    cfg = load_config(path)
    assert cfg.hidden_dim == 2
    assert cfg.num_presamples == 1000
    assert cfg.noise.affected_fraction == 0.1
    assert cfg.noise.noise_std == 0.1
    assert cfg.category_count == (4.0, 2.0)
    assert cfg.coupling_categories == (100.0, 50.0)
    assert cfg.rows_main == 100_000
    assert cfg.rows_add == 500
    assert cfg.latent_count == 2


def test_negative_rows_rejected_with_key_name():
    with pytest.raises(InvalidConfigError, match="rows_main"):
        config_from_dict({"rows_main": -1})
    with pytest.raises(InvalidConfigError, match="rows_main"):
        GenerationConfig(rows_main=-1)


def test_unknown_key_rejected_with_path():
    with pytest.raises(InvalidConfigError, match="no_such_key"):
        config_from_dict({"no_such_key": 1})
    with pytest.raises(InvalidConfigError, match="main_graph"):
        config_from_dict({"main_graph": {"bogus": 2}})


def test_round_trip(tmp_path):
    cfg = config_from_dict(
        {
            "master_seed": 77,
            "main_graph": {"num_nodes": [5, 9], "attach_m": 1},
            "noise": {"affected_fraction": 0.2, "noise_std": 0.3},
            "activations": ["relu", "tanh"],
        }
    )
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config_to_dict(cfg)))
    again = load_config(path)
    assert again == cfg


# A valid non-default value for each string field, keyed by field name.
OTHER_STRINGS = {"out_dir": "elsewhere", "granularity": "row"}


def changed(tp, value, name):
    """A valid value of the annotated type ``tp`` that differs from ``value``."""
    if is_dataclass(tp):
        hints = get_type_hints(tp)
        return replace(value, **{f.name: changed(hints[f.name], getattr(value, f.name), f.name) for f in fields(tp)})
    origin, args = get_origin(tp), get_args(tp)
    if origin is tuple and args[-1] is Ellipsis:
        return value[1:]
    if origin is tuple:
        return tuple(changed(t, v, name) for t, v in zip(args, value))
    if origin is dict:
        return {k: changed(args[1], v, name) for k, v in value.items()}
    if tp is int:
        return value + 1
    if tp is float:
        return value / 2
    if tp is str:
        return OTHER_STRINGS[name]
    raise TypeError(f"{name}: no test value for type {tp!r}")


def leaves(data, path=""):
    if isinstance(data, dict):
        for key, value in data.items():
            yield from leaves(value, f"{path}.{key}")
    else:
        yield path, data


def test_every_field_round_trips_through_json():
    """Every field, nested ones included, survives JSON at a non-default value.

    A new field whose annotated type the config reader cannot read fails here.
    """
    default = GenerationConfig()
    cfg = changed(GenerationConfig, default, "")
    pairs = zip(leaves(config_to_dict(default)), leaves(config_to_dict(cfg)))
    assert [path for (path, old), (_, new) in pairs if old == new] == []
    assert config_from_dict(config_to_dict(cfg)) == cfg


def test_pinned_node_count_accepted():
    cfg = config_from_dict({"main_graph": {"num_nodes": 8}})
    assert cfg.main_graph.num_nodes == (8, 8)


def test_pinned_count_shorthand_is_for_num_nodes_only():
    """An integer reads as a (k, k) pair for GraphConfig.num_nodes alone, so
    a schema's edge list of integers is refused, not read as self-loops."""
    with pytest.raises(InvalidConfigError, match=r"^merged\.edges\[0\] must be a list, got 1$"):
        _read(DagSpec, {"nodes": [], "edges": [1, 2]}, "merged")
    assert _read(DagSpec, {"nodes": [], "edges": [[1, 2]]}, "merged").edges == {(1, 2)}


def test_bad_probability_rejected():
    with pytest.raises(InvalidConfigError, match="categorical_probability"):
        config_from_dict({"categorical_probability": 1.5})


def test_unknown_activation_rejected():
    with pytest.raises(InvalidConfigError, match="activations"):
        config_from_dict({"activations": ["identity", "softsign"]})


def test_overrides_apply_and_validate():
    cfg = with_overrides(GenerationConfig(), rows_main=5, threads=2, master_seed=None)
    assert cfg.rows_main == 5 and cfg.threads == 2 and cfg.master_seed == 0
    with pytest.raises(InvalidConfigError):
        with_overrides(GenerationConfig(), rows_main=-3)


def test_invalid_json_diagnostic(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(InvalidConfigError, match="not valid JSON"):
        load_config(path)


@pytest.mark.parametrize("key", ["category_count", "coupling_categories"])
def test_negative_std_rejected_with_key_name(tmp_path, capsys, key):
    with pytest.raises(InvalidConfigError, match=rf"{key}\[1\]"):
        config_from_dict({key: [4, -1]})
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({key: [100, -5]}))
    from relgen.cli import main

    assert main(["generate", "--config", str(path), "--out", str(tmp_path / "ds")]) == 2
    err = capsys.readouterr().err
    assert key in err and len(err.strip().splitlines()) == 1
    assert getattr(config_from_dict({key: [4, 0]}), key) == (4.0, 0.0)


@pytest.mark.parametrize(
    ("graph", "key"),
    [({"num_nodes": 2}, "main_graph.num_nodes"), ({"num_nodes": [6, 12], "attach_m": 12}, "main_graph.attach_m")],
)
def test_graph_range_that_cannot_be_sampled_rejected(tmp_path, capsys, graph, key):
    """A sampled graph needs at least 3 nodes and more nodes than attach_m;
    a range that never allows both is refused before any draw."""
    with pytest.raises(InvalidConfigError, match=rf"^{key} "):
        config_from_dict({"main_graph": graph})
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"main_graph": graph}))
    from relgen.cli import main

    assert main(["generate", "--config", str(path), "--out", str(tmp_path / "ds")]) == 2
    err = capsys.readouterr().err
    assert key in err and "attempts" not in err and len(err.strip().splitlines()) == 1
    assert config_from_dict({"main_graph": {"num_nodes": [2, 3], "attach_m": 2}}).main_graph.num_nodes == (2, 3)
