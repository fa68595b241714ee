"""On-disk formats: schema JSON, CSV tables, DOT graphs, and the manifest.

Everything random about a dataset (graph structure, weights, distributions,
quantiles, codebooks, seeds) lands in schema.json, so a dataset can be
re-generated byte-for-byte from schema.json + manifest.json alone. Numeric
CSV cells use the shortest round-trip representation of the 64-bit value.
"""

from __future__ import annotations

import csv
import dataclasses
import hashlib
import json
import warnings
from pathlib import Path

import numpy as np

from .config import GenerationConfig, _read, _write, config_to_dict
from .engine import ACTIVATIONS
from .errors import DegenerateGraphError, InvalidConfigError
from .graphs import POOLING_KINDS, ROLE_FEATURE, ROLES, DagSpec, validate_dag
from .prerun import PrerunStats
from .relational import RelationalDataset, RelationalSchema
from .seeding import SEED_DERIVATION_NOTE, STREAM_VERSION
from .tables import KIND_CATEGORICAL, Column, Table, column_info

TOOL_VERSION = "0.1.0"

MAIN_CSV = "main.csv"
ADD_CSV = "additional.csv"
SCHEMA_JSON = "schema.json"
SCHEMA_DOT = "schema.dot"
MANIFEST_JSON = "manifest.json"


# --- schema.json -------------------------------------------------------------

# How the pre-run's numbers were computed; schema.json records it, and a
# schema that records other conventions is refused.
CONVENTIONS = {
    "quantile": "linear interpolation at p*(m-1)",
    "variance_pooling": "population (divide by n)",
    "median_pooling": "even lengths average the middle pair",
}

# The run tags of every stream a dataset draws from, in the order they run.
RUN_TAGS = ("structure-main", "structure-add", "compose", "prerun", "kmeans", "main", "add")


@dataclasses.dataclass(frozen=True)
class Seeds:
    """schema.json's ``seeds``: the master seed and how the streams derive from it."""

    master_seed: int
    run_tags: tuple[str, ...] = ()
    derivation: str = ""


@dataclasses.dataclass(frozen=True)
class SchemaFile:
    """schema.json, one field per key in the file's order."""

    merged: DagSpec
    main_indices: list[int]
    add_indices: list[int]
    coupling_index: int
    latent_edges: set[tuple[int, int]]
    prerun_stats: PrerunStats | None = None
    seeds: Seeds | None = None
    fingerprint: str = None  # None until schema_to_dict computes it; a null in the file is refused


def schema_to_dict(schema: RelationalSchema, stats: PrerunStats, seeds: Seeds) -> dict:
    """schema.json's content: the schema, the pre-run's numbers and their
    conventions, the seeds, and last the fingerprint of all of them."""
    data = _write(SchemaFile(schema.merged, schema.main_indices, schema.add_indices,
                             schema.coupling_index, schema.latent_edges, stats, seeds))
    data["prerun_stats"]["conventions"] = dict(CONVENTIONS)
    data["fingerprint"] = schema_fingerprint(data)
    return data


def read_schema(path: str | Path) -> tuple[RelationalSchema, SchemaFile]:
    """Read a schema.json with the config's typed reader, then check it with
    :func:`_check_schema`. Every failure is one InvalidConfigError line that
    starts with ``path`` and names the key path, or says ``malformed schema``
    for a value its own constructor refuses (a gamma root without ``shape``).
    """
    data = json.loads(Path(path).read_text(encoding="utf-8"))
    try:
        stats = data.get("prerun_stats") if isinstance(data, dict) else None
        if isinstance(stats, dict) and stats.pop("conventions", None) != CONVENTIONS:
            raise InvalidConfigError(f"prerun_stats.conventions differ from {CONVENTIONS}")
        file = _read(SchemaFile, data, "", root="schema")
        _check_schema(file)
    except InvalidConfigError as exc:
        raise InvalidConfigError(f"{path}: {exc}") from exc
    except (KeyError, ValueError, DegenerateGraphError) as exc:  # ValueError covers InvalidParameterError
        raise InvalidConfigError(f"{path}: malformed schema ({type(exc).__name__}: {exc})") from exc
    return RelationalSchema(file.merged, file.coupling_index, file.latent_edges), file


def _check_schema(file: SchemaFile) -> None:
    """The merged graph passes :func:`validate_dag` and is laid out as
    ``[A..., C, M...]``: the additional nodes are 0..c-1, C is c, and the
    main nodes follow it. C is a categorical feature that feeds the main
    graph. Every node has its own name, a known role, pooling and activation,
    and a ``category_count`` exactly when its pooling is categorical. A node
    without parents has a ``root_dist``; every other node has an activation
    and ``weights`` of shape ``(hidden_dim, parents * hidden_dim)``. Present
    ``prerun_stats`` hold a quantile pair of ``hidden_dim`` components per
    node, and a codebook of ``(category_count, hidden_dim)`` centroids for
    exactly the categorical nodes."""
    dag, c = file.merged, file.coupling_index
    if dag.hidden_dim < 1:
        raise InvalidConfigError(f"merged.hidden_dim {dag.hidden_dim} is not >= 1")
    validate_dag(dag)
    count = len(dag.nodes)
    if not 0 <= c < count:
        raise InvalidConfigError(f"coupling_index {c} is not a node index below {count}")
    if file.add_indices != list(range(c)):
        raise InvalidConfigError(f"add_indices must list the {c} nodes before coupling_index {c}, in order")
    if file.main_indices != list(range(c + 1, count)):
        raise InvalidConfigError(f"main_indices must list the {count - c - 1} nodes after coupling_index {c}, in order")
    coupling = dag.node(c)
    if coupling.role != ROLE_FEATURE or coupling.pooling != "categorical" or not dag.child_map()[c]:
        raise InvalidConfigError(f"coupling_index {c}: {coupling.name!r} is not a categorical feature with a child")
    parents, n, stats = dag.parent_map(), dag.hidden_dim, file.prerun_stats
    if stats is not None and not set(stats.quantiles) | set(stats.codebooks) <= set(range(count)):
        raise InvalidConfigError(f"prerun_stats names a node index past {count - 1}")
    named: dict[str, int] = {}
    for node in dag.nodes:
        i, where = node.index, f"merged.nodes[{node.index}]"
        if named.setdefault(node.name, i) != i:
            raise InvalidConfigError(f"{where}.name {node.name!r} repeats the name of merged.nodes[{named[node.name]}]")
        if node.role not in ROLES:
            raise InvalidConfigError(f"{where}.role {node.role!r} is not one of {list(ROLES)}")
        if node.pooling not in POOLING_KINDS:
            raise InvalidConfigError(f"{where}.pooling {node.pooling!r} is not one of {list(POOLING_KINDS)}")
        if node.activation is not None and node.activation not in ACTIVATIONS:
            raise InvalidConfigError(f"{where}.activation {node.activation!r} is not one of {sorted(ACTIVATIONS)}")
        if (node.pooling == "categorical") != (node.category_count is not None):
            raise InvalidConfigError(f"{where}.category_count must be an integer exactly when pooling is categorical")
        fan_in = len(parents[i])
        if (node.root_dist is None) != bool(fan_in):
            raise InvalidConfigError(f"{where}.root_dist must be set exactly when the node has no parents")
        if fan_in and node.activation is None:
            raise InvalidConfigError(f"{where}.activation must be set on a node with parents")
        shape = (n, fan_in * n)
        if fan_in and (node.weights is None or node.weights.shape != shape):
            raise InvalidConfigError(f"{where}.weights must have shape {shape} for {fan_in} parents")
        if stats is None:
            continue
        pair, codebook = stats.quantiles.get(i), stats.codebooks.get(i)
        if pair is None or pair.q10.shape != (n,):
            raise InvalidConfigError(f"prerun_stats.quantiles.{i} must be a pair of {n}-component vectors")
        if (codebook is not None) != (node.pooling == "categorical"):
            raise InvalidConfigError(f"prerun_stats.codebooks.{i} must exist exactly when {where}.pooling is categorical")
        if codebook is not None and codebook.centroids.shape != (node.category_count, n):
            raise InvalidConfigError(f"prerun_stats.codebooks.{i}.centroids must have shape {(node.category_count, n)}")


def schema_fingerprint(schema_dict: dict) -> str:
    """SHA-256 of the canonical JSON (sorted keys, no spaces) of every key but ``fingerprint``."""
    payload = {k: v for k, v in schema_dict.items() if k != "fingerprint"}
    return hashlib.sha256(json.dumps(payload, sort_keys=True, separators=(",", ":")).encode("utf-8")).hexdigest()


# --- CSV -------------------------------------------------------------------

def write_csv(table: Table, path: Path) -> None:
    cells = [
        map(str if c.kind == KIND_CATEGORICAL else repr, c.values.tolist()) for c in table.columns
    ]
    with path.open("w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(table.names) + "\n")
        fh.writelines(",".join(row) + "\n" for row in zip(*cells))


def read_csv_table(path: Path, column_info: list[tuple[str, str, str]]) -> Table:
    """Load a CSV written by write_csv; column_info is (name, kind, role) per column.

    Every row of the body must hold one number per header column; raises
    InvalidConfigError naming ``path`` otherwise.
    """
    expected = [name for name, _, _ in column_info]
    with path.open("r", newline="", encoding="utf-8") as fh:
        header = next(csv.reader(fh))
        if header != expected:
            raise InvalidConfigError(f"{path}: header {header} does not match schema {expected}")
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)  # loadtxt warns on a table of no rows
                data = np.loadtxt(fh, delimiter=",", ndmin=2)
        except ValueError as exc:  # a ragged row or a non-numeric cell
            # numpy's message names the row; past its ";" it advises on loadtxt's arguments.
            reason = str(exc).split(";")[0]
            raise InvalidConfigError(f"{path}: each row must hold {len(expected)} numeric cells: {reason}") from None
    if not len(data):
        data = data.reshape(0, len(expected))
    if data.shape[1] != len(expected):
        raise InvalidConfigError(f"{path}: rows of {data.shape[1]} cells under a header of {len(expected)} columns")
    columns = []
    for j, (name, kind, role) in enumerate(column_info):
        values = data[:, j].copy()
        if not np.isfinite(values).all():
            raise InvalidConfigError(f"{path}: column {name} holds a non-finite cell")
        if kind == KIND_CATEGORICAL:
            values = values.astype(np.int64)
            if not np.array_equal(values, data[:, j]):
                raise InvalidConfigError(f"{path}: categorical column {name} holds a non-integer cell")
        columns.append(Column(name=name, kind=kind, role=role, values=values))
    return Table(columns=columns)


# --- DOT -------------------------------------------------------------------

def dag_to_dot(dag: DagSpec, latent_edges: set | None = None) -> str:
    """Graphviz rendering: targets green, features blue, latent edges dashed."""
    latent = latent_edges or set()
    lines = ["digraph dataset {", "  rankdir=LR;", '  node [style=filled, fontname="Helvetica"];']
    for node in dag.nodes:
        color = "#a1d99b" if node.role == "target" else "#9ecae1"
        pooling = node.pooling or "?"
        if node.pooling == "categorical" and node.category_count:
            pooling = f"cat({node.category_count})"
        lines.append(f'  "{node.name}" [label="{node.name}\\n{pooling}", fillcolor="{color}"];')
    for a, b in sorted(dag.edges):
        label = dag.node(b).activation or ""
        style = ', style=dashed, color="#e6a817"' if (a, b) in latent else ""
        lines.append(f'  "{dag.node(a).name}" -> "{dag.node(b).name}" [label="{label}"{style}];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def schema_to_dot(schema: RelationalSchema) -> str:
    return dag_to_dot(schema.merged, schema.latent_edges)


# --- dataset directory + manifest -------------------------------------------

def file_sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with path.open("rb") as fh:
        for block in iter(lambda: fh.read(1 << 16), b""):
            digest.update(block)
    return digest.hexdigest()


def mismatched_files(root: Path, listed: dict, names) -> list[str]:
    """The names among ``names`` whose file in ``root`` lacks the SHA-256 ``listed`` gives."""
    return [name for name in names if file_sha256(root / name) != listed.get(name)]


def write_dataset(dataset: RelationalDataset, cfg: GenerationConfig, out_dir: str | Path) -> dict:
    """Write main.csv, additional.csv, schema.json, schema.dot, manifest.json."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    seeds = Seeds(cfg.master_seed, RUN_TAGS, SEED_DERIVATION_NOTE)
    schema_dict = schema_to_dict(dataset.schema, dataset.stats, seeds)
    (out / SCHEMA_JSON).write_text(json.dumps(schema_dict, indent=1), encoding="utf-8")
    (out / SCHEMA_DOT).write_text(schema_to_dot(dataset.schema), encoding="utf-8")
    write_csv(dataset.main_table, out / MAIN_CSV)
    write_csv(dataset.add_table, out / ADD_CSV)

    files = {name: file_sha256(out / name) for name in (MAIN_CSV, ADD_CSV, SCHEMA_JSON, SCHEMA_DOT)}
    # The snapshot says how the data was made, not where this copy was written.
    config = {k: v for k, v in config_to_dict(cfg).items() if k != "out_dir"}
    manifest = {
        "tool": "relgen",
        "tool_version": TOOL_VERSION,
        "config": config,
        "schema_fingerprint": schema_dict["fingerprint"],
        "files": files,
        "seed_derivation": SEED_DERIVATION_NOTE,
        "stream_version": STREAM_VERSION,
        "prerun_warnings": list(dataset.stats.warnings),
    }
    (out / MANIFEST_JSON).write_text(json.dumps(manifest, indent=1), encoding="utf-8")
    return manifest


def load_manifest(path: str | Path) -> dict:
    """Parse a manifest.json; its root, ``files`` and ``config`` must be JSON objects."""
    manifest = json.loads(Path(path).read_text(encoding="utf-8"))
    if not (isinstance(manifest, dict) and all(isinstance(manifest.get(k), dict) for k in ("files", "config"))):
        raise InvalidConfigError(f"{path}: not a manifest (needs an object with 'files' and 'config' objects)")
    return manifest


def report_to_dict(report) -> dict:
    """eval_report.json's content: the report's fields, in their order."""
    return _write(report)


def write_eval_report(report, out_dir: str | Path) -> None:
    """eval_report.json plus a flat metrics.csv (one row per target x condition)."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "eval_report.json").write_text(
        json.dumps(report_to_dict(report), indent=1), encoding="utf-8"
    )
    with (out / "metrics.csv").open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["target", "task", "metric", "condition", "value", "latently_affected"])
        for t in report.targets:
            for condition, value in (("main_only", t.main_only), ("joined", t.joined)):
                writer.writerow([t.column, t.task, t.metric, condition, repr(value), t.latently_affected])


def load_dataset(dataset_dir: str | Path) -> RelationalDataset:
    """Rebuild an in-memory dataset from a generated directory.

    Each file read must have the SHA-256 that manifest.json lists for it, so
    a truncated, edited or swapped file raises InvalidConfigError instead of
    being evaluated.
    """
    root = Path(dataset_dir)
    listed = load_manifest(root / MANIFEST_JSON)["files"]
    bad = mismatched_files(root, listed, (SCHEMA_JSON, MAIN_CSV, ADD_CSV))
    if bad:
        raise InvalidConfigError(f"{root / bad[0]}: SHA-256 is not the one {MANIFEST_JSON} lists")

    schema, file = read_schema(root / SCHEMA_JSON)
    # export-dot reads a schema without these; the data's reader needs both.
    missing = [key for key in ("prerun_stats", "seeds") if getattr(file, key) is None]
    if missing:
        raise InvalidConfigError(f"{root / SCHEMA_JSON}: schema lacks {missing}")

    node = schema.merged.node
    return RelationalDataset(
        main_table=read_csv_table(root / MAIN_CSV, [column_info(node(i)) for i in schema.main_columns()]),
        add_table=read_csv_table(root / ADD_CSV, [column_info(node(i)) for i in schema.add_columns()]),
        schema=schema,
        stats=file.prerun_stats,
        seed=file.seeds.master_seed,
        schema_fingerprint=file.fingerprint,
    )
