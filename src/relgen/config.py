"""Generation configuration: defaults, JSON loading, and validation.

The default profile targets a two-table dataset with hidden dimension 2,
a 1,000-sample pre-run, 10% noise of standard deviation 0.1, category counts
drawn from Normal(4, 2), a coupling-key cardinality drawn from Normal(100, 50),
and 100,000 main rows against 500 additional rows.

Each key's JSON type is declared once, by its dataclass annotation. ``_read``
walks the annotations of ``GenerationConfig`` and, for ``serialize.read_schema``,
of ``schema.json``'s dataclasses. A dataclass reads from an object (unknown
keys rejected, a field without a default required), a tuple, list or set from
a list, ``X | None`` from null or an X, an ``int`` from an integer only, a
``float`` from any number (stored as ``float``), a ``str`` from a string, a
``dict[int, X]`` from an object with decimal keys and an ``np.ndarray`` from
nested lists of numbers; no number reads from a boolean. The one shorthand is
an integer k for ``GraphConfig.num_nodes``, read as (k, k). Errors name the
key path, e.g. ``main_graph.num_nodes[0]``. A ``GenerationConfig`` checks its
ranges when it is constructed, so every config that exists is valid.

``_write`` is ``_read``'s mirror and writes every JSON file relgen makes: a
dataclass as an object of its fields in declaration order, so the field order
is the file's key order, an ``np.ndarray`` as nested lists, a set as a sorted
list, a tuple or list as a list and a dict with ``str`` keys in insertion order.
"""

from __future__ import annotations

import json
from dataclasses import MISSING, dataclass, field, fields, is_dataclass, replace
from functools import cache
from pathlib import Path
from types import UnionType
from typing import get_args, get_origin, get_type_hints

import numpy as np

from .engine import ACTIVATIONS, NoiseConfig, ROOT_FAMILIES
from .errors import InvalidConfigError

NUMERIC_POOLINGS = ("norm", "mean", "median", "variance")


@dataclass(frozen=True)
class GraphConfig:
    """Structure parameters for one sampled graph."""

    num_nodes: tuple[int, int] = (6, 12)  # inclusive range; use (k, k) to pin
    attach_m: int = 2

    def validate(self, prefix: str) -> None:
        lo, hi = self.num_nodes
        if lo < 2 or hi < lo or hi < 3:
            raise InvalidConfigError(f"{prefix}.num_nodes must be a range with 2 <= lo <= hi and hi >= 3")
        if not 1 <= self.attach_m < hi:
            raise InvalidConfigError(f"{prefix}.attach_m must satisfy 1 <= attach_m < num_nodes[1]")


@dataclass(frozen=True)
class RootDistConfig:
    """Family weights and parameter ranges for root-node distributions."""

    family_weights: dict[str, float] = field(
        default_factory=lambda: {"normal": 1.0, "gamma": 1.0, "mixture": 1.0}
    )
    normal_mean: tuple[float, float] = (-1.0, 1.0)
    normal_std: tuple[float, float] = (0.5, 1.5)
    gamma_shape: tuple[float, float] = (1.0, 3.0)
    gamma_scale: tuple[float, float] = (0.5, 2.0)
    mixture_p: float = 0.5
    mixture_exp_scale: tuple[float, float] = (0.2, 1.0)

    def validate(self) -> None:
        unknown = set(self.family_weights) - set(ROOT_FAMILIES)
        if unknown:
            raise InvalidConfigError(f"root_distributions.family_weights: unknown families {sorted(unknown)}")
        if not self.family_weights or sum(self.family_weights.values()) <= 0:
            raise InvalidConfigError("root_distributions.family_weights must have positive total weight")
        if any(w < 0 for w in self.family_weights.values()):
            raise InvalidConfigError("root_distributions.family_weights must be non-negative")
        if not 0.0 <= self.mixture_p <= 1.0:
            raise InvalidConfigError("root_distributions.mixture_p must lie in [0,1]")


@dataclass(frozen=True)
class GenerationConfig:
    master_seed: int = 0
    hidden_dim: int = 2
    main_graph: GraphConfig = field(default_factory=GraphConfig)
    add_graph: GraphConfig = field(default_factory=lambda: GraphConfig(num_nodes=(4, 8)))
    root_distributions: RootDistConfig = field(default_factory=RootDistConfig)
    activations: tuple[str, ...] = tuple(ACTIVATIONS)
    numeric_poolings: tuple[str, ...] = NUMERIC_POOLINGS
    categorical_probability: float = 0.4
    category_count: tuple[float, float] = (4.0, 2.0)  # (mean, std), rounded, clamped >= 2
    coupling_categories: tuple[float, float] = (100.0, 50.0)
    noise: NoiseConfig = field(default_factory=NoiseConfig)
    num_presamples: int = 1000
    rows_main: int = 100_000
    rows_add: int = 500
    latent_count: int = 2
    out_dir: str = "dataset"
    threads: int = 1

    def __post_init__(self) -> None:
        if self.hidden_dim < 1:
            raise InvalidConfigError("hidden_dim must be >= 1")
        self.main_graph.validate("main_graph")
        self.add_graph.validate("add_graph")
        self.root_distributions.validate()
        if not self.activations:
            raise InvalidConfigError("activations must not be empty")
        unknown = set(self.activations) - set(ACTIVATIONS)
        if unknown:
            raise InvalidConfigError(f"activations: unknown tags {sorted(unknown)}")
        if not self.numeric_poolings:
            raise InvalidConfigError("numeric_poolings must not be empty")
        bad = set(self.numeric_poolings) - set(NUMERIC_POOLINGS)
        if bad:
            raise InvalidConfigError(f"numeric_poolings: unknown kinds {sorted(bad)}")
        if not 0.0 <= self.categorical_probability <= 1.0:
            raise InvalidConfigError("categorical_probability must lie in [0,1]")
        for key in ("category_count", "coupling_categories"):
            if not getattr(self, key)[1] >= 0.0:
                raise InvalidConfigError(f"{key}[1], the std, must be >= 0")
        for key in ("num_presamples", "rows_main", "rows_add", "latent_count"):
            if getattr(self, key) < 0:
                raise InvalidConfigError(f"{key} must be >= 0")
        if self.num_presamples < 2:
            raise InvalidConfigError("num_presamples must be >= 2")
        if self.threads < 1:
            raise InvalidConfigError("threads must be >= 1")


_JSON_NAMES = {int: "an integer", float: "a number", str: "a string"}


_hints = cache(get_type_hints)  # read once per dataclass, not once per JSON object


def _numbers(value) -> bool:
    """Whether ``value`` is a number, not a boolean, or a nested list of them."""
    if isinstance(value, list):
        return all(_numbers(v) for v in value)
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _read(tp, value, path: str, root: str = "config"):
    """Read the JSON ``value`` as the annotated type ``tp``; ``path`` names it
    in errors, and ``root`` names the top-level value."""
    where = path or root
    if is_dataclass(tp):
        if not isinstance(value, dict):
            raise InvalidConfigError(f"{where} must be a JSON object, got {value!r}")
        hints = _hints(tp)
        unknown = set(value) - set(hints)
        if unknown:
            raise InvalidConfigError(f"{where}: unknown keys {sorted(unknown)}")
        missing = [f.name for f in fields(tp) if f.name not in value and f.default is f.default_factory is MISSING]
        if missing:
            raise InvalidConfigError(f"{where} lacks {missing}")
        pinned = value.get("num_nodes") if tp is GraphConfig else None
        if type(pinned) is int:  # "num_nodes": k pins the range to (k, k)
            value = {**value, "num_nodes": [pinned, pinned]}
        return tp(**{k: _read(hints[k], v, f"{path}.{k}" if path else k) for k, v in value.items()})
    origin, args = get_origin(tp), get_args(tp)
    if origin is UnionType:  # X | None
        return None if value is None else _read(args[0], value, path, root)
    if origin in (list, set, tuple):
        if not isinstance(value, (list, tuple)):
            raise InvalidConfigError(f"{where} must be a list, got {value!r}")
        if origin is not tuple or args[-1] is Ellipsis:
            args = args[:1] * len(value)
        elif len(value) != len(args):
            raise InvalidConfigError(f"{where} must be a {len(args)}-element list, got {value!r}")
        return origin(_read(t, v, f"{path}[{i}]") for i, (t, v) in enumerate(zip(args, value)))
    if origin is dict:
        if not isinstance(value, dict):
            raise InvalidConfigError(f"{where} must be a JSON object, got {value!r}")
        bad = [k for k in value if args[0] is int and not (k.isascii() and k.isdigit())]
        if bad:
            raise InvalidConfigError(f"{where}: keys {bad} are not non-negative integers")
        return {args[0](k): _read(args[1], v, f"{path}.{k}") for k, v in value.items()}
    if tp is np.ndarray:
        if not (isinstance(value, list) and _numbers(value)):
            raise InvalidConfigError(f"{where} must be a list of numbers, got {value!r}")
        return np.array(value, dtype=float)
    if tp not in _JSON_NAMES:
        raise TypeError(f"{where}: no JSON reader for type {tp!r}")
    accepted = (int, float) if tp is float else tp
    if isinstance(value, bool) or not isinstance(value, accepted):
        raise InvalidConfigError(f"{where} must be {_JSON_NAMES[tp]}, got {value!r}")
    return tp(value)


def _write(value):
    """The JSON value that :func:`_read` reads back as ``value``'s type."""
    if is_dataclass(value):
        return {f.name: _write(getattr(value, f.name)) for f in fields(value)}
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, set):
        value = sorted(value)
    if isinstance(value, (list, tuple)):
        return [_write(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _write(v) for k, v in value.items()}
    return value


def config_from_dict(data: dict) -> GenerationConfig:
    """Read a (possibly partial) dict into a GenerationConfig; defaults fill missing keys."""
    return _read(GenerationConfig, data, "")


def config_to_dict(cfg: GenerationConfig) -> dict:
    """Plain-JSON dict (tuples become lists) that round-trips through config_from_dict."""
    return _write(cfg)


def load_config(path: str | Path) -> GenerationConfig:
    """Parse a JSON config file. An empty file yields the full default profile."""
    try:
        text = Path(path).read_text(encoding="utf-8").strip()
    except OSError as exc:
        raise InvalidConfigError(f"cannot read config {path}: {exc}") from exc
    if not text:
        return config_from_dict({})
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InvalidConfigError(f"{path}: not valid JSON ({exc})") from exc
    return config_from_dict(data)


def with_overrides(cfg: GenerationConfig, **overrides) -> GenerationConfig:
    """Apply non-None keyword overrides; constructing the new config validates it."""
    changes = {k: v for k, v in overrides.items() if v is not None}
    return replace(cfg, **changes) if changes else cfg
