"""Generation configuration: defaults, JSON loading, and validation.

The default profile targets a two-table dataset with hidden dimension 2,
a 1,000-sample pre-run, 10% noise of standard deviation 0.1, category counts
drawn from Normal(4, 2), a coupling-key cardinality drawn from Normal(100, 50),
and 100,000 main rows against 500 additional rows.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, fields, replace
from pathlib import Path

from .engine import ACTIVATIONS, NoiseConfig, ROOT_FAMILIES
from .errors import InvalidConfigError

NUMERIC_POOLINGS = ("norm", "mean", "median", "variance")


def _require_ints(cfg, prefix: str = "") -> None:
    """Reject a float, string or boolean in any field of ``cfg`` declared ``int``."""
    for f in fields(cfg):
        value = getattr(cfg, f.name)
        if f.type == "int" and (isinstance(value, bool) or not isinstance(value, int)):
            raise InvalidConfigError(f"{prefix}{f.name} must be an integer, got {value!r}")


@dataclass(frozen=True)
class GraphConfig:
    """Structure parameters for one sampled graph."""

    num_nodes: tuple[int, int] = (6, 12)  # inclusive range; use (k, k) to pin
    attach_m: int = 2

    def validate(self, prefix: str) -> None:
        _require_ints(self, f"{prefix}.")
        lo, hi = self.num_nodes
        if lo < 2 or hi < lo:
            raise InvalidConfigError(f"{prefix}.num_nodes must be a range with 2 <= lo <= hi")
        if self.attach_m < 1:
            raise InvalidConfigError(f"{prefix}.attach_m must be >= 1")


@dataclass(frozen=True)
class RootDistConfig:
    """Family weights and parameter ranges for root-node distributions."""

    family_weights: dict = field(
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
    activations: tuple[str, ...] = ("identity", "relu", "tanh", "logabs", "sin")
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

    def validate(self) -> None:
        _require_ints(self)
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
        for key in ("num_presamples", "rows_main", "rows_add", "latent_count"):
            if getattr(self, key) < 0:
                raise InvalidConfigError(f"{key} must be >= 0")
        if self.num_presamples < 2:
            raise InvalidConfigError("num_presamples must be >= 2")
        if self.threads < 1:
            raise InvalidConfigError("threads must be >= 1")


def _pair(value, key: str, cast=float) -> tuple:
    if not isinstance(value, (list, tuple)) or len(value) != 2:
        raise InvalidConfigError(f"{key} must be a two-element list")
    return (cast(value[0]), cast(value[1]))


def _build(cls, data: dict, path: str, builders: dict | None = None):
    """Construct a dataclass from a dict, rejecting unknown keys and values of the wrong shape."""
    if not isinstance(data, dict):
        raise InvalidConfigError(f"{path or 'config root'} must be a JSON object")
    builders = builders or {}
    unknown = set(data) - {f.name for f in fields(cls)}
    if unknown:
        raise InvalidConfigError(f"{path}: unknown keys {sorted(unknown)}")
    kwargs = {}
    for key, value in data.items():
        if key in builders:
            key_path = f"{path}.{key}" if path else key
            try:
                kwargs[key] = builders[key](value, key_path)
            except InvalidConfigError:
                raise
            except (TypeError, ValueError) as exc:
                raise InvalidConfigError(f"{key_path}: {exc}") from exc
        else:
            kwargs[key] = value
    try:
        return cls(**kwargs)
    except TypeError as exc:
        raise InvalidConfigError(f"{path}: {exc}") from exc


def config_from_dict(data: dict) -> GenerationConfig:
    """Build a validated GenerationConfig from a (possibly partial) dict."""
    def graph(value, path):
        if isinstance(value, dict) and "num_nodes" in value:
            raw = value["num_nodes"]
            value = dict(value)
            value["num_nodes"] = (int(raw), int(raw)) if isinstance(raw, int) else _pair(raw, f"{path}.num_nodes", int)
        return _build(GraphConfig, value, path)

    def roots(value, path):
        value = dict(value)
        for key in ("normal_mean", "normal_std", "gamma_shape", "gamma_scale", "mixture_exp_scale"):
            if key in value:
                value[key] = _pair(value[key], f"{path}.{key}")
        return _build(RootDistConfig, value, path)

    def noise(value, path):
        return _build(NoiseConfig, value, path)

    def pair_of(cast):
        return lambda value, path: _pair(value, path, cast)

    def seq(value, path):
        if not isinstance(value, (list, tuple)):
            raise InvalidConfigError(f"{path} must be a list")
        return tuple(value)

    cfg = _build(
        GenerationConfig,
        data,
        "",
        builders={
            "main_graph": graph,
            "add_graph": graph,
            "root_distributions": roots,
            "noise": noise,
            "category_count": pair_of(float),
            "coupling_categories": pair_of(float),
            "activations": seq,
            "numeric_poolings": seq,
        },
    )
    cfg.validate()
    return cfg


def config_to_dict(cfg: GenerationConfig) -> dict:
    """Plain-JSON dict (tuples become lists) that round-trips through config_from_dict."""
    return json.loads(json.dumps(asdict(cfg)))


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
    """Apply non-None keyword overrides and re-validate."""
    changes = {k: v for k, v in overrides.items() if v is not None}
    if not changes:
        return cfg
    cfg = replace(cfg, **changes)
    cfg.validate()
    return cfg
