"""relgen: deterministic generator for linked synthetic tables built on
causal graphs, plus a kNN evaluation harness for the inter-table link."""

from .config import GenerationConfig, config_from_dict, load_config
from .engine import (
    NoiseConfig,
    PropagationFn,
    QuantilePair,
    RootDistribution,
    init_propagation_fn,
    propagate,
    sample_noise,
    sample_root,
    structural_assign,
)
from .evaluate import EvalConfig, EvalReport, knn_predict, run_comparison, score, split
from .graphs import (
    DagSpec,
    NodeSpec,
    assign_node_configs,
    classify_nodes,
    sample_ba_graph,
    sample_dag,
)
from .prerun import Codebook, PrerunStats, compute_quantiles, fit_codebook, prerun
from .relational import (
    RelationalDataset,
    RelationalSchema,
    build_schema,
    compose,
    generate_relational,
    latently_affected_targets,
    run_generation,
)
from .seeding import derive_subseed, substream
from .tables import Table, generate_table, pool

__version__ = "0.1.0"

__all__ = [
    "Codebook",
    "DagSpec",
    "EvalConfig",
    "EvalReport",
    "GenerationConfig",
    "NodeSpec",
    "NoiseConfig",
    "PrerunStats",
    "PropagationFn",
    "QuantilePair",
    "RelationalDataset",
    "RelationalSchema",
    "RootDistribution",
    "Table",
    "assign_node_configs",
    "build_schema",
    "classify_nodes",
    "compose",
    "compute_quantiles",
    "config_from_dict",
    "derive_subseed",
    "fit_codebook",
    "generate_relational",
    "generate_table",
    "init_propagation_fn",
    "knn_predict",
    "latently_affected_targets",
    "load_config",
    "pool",
    "prerun",
    "propagate",
    "run_comparison",
    "run_generation",
    "sample_ba_graph",
    "sample_dag",
    "sample_noise",
    "sample_root",
    "score",
    "split",
    "structural_assign",
    "substream",
]
