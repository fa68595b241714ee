"""Command-line interface: generate, eval, regenerate, export-dot."""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
from pathlib import Path

from .config import config_from_dict, load_config, with_overrides
from .errors import InvalidConfigError, InvalidParameterError, RelgenError
from .evaluate import EvalConfig, run_comparison
from .relational import run_generation
from .seeding import STREAM_VERSION
from .serialize import (
    MANIFEST_JSON,
    SCHEMA_DOT,
    SCHEMA_JSON,
    load_dataset,
    load_manifest,
    mismatched_files,
    read_schema,
    schema_to_dot,
    write_dataset,
    write_eval_report,
)


def _add_generate_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", type=Path, help="JSON config file (defaults apply to missing keys)")
    parser.add_argument("--seed", type=int, help="override master_seed")
    parser.add_argument("--out", type=Path, help="output directory (overrides config out_dir)")
    parser.add_argument("--threads", type=int, help="worker threads for row generation")
    parser.add_argument("--rows-main", type=int, dest="rows_main", help="main-table row count")
    parser.add_argument("--rows-add", type=int, dest="rows_add", help="additional-table row count")


def _resolve_config(args: argparse.Namespace):
    cfg = load_config(args.config) if args.config else config_from_dict({})
    return with_overrides(
        cfg,
        master_seed=args.seed,
        threads=args.threads,
        rows_main=args.rows_main,
        rows_add=args.rows_add,
        out_dir=str(args.out) if args.out else None,
    )


def cmd_generate(args: argparse.Namespace) -> int:
    cfg = _resolve_config(args)
    dataset = run_generation(cfg)
    manifest = write_dataset(dataset, cfg, cfg.out_dir)
    print(f"wrote {sorted(manifest['files'])} to {cfg.out_dir}")
    print(f"schema fingerprint {manifest['schema_fingerprint'][:16]}...")
    for warning in dataset.stats.warnings:
        print(f"warning: {warning}")
    return 0


def cmd_eval(args: argparse.Namespace) -> int:
    dataset = load_dataset(args.dataset_dir)
    report = run_comparison(
        dataset,
        EvalConfig(test_fraction=args.test_fraction, k=args.k),
    )
    out_dir = args.out if args.out else args.dataset_dir
    write_eval_report(report, out_dir)
    for t in report.targets:
        flag = "latent" if t.latently_affected else "      "
        print(
            f"{t.column:>6} {t.metric:>4} [{flag}] main_only={t.main_only:.4f} joined={t.joined:.4f}"
        )
    print(f"wrote eval_report.json and metrics.csv to {out_dir}")
    return 0


def cmd_regenerate(args: argparse.Namespace) -> int:
    manifest = load_manifest(args.manifest)
    version = manifest.get("stream_version", 1)
    if version != STREAM_VERSION:
        raise InvalidConfigError(
            f"{args.manifest} was written with random stream version {version}; "
            f"this relgen uses version {STREAM_VERSION} and cannot reproduce its bytes"
        )
    # Regenerating into the dataset's own directory would overwrite the files
    # being verified, even when they turn out not to match.
    dataset_dir = Path(args.manifest).resolve().parent
    if args.out and Path(args.out).resolve() == dataset_dir:
        raise InvalidParameterError(f"--out {args.out} is the dataset being verified; pick another directory")
    listed = manifest["files"]
    on_disk = mismatched_files(dataset_dir, listed, listed)
    if args.out:
        regenerated = _regenerate_into(manifest, Path(args.out))
    else:
        # Without --out, regenerate next to the dataset and compare there, so
        # a mismatch never touches the files being verified.
        prefix = f".{dataset_dir.name}-regen-"
        with tempfile.TemporaryDirectory(prefix=prefix, dir=dataset_dir.parent) as tmp:
            regenerated = _regenerate_into(manifest, Path(tmp))
    for side, names in (("on disk", on_disk), ("regenerated", regenerated)):
        if names:
            print(f"MISMATCH {side}: {names} differ from {MANIFEST_JSON}", file=sys.stderr)
    if on_disk or regenerated:
        return 1
    kept = f" in {args.out}" if args.out else ""
    print(f"regenerated {sorted(listed)} with identical hashes{kept}, and the files on disk match")
    return 0


def _regenerate_into(manifest: dict, out_dir: Path) -> list[str]:
    """Regenerate into ``out_dir``; the names whose hash differs from the manifest's."""
    cfg = with_overrides(config_from_dict(manifest["config"]), out_dir=str(out_dir))
    write_dataset(run_generation(cfg), cfg, out_dir)
    return mismatched_files(out_dir, manifest["files"], manifest["files"])


def cmd_export_dot(args: argparse.Namespace) -> int:
    schema, _ = read_schema(args.schema)
    out = Path(args.out) if args.out else Path(args.schema).with_suffix(".dot")
    out.write_text(schema_to_dot(schema), encoding="utf-8")
    print(f"wrote {out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="relgen",
        description="Generate linked synthetic tables from causal graphs and evaluate the link.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="sample a dataset and write it to disk")
    _add_generate_flags(gen)
    gen.set_defaults(func=cmd_generate)

    ev = sub.add_parser("eval", help="score main-table targets with and without the join")
    ev.add_argument("dataset_dir", type=Path)
    ev.add_argument("--k", type=int, default=10)
    ev.add_argument("--test-fraction", type=float, default=0.1, dest="test_fraction")
    ev.add_argument("--out", type=Path, help="report directory (defaults to dataset dir)")
    ev.set_defaults(func=cmd_eval)

    regen = sub.add_parser("regenerate", help=f"re-run generation from a {MANIFEST_JSON} and verify hashes")
    regen.add_argument("manifest", type=Path)
    regen.add_argument(
        "--out",
        type=Path,
        help="keep the regenerated files here (default: a temporary directory beside the dataset, removed after the check)",
    )
    regen.set_defaults(func=cmd_regenerate)

    dot = sub.add_parser("export-dot", help=f"render {SCHEMA_DOT} from a {SCHEMA_JSON}")
    dot.add_argument("schema", type=Path)
    dot.add_argument("--out", type=Path)
    dot.set_defaults(func=cmd_export_dot)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (RelgenError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
