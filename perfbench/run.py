"""relgen benchmark: generate, eval and the latent-effect sweep.

    python3 perfbench/run.py --workload {gen_100k,eval_20k,latent_sweep}
                             [--seed N] [--seconds S] [--trace 0|1]

Runs the workload again and again, each run in a fresh process (see
``worker.py``), until ``--seconds`` have passed and at least a few runs are
done, then prints one line per metric and, as the last line, one JSON
object ``{"correct", "attempted", "failed", "metrics"}``.

With ``--trace 0`` the metrics are the end-to-end ones, medians over the
runs. With ``--trace 1`` untraced and traced runs alternate; the metrics are
the per-layer medians of the traced runs plus the tracing overhead.

A run fails when it raises, when an output check fails, or when what it
wrote differs from the first run's output: every run of one invocation uses
the same seed, so outputs must be byte-identical, traced or not.

BLAS is pinned to one thread. relgen runs single-threaded here
(``threads=1``); with OpenBLAS at its default of one thread per core, an
``eval_20k`` run on a 2-core machine took no less wall time but about 1.7
times its wall time in CPU, and its wall time depended on the other core
being free.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SOURCE = ROOT / "src"
WORKER = HERE / "worker.py"
WORKLOADS = ("gen_100k", "eval_20k", "latent_sweep")
MIN_RUNS = 3
MIN_TRACED_PAIRS = 2
MIN_RUNS_STRETCH = 1.1
RUN_TIMEOUT_S = 150
PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

def run_once(workload: str, seed: int, workdir: Path, traced: bool, scale: float) -> dict:
    """One run of the workload in a fresh worker process."""
    env = dict(os.environ, PYTHONPATH=str(SOURCE), **PINNED_ENV)
    cmd = [sys.executable, str(WORKER), workload, str(seed), str(workdir), "--scale", repr(scale)]
    if traced:
        cmd.append("--trace")
    workdir.mkdir(parents=True)
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=RUN_TIMEOUT_S
        )
    except subprocess.TimeoutExpired:
        return {"ok": False, "traced": traced, "error": f"run exceeded {RUN_TIMEOUT_S} s"}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        tail = proc.stderr.strip().splitlines()[-1:] or [f"exit code {proc.returncode}"]
        return {"ok": False, "traced": traced, "error": tail[0]}
    if not result["ok"]:
        sys.stderr.write(proc.stderr)
    result["traced"] = traced
    return result


def collect(args: argparse.Namespace, workroot: Path) -> list[dict]:
    """Start runs while the next one is expected to end within ``--seconds``.

    To reach the minimum run count the time may stretch by ``MIN_RUNS_STRETCH``
    but no further, so a slow machine reports fewer runs instead of
    overrunning the time it was given.
    """
    modes = (False, True) if args.trace else (False,)
    minimum = (MIN_TRACED_PAIRS if args.trace else MIN_RUNS) * len(modes)
    runs: list[dict] = []
    start = perf_counter()
    last = 0.0
    while not runs or perf_counter() - start + last <= args.seconds * (
        MIN_RUNS_STRETCH if len(runs) < minimum else 1.0
    ):
        began = perf_counter()
        for traced in modes:
            workdir = workroot / f"run-{len(runs)}"
            runs.append(run_once(args.workload, args.seed, workdir, traced, args.scale))
        last = perf_counter() - began
    reference = next((r["outputs"] for r in runs if r["ok"]), None)
    for r in runs:
        if r["ok"] and r["outputs"] != reference:
            r["ok"] = False
            r["error"] = "outputs differ from the first run with the same seed"
    return runs


def units(spec: dict, kind: str) -> dict[str, str]:
    """Metric name to unit, for the ``end_to_end`` or ``per_layer`` list of BENCHMARK.json."""
    return {m["name"]: m["unit"] for m in spec[kind]}


def end_to_end(ok: list[dict]) -> dict[str, float]:
    median = statistics.median
    return {
        "rows_per_s": median(r["rows"] / r["run_s"] for r in ok),
        "run_s": median(r["run_s"] for r in ok),
        "cpu_s": median(r["cpu_s"] for r in ok),
        "peak_rss_MB": median(r["peak_rss_MB"] for r in ok),
        "setup_s": median(r["setup_s"] for r in ok),
    }


def per_layer(ok: list[dict]) -> dict[str, float]:
    traced = [r for r in ok if r["traced"]]
    plain = [r for r in ok if not r["traced"]]
    metrics = {
        name: statistics.median(r["layers"][name] for r in traced)
        for name in traced[0]["layers"]
    }
    overhead = statistics.median(r["run_s"] for r in traced) / statistics.median(r["run_s"] for r in plain)
    metrics["trace.overhead_share"] = overhead - 1.0
    return metrics


def uncovered(ok: list[dict]) -> dict[str, float]:
    """Median self time of each grouping span, and time outside all spans, over the traced runs."""
    traced = [r["uncovered_s"] for r in ok if r["traced"]]
    return {name: statistics.median(u[name] for u in traced) for name in traced[0]}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="relgen benchmark")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=60.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0, help="row-count factor, for smoke tests")
    args = parser.parse_args(argv)

    if not (SOURCE / "relgen" / "__init__.py").is_file():
        print(f"error: relgen sources not found under {SOURCE}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    workroot = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        runs = collect(args, workroot)
    finally:
        shutil.rmtree(workroot, ignore_errors=True)
        with contextlib.suppress(OSError):  # still in use by a concurrent invocation
            workroot.parent.rmdir()
    ok = [r for r in runs if r["ok"]]
    failed = len(runs) - len(ok)
    for r in runs:
        if not r["ok"]:
            print(f"run failed: {r['error']}", file=sys.stderr)
    plain = [r for r in ok if not r["traced"]]
    if not plain or (args.trace and len(plain) == len(ok)):
        print("error: no successful run to report", file=sys.stderr)
        return 1

    if args.trace:
        measured, listed = per_layer(ok), units(spec, "per_layer")
    else:
        measured, listed = end_to_end(plain), units(spec, "end_to_end")
    metrics = {name: measured[name] for name in listed}
    print(f"{args.workload} seed={args.seed} runs={len(runs)} failed={failed} "
          f"failed_share={failed / len(runs):.3g} untraced_samples={len(plain)}")
    for name, value in metrics.items():
        print(f"  {name:28s} {value:>16.6g} {listed[name]}")
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "failed_share": failed / len(runs),
        "machine": ok[0]["machine"],
        "structure": ok[0]["structure"],
        "unwrapped": next((r["unwrapped"] for r in ok if r["traced"]), None),
        # Per-layer figures BENCHMARK.json does not list: the CSV write path,
        # which only gen_100k exercises (units in README.md).
        "unlisted_layers": {k: v for k, v in measured.items() if k not in listed},
        "uncovered_s": uncovered(ok) if args.trace else None,
        "leaf_parents": sorted({n for r in ok if r["traced"] for n in r["leaf_parents"]}),
        "samples": {
            key: [r[key] for r in plain]
            for key in ("run_s", "cpu_s", "peak_rss_MB", "setup_s", "host_loop_s")
        },
    }
    print("detail " + json.dumps(detail))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(runs),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": listed[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
