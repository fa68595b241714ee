"""One benchmark run in a fresh process: set up, time one operation, check it.

    python3 perfbench/worker.py WORKLOAD SEED WORKDIR [--trace] [--scale F]

``run.py`` starts this with BLAS pinned to one thread and ``src`` on
``PYTHONPATH``. The last line of standard output is one JSON object: the
run's timings, its structure, the digests of what it wrote and, with
``--trace``, its per-layer metrics. A failed operation or check is reported
in the object with ``ok`` false.
"""

from __future__ import annotations

import time

SETUP_START = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402


def _cpu_seconds() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _host_loop_seconds() -> float:
    """Time of a fixed pure-Python loop: the host's speed at the time of the run.

    Shared hosts drift in speed by tens of percent over minutes; this figure
    lets a reader tell a slow host from a slow program. It is not a metric.
    """
    start = time.perf_counter()
    total = 0
    for i in range(1_000_000):
        total += i * i
    return time.perf_counter() - start


def _blas() -> dict:
    """numpy's BLAS library and the thread count it runs with."""
    import ctypes
    import glob

    import numpy as np

    info = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    threads = None
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads = int(fn())
                break
    return {
        "name": info.get("name"),
        "version": info.get("version"),
        "threads": threads,
        "threads_env": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def machine() -> dict:
    import numpy as np

    return {
        "nproc": os.cpu_count(),
        "cpu": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas(),
    }


def run(workload: str, seed: int, workdir: Path, traced: bool, scale: float) -> dict:
    import workloads

    job = workloads.WORKLOADS[workload](seed, workdir, scale)
    setup_s = time.perf_counter() - SETUP_START
    tracer = None
    if traced:
        from layers import Tracer

        tracer = Tracer()
    with tracer or contextlib.nullcontext():
        cpu0, start = _cpu_seconds(), time.perf_counter()
        job.run()
        run_s = time.perf_counter() - start
        cpu_s = _cpu_seconds() - cpu0
    # ru_maxrss is in KiB on Linux; read it before the checks allocate.
    peak_rss_MB = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    result = {
        "setup_s": setup_s,
        "run_s": run_s,
        "cpu_s": cpu_s,
        "peak_rss_MB": peak_rss_MB,
        "rows": job.rows,
        "traced": traced,
    }
    job.check()
    result["host_loop_s"] = _host_loop_seconds()
    result["structure"] = job.structure()
    result["outputs"] = job.outputs()
    if tracer is not None:
        from layers import layer_metrics, leaf_parents, uncovered_seconds

        result["layers"] = layer_metrics(tracer.spans, run_s)
        result["uncovered_s"] = uncovered_seconds(tracer.spans, run_s)
        result["leaf_parents"] = leaf_parents(tracer.spans)
        result["unwrapped"] = tracer.missing
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload")
    parser.add_argument("seed", type=int)
    parser.add_argument("workdir", type=Path)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--scale", type=float, default=1.0)
    args = parser.parse_args(argv)
    try:
        result = run(args.workload, args.seed, args.workdir, args.trace, args.scale)
        result["ok"] = True
        result["machine"] = machine()
    except Exception as exc:  # reported to run.py, which counts the failure
        traceback.print_exc()
        result = {"ok": False, "error": f"{type(exc).__name__}: {exc}"}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
