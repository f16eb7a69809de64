#!/usr/bin/env python3
"""hyperproj benchmark: one workload, end-to-end or per-layer metrics.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload desk-sweep --seed 1 --seconds 55 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. With ``--trace 0``
the metrics are the end-to-end ones; with ``--trace 1`` they are the
per-layer ones from a traced run, including its overhead against an
untraced run of the same inputs. The line before it records the
environment. A fuller record, with per-model quality and the trace spans,
is written under ``.perfbench_work/records/``.

The package is imported from ``src/`` of the same checkout and nowhere
else; without it the benchmark exits with code 2 and prints no result.
BLAS is pinned to one thread, and everything runs in this one process.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
BLAS_THREADS = 1
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def _number(value):
    return value if isinstance(value, (int, float)) and math.isfinite(value) else None


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # must precede the first numpy import to take effect
    for var in BLAS_VARS:
        os.environ[var] = str(BLAS_THREADS)
    if not (SRC / "hyperproj" / "__init__.py").is_file():
        print(f"perfbench: no hyperproj package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import hyperproj
    if Path(hyperproj.__file__).resolve().parent.parent != SRC:
        print(f"perfbench: hyperproj imported from {hyperproj.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    import numpy as np

    import pipeline

    workload = pipeline.WORKLOADS.get(args.workload)
    if workload is None:
        print(f"perfbench: unknown workload {args.workload!r} "
              f"(one of {', '.join(pipeline.WORKLOADS)})", file=sys.stderr)
        return 2

    tag = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    work = WORK / f"run-{tag}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        out = pipeline.run(workload, args.seed, args.seconds, bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    env = {
        "workload": workload.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": os.cpu_count(),
        "blas_threads": BLAS_THREADS, "python": platform.python_version(),
        "numpy": np.__version__, "threads_at_end": threading.active_count(),
        "platform": platform.platform(),
    }
    result = out["result"]
    for metric in result["metrics"].values():
        metric["value"] = _number(metric["value"])
    records = WORK / "records"
    records.mkdir(parents=True, exist_ok=True)
    (records / f"{tag}.json").write_text(
        json.dumps({"env": env, "result": result, **out["record"]}),
        encoding="utf-8")
    for problem in out["record"]["problems"]:
        print(f"problem: {problem}")
    print("env " + json.dumps(env, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
