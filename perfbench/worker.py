"""Benchmark worker: one fresh process that runs one workload's ops in-process.

Usage: ``python3 perfbench/worker.py SPEC.json`` (run.py writes the spec and
starts this process with ``src`` on ``PYTHONPATH``). The worker times the
``import qcwalk.cli``, runs one untimed warm-up op, then runs timed ops until
the spec's time box or op count is reached, timing the calibration kernel
(``calibration.py``) before each op and after the last. In trace mode each op runs
untraced and then traced with the same argv, so the pair gives the tracing
overhead. The record (ops, timings, versions, ``ru_maxrss``) is written to
the spec's ``record`` path and the spans to its ``spans`` path. The worker
never imports scipy, so ``ru_maxrss`` is the program's own footprint.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import platform
import resource
import sys
import time
import traceback
from pathlib import Path

from workloads import WARMUP_OFFSET, WORKLOADS, op_argv

#: a run makes at least this many timed ops, so that wall_s_tail (p90) has one beyond it
MIN_OPS = 11
MIN_TRACED_OPS = 3
#: caps the untimed reference check (and so the run) once ops get fast
MAX_OPS = 100


def run_op(cli, argv: list[str], output: str) -> dict:
    """One timed ``cli.main(argv)`` call; stdout and stderr are captured."""
    out, err = io.StringIO(), io.StringIO()
    error = None
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(argv)
    except (Exception, SystemExit):
        rc, error = None, traceback.format_exc()
    wall = time.perf_counter() - start
    stdout = out.getvalue()
    if output == "csv":
        path = Path(argv[argv.index("--out") + 1])
        out_bytes = path.stat().st_size if path.is_file() else 0
    else:
        out_bytes = len(stdout.encode())
    return {
        "argv": argv,
        "wall_s": wall,
        "rc": rc,
        "error": error,
        "stdout": stdout,
        "stderr": err.getvalue(),
        "out_bytes": out_bytes,
    }


def environment(blas_thread_vars: tuple[str, ...]) -> dict:
    import numpy as np

    deps = np.show_config(mode="dicts")["Build Dependencies"]
    keep = ("name", "version", "openblas configuration")  # not the build's install paths
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {k: v for k, v in deps.get("blas", {}).items() if k in keep},
        "lapack": {k: v for k, v in deps.get("lapack", {}).items() if k in keep},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "blas_thread_env": {v: os.environ.get(v) for v in blas_thread_vars},
        "machine": platform.machine(),
    }


def main(spec_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text())
    start = time.perf_counter()
    import qcwalk.cli as cli

    import_s = time.perf_counter() - start
    # imported only now: they import numpy, which belongs to the timed import
    from calibration import kernel_seconds
    from run import BLAS_THREAD_VARS, SETUP_CALIBRATION

    kernel_seconds(SETUP_CALIBRATION)  # the first call pays numpy's own warm-up
    import_cal_s = kernel_seconds(SETUP_CALIBRATION)
    src = Path(spec["src"]).resolve()
    if src not in Path(cli.__file__).resolve().parents:
        print(f"worker: qcwalk was imported from {cli.__file__}, not from {src}", file=sys.stderr)
        return 2

    workload, seed, trace = spec["workload"], spec["seed"], spec["trace"]
    output, parts = WORKLOADS[workload].output, WORKLOADS[workload].calibration
    out_dir = Path(spec["out_dir"])
    tracer = None
    if trace:
        from spans import Tracer

        tracer = Tracer()

    def argv_for(op_seed: int, tag: str) -> list[str]:
        return op_argv(workload, op_seed, str(out_dir / f"{tag}.csv"))

    warmup = run_op(cli, argv_for(seed + WARMUP_OFFSET, "warmup"), output)
    warmup.update(index=-1, seed=seed + WARMUP_OFFSET, kind="warmup")
    ops = [warmup]

    deadline = time.perf_counter() + spec["seconds"]

    def keep_going(i: int) -> bool:
        if spec["ops"] is not None:
            return i < spec["ops"]
        min_ops = MIN_TRACED_OPS if trace else MIN_OPS
        return i < MAX_OPS and (i < min_ops or time.perf_counter() < deadline)

    cal_s = []  # calibration kernel time before each timed op, and after the last
    i = 0
    while keep_going(i):
        cal_s.append(kernel_seconds(parts))
        op = run_op(cli, argv_for(seed + i, f"op{i:04d}"), output)
        op.update(index=i, seed=seed + i, kind="timed")
        ops.append(op)
        if tracer is not None:
            with tracer.op(i):
                traced = run_op(cli, argv_for(seed + i, f"op{i:04d}.traced"), output)
            traced.update(index=i, seed=seed + i, kind="traced")
            ops.append(traced)
        i += 1

    cal_s.append(kernel_seconds(parts))
    span_count = tracer.save(spec["spans"]) if tracer is not None else 0
    record = {
        "import_s": import_s,
        "import_cal_s": import_cal_s,
        "cal_s": cal_s,
        "max_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "span_count": span_count,
        "environment": environment(BLAS_THREAD_VARS),
        "ops": ops,
    }
    Path(spec["record"]).write_text(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
