"""qcwalk benchmark: run one workload for one time box and print its metrics.

Usage, from the repository root:

    python3 perfbench/run.py --workload graph_level --seed 1 --seconds 25 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run; the metric names and units are those listed in
``BENCHMARK.json``. Human-readable lines come first and the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``. ``--ops N`` runs exactly N timed ops instead of
filling the time box (used by ``selftest.py``).

The program is imported from ``./src``. Set-up time is measured in fresh
processes, the ops run in one worker process (``worker.py``), and every
output is then checked, untimed, against ``reference.py``. Times are scaled
to a reference machine speed with ``calibration.py``. Files go to
``.perfbench_out/<workload>/``, which each run empties first.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from datetime import datetime, timezone
from pathlib import Path

from calibration import reference_seconds
from spans import LAYERS, op_layer_stats
from workloads import WORKLOADS, flags

HERE = Path(__file__).resolve().parent
OUT = ".perfbench_out"

#: fresh-process imports of qcwalk.cli per run, besides the worker's own
SETUP_PROBES = 10
#: wall_s_tail is this percentile of the op times, whatever the op count. It is
#: printed and recorded but is not in BENCHMARK.json: on a shared machine a
#: p90 of 15-30 ops spreads between runs by about the largest allowed bound.
TAIL_PERCENTILE = 90
#: the worker must finish within this many seconds of the run's start
WORKER_DEADLINE_S = 140

#: calibration parts for import times, which are interpreter-bound
SETUP_CALIBRATION = ("small",)
PROBE = (
    "import time; s = time.perf_counter(); import qcwalk.cli; d = time.perf_counter() - s; "
    f"from calibration import kernel_seconds; kernel_seconds({SETUP_CALIBRATION}); "
    f"print(d, kernel_seconds({SETUP_CALIBRATION}))"
)
#: BLAS runs on one thread. On a shared 2-core machine a second BLAS thread
#: contends with the neighbours, and at n = 60 it is slower than one thread.
BLAS_THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--ops", type=int, default=None, help="run exactly this many timed ops")
    return p.parse_args(argv)


def git_commit(root: Path) -> str | None:
    """HEAD commit of the clone at ``root`` (None outside a clone or without git)."""
    try:
        proc = subprocess.run(
            ["git", "--git-dir", str(root / ".git"), "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30
        )
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def measure_setup(env: dict) -> list[tuple[float, float]]:
    """(import time, calibration kernel time) from fresh processes."""
    out = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, "-c", PROBE], env=env, capture_output=True, text=True, timeout=60, check=True
        )
        import_s, cal_s = proc.stdout.split()
        out.append((float(import_s), float(cal_s)))
    return out


def judge_ops(ops: list[dict], workload: str) -> "Checker":
    """Set ``failure`` (None or a reason) and ``work`` on every op."""
    from reference import CheckFailed, Checker  # imports scipy, after the worker has ended

    checker = Checker()
    output = WORKLOADS[workload].output
    untraced = {op["index"]: op for op in ops if op["kind"] != "traced"}

    def text_of(op):
        return Path(flags(op["argv"])["--out"]).read_text() if output == "csv" else op["stdout"]

    for op in ops:
        op["work"] = 0
        op["failure"] = None
        if op["error"] is not None or op["rc"] != 0:
            reason = (op["error"] or op["stderr"] or "").strip().splitlines()
            op["failure"] = f"exit {op['rc']}: {reason[-1] if reason else ''}"
            continue
        try:
            if op["kind"] == "traced":
                # tracing must not change the output: compare bytes with the untraced twin
                if text_of(op) != text_of(untraced[op["index"]]):
                    raise CheckFailed("traced output differs from untraced output")
                op["work"] = untraced[op["index"]]["work"]
            elif output == "csv":
                op["work"] = checker.check_csv(op["argv"], text_of(op))
            else:
                op["work"] = checker.check_verify(op["argv"], op["stdout"])
        except CheckFailed as exc:
            op["failure"] = str(exc)
    return checker


def end_to_end(timed: list[dict], cal_s: list[float], setup: list[tuple], record: dict, workload: str):
    """End-to-end values at reference machine speed, a note per metric, and the unscaled values.

    Op i ran between calibrations cal_s[i] and cal_s[i + 1]; its wall time is
    scaled by the kernel's reference time over their mean. Import times are
    scaled by the calibration taken in the same process right after the import.
    """
    ref, setup_ref = reference_seconds(WORKLOADS[workload].calibration), reference_seconds(SETUP_CALIBRATION)
    raw = [op["wall_s"] for op in timed]
    walls = sorted(w * 2 * ref / (cal_s[i] + cal_s[i + 1]) for i, w in enumerate(raw))
    setup_scaled = [imp * setup_ref / cal for imp, cal in setup]
    work = sum(op["work"] for op in timed)
    alias = "cells_per_s: CSV data cells" if WORKLOADS[workload].output == "csv" else "samples_per_s: optimality samples"
    n = len(walls)
    tail = statistics.quantiles(walls, n=100, method="inclusive")[TAIL_PERCENTILE - 1]
    values = {
        "wall_s": statistics.median(walls),
        "wall_s_tail": tail,
        "work_per_s": work / sum(walls),
        "setup_s": statistics.median(setup_scaled),
        "peak_rss_mb": record["max_rss_kb"] / 1024.0,
    }
    unscaled = {
        "wall_s": statistics.median(raw),
        "wall_s_tail": statistics.quantiles(raw, n=100, method="inclusive")[TAIL_PERCENTILE - 1],
        "work_per_s": work / sum(raw),
        "setup_s": statistics.median(imp for imp, _ in setup),
        "machine_speed": ref / statistics.median(cal_s),
    }
    notes = {
        "wall_s": f"median of {n} ops; unscaled {unscaled['wall_s']:.4g} s, machine speed {unscaled['machine_speed']:.3f}",
        "wall_s_tail": f"p{TAIL_PERCENTILE} of {n} ops, {sum(w > tail for w in walls)} beyond",
        "work_per_s": f"{alias}, {work} over {sum(walls):.3f} scaled s of {n} ops",
        "setup_s": f"median of {len(setup)} fresh imports of qcwalk.cli; unscaled {unscaled['setup_s']:.4g} s",
        "peak_rss_mb": "worker ru_maxrss",
    }
    return values, notes, unscaled


def per_layer(ops: list[dict], spans_path: Path, checker, workload: str) -> tuple[dict, dict, list]:
    stats = op_layer_stats(spans_path)
    untraced = {op["index"]: op for op in ops if op["kind"] == "timed"}
    traced = [op for op in ops if op["kind"] == "traced"]
    points = int(flags(traced[0]["argv"]).get("--steps", 400)) if WORKLOADS[workload].output == "csv" else 0
    per_op = []
    for op in traced:
        st, wall = stats[op["index"]], op["wall_s"]
        names = st["name_calls"]
        v = {}
        for layer in LAYERS:
            v["linalg.eigh_calls" if layer == "linalg" else f"{layer}.calls"] = st["calls"][layer]
            v[f"{layer}.self_s"] = st["self_s"][layer]
            v[f"{layer}.share"] = st["self_s"][layer] / wall
        props = names.get("spectral.heat_propagator", 0) + names.get("spectral.unitary_propagator", 0)
        v["spectral.eigendecompose_calls"] = names.get("spectral.eigendecompose", 0)
        v["spectral.propagator_calls"] = props
        v["spectral.propagators_per_point"] = props / points if points else 0.0
        v["spectral.uhlmann_calls"] = names.get("spectral.uhlmann_fidelity", 0)
        v["spectral.density_matrix_builds"] = names.get("spectral.DensityMatrix.__post_init__", 0)
        v["walks.calls_per_cell"] = st["calls"]["walks"] / op["work"] if op["work"] and points else 0.0
        v["cli.bytes_out"] = op["out_bytes"]
        v["trace.overhead_s"] = wall - untraced[op["index"]]["wall_s"]
        v["trace.self_sum_s"] = sum(st["self_s"].values())
        v["trace.wall_s"] = wall
        per_op.append(v)
    values = {key: statistics.median(v[key] for v in per_op) for key in per_op[0]}
    values["check.max_abs_err"] = checker.max_abs_err
    notes = {key: f"median of {len(per_op)} traced ops" for key in values}
    notes["check.max_abs_err"] = "worst deviation from the expm reference, all checked ops"
    return values, notes, per_op


def main(argv=None) -> int:
    args = parse_args(argv)
    started = time.monotonic()
    root = Path.cwd()
    src = root / "src"
    if not (src / "qcwalk" / "__init__.py").is_file():
        print("perfbench: src/qcwalk not found; run from the repository root", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    bench = json.loads((root / "BENCHMARK.json").read_text())
    listed = bench["per_layer"] if args.trace else bench["end_to_end"]

    out_dir = root / OUT / args.workload
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    pythonpath = [str(src), str(HERE), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, pythonpath)))
    env.update({v: "1" for v in BLAS_THREAD_VARS})

    setup = measure_setup(env)
    spec = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": bool(args.trace),
        "ops": args.ops,
        "src": str(src),
        "out_dir": str(Path(OUT) / args.workload),
        "record": str(out_dir / "worker.json"),
        "spans": str(out_dir / "spans.npz"),
    }
    spec_path = out_dir / "spec.json"
    spec_path.write_text(json.dumps(spec))
    subprocess.run(
        [sys.executable, str(HERE / "worker.py"), str(spec_path)],
        env=env,
        cwd=root,
        timeout=WORKER_DEADLINE_S - (time.monotonic() - started),
        check=True,
    )
    record = json.loads(Path(spec["record"]).read_text())
    setup.append((record["import_s"], record["import_cal_s"]))
    ops = record["ops"]
    checker = judge_ops(ops, args.workload)

    per_op, unscaled = [], None
    if args.trace:
        values, notes, per_op = per_layer(ops, Path(spec["spans"]), checker, args.workload)
    else:
        values, notes, unscaled = end_to_end([op for op in ops if op["kind"] == "timed"], record["cal_s"], setup, record, args.workload)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed}

    failed = [op for op in ops if op["failure"]]
    import scipy

    env_info = record["environment"]
    metadata = {
        **env_info,
        "scipy": scipy.__version__,
        "commit": git_commit(root),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "started_utc": datetime.now(timezone.utc).isoformat(timespec="seconds"),
    }
    run_record = {
        "metadata": metadata,
        "argv": [op["argv"] for op in ops if op["kind"] == "timed"],
        "setup_samples_s": setup,
        "calibration_s": record["cal_s"],
        "ops": [{k: op[k] for k in ("index", "seed", "kind", "wall_s", "rc", "out_bytes", "work", "failure")} for op in ops],
        "span_count": record["span_count"],
        "per_op_layers": per_op,
        "metrics": metrics,
        "unscaled": unscaled,
        "ungated": None if args.trace else {"wall_s_tail": values["wall_s_tail"]},
    }
    (out_dir / "record.json").write_text(json.dumps(run_record, indent=1) + "\n")

    blas = env_info["blas"] or {}
    print(
        f"perfbench {args.workload} seed={args.seed} trace={args.trace}: "
        f"commit {metadata['commit'] or 'unknown'}, nproc {env_info['nproc']}, python {env_info['python']}, "
        f"numpy {env_info['numpy']}, scipy {metadata['scipy']}, blas {blas.get('name')} {blas.get('version')}, "
        f"blas threads env {json.dumps({k: v for k, v in env_info['blas_thread_env'].items() if v})}"
    )
    for m in listed:
        print(f"  {m['name']:<34} {values[m['name']]:<14.6g} {m['unit']:<8} {notes.get(m['name'], '')}")
    if not args.trace:
        print(f"  {'wall_s_tail':<34} {values['wall_s_tail']:<14.6g} {'s':<8} {notes['wall_s_tail']} (not gated)")
    print(f"  {'error_rate':<34} {len(failed) / len(ops):<14.6g} {'1':<8} {len(failed)} of {len(ops)} ops failed")
    for op in failed[:5]:
        print(f"perfbench: op {op['index']} ({op['kind']}) failed: {op['failure']}", file=sys.stderr)
    print(f"  run took {time.monotonic() - started:.1f} s; record in {out_dir / 'record.json'}")
    print(json.dumps({"correct": not failed, "attempted": len(ops), "failed": len(failed), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
