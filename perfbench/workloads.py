"""The benchmark's workloads: which ``qcwalk`` CLI call one op makes.

An op is one ``qcwalk.cli.main(argv)`` call. Op ``i`` of a run with seed
``s`` passes ``--seed s+i``; the untimed warm-up op passes
``--seed s+WARMUP_OFFSET``. Why each workload exists is recorded in
``BENCHMARK.json`` and in ``perfbench/README.md``.
"""

from __future__ import annotations

from typing import NamedTuple

WARMUP_OFFSET = 1_000_000


class Workload(NamedTuple):
    output: str  # "csv" (written with --out) or "stdout"
    argv: list[str]  # without --seed and --out
    calibration: tuple[str, ...]  # calibration kernel parts that resemble its costs


WORKLOADS = {
    # the paper's figure-3 scale: graph-level columns, gamma ratios re-form propagators
    "graph_level": Workload(
        "csv",
        ["distance", "--graph", "random_connected:11:6", "--quantities", "qc,average,gamma_s,gamma_l,delta"],
        ("small", "eigh"),
    ),
    # 300 node-resolved columns x 40 rows at n = 60: BLAS-sized GEMMs and CSV formatting
    "node_resolved": Workload(
        "csv",
        [
            "distance",
            "--graph",
            "random_connected:60:20",
            "--quantities",
            "conditional,coherence,gfid,short,long",
            "--steps",
            "40",
        ],
        ("small", "gemm"),
    ),
    # optimality sweep: DensityMatrix validation, Uhlmann fidelity, many small eigh calls
    "verify": Workload("stdout", ["verify", "--n-max", "10", "--samples", "4000"], ("small", "eigh")),
}


def op_argv(workload: str, op_seed: int, out_path: str) -> list[str]:
    """argv of one op; ``out_path`` is used only by workloads that write a CSV."""
    argv = WORKLOADS[workload].argv + ["--seed", str(op_seed)]
    if WORKLOADS[workload].output == "csv":
        argv += ["--out", out_path]
    return argv


def flags(argv: list[str]) -> dict[str, str]:
    """The ``--flag value`` pairs after the subcommand."""
    return dict(zip(argv[1::2], argv[2::2]))
