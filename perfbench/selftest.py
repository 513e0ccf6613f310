"""Self-tests of the benchmark itself. Run from the repository root:

    python3 perfbench/selftest.py

1. The reference check counts an op as failed when one CSV cell is moved
   by 1e-6.
2. In a traced ``graph_level`` op the per-layer self times add up to the
   op's traced wall time, within 3%.
3. Two runs with the same seed make the same argv lists and report the same
   ``cli.bytes_out``.

Exit code 0 when all pass, 1 otherwise.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path.cwd()
sys.path.insert(0, str(ROOT / "src"))

from run import OUT, judge_ops  # noqa: E402

RUN = [sys.executable, str(Path(__file__).resolve().parent / "run.py")]
ARGS = ["--workload", "graph_level", "--seed", "11", "--seconds", "1", "--trace", "1", "--ops", "2"]
RECORD = ROOT / OUT / "graph_level" / "record.json"


def traced_run() -> tuple[dict, dict]:
    proc = subprocess.run(RUN + ARGS, cwd=ROOT, capture_output=True, text=True, timeout=170, check=True)
    return json.loads(proc.stdout.splitlines()[-1]), json.loads(RECORD.read_text())


def perturbed_cell_fails(record: dict) -> bool:
    argv = record["argv"][0]
    csv_path = Path(argv[argv.index("--out") + 1])
    lines = csv_path.read_text().splitlines()
    cells = lines[200].split(",")
    cells[1] = repr(float(cells[1]) + 1e-6)
    lines[200] = ",".join(cells)
    bad_path = csv_path.with_name("perturbed.csv")
    bad_path.write_text("\n".join(lines) + "\n")
    bad_argv = argv[: argv.index("--out") + 1] + [str(bad_path)]
    ok = {"index": 0, "kind": "timed", "argv": argv, "rc": 0, "error": None, "stdout": "", "stderr": ""}
    bad = dict(ok, index=1, argv=bad_argv)
    judge_ops([ok, bad], "graph_level")
    return ok["failure"] is None and bad["failure"] is not None


def main() -> int:
    first, record = traced_run()
    results = []
    op = record["per_op_layers"][0]
    gap = abs(op["trace.self_sum_s"] - op["trace.wall_s"]) / op["trace.wall_s"]
    results.append((f"self_s sums to traced wall (gap {gap:.2%})", first["correct"] and gap < 0.03))
    results.append(("perturbed CSV cell counts as a failed op", perturbed_cell_fails(record)))

    second, record2 = traced_run()
    same_argv = record["argv"] == record2["argv"]
    same_bytes = first["metrics"]["cli.bytes_out"] == second["metrics"]["cli.bytes_out"]
    results.append(("same seed gives same argv lists and cli.bytes_out", same_argv and same_bytes))

    for name, passed in results:
        print(f"[{'ok ' if passed else 'FAIL'}] {name}")
    return 0 if all(passed for _, passed in results) else 1


if __name__ == "__main__":
    sys.exit(main())
