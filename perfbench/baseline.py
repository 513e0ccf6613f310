"""Run every workload over two sets of ten seeds and summarise each metric.

Usage, from the repository root:

    python3 perfbench/baseline.py

Per workload it makes two sets of ten untraced runs (seeds 1-10, then 11-20)
with ``run_seconds`` from BENCHMARK.json, and one traced run with seed 1.
For each end-to-end metric and set it prints the median over runs, the
quartiles (``statistics.quantiles(values, n=4)``) and the spread
(q3 - q1) / median next to the metric's bound, and how far the second set's
median lies from the first's; the same for the ungated ``wall_s_tail``. Every run's result line is kept in
``perfbench/BASELINE.json``.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

from run import OUT, git_commit

ROOT = Path.cwd()
RUN = [sys.executable, str(Path(__file__).resolve().parent / "run.py")]
SETS = (range(1, 11), range(11, 21))
REPORT = ROOT / "perfbench" / "BASELINE.json"


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    argv = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(RUN + argv, cwd=ROOT, capture_output=True, text=True, timeout=180, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def summarise(values: list[float], bound: float | None) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median,
        "bound": bound,
        "values": values,
    }


def worse_by(first: float, second: float, better: str) -> float:
    """How much worse the second median is than the first, as a share of the first."""
    return (second - first) / first if better == "lower" else (first - second) / first


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    report = {"commit": git_commit(ROOT), "run_seconds": seconds, "sets": [list(s) for s in SETS], "workloads": {}}
    for workload in (w["name"] for w in bench["workloads"]):
        sets = []
        for seeds in SETS:
            runs, tails = [], []
            for seed in seeds:
                runs.append(run_once(workload, seed, seconds, 0))
                tails.append(json.loads((ROOT / OUT / workload / "record.json").read_text())["ungated"]["wall_s_tail"])
                print(f"{workload} seed {seed}: {json.dumps(runs[-1]['metrics'])} wall_s_tail {tails[-1]}", flush=True)
            summary = {m["name"]: summarise([r["metrics"][m["name"]]["value"] for r in runs], m["bound"]) for m in bench["end_to_end"]}
            summary["wall_s_tail"] = summarise(tails, None)
            sets.append({"runs": runs, "summary": summary})
        traced = run_once(workload, SETS[0][0], seconds, 1)
        record = json.loads((ROOT / OUT / workload / "record.json").read_text())
        report["workloads"][workload] = {"sets": sets, "traced": traced, "metadata": record["metadata"]}
        runs = [r for s in sets for r in s["runs"]]
        print(f"\n{workload}: {len(runs)} runs, {sum(r['failed'] for r in runs)} failed ops of {sum(r['attempted'] for r in runs)}")
        for m in bench["end_to_end"]:
            first, second = (s["summary"][m["name"]] for s in sets)
            for k, s in enumerate((first, second), 1):
                flag = "ok" if s["spread"] <= s["bound"] / 3 else ("WIDE" if s["spread"] <= s["bound"] else "OVER BOUND")
                print(
                    f"  {m['name']:<12} set {k} median {s['median']:<12.6g} {m['unit']:<4} q1 {s['q1']:<12.6g}"
                    f" q3 {s['q3']:<12.6g} spread {s['spread']:.4f} bound {s['bound']} {flag}"
                )
            worse = worse_by(first["median"], second["median"], m["better"])
            print(f"  {m['name']:<12} set 2 worse than set 1 by {worse:+.4f} ({'ok' if worse <= m['bound'] else 'OVER BOUND'})")
        for k, s in enumerate(sets, 1):
            tail = s["summary"]["wall_s_tail"]
            print(f"  wall_s_tail  set {k} median {tail['median']:<12.6g} s    spread {tail['spread']:.4f} (not gated)")
        for name, metric in traced["metrics"].items():
            print(f"  traced {name:<32} {metric['value']:.6g} {metric['unit']}")
        print(flush=True)
    REPORT.write_text(json.dumps(report, indent=1) + "\n")
    print(f"wrote {REPORT}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
