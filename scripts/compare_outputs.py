#!/usr/bin/env python3
"""Compare this tree's qcwalk outputs with another tree's, argv by argv.

Each argv runs once in PARENT_TREE and once in this tree, each in a fresh
interpreter with that tree's ``src`` on the path and its own empty working
directory. The default set is the benchmark's ``graph_level`` and
``node_resolved`` argvs at seeds 0, 1, 7 and 1301, the six figure presets
(every CSV and the manifest) with default options, then ``figure fig1-center
--n 5`` and ``figure fig2 --seed 3``, the asymptote diagnostics ``distance
--graph ring:11 --steps 12 --quantities qc,short,long,gamma_s,gamma_l,delta``
and the same on ``random_connected:11:6 --seed 3``, ``distance --graph
random_connected:n:6 --quantities qc,coherence,gfid --steps 200`` at n = 17
and 21 (packed sizes whose grid values the tests pin to one-point values)
and at n = 32 and 33 (the last n of the packed propagator layout and the
first of the full one), ``verify --n-max 10 --samples 4000`` at seeds
0, 1 and 1301, ``verify --n-max 3 --samples 1 --seed 2`` (one sample per time),
``verify --n-max 10 --samples 40000 --seed 5`` (1250 samples per time and size,
many element-budget chunks of samples), and the degenerate-graph argv
``distance --node 1 --quantities
conditional,coherence,gfid,short,long,delta,qc`` on complete:50, complete:200,
ring:64, star:200, wheel:50 and wheel:200. Then the grid's edge cases, each a
``distance`` argv: a linear grid from t = 0 (NA gamma cells), a one-point grid,
one node's default t_max of 10, an explicit ``--tmax`` and a log grid from 0
(refused, exit 1); the request refusals on ring:5, an empty quantity list, a
``--node`` of 5 and an unknown quantity (each exit 1); and ``graph`` writing its
edge list to a file and to stdout.
``--argv`` replaces the set.

For each argv it prints ``identical``; or the number of changed CSV cells,
their largest relative change and their largest change in units of the 12th
significant digit; or the ``verify`` lines that differ. A structural
difference (exit code, stderr, header, row count, file set, manifest, a cell
turning NA, a verdict or the number of ``verify`` lines) is printed as
``STRUCTURAL`` and makes the exit code 1; otherwise it is 0. Stderr holds
the error messages and ``graph``'s summary, so it must match byte for byte.

    python3 scripts/compare_outputs.py ../parent
    python3 scripts/compare_outputs.py ../parent --argv "distance --graph ring:5 --steps 5"
"""

import argparse
import math
import os
import shlex
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

FIGURES = ("fig1-left", "fig1-center", "fig1-right", "fig2", "fig3-left", "fig3-right")
#: the benchmark's graph_level and node_resolved argvs, without their seed
WORKLOADS = (
    "distance --graph random_connected:11:6 --quantities qc,average,gamma_s,gamma_l,delta",
    "distance --graph random_connected:60:20 --quantities conditional,coherence,gfid,short,long --steps 40",
)
#: two packed sizes whose grid values the tests pin to one-point values, then each side of the
#: packed layout's cutoff, n = 32 and 33
LAYOUT_SIZES = tuple(
    f"distance --graph random_connected:{n}:6 --quantities qc,coherence,gfid --steps 200" for n in (17, 21, 32, 33)
)
DEGENERATE = "distance --node 1 --quantities conditional,coherence,gfid,short,long,delta,qc --graph"
#: the grid's edge cases, the request refusals, then graph's two writers: a file and stdout
EDGE_CASES = (
    "distance --graph ring:5 --linear --tmin 0 --tmax 2 --steps 21 --quantities qc,gamma_s,gamma_l,delta",
    "distance --graph ring:5 --tmin 0 --steps 1 --quantities qc,gamma_l",
    "distance --graph complete:1 --steps 3",
    "distance --graph path:11 --tmax 50 --steps 7",
    "distance --graph ring:5 --tmin 0 --steps 3",
    "distance --graph ring:5 --quantities ,,",
    "distance --graph ring:5 --node 5",
    "distance --graph ring:5 --quantities qc,bogus",
    "graph random_connected 11 6 --seed 3",
    "graph ring 5 --out -",
)


def default_argvs() -> list[str]:
    argvs = [f"{argv} --seed {seed}" for argv in WORKLOADS for seed in (0, 1, 7, 1301)]
    argvs += [f"figure {which} --out out" for which in FIGURES]
    argvs += ["figure fig1-center --n 5 --out out", "figure fig2 --seed 3 --out out"]
    diagnostics = "--steps 12 --quantities qc,short,long,gamma_s,gamma_l,delta"
    argvs += [f"distance --graph {g} {diagnostics}" for g in ("ring:11", "random_connected:11:6 --seed 3")]
    argvs += LAYOUT_SIZES
    argvs += [f"verify --n-max 10 --samples 4000 --seed {seed}" for seed in (0, 1, 1301)]
    argvs += ["verify --n-max 3 --samples 1 --seed 2", "verify --n-max 10 --samples 40000 --seed 5"]
    specs = ("complete:50", "complete:200", "ring:64", "star:200", "wheel:50", "wheel:200")
    return argvs + [f"{DEGENERATE} {spec}" for spec in specs] + list(EDGE_CASES)


def run(tree: Path, argv: str) -> dict:
    """Exit code, stdout, stderr and every file an argv writes, run in ``tree`` from an empty directory."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    with tempfile.TemporaryDirectory() as cwd:
        argv = [sys.executable, "-m", "qcwalk.cli", *shlex.split(argv)]
        proc = subprocess.run(argv, cwd=cwd, env=env, capture_output=True)
        paths = sorted(p for p in Path(cwd).rglob("*") if p.is_file())
        files = {str(p.relative_to(cwd)): p.read_bytes().decode() for p in paths}
    out, err = proc.stdout.decode(), proc.stderr.decode()
    return {"code": proc.returncode, "stdout": out, "stderr": err, "files": files}


def compare_csv(old: str, new: str) -> tuple[list[tuple[float, float]], str | None]:
    """(relative change, change in 12th-digit units) of each changed cell, or a structural difference."""
    old_rows, new_rows = old.split("\r\n"), new.split("\r\n")
    if old_rows[0] != new_rows[0]:
        return [], f"header {old_rows[0]!r} became {new_rows[0]!r}"
    if len(old_rows) != len(new_rows):
        return [], f"{len(old_rows) - 2} rows became {len(new_rows) - 2}"
    changes = []
    for i, (a_row, b_row) in enumerate(zip(old_rows[1:], new_rows[1:]), 1):
        for a, b in zip(a_row.split(","), b_row.split(",")):
            if a == b:
                continue
            if "NA" in (a, b):
                return [], f"row {i}: cell {a} became {b}"
            x, y = float(a), float(b)
            scale = max(abs(x), abs(y))
            changes.append((abs(x - y) / scale, abs(x - y) / 10.0 ** (math.floor(math.log10(scale)) - 11)))
    return changes, None


def compare(old: dict, new: dict) -> tuple[str, bool]:
    """One argv's report (a line, or a line and the lines that differ), and whether it is structural."""
    if old["code"] != new["code"]:
        return f"STRUCTURAL: exit code {old['code']} became {new['code']}", True
    if old["stderr"] != new["stderr"]:
        return f"STRUCTURAL: stderr {old['stderr']!r} became {new['stderr']!r}", True
    if list(old["files"]) != list(new["files"]):
        return f"STRUCTURAL: files {list(old['files'])} became {list(new['files'])}", True
    tables = [(name, a, new["files"][name]) for name, a in old["files"].items() if name.endswith(".csv")]
    for name in old["files"]:
        if not name.endswith(".csv") and old["files"][name] != new["files"][name]:
            return f"STRUCTURAL: {name} differs", True
    if old["stdout"].startswith("t,"):  # a distance CSV
        tables.append(("stdout", old["stdout"], new["stdout"]))
    elif old["stdout"] != new["stdout"]:
        return compare_lines(old["stdout"].splitlines(), new["stdout"].splitlines())
    changes = []
    for name, a, b in tables:
        found, fault = compare_csv(a, b)
        if fault:
            return f"STRUCTURAL: {name}: {fault}", True
        changes += found
    if not changes:
        return "identical", False
    cells = sum(row.count(",") + 1 for _, text, _ in tables for row in text.split("\r\n")[1:-1])
    rel, digits = (max(column) for column in zip(*changes))
    return (
        f"{len(changes)} of {cells} cells changed, largest relative change {rel:.2e}, "
        f"largest change {digits:.3g} units of the 12th digit"
    ), False


def compare_lines(old: list[str], new: list[str]) -> tuple[str, bool]:
    """The stdout lines that differ; a changed line count or ``verify`` verdict is structural."""
    if len(old) != len(new):
        return f"STRUCTURAL: {len(old)} lines became {len(new)}", True
    changed = [(a, b) for a, b in zip(old, new) if a != b]
    structural = any(a.split("]")[0] != b.split("]")[0] for a, b in changed)
    head = "STRUCTURAL: a verdict changed" if structural else f"{len(changed)} lines differ"
    return "\n".join([head] + [f"  - {a}\n  + {b}" for a, b in changed]), structural


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, help="the tree to compare with, a checkout holding src/qcwalk")
    parser.add_argument("--argv", action="append", help="a qcwalk argv to compare; replaces the default set")
    args = parser.parse_args()
    if not (args.parent / "src" / "qcwalk").is_dir():
        parser.error(f"{args.parent} holds no src/qcwalk")

    structural = 0
    argvs = args.argv or default_argvs()
    with ThreadPoolExecutor(2) as pool:
        for argv in argvs:
            old, new = pool.map(run, (args.parent.resolve(), ROOT), (argv, argv))
            report, fault = compare(old, new)
            structural += fault
            print(f"{argv}: {report}", flush=True)
    print(f"{len(argvs)} argvs, {structural} with a structural difference")
    return 1 if structural else 0


if __name__ == "__main__":
    sys.exit(main())
