"""Smoke tests: the example scripts and the README quick start run against the package namespace."""

import os
import re
import subprocess
import sys
from pathlib import Path

from qcwalk import eigendecompose, generate, laplacian

ROOT = Path(__file__).resolve().parents[1]


def run_script(name, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True,
        text=True,
        env=env,
    )


def test_asymptote_study_runs():
    proc = run_script("asymptote_study.py", "--points", "3")
    assert proc.returncode == 0, proc.stderr
    # the seed reaches the generator: seed 3's graph (fiedler 0.6514) is not seed 0's (0.5090)
    fiedler = eigendecompose(laplacian(generate("random_connected", 11, extra=6, seed=3))).fiedler
    proc = run_script(
        "asymptote_study.py", "--points", "3", "--graph", "random_connected:11:6", "--seed", "3"
    )
    assert proc.returncode == 0, proc.stderr
    assert f"fiedler={fiedler:.4f}" in proc.stdout.splitlines()[0]
    # zero rows is not a grid: refused, not printed as an empty table
    assert run_script("asymptote_study.py", "--points", "0").returncode != 0


def test_readme_quick_start_runs():
    (block,) = re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(), re.S)
    namespace = {}
    exec(block, namespace)
    assert abs(namespace["curve"].max(axis=0)[-1] - (1 - 1 / 11)) <= 1e-12


def test_reproduce_figures_runs(tmp_path):
    proc = run_script("reproduce_figures.py", "--which", "fig1-left", "--out", str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "fig1-left_manifest.json").is_file()
