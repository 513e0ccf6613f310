"""Smoke tests: the example scripts run end to end against the package namespace."""

import os
import subprocess
import sys
from pathlib import Path

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


def test_reproduce_figures_runs(tmp_path):
    proc = run_script("reproduce_figures.py", "--which", "fig1-left", "--out", str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "fig1-left_manifest.json").is_file()
