"""Smoke tests: the example scripts and the README quick start run against the package namespace."""

import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

from qcwalk import eigendecompose, generate, laplacian

ROOT = Path(__file__).resolve().parents[1]


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return env


def run_script(name, *args):
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True,
        text=True,
        env=child_env(),
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
    # zero rows is not a grid: refused, not printed as an empty table. Bad input is a usage
    # error: exit 2 and one line naming the fault, no traceback
    for args, fault in (
        (["--points", "0"], "grid needs at least one point"),
        (["--graph", "foo"], "graph spec 'foo' is not kind:n or kind:n:extra"),
        (["--graph", "random_connected:11:6", "--seed", "-1"], "expected non-negative integer"),
    ):
        proc = run_script("asymptote_study.py", *args)
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert proc.stderr.splitlines()[-1] == f"asymptote_study.py: error: {fault}"


def test_readme_quick_start_runs():
    (block,) = re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(), re.S)
    namespace = {}
    exec(block, namespace)
    assert abs(namespace["curve"].max(axis=0)[-1] - (1 - 1 / 11)) <= 1e-12


def test_reproduce_figures_runs(tmp_path):
    proc = run_script("reproduce_figures.py", "--which", "fig1-left", "--out", str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "fig1-left_manifest.json").is_file()


def test_reproduce_figures_in_one_process_matches_one_process_per_preset(tmp_path):
    from qcwalk.cli import FIGURES

    # one process per preset, started together; each builds its own parser
    separate = tmp_path / "separate"
    argv = [sys.executable, "-m", "qcwalk.cli", "figure"]
    procs = [
        subprocess.Popen(argv + [which, "--out", str(separate)], stdout=subprocess.DEVNULL, env=child_env())
        for which in FIGURES
    ]
    # the script runs every preset through one process's cached parser
    together = tmp_path / "together"
    proc = run_script("reproduce_figures.py", "--which", "all", "--out", str(together))
    assert [p.wait(timeout=60) for p in procs] == [0] * len(FIGURES)
    assert proc.returncode == 0, proc.stderr

    names = sorted(p.name for p in separate.iterdir())
    assert len(names) == 32  # 26 curves of the six presets, and six manifests
    assert sorted(p.name for p in together.iterdir()) == names
    for name in names:
        assert (together / name).read_bytes() == (separate / name).read_bytes(), name


COMPARED_ARGVS = [
    "distance --graph ring:5 --steps 5 --quantities qc,average",
    "figure fig1-left --out out",
    "verify --n-max 4 --samples 16",
]


def compare_with_copy(tmp_path, patch=None):
    """compare_outputs.py on COMPARED_ARGVS, against a copy of this tree's src with ``patch`` applied."""
    src = tmp_path / "copy" / "src"
    shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    if patch is not None:
        path, old, new = patch
        text = (src / path).read_text()
        assert old in text
        (src / path).write_text(text.replace(old, new))
    argv = [arg for a in COMPARED_ARGVS for arg in ("--argv", a)]
    return run_script("compare_outputs.py", str(tmp_path / "copy"), *argv)


def test_compare_outputs_reports_a_copy_of_the_tree_identical(tmp_path):
    proc = compare_with_copy(tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [f"{argv}: identical" for argv in COMPARED_ARGVS] + [
        "3 argvs, 0 with a structural difference"
    ]


def test_compare_outputs_reports_changed_cells(tmp_path):
    # the copy plays the parent: cell [1, 1] of each of its tables is 1e-9 larger
    anchor = '    return headers, _format_table(",".join(["t"] + headers), table)'
    proc = compare_with_copy(tmp_path, ("qcwalk/cli.py", anchor, "    table[1, 1] *= 1 + 1e-9\n" + anchor))
    assert proc.returncode == 0, proc.stderr
    changed = r": {} of {} cells changed, largest relative change 1\.00e-09, "
    changed += r"largest change \d+ units of the 12th digit"
    lines = proc.stdout.splitlines()
    assert re.fullmatch(re.escape(COMPARED_ARGVS[0]) + changed.format(1, 15), lines[0]), lines[0]
    # fig1-left writes three curves of 400 rows and two columns
    assert re.fullmatch(re.escape(COMPARED_ARGVS[1]) + changed.format(3, 2400), lines[1]), lines[1]
    assert lines[2:] == [f"{COMPARED_ARGVS[2]}: identical", "3 argvs, 0 with a structural difference"]


def test_a_failing_hypothesis_test_leaves_the_session_running(tmp_path):
    # under the project's warning filters, hypothesis's failure report must not stop pytest
    # with an internal error: the falsifying example is printed and the next test runs
    (tmp_path / "test_probe.py").write_text(
        "from hypothesis import given, strategies as st\n\n\n"
        "@given(st.integers())\ndef test_fails(x):\n    assert x < 5\n\n\n"
        "def test_passes():\n    pass\n"
    )
    argv = [sys.executable, "-m", "pytest", "-c", str(ROOT / "pyproject.toml"), "-p", "no:cacheprovider"]
    proc = subprocess.run(argv + ["-q", "test_probe.py"], cwd=tmp_path, capture_output=True, text=True)
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert "Falsifying example: test_fails(" in proc.stdout
    assert proc.stdout.splitlines()[-1].startswith("1 failed, 1 passed in ")
