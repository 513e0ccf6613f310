"""Smoke tests: the README's quick start and command lines run, and compare_outputs.py compares two trees."""

import importlib.util
import os
import re
import shlex
import shutil
import subprocess
import sys
from pathlib import Path

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


def test_readme_quick_start_runs():
    (block,) = re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(), re.S)
    namespace = {}
    exec(block, namespace)
    assert abs(namespace["curve"].max(axis=0)[-1] - (1 - 1 / 11)) <= 1e-12


def test_readme_command_lines_run(monkeypatch, tmp_path):
    # every qcwalk line of the Command line section's sh block, in order, in one directory
    from qcwalk.cli import main

    section = (ROOT / "README.md").read_text().split("\n## Command line\n")[1].split("\n## ")[0]
    block = re.search(r"```sh\n(.*?)```", section, re.S).group(1)
    lines = [shlex.split(line, comments=True) for line in block.splitlines() if line.startswith("qcwalk ")]
    assert len(lines) == 9
    monkeypatch.chdir(tmp_path)
    for argv in lines:
        assert main(argv[1:]) == 0, argv


COMPARED_ARGVS = [
    "distance --graph ring:5 --steps 5 --quantities qc,average",
    "figure fig1-left --out out",
    "verify --n-max 4 --samples 16",
]


def compare_with_copy(tmp_path, patch=None, argvs=COMPARED_ARGVS):
    """compare_outputs.py on ``argvs``, against a copy of this tree's src with ``patch`` applied."""
    src = tmp_path / "copy" / "src"
    shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    if patch is not None:
        path, old, new = patch
        text = (src / path).read_text()
        assert old in text
        (src / path).write_text(text.replace(old, new))
    argv = [arg for a in argvs for arg in ("--argv", a)]
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


def test_compare_outputs_reports_a_changed_error_message(tmp_path):
    # a refused argv writes nothing but its exit code and its message on stderr
    argv = "distance --graph ring:5 --tmin 0 --steps 3"
    message = "log spacing requires t_min > 0"
    proc = compare_with_copy(tmp_path, ("qcwalk/config.py", message, "log spacing needs t_min > 0"), [argv])
    assert proc.returncode == 1, proc.stderr
    assert proc.stdout.splitlines() == [
        f"{argv}: STRUCTURAL: stderr 'qcwalk: error: log spacing needs t_min > 0\\n' became "
        f"'qcwalk: error: {message}\\n'",
        "1 argvs, 1 with a structural difference",
    ]


def load_compare_outputs():
    spec = importlib.util.spec_from_file_location("compare_outputs", ROOT / "scripts" / "compare_outputs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_compare_outputs_default_argvs_parse():
    # an argv both trees refuse with a usage error compares identical, so a typo in the
    # default set would go unseen: every default argv must get past the parser
    from qcwalk.cli import FIGURES, build_parser

    argvs = load_compare_outputs().default_argvs()
    for argv in argvs:
        build_parser().parse_args(shlex.split(argv))
    # and every figure preset's outputs are compared
    assert all(f"figure {name} --out out" in argvs for name in FIGURES)


def test_compare_outputs_reports_a_zero_that_changes_sign():
    # the CLI prints -0.0 as -0 and np.clip keeps it, so a rewrite of the reduction may flip
    # the sign of a zero: a changed cell with no change in value, not a structural difference
    compare_csv = load_compare_outputs().compare_csv
    assert compare_csv("t,x\r\n0,0\r\n", "t,x\r\n0,-0\r\n") == ([(0.0, 0.0)], None)


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
