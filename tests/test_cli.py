import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from qcwalk import generate, graph_from_spec, read_edge_list
from qcwalk.cli import main
from qcwalk.config import TimeGrid, default_grid

SRC = Path(__file__).resolve().parents[1] / "src"


def run(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def read_csv(text):
    rows = list(csv.reader(text.splitlines()))
    return rows[0], rows[1:]


# --- config types -----------------------------------------------------------------


def test_time_grid_points():
    lin = TimeGrid(0.0, 2.0, 5, "linear").times()
    assert np.array_equal(lin, [0.0, 0.5, 1.0, 1.5, 2.0])
    log = TimeGrid(1e-2, 10.0, 4, "log").times()
    assert log[0] == pytest.approx(1e-2)
    assert log[-1] == pytest.approx(10.0)
    assert np.all(np.diff(log) > 0)
    assert np.array_equal(TimeGrid(0.0, 1.0, 1, "linear").times(), [0.0])


def test_time_grid_validation():
    with pytest.raises(ValueError):
        TimeGrid(0.0, 1.0, 5, "log")
    with pytest.raises(ValueError):
        TimeGrid(1.0, 0.5, 5, "linear")
    with pytest.raises(ValueError):
        TimeGrid(0.0, 1.0, 0, "linear")
    with pytest.raises(ValueError):
        TimeGrid(-1.0, 1.0, 5, "linear")
    with pytest.raises(ValueError):
        TimeGrid(0.0, 1.0, 5, "cubic")
    with pytest.raises(ValueError):
        TimeGrid(float("nan"), 1.0, 1, "linear")
    with pytest.raises(ValueError):
        TimeGrid(1e-2, float("inf"), 3, "log")


def test_default_grid_spans_relaxation():
    grid = default_grid(0.317492934338)
    assert grid.t_min == 1e-2
    assert grid.t_max == 315.0
    assert grid.steps == 400
    grid = default_grid(5.0)
    assert grid.t_max == 20.0


def test_graph_from_spec_tokens():
    assert graph_from_spec("ring:11").n == 11
    g = graph_from_spec("random_connected:11:6", seed=3)
    assert g == generate("random_connected", 11, extra=6, seed=3)
    for bad in ("ring", "ring:x", "blob:5", "ring:5:2:9"):
        with pytest.raises(ValueError):
            graph_from_spec(bad)


# --- graph subcommand ----------------------------------------------------------------


def test_graph_writes_file_and_summary(tmp_path, capsys):
    out = tmp_path / "k5.edges"
    code, stdout, _ = run(["graph", "complete", "5", "--out", str(out)], capsys)
    assert code == 0
    assert "nodes=5 edges=10 max_degree=4 fiedler=5" in stdout
    g = read_edge_list(out)
    assert g == generate("complete", 5)
    text = out.read_text().splitlines()
    assert text[0] == "5"
    assert len(text) == 11
    # irregular graphs: the summary reports the largest degree, not node 0's or the smallest
    for kind, n, summary in (
        ("path", "4", "nodes=4 edges=3 max_degree=2 "),
        ("wheel", "9", "nodes=9 edges=16 max_degree=8 "),
    ):
        code, stdout, _ = run(["graph", kind, n, "--out", str(tmp_path / f"{kind}.edges")], capsys)
        assert code == 0
        assert summary in stdout


def test_graph_stdout_mode(capsys):
    code, stdout, stderr = run(["graph", "ring", "4", "--out", "-"], capsys)
    assert code == 0
    assert stdout.splitlines()[0] == "4"
    assert "fiedler=2" in stderr


def test_graph_ring11_fiedler_formula(tmp_path, capsys):
    out = tmp_path / "r.edges"
    code, stdout, _ = run(["graph", "ring", "11", "--out", str(out)], capsys)
    assert code == 0
    reported = float(stdout.split("fiedler=")[1].split()[0])
    assert reported == pytest.approx(2 * (1 - np.cos(2 * np.pi / 11)), abs=1e-9)


def test_graph_invalid_params_exit_one(capsys):
    code, _, stderr = run(["graph", "wheel", "3"], capsys)
    assert code == 1
    assert "wheel" in stderr


# --- distance subcommand ----------------------------------------------------------------


def test_distance_zero_grid_row(capsys):
    code, stdout, _ = run(
        ["distance", "--graph", "complete:2", "--tmin", "0", "--steps", "1", "--quantities", "qc"],
        capsys,
    )
    assert code == 0
    header, rows = read_csv(stdout)
    assert header == ["t", "qc"]
    assert rows == [["0", "0"]]


def test_distance_k5_plateau(capsys):
    code, stdout, _ = run(
        ["distance", "--graph", "complete:5", "--tmin", "10", "--steps", "1", "--quantities", "qc"],
        capsys,
    )
    assert code == 0
    _, rows = read_csv(stdout)
    assert float(rows[0][1]) == pytest.approx(0.8, abs=1e-3)


def test_distance_regular_graph_columns_agree(capsys):
    code, stdout, _ = run(
        ["distance", "--graph", "ring:11", "--steps", "40", "--quantities", "qc,average"],
        capsys,
    )
    assert code == 0
    _, rows = read_csv(stdout)
    assert len(rows) == 40
    for row in rows:
        assert abs(float(row[1]) - float(row[2])) <= 1e-12


def test_distance_undefined_ratio_prints_na(capsys):
    code, stdout, _ = run(
        [
            "distance",
            "--graph",
            "complete:3",
            "--tmin",
            "0",
            "--steps",
            "1",
            "--quantities",
            "qc,gamma_s,gamma_l",
        ],
        capsys,
    )
    assert code == 0
    _, rows = read_csv(stdout)
    assert rows == [["0", "0", "NA", "NA"]]


def test_distance_node_restriction_and_expansion(capsys):
    code, stdout, _ = run(
        ["distance", "--graph", "star:5", "--tmin", "0.5", "--steps", "1",
         "--quantities", "conditional", "--node", "2"],
        capsys,
    )
    assert code == 0
    header, rows = read_csv(stdout)
    assert header == ["t", "conditional_2"]

    code, stdout, _ = run(
        ["distance", "--graph", "star:5", "--tmin", "0.5", "--steps", "1", "--quantities", "conditional"],
        capsys,
    )
    header, _ = read_csv(stdout)
    assert header == ["t"] + [f"conditional_{j}" for j in range(5)]

    # delta is graph-level without --node and node-level with it
    for node_flags, want in (([], ["t", "delta", "qc"]), (["--node", "2"], ["t", "delta_2", "qc"])):
        code, stdout, _ = run(
            ["distance", "--graph", "star:5", "--steps", "1", "--quantities", "delta,qc"] + node_flags,
            capsys,
        )
        assert code == 0
        assert read_csv(stdout)[0] == want


def test_distance_csv_to_file_deterministic(tmp_path, capsys):
    args = [
        "distance", "--graph", "random_connected:11:6", "--seed", "7",
        "--steps", "30", "--quantities", "qc,average,gamma_s,gamma_l,delta",
    ]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()
    # RFC-4180 line endings and 12-significant-digit cells
    assert b"\r\n" in a.read_bytes()


def test_distance_linear_grid(capsys):
    code, stdout, _ = run(
        ["distance", "--graph", "complete:3", "--tmin", "0", "--tmax", "1",
         "--steps", "3", "--linear", "--quantities", "qc"],
        capsys,
    )
    assert code == 0
    _, rows = read_csv(stdout)
    assert [r[0] for r in rows] == ["0", "0.5", "1"]


def test_distance_edges_matches_graph_spec(tmp_path, capsys):
    # the edge list `graph` writes drives the same sweep as the generator spec it came from
    edges = tmp_path / "g.edges"
    assert main(["graph", "random_connected", "11", "6", "--seed", "3", "--out", str(edges)]) == 0
    capsys.readouterr()
    flags = ["--steps", "60", "--quantities", "qc,average,gamma_s,gamma_l,delta"]
    code, from_edges, _ = run(["distance", "--edges", str(edges)] + flags, capsys)
    assert code == 0
    code, from_spec, _ = run(
        ["distance", "--graph", "random_connected:11:6", "--seed", "3"] + flags, capsys
    )
    assert code == 0
    assert from_edges == from_spec


def test_distance_error_exit_codes(tmp_path, capsys):
    code, _, stderr = run(["distance", "--graph", "ring:11", "--node", "11"], capsys)
    assert code == 1 and "node" in stderr

    code, _, stderr = run(["distance", "--graph", "ring:11", "--quantities", "bogus"], capsys)
    assert code == 1

    disco = tmp_path / "d.edges"
    disco.write_text("4\n0 1\n2 3\n")
    code, stdout, stderr = run(["distance", "--edges", str(disco)], capsys)
    assert code == 2 and "disconnected" in stderr
    assert stdout == ""  # refused before the CSV header
    out = tmp_path / "curve.csv"
    code, stdout, stderr = run(["distance", "--edges", str(disco), "--out", str(out)], capsys)
    assert code == 2 and "disconnected" in stderr
    assert stdout == "" and not out.exists()

    code, _, stderr = run(["distance", "--edges", str(tmp_path / "missing.edges")], capsys)
    assert code == 1


def test_distance_quantity_list_in_help_and_error(monkeypatch, capsys):
    # wide enough that argparse prints the list on one line
    monkeypatch.setenv("COLUMNS", "200")
    with pytest.raises(SystemExit) as exc:
        main(["distance", "--help"])
    assert exc.value.code == 0
    listed = "comma list from conditional,qc,average,coherence,gfid,short,long,gamma_s,gamma_l,delta\n"
    assert listed in capsys.readouterr().out

    code, stdout, stderr = run(["distance", "--graph", "ring:5", "--quantities", "qc,bogus"], capsys)
    assert code == 1 and stdout == ""
    assert stderr == (
        "qcwalk: error: unknown quantity 'bogus'; choose from ('conditional', 'qc', 'average', "
        "'coherence', 'gfid', 'short', 'long', 'gamma_s', 'gamma_l', 'delta')\n"
    )


@pytest.mark.parametrize(
    "grid_flags", [["--tmin", "nan", "--steps", "1"], ["--tmax", "inf", "--steps", "3"]]
)
def test_distance_non_finite_times_exit_one(grid_flags, tmp_path, capsys):
    out = tmp_path / "curve.csv"
    code, stdout, stderr = run(["distance", "--graph", "ring:5"] + grid_flags, capsys)
    assert code == 1 and "finite" in stderr
    assert stdout == ""
    code, _, _ = run(["distance", "--graph", "ring:5", "--out", str(out)] + grid_flags, capsys)
    assert code == 1
    assert not out.exists()


def test_usage_error_exit_code_is_one():
    with pytest.raises(SystemExit) as exc:
        main(["distance"])  # missing required --graph/--edges
    assert exc.value.code == 1


# --- figure subcommand ----------------------------------------------------------------


def test_fig1_left_files_and_plateaus(tmp_path, capsys):
    code, stdout, _ = run(["figure", "fig1-left", "--out", str(tmp_path)], capsys)
    assert code == 0
    manifest = json.loads((tmp_path / "fig1-left_manifest.json").read_text())
    assert [c["kind"] for c in manifest["curves"]] == ["complete"] * 3
    assert [c["n"] for c in manifest["curves"]] == [5, 10, 20]
    for c, want in zip(manifest["curves"], (0.8, 0.9, 0.95)):
        with open(tmp_path / c["file"]) as fh:
            rows = list(csv.DictReader(fh))
        assert float(rows[-1]["qc"]) == pytest.approx(want, abs=1e-3)


def test_fig1_center_curves_identical(tmp_path, capsys):
    code, _, _ = run(["figure", "fig1-center", "--out", str(tmp_path)], capsys)
    assert code == 0
    curves = []
    for name in ("complete_8", "star_8", "wheel_8"):
        with open(tmp_path / f"fig1-center_{name}.csv") as fh:
            curves.append([float(r["conditional_0"]) for r in csv.DictReader(fh)])
    ref = np.array(curves[0])
    assert np.abs(np.array(curves[1]) - ref).max() <= 1e-9
    assert np.abs(np.array(curves[2]) - ref).max() <= 1e-9


def test_fig2_manifest_names_node_one(tmp_path, capsys):
    code, _, _ = run(["figure", "fig2", "--out", str(tmp_path)], capsys)
    assert code == 0
    manifest = json.loads((tmp_path / "fig2_manifest.json").read_text())
    assert len(manifest["curves"]) == 5
    assert all(c["node"] == 1 for c in manifest["curves"])
    kinds = {c["kind"] for c in manifest["curves"]}
    assert kinds == {"ring", "random_connected"}


def test_fig3_right_delta_limits(tmp_path, capsys):
    code, _, _ = run(["figure", "fig3-right", "--out", str(tmp_path)], capsys)
    assert code == 0
    manifest = json.loads((tmp_path / "fig3-right_manifest.json").read_text())
    for c in manifest["curves"]:
        with open(tmp_path / c["file"]) as fh:
            rows = list(csv.DictReader(fh))
        assert float(rows[-1]["delta"]) == pytest.approx(1 / c["n"], abs=1e-2)


# --- verify subcommand ----------------------------------------------------------------


def test_verify_default_passes(capsys):
    code, stdout, _ = run(["verify", "--samples", "60"], capsys)
    assert code == 0
    assert "checks passed" in stdout
    assert "worst optimality margin" in stdout


def test_verify_refuses_large_n(monkeypatch, capsys):
    code, _, stderr = run(["verify", "--n-max", "12"], capsys)
    assert code == 1
    assert "n_max" in stderr
    # both bounds of 3..10 are refused before any check runs or prints
    monkeypatch.setattr(
        "qcwalk.cli.run_invariant_checks",
        lambda **kwargs: pytest.fail("invariant checks ran before --n-max was validated"),
    )
    for n_max in ("11", "2"):
        code, stdout, stderr = run(["verify", "--n-max", n_max], capsys)
        assert code == 1
        assert "n_max" in stderr
        assert stdout == ""
    # so is a sample count below one
    for samples in ("0", "-5"):
        code, stdout, stderr = run(["verify", "--samples", samples], capsys)
        assert code == 1
        assert "samples" in stderr
        assert stdout == ""


def test_verify_detects_tampered_fidelity(monkeypatch, capsys):
    import dataclasses

    import qcwalk.walks as walks

    true_kernel = walks.node_observables

    def skewed(sd, t):
        obs = true_kernel(sd, t)
        return dataclasses.replace(obs, fidelity=np.minimum(obs.fidelity + 0.05, 1.0))

    monkeypatch.setattr("qcwalk.walks.node_observables", skewed)
    code, stdout, stderr = run(["verify", "--n-max", "4", "--samples", "16"], capsys)
    assert code == 3
    assert "FAIL" in stdout
    assert "[FAIL] localized fidelity matches Uhlmann oracle" in stdout


def test_verify_zero_mode_check_reads_its_own_spectrum(monkeypatch, capsys):
    # eigendecompose would pin this shifted zero mode to 0.0; the check must not trust it
    import types

    import qcwalk.checks as checks

    true_laplacian = checks.laplacian

    def shifted(g):
        lap = true_laplacian(g)
        if g.n != 4:
            return lap
        return types.SimpleNamespace(matrix=lap.matrix + 1e-6 * np.eye(4), n=4)

    monkeypatch.setattr(checks, "laplacian", shifted)
    code, stdout, _ = run(["verify", "--n-max", "3", "--samples", "4"], capsys)
    assert code == 3
    (line,) = [line for line in stdout.splitlines() if "zero mode" in line]
    assert line.startswith("[FAIL] zero mode first, spectrum nonpositive: worst error 1.000e-06")
    assert line.endswith("at path(4)")


# --- cost: one propagator pair per grid point ----------------------------------------


@pytest.mark.parametrize(
    "quantities",
    ["qc,average,gamma_s,gamma_l,delta", "conditional,coherence,gfid,short,long"],
)
def test_distance_forms_one_propagator_pair_per_point(monkeypatch, tmp_path, quantities):
    import qcwalk.spectral as spectral

    counts = {"heat_propagator": 0, "unitary_propagator": 0}
    for name in counts:
        original = getattr(spectral, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)

        # every qcwalk namespace that holds the propagator gets the counter
        for mod in [m for key, m in sys.modules.items() if key.startswith("qcwalk")]:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    monkeypatch.setattr(mod, attr, counted)

    steps = 25
    out = tmp_path / "sweep.csv"
    argv = ["distance", "--graph", "random_connected:11:6", "--steps", str(steps)]
    assert main(argv + ["--quantities", quantities, "--out", str(out)]) == 0
    assert len(out.read_text().splitlines()) == steps + 1
    assert counts == {"heat_propagator": steps, "unitary_propagator": steps}


def test_distance_plateau_at_huge_time(capsys):
    code, stdout, stderr = run(
        ["distance", "--graph", "ring:5", "--tmin", "1e300", "--steps", "1", "--quantities", "qc,average"],
        capsys,
    )
    assert code == 0
    assert stdout.splitlines()[1] == "1e+300,0.8,0.8"
    assert stderr == ""


# --- console entry point ----------------------------------------------------------------


def test_installed_entry_point_runs():
    # the child imports the same source tree as this process, however pytest was started
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "qcwalk.cli", "graph", "complete", "3", "--out", "-"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[0] == "3"
