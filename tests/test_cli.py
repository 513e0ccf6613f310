import argparse
import csv
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import count_eigensolves, propagator_pair
from qcwalk import eigendecompose, generate, graph_from_spec, laplacian, read_edge_list
import qcwalk.cli as cli
from qcwalk.cli import _QUANTITIES, _format_cell, _format_table, main
from qcwalk.config import DEFAULT_T_MIN, default_t_max, time_grid
from qcwalk.distance import delta_of, gamma_of, long_vector, qc_of, short_vector
from qcwalk.spectral import PAIR_PRODUCT_MAX_N
from qcwalk.walks import node_observables, time_blocks

SRC = Path(__file__).resolve().parents[1] / "src"


def run(args, capsys):
    """(exit code, stdout, stderr) of one main call; a usage error or --help exits."""
    try:
        code = main(args)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def read_csv(text):
    rows = list(csv.reader(text.splitlines()))
    return rows[0], rows[1:]


# --- config types -----------------------------------------------------------------


def test_time_grid_points():
    lin = time_grid(0.0, 2.0, 5, "linear")
    assert np.array_equal(lin, [0.0, 0.5, 1.0, 1.5, 2.0])
    log = time_grid(1e-2, 10.0, 4, "log")
    assert log[0] == pytest.approx(1e-2)
    assert log[-1] == pytest.approx(10.0)
    assert np.all(np.diff(log) > 0)
    assert np.array_equal(time_grid(0.0, 1.0, 1, "linear"), [0.0])
    assert np.array_equal(time_grid(1e-2, 200.0, 3), np.geomspace(1e-2, 200.0, 3))  # log by default


def test_time_grid_validation():
    with pytest.raises(ValueError):
        time_grid(0.0, 1.0, 5, "log")
    with pytest.raises(ValueError):
        time_grid(1.0, 0.5, 5, "linear")
    with pytest.raises(ValueError):
        time_grid(0.0, 1.0, 0, "linear")
    with pytest.raises(ValueError):
        time_grid(-1.0, 1.0, 5, "linear")
    with pytest.raises(ValueError):
        time_grid(0.0, 1.0, 5, "cubic")
    with pytest.raises(ValueError):
        time_grid(float("nan"), 1.0, 1, "linear")
    with pytest.raises(ValueError):
        time_grid(1e-2, float("inf"), 3, "log")
    # endpoints one ulp apart: the spaced points repeat, so the grid rule refuses them
    for spacing in ("linear", "log"):
        with pytest.raises(ValueError, match="strictly increasing"):
            time_grid(1.0, 1.0 + 2.2e-16, 3, spacing)


def test_time_grid_forms_its_points_once():
    for points in (time_grid(1e-2, 200.0, 400), time_grid(0.0, 1.0, 1, "linear")):
        with pytest.raises(ValueError):
            points[0] = 0.5  # read-only


def test_default_grid_spans_relaxation():
    assert default_t_max(0.317492934338) == 315.0
    assert default_t_max(5.0) == 20.0
    assert default_t_max(200.0) == 1.0  # at least 1
    for fiedler in (0.0, -1.0):  # a disconnected graph's fiedler value is 0
        with pytest.raises(ValueError, match="^default grid needs a positive fiedler value$"):
            default_t_max(fiedler)


@pytest.mark.parametrize("which", ["fig1-left", "fig3-left"])
def test_figure_manifest_grid_block(which, tmp_path, capsys):
    # the manifest's grid block is the four values the preset's one grid is built from,
    # and every CSV's t column is that grid
    assert main(["figure", which, "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    manifest = json.loads((tmp_path / f"{which}_manifest.json").read_text())
    graphs = [generate(c["kind"], c["n"], extra=c["extra"], seed=manifest["seed"]) for c in manifest["curves"]]
    fiedler = min(eigendecompose(laplacian(g)).fiedler for g in graphs)
    grid = {"t_min": 0.01, "t_max": default_t_max(fiedler), "steps": 400, "spacing": "log"}
    assert manifest["grid"] == grid
    for curve in manifest["curves"]:
        _, rows = read_csv((tmp_path / curve["file"]).read_text())
        assert [row[0] for row in rows] == [_format_cell(t) for t in time_grid(**grid)]


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


def test_graph_default_file_name(monkeypatch, tmp_path, capsys):
    # kind_n.edges, and kind_n_extra_seed<seed>.edges when a degree target is given
    monkeypatch.chdir(tmp_path)
    for argv, name in (
        (["ring", "5"], "ring_5.edges"),
        (["random_connected", "11", "6", "--seed", "3"], "random_connected_11_6_seed3.edges"),
    ):
        code, stdout, stderr = run(["graph", *argv], capsys)
        assert (code, stderr) == (0, "") and stdout.endswith(f"\nwrote {name}\n")
        assert read_edge_list(tmp_path / name) == graph_from_spec(":".join(argv[:3]), seed=3)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["random_connected_11_6_seed3.edges", "ring_5.edges"]


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


def test_distance_op_forms_one_grid(monkeypatch, tmp_path):
    fiedler = eigendecompose(laplacian(graph_from_spec("random_connected:11:6", seed=2))).fiedler
    calls = []
    geomspace = np.geomspace
    monkeypatch.setattr(np, "geomspace", lambda *a, **k: calls.append(a) or geomspace(*a, **k))
    argv = ["distance", "--graph", "random_connected:11:6", "--seed", "2"]
    assert main(argv + ["--quantities", "qc,gamma_s", "--out", str(tmp_path / "c.csv")]) == 0
    assert calls == [(1e-2, default_t_max(fiedler), 400)]


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


@pytest.mark.parametrize("spec, seed", [("ring:11", 0), ("random_connected:11:6", 3)])
def test_distance_prints_the_asymptote_diagnostics(spec, seed, capsys):
    # one call prints D_QC, both laws maximized over nodes (the denominators of the two
    # gamma ratios), gamma_S, gamma_L and delta at the argmax node, on the default grid
    argv = ["distance", "--graph", spec, "--seed", str(seed), "--steps", "12"]
    code, stdout, _ = run(argv + ["--quantities", "qc,short,long,gamma_s,gamma_l,delta"], capsys)
    assert code == 0
    header, rows = read_csv(stdout)
    sd = eigendecompose(laplacian(graph_from_spec(spec, seed=seed)))
    times = time_grid(DEFAULT_T_MIN, default_t_max(sd.fiedler), 12)
    obs = node_observables(sd, times)
    expected = (
        qc_of(obs)[0],
        short_vector(obs).max(axis=-1),
        long_vector(obs, sd.n).max(axis=-1),
        gamma_of(obs, "S", sd.n),
        gamma_of(obs, "L", sd.n),
        delta_of(obs, sd.n),
    )
    expected = [["%.12g" % x if np.isfinite(x) else "NA" for x in column] for column in expected]
    short = [i for i, h in enumerate(header) if h.startswith("short_")]
    long = [i for i, h in enumerate(header) if h.startswith("long_")]
    assert len(rows) == 12 and len(short) == len(long) == 11
    printed = [
        [row[header.index("qc")] for row in rows],
        [max((row[i] for i in short), key=float) for row in rows],
        [max((row[i] for i in long), key=float) for row in rows],
        *([row[header.index(name)] for row in rows] for name in ("gamma_s", "gamma_l", "delta")),
    ]
    assert printed == expected


def test_distance_error_exit_codes(tmp_path, capsys):
    for node in ("11", "-1"):
        code, _, stderr = run(["distance", "--graph", "ring:11", "--node", node], capsys)
        assert (code, stderr) == (1, f"qcwalk: error: node {node} out of range for n=11\n")

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


def refuse_to_build_graph(monkeypatch) -> None:
    """Make the CLI's --graph build fail the test: what it checks must be checked before any work."""
    monkeypatch.setattr(cli, "graph_from_spec", lambda *args, **kwargs: pytest.fail("the graph was built"))


def test_distance_quantity_list_in_help_and_error(monkeypatch, tmp_path, capsys):
    # wide enough that argparse prints the list on one line
    monkeypatch.setenv("COLUMNS", "200")
    with pytest.raises(SystemExit) as exc:
        main(["distance", "--help"])
    assert exc.value.code == 0
    listed = "comma list from conditional,qc,average,coherence,gfid,short,long,gamma_s,gamma_l,delta\n"
    tmax = "last grid time (default: round(100/fiedler), at least 1; 10 for a one-node graph)\n"
    help_text = capsys.readouterr().out
    assert listed in help_text and tmax in help_text

    argv = ["distance", "--graph", "ring:5", "--quantities", "qc,bogus"]
    unknown = (
        "qcwalk: error: unknown quantity 'bogus'; choose from ('conditional', 'qc', 'average', "
        "'coherence', 'gfid', 'short', 'long', 'gamma_s', 'gamma_l', 'delta')\n"
    )
    assert run(argv, capsys) == (1, "", unknown)
    # refused before the graph is built, with or without --node, even one out of range
    refuse_to_build_graph(monkeypatch)
    for node in ([], ["--node", "2"], ["--node", "9"]):
        assert run(argv + node, capsys) == (1, "", unknown)
    # nor is an edge list read, so a disconnected one exits 1, not 2
    disco = tmp_path / "d.edges"
    disco.write_text("4\n0 1\n2 3\n")
    assert run(["distance", "--edges", str(disco), "--quantities", "qc,bogus"], capsys) == (1, "", unknown)


def test_distance_refuses_an_empty_quantity_list(monkeypatch, capsys):
    refuse_to_build_graph(monkeypatch)
    stderr = "qcwalk: error: at least one output quantity is required\n"
    assert run(["distance", "--graph", "ring:5", "--quantities", ",,"], capsys) == (1, "", stderr)


def test_distance_checks_node_before_the_eigendecomposition(monkeypatch, tmp_path, capsys):
    # --node is checked against the graph's node count before the eigendecomposition
    monkeypatch.setattr(cli, "eigendecompose", lambda lap: pytest.fail("the graph was decomposed"))
    for node in ("5", "-1"):
        stderr = f"qcwalk: error: node {node} out of range for n=5\n"
        assert run(["distance", "--graph", "ring:5", "--node", node], capsys) == (1, "", stderr)
    # before connectivity too: a disconnected edge list is refused for its node, exit 1
    disco = tmp_path / "d.edges"
    disco.write_text("4\n0 1\n2 3\n")
    stderr = "qcwalk: error: node 4 out of range for n=4\n"
    assert run(["distance", "--edges", str(disco), "--node", "4"], capsys) == (1, "", stderr)


@pytest.mark.parametrize("quantities", ["qc,qc", "conditional,average,conditional"])
def test_distance_repeated_quantity_exits_one(quantities, monkeypatch, tmp_path, capsys):
    # a repeated column name would make csv.DictReader drop one of the two columns
    argv = ["distance", "--graph", "ring:5", "--quantities", quantities]
    code, stdout, stderr = run(argv, capsys)
    assert code == 1 and stdout == ""
    repeated = quantities.split(",")[0]
    assert stderr == f"qcwalk: error: quantity {repeated!r} given more than once\n"
    out = tmp_path / "curve.csv"
    assert run(argv + ["--out", str(out)], capsys)[0] == 1
    assert not out.exists()
    # refused before the graph is built, with or without --node
    refuse_to_build_graph(monkeypatch)
    for node in ([], ["--node", "2"]):
        assert run(argv + node, capsys) == (1, "", stderr)


@pytest.mark.parametrize("error, exit_code", [(ValueError, 1), (np.linalg.LinAlgError, 2)])
def test_distance_failed_sweep_writes_no_csv(error, exit_code, monkeypatch, tmp_path, capsys):
    import qcwalk.walks as walks

    true_block = walks.form_propagators
    blocks = []

    def fails_on_second_block(sd, t, out=None):
        blocks.append(t)
        if len(blocks) == 2:
            raise error("kernel failed in the second block")
        return true_block(sd, t, out)

    monkeypatch.setattr(walks, "form_propagators", fails_on_second_block)
    # one point more than ring:5's block of BLOCK_ELEMENTS // 15 points (its 15 packed
    # entries per matrix): the sweep fails partway
    steps = str(walks.BLOCK_ELEMENTS // 15 + 1)
    argv = ["distance", "--graph", "ring:5", "--steps", steps, "--quantities", "qc,conditional"]
    out = tmp_path / "f.csv"
    code, stdout, stderr = run(argv + ["--out", str(out)], capsys)
    assert code == exit_code and "second block" in stderr
    assert stdout == "" and not out.exists()
    blocks.clear()
    code, stdout, stderr = run(argv + ["--out", "-"], capsys)
    assert code == exit_code and "second block" in stderr
    assert stdout == ""


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


@pytest.mark.parametrize(
    "grid_flags, first",
    [
        (["--graph", "complete:200", "--steps", "1", "--tmin", "1e306"], "1e+306"),
        (["--graph", "ring:5", "--linear", "--tmin", "0", "--tmax", "1e308", "--steps", "2"], "1e+308"),
    ],
)
def test_distance_phase_overflow_exits_one(grid_flags, first, tmp_path, capsys):
    # t is finite but t * max|lambda| is not: refused with one line, no numpy warning, no NA row
    argv = ["distance", "--quantities", "qc"] + grid_flags
    code, stdout, stderr = run(argv, capsys)
    assert code == 1 and stdout == ""
    assert stderr == f"qcwalk: error: heat propagator needs a finite phase t * max|lambda|, got {first}\n"
    out = tmp_path / "curve.csv"
    assert run(argv + ["--out", str(out)], capsys)[0] == 1
    assert not out.exists()


@pytest.mark.parametrize(
    "error, reported",
    [
        (MemoryError("Unable to allocate 7.28 TiB for an array"), "Unable to allocate 7.28 TiB for an array"),
        (MemoryError(), "out of memory"),
    ],
)
def test_memory_exhaustion_is_a_computation_error(error, reported, monkeypatch, tmp_path, capsys):
    # an edge list naming a million nodes asks laplacian for an n x n dense matrix; the
    # patched laplacian raises as numpy would, without allocating anything
    def out_of_memory(g):
        raise error

    monkeypatch.setattr(cli, "laplacian", out_of_memory)
    edges = tmp_path / "huge.edges"
    edges.write_text("1000000\n0 1\n")
    code, stdout, stderr = run(["distance", "--edges", str(edges)], capsys)
    assert code == 2 and stdout == ""
    assert stderr == f"qcwalk: computation error: {reported}\n"


@pytest.mark.parametrize(
    "text, fault",
    [
        ("3\n0 1\n1 3\n", "edge (1, 3) has an endpoint outside [0, 3)"),
        ("3\n0 1\n2 2\n", "self-loop (2, 2) is not allowed"),
        ("3\n0 1\n1 2\n1 0\n", "duplicate edge (0, 1)"),
    ],
    ids=["out_of_range", "self_loop", "repeated"],
)
def test_distance_bad_edge_list_exits_one(text, fault, tmp_path, capsys):
    edges = tmp_path / "bad.edges"
    edges.write_text(text)
    code, stdout, stderr = run(["distance", "--edges", str(edges)], capsys)
    assert code == 1 and stdout == ""
    assert stderr == f"qcwalk: error: {fault}\n"


@pytest.mark.parametrize("spacing_flags", [[], ["--linear"]])
def test_distance_degenerate_grid_exits_one(spacing_flags, tmp_path, capsys):
    # --tmax is one ulp above --tmin, so the three grid points repeat t = 1
    argv = ["distance", "--graph", "ring:5", "--tmin", "1", "--tmax", "1.0000000000000002"]
    argv += ["--steps", "3"] + spacing_flags
    code, stdout, stderr = run(argv, capsys)
    assert code == 1 and stdout == ""
    assert stderr == "qcwalk: error: time grid must be strictly increasing\n"
    out = tmp_path / "curve.csv"
    assert run(argv + ["--out", str(out)], capsys)[0] == 1
    assert not out.exists()


@pytest.mark.parametrize(
    "flags, fault",
    [
        (["--graph", "foo"], "graph spec 'foo' is not kind:n or kind:n:extra"),
        (["--graph", "ring:5", "--steps", "0"], "grid needs at least one point"),
    ],
    ids=["bad_spec", "zero_steps"],
)
def test_distance_refuses_a_bad_spec_or_an_empty_grid(flags, fault, capsys):
    code, stdout, stderr = run(["distance"] + flags, capsys)
    assert (code, stdout, stderr) == (1, "", f"qcwalk: error: {fault}\n")


def test_usage_error_exit_code_is_one():
    # missing required --graph/--edges; --log is not a flag (log spacing is the default)
    for argv in (["distance"], ["distance", "--graph", "ring:5", "--log"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["graph", "random_connected", "6", "3", "--out", "-"],
        ["distance", "--graph", "ring:5"],
        ["distance", "--graph", "random_connected:6:3"],
        ["figure", "fig2"],
        ["verify", "--n-max", "3", "--samples", "4"],
    ],
    ids=["graph", "distance-ring", "distance-random", "figure", "verify"],
)
@pytest.mark.parametrize("seed", ["-1", "-2", "x"])
def test_seed_must_be_a_nonnegative_integer(argv, seed, monkeypatch, tmp_path, capsys):
    # one rule for every subcommand, whether or not its graph reads the seed
    monkeypatch.chdir(tmp_path)
    code, stdout, stderr = run(argv + ["--seed", seed], capsys)
    assert code == 1 and stdout == ""
    assert stderr.endswith(f": error: argument --seed: must be a nonnegative integer, got {seed!r}\n")
    assert not any(tmp_path.iterdir())


# --- the parser: built once per process, commands looked up by name -------------------


#: one call of every command, a usage error and a help text; paths are relative
_PARSER_CALLS = [
    ["graph", "ring", "5", "--out", "r.edges"],
    ["distance", "--edges", "r.edges", "--steps", "20", "--quantities", "qc,conditional", "--out", "d.csv"],
    ["distance", "--graph", "ring:5", "--steps", "5", "--out", "-"],
    ["figure", "fig1-left", "--out", "figs"],
    ["verify", "--n-max", "3", "--samples", "4"],
    ["distance", "--graph", "ring:5", "--log"],
    ["distance", "--help"],
]


def run_parser_calls(directory, fresh, monkeypatch, capsys):
    """Every call of _PARSER_CALLS in ``directory``; ``fresh`` builds a parser for each call."""
    directory.mkdir()
    monkeypatch.chdir(directory)
    results = []
    for argv in _PARSER_CALLS:
        if fresh:
            cli.build_parser.cache_clear()
        results.append(run(argv, capsys))
    files = sorted(p for p in directory.rglob("*") if p.is_file())
    return results, {str(p.relative_to(directory)): p.read_bytes() for p in files}


def test_parser_is_built_once_and_matches_a_fresh_parser(monkeypatch, tmp_path, capsys):
    init = argparse.ArgumentParser.__init__
    built = []
    monkeypatch.setattr(cli._Parser, "__init__", lambda self, *a, **k: built.append(1) or init(self, *a, **k))
    cli.build_parser.cache_clear()
    cached = run_parser_calls(tmp_path / "cached", False, monkeypatch, capsys)
    assert len(built) == 5  # the root parser and its four subcommands, once
    fresh = run_parser_calls(tmp_path / "fresh", True, monkeypatch, capsys)
    assert len(built) == 5 + 5 * len(_PARSER_CALLS)
    assert [code for code, _, _ in cached[0]] == [0, 0, 0, 0, 0, 1, 0]
    assert len(cached[1]) == 6  # r.edges, d.csv, three figure CSVs and the manifest
    # stdout, stderr, exit codes and files, byte for byte
    assert cached == fresh


def test_import_builds_no_parser():
    code = (
        "import argparse\n"
        "built = []\n"
        "init = argparse.ArgumentParser.__init__\n"
        "argparse.ArgumentParser.__init__ = lambda self, *a, **k: built.append(1) or init(self, *a, **k)\n"
        "import qcwalk.cli\n"
        "print(len(built), qcwalk.cli.build_parser.cache_info().currsize)\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=child_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "0 0\n"


def test_command_patched_after_the_first_call_is_the_one_that_runs(monkeypatch, capsys):
    argv = ["distance", "--graph", "ring:5", "--steps", "2"]
    assert run(argv, capsys)[0] == 0  # the parser exists from here on
    seen = []
    monkeypatch.setattr(cli, "cmd_distance", lambda args: seen.append(args.graph) or 7)
    assert run(argv, capsys) == (7, "", "")
    assert seen == ["ring:5"]


# --- CSV bytes: the table formatter against the per-cell writer it replaced -------------


def reference_cell(value) -> str:
    """The per-cell rule of the replaced writer: 12 significant digits, NA for None or non-finite."""
    if value is None:
        return "NA"
    value = float(value)
    if not np.isfinite(value):
        return "NA"
    return "%.12g" % value


def reference_table(header, table) -> str:
    """``_format_table``'s text built from ``reference_cell``, one cell at a time."""
    lines = [header] + [",".join(reference_cell(v) for v in row) for row in np.atleast_2d(table)]
    return "".join(line + "\r\n" for line in lines)


def neighbours(values):
    """Each value with the floats just below and above it, and their negatives."""
    values = np.array(values, float)
    near = np.concatenate([values, np.nextafter(values, -np.inf), np.nextafter(values, np.inf)])
    return np.concatenate([near, -near])


#: every float64: raw bit patterns, and hypothesis floats (NaN, infinities, subnormals)
any_float = st.one_of(
    st.integers(0, 2**64 - 1).map(lambda bits: float(np.array([bits], np.uint64).view(np.float64)[0])),
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
)
#: positional cells at or near a rounding tie of 12 digits, and near powers of ten
tie_or_decade = st.one_of(
    st.builds(
        lambda m, e, off: (m + 0.5 + off) * 10.0 ** (e - 11),
        st.integers(10**11, 10**12 - 1),
        st.integers(-4, 11),
        st.sampled_from([0.0, 1e-3, -1e-3, 1e-6]),
    ),
    st.builds(
        lambda e, ulps: 10.0**e + ulps * float(np.spacing(10.0**e)), st.integers(-5, 13), st.integers(-3, 3)
    ),
)


@given(st.lists(st.one_of(any_float, tie_or_decade), min_size=1, max_size=24), st.integers(1, 4))
@settings(max_examples=300, deadline=None)
def test_format_table_cells_match_reference_cell(values, cols):
    table = np.array(values + [0.5] * (-len(values) % cols)).reshape(-1, cols)
    assert _format_table("t", table) == reference_table("t", table)


@pytest.mark.parametrize(
    "values",
    [
        # signed zeros, the smallest subnormal, the ends of the positional range, and powers of ten
        neighbours([0.0, 5e-324, 1e-4, 1e12, 1e16] + [10.0**k for k in range(-3, 12)]),
        # a carry to the next power of ten, a tie at 1e12, an exact tie printed half-even,
        # decimal ties whose doubles lie just off the tie, and the lowest positional decade
        neighbours(
            [9.9999999999995, 999999999999.5, 1234567890.125, 1.368761715425, 1024646501.535, 1.2345678e-4]
        ),
    ],
    ids=["edges", "ties"],
)
def test_format_table_edge_cells_match_reference_cell(values):
    assert [_format_cell(v) for v in values] == [reference_cell(v) for v in values]
    assert _format_table("h", values[None, :]) == reference_table("h", values)


@pytest.mark.parametrize("shift", [-1.0, 1.0])
def test_format_table_cells_stay_the_reference_where_log10_is_off_by_one(shift, monkeypatch):
    # a decade too high or too low puts the scaled value outside [1e11, 1e12), so the
    # cell goes to %, whatever the rounding of log10
    log10 = np.log10
    monkeypatch.setattr(np, "log10", lambda x: log10(x) + shift)
    values = np.random.default_rng(5).uniform(-4, 11, 60)
    table = np.reshape(np.sign(values - 3.5) * 10.0**values * 1.2345678901234, (12, 5))
    assert _format_table("t", table) == reference_table("t", table)


def test_format_table_mixes_fast_fallback_and_na_cells():
    # positional cells, exponent-form and zero cells that % prints, NA, in every column
    table = np.array(
        [
            [0.01, 0.5, -3.25, 123456.789, np.nan],
            [1e-5, -0.0, np.inf, 12.5, 9.99999999999951e-5],
            [7.0, 1e13, 0.000123, -np.inf, 0.0],
        ]
    )
    assert _format_table("t,a,b,c,d", table) == reference_table("t,a,b,c,d", table)
    assert _format_table("t", np.empty((0, 1))) == "t\r\n"


def reference_csv(spec, seed, quantities, node=None, tmin=1e-2, steps=400) -> bytes:
    """``distance`` output from csv.writer with ``reference_cell`` on every cell."""
    sd = eigendecompose(laplacian(graph_from_spec(spec, seed=seed)))
    nodes = list(range(sd.n)) if node is None else [node]
    header, cells_of = ["t"], []
    for q in quantities.split(","):
        column, vector = _QUANTITIES[q]
        if column is not None and (vector is None or node is None):
            header.append(q)
            cells_of.append(lambda obs, column=column: [column(obs, sd.n, qc_of(obs))])
        else:
            header += [f"{q}_{j}" for j in nodes]
            cells_of.append(lambda obs, vector=vector: vector(obs, sd.n)[nodes])
    buf = io.StringIO(newline="")
    writer = csv.writer(buf)
    writer.writerow(header)
    for t in time_grid(tmin, default_t_max(sd.fiedler), steps):
        obs = node_observables(sd, float(t))
        writer.writerow([reference_cell(t)] + [reference_cell(v) for cells in cells_of for v in cells(obs)])
    return buf.getvalue().encode()


_NODE_QUANTITIES = "conditional,coherence,gfid,short,long"


@pytest.mark.parametrize(
    "spec, seed, quantities, extra",
    [
        *[("random_connected:60:20", seed, _NODE_QUANTITIES, {"steps": 40}) for seed in range(3)],
        ("random_connected:11:6", 0, "qc,average,gamma_s,gamma_l,delta", {"steps": 60}),
        ("complete:3", 0, "qc,gamma_s,gamma_l", {"tmin": 0.0, "steps": 1}),  # a row of NA cells
        ("star:5", 0, "conditional,delta,qc", {"node": 2}),
        # 263 of its 920 cells print in exponent form, through the % fallback
        ("star:5", 0, "conditional,coherence,short,long,delta,gamma_s", {"tmin": 1e-7, "steps": 40}),
    ],
)
def test_distance_bytes_match_per_cell_writer(spec, seed, quantities, extra, tmp_path):
    argv = ["distance", "--graph", spec, "--seed", str(seed), "--quantities", quantities]
    for key, value in extra.items():
        argv += [f"--{key}", str(value)]
    out = tmp_path / "curve.csv"
    assert main(argv + ["--out", str(out)]) == 0
    assert out.read_bytes() == reference_csv(spec, seed, quantities, **extra)


def test_graph_level_columns_share_one_qc_of(monkeypatch, tmp_path):
    # qc, gamma_s, gamma_l and delta read one qc_of of the record: one pass over 1 - F
    import qcwalk.distance as dist

    true_qc_of, shapes = dist.qc_of, []

    def counted(obs):
        shapes.append(obs.shape)
        return true_qc_of(obs)

    monkeypatch.setattr(dist, "qc_of", counted)
    out = tmp_path / "curve.csv"
    argv = ["distance", "--graph", "random_connected:11:6", "--quantities", "qc,average,gamma_s,gamma_l,delta"]
    assert main(argv + ["--out", str(out)]) == 0
    assert shapes == [(3, 400, 11)]
    # the laws, given that qc_of or not, give the same bits
    sd = eigendecompose(laplacian(generate("random_connected", 11, extra=6, seed=0)))
    obs = node_observables(sd, np.geomspace(1e-2, 1e2, 50))
    qc = true_qc_of(obs)
    for which in ("S", "L"):
        assert np.array_equal(gamma_of(obs, which, sd.n, qc), gamma_of(obs, which, sd.n), equal_nan=True)
    assert np.array_equal(delta_of(obs, sd.n, qc), delta_of(obs, sd.n))


def test_fmt_cells():
    # the cell rule of every CSV, also used for the graph summary's fiedler value
    row = [-0.0, 1e-300, 1e300, float("nan"), float("inf"), -np.inf, np.float64(0.5)]
    assert [_format_cell(value) for value in row] == ["-0", "1e-300", "1e+300", "NA", "NA", "NA", "0.5"]


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


def test_failed_figure_writes_no_csv_and_no_manifest(monkeypatch, tmp_path, capsys):
    import qcwalk.walks as walks

    true_kernel = walks.node_observables
    calls = []

    def fails_on_last_curve(sd, t):
        calls.append(sd.n)
        if sd.n == 20:  # complete_20, the last of fig1-left's three curves
            raise ValueError("kernel failed on the last curve")
        return true_kernel(sd, t)

    monkeypatch.setattr(walks, "node_observables", fails_on_last_curve)
    code, stdout, stderr = run(["figure", "fig1-left", "--out", str(tmp_path)], capsys)
    assert calls == [5, 10, 20]
    assert code == 1 and "last curve" in stderr
    assert stdout == ""
    assert list(tmp_path.iterdir()) == []
    # the rule holds for the whole call: fig2's five curves are formatted, then
    # fig1-left fails on its last, and neither preset writes a file nor makes a directory
    calls.clear()
    out = tmp_path / "two" / "deep"
    code, stdout, stderr = run(["figure", "fig2", "fig1-left", "--out", str(out)], capsys)
    assert calls == [11] * 5 + [5, 10, 20]
    assert code == 1 and "last curve" in stderr
    assert stdout == ""
    assert not out.exists() and not out.parent.exists()


def test_refused_figure_makes_no_directory(tmp_path, capsys):
    # the wheel of fig1-center needs four nodes: refused before the directory is made
    out = tmp_path / "f1"
    code, stdout, stderr = run(["figure", "fig1-center", "--n", "3", "--out", str(out)], capsys)
    assert (code, stdout, stderr) == (1, "", "qcwalk: error: wheel requires n >= 4\n")
    assert not out.exists()
    # fig1-right's star needs two
    code, stdout, stderr = run(["figure", "fig1-right", "--n", "1", "--out", str(out)], capsys)
    assert (code, stdout, stderr) == (1, "", "qcwalk: error: star requires n >= 2\n")
    assert not out.exists()
    # an --out that names a file is still refused when the directory is made
    out.write_text("")
    code, stdout, stderr = run(["figure", "fig1-left", "--out", str(out)], capsys)
    assert (code, stdout, stderr) == (1, "", f"qcwalk: error: [Errno 17] File exists: {str(out)!r}\n")
    assert out.read_text() == ""


def test_figure_with_every_preset_matches_one_process_per_preset(tmp_path, capsys):
    # one process per preset, started together; each builds its own parser
    separate = tmp_path / "separate"
    argv = [sys.executable, "-m", "qcwalk.cli", "figure"]
    procs = [
        subprocess.Popen(argv + [which, "--out", str(separate)], stdout=subprocess.PIPE, text=True, env=child_env())
        for which in cli.FIGURES
    ]
    # one call with all six presets
    together = tmp_path / "together"
    code, stdout, stderr = run(["figure", *cli.FIGURES, "--out", str(together)], capsys)
    outputs = [p.communicate(timeout=60)[0] for p in procs]
    assert [p.returncode for p in procs] == [0] * len(cli.FIGURES)
    assert code == 0 and stderr == ""
    # the same lines, each preset's after the one before it
    assert stdout == "".join(outputs).replace(str(separate), str(together))

    names = sorted(p.name for p in separate.iterdir())
    assert len(names) == 32  # 26 curves of the six presets, and six manifests
    assert sorted(p.name for p in together.iterdir()) == names
    for name in names:
        assert (together / name).read_bytes() == (separate / name).read_bytes(), name


#: every preset's CSV stems, in curve order, at the default --n of 8
PRESET_STEMS = {
    "fig1-left": ["complete_5", "complete_10", "complete_20"],
    "fig1-center": ["complete_8", "star_8", "wheel_8"],
    "fig1-right": ["complete_8", "star_8", "wheel_8"],
    "fig2": ["ring_11", "random_11_d4", "random_11_d6", "random_11_d8", "random_11_d10"],
    "fig3-left": ["random_11_d4", "random_11_d6", "random_11_d8", "random_11_d10", "random_5_d3", "random_5_d4"],
    "fig3-right": ["random_11_d4", "random_11_d6", "random_11_d8", "random_11_d10", "random_5_d3", "random_5_d4"],
}


@pytest.mark.parametrize("which", cli.FIGURES)
def test_figure_preset_writes_its_csv_stems(which, tmp_path, capsys):
    # a stem derived twice within a preset would let one curve overwrite another's file
    assert len(set(PRESET_STEMS[which])) == len(PRESET_STEMS[which])
    code, stdout, stderr = run(["figure", which, "--out", str(tmp_path)], capsys)
    files = [f"{which}_{stem}.csv" for stem in PRESET_STEMS[which]]
    assert (code, stderr) == (0, "")
    assert stdout == "".join(f"wrote {tmp_path / name}\n" for name in files + [f"{which}_manifest.json"])
    manifest = json.loads((tmp_path / f"{which}_manifest.json").read_text())
    assert [curve["file"] for curve in manifest["curves"]] == files


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

#: the invariant checks of verify, in report order
INVARIANT_CHECKS = (
    "laplacian row sums vanish",
    "laplacian trace is -2|edges|",
    "eigendecomposition reconstructs L",
    "eigenvectors orthonormal",
    "zero mode first, spectrum nonpositive",
    "heat propagator doubly stochastic",
    "heat propagator entries in [0, 1]",
    "unitary propagator unitary",
    "heat propagator semigroup",
    "unitary propagator group law",
    "localized fidelity matches Uhlmann oracle",
    "long-time plateau 1 - 1/n",
    "regular graphs are node equivalent",
)


def test_invariant_checks_report_their_names_in_order():
    import qcwalk.checks as checks

    assert tuple(r.name for r in checks.run_invariant_checks(0)) == INVARIANT_CHECKS


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
        "qcwalk.checks.run_invariant_checks",
        lambda *args: pytest.fail("invariant checks ran before --n-max was validated"),
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


@pytest.mark.parametrize("samples", ["100000000000000000000", "1000000000000000000"])
def test_verify_refuses_a_draw_too_large_for_one_array(samples, monkeypatch, capsys):
    # a usage error, exit 1, not numpy's refusal reported as a size's [FAIL] line, exit 3
    monkeypatch.setattr(
        "qcwalk.checks.run_invariant_checks",
        lambda *args: pytest.fail("invariant checks ran before --samples was validated"),
    )
    code, stdout, stderr = run(["verify", "--n-max", "3", "--samples", samples], capsys)
    assert (code, stdout) == (1, "")
    assert stderr == f"qcwalk: error: samples {samples} too large: the draw at n=3 cannot be one array\n"


def test_verify_stdout_independent_of_block_size(monkeypatch, capsys):
    import qcwalk.walks as walks

    outputs = set()
    for block_elements in (1, 8000, 10**6):
        monkeypatch.setattr(walks, "BLOCK_ELEMENTS", block_elements)
        code, stdout, _ = run(["verify", "--samples", "400"], capsys)
        assert code == 0
        outputs.add(stdout)
    assert len(outputs) == 1


@pytest.mark.parametrize("n", [11, 17, 21, PAIR_PRODUCT_MAX_N, PAIR_PRODUCT_MAX_N + 1, 60])
def test_distance_csv_independent_of_block_size(n, monkeypatch, tmp_path, capsys):
    # the two distance workloads' sizes, one n on each side of the route cutoff, and two
    # packed sizes where a GEMM shared by a block's points would round a point with their
    # number; on a linear grid from t = 0, and on a log grid whose small times print the last
    # digits of 1 - F
    import qcwalk.walks as walks

    linear = ["--tmin", "0", "--tmax", "20", "--linear", "--steps", "41"]
    for grid in (linear, ["--tmin", "1e-3", "--tmax", "1e3", "--steps", "200"]):
        argv = ["distance", "--graph", f"random_connected:{n}:{n // 2}", *grid]
        argv += ["--quantities", "qc,average,gamma_s,gamma_l,delta,conditional,gfid"]
        outputs = set()
        for block_elements in (1, 8000, 10**6):
            monkeypatch.setattr(walks, "BLOCK_ELEMENTS", block_elements)
            out = tmp_path / f"{block_elements}.csv"
            code, _, _ = run(argv + ["--out", str(out)], capsys)
            assert code == 0
            outputs.add(out.read_bytes())
        assert len(outputs) == 1, grid


def test_invariant_checks_make_one_propagator_call_per_graph(monkeypatch):
    import qcwalk.checks as checks
    import qcwalk.spectral as spectral
    import qcwalk.walks as walks

    # per graph (one eigendecompose each), the points of each form_propagators call, through
    # any module's reference to it, and the kernel calls
    calls: list[list[int]] = []
    kernel_calls = []
    original = spectral.form_propagators

    def decompose(lap):
        calls.append([])
        return spectral.eigendecompose(lap)

    def counted(sd, t, *out):
        calls[-1].append(np.size(t))
        return original(sd, t, *out)

    monkeypatch.setattr(checks, "eigendecompose", decompose)
    for mod in (spectral, checks, walks):
        monkeypatch.setattr(mod, "form_propagators", counted)
    monkeypatch.setattr(walks, "node_observables", lambda *args: kernel_calls.append(args))
    results = checks.run_invariant_checks(seed=0)
    assert all(r.passed for r in results)
    # one grid per graph: 4 sampled times, the semigroup and group law's t1, t2, t1 + t2
    # (3 rounds), the 2 oracle times, the plateau and 3 times on regular graphs; the kernel's
    # F, C and G are reduced from that stack, so no kernel call forms them again
    labels = [label for label, _ in checks.check_family(0)]
    regular = {"complete(5)": [19], "ring(6)": [19]}
    assert calls == [regular.get(label, [16]) for label in labels]
    assert kernel_calls == []

    # a regular graph is one whose Laplacian diagonal is constant, whatever its label
    family = [("c4", generate("ring", 4)), ("p4", generate("path", 4)), ("k3", generate("complete", 3))]
    monkeypatch.setattr(checks, "check_family", lambda seed: family)
    calls.clear()
    checks.run_invariant_checks(seed=0)
    assert calls == [[19], [16], [19]]


def test_invariant_checks_pass_on_the_full_route(monkeypatch):
    # a cutoff of 0 sends every family graph down the full route: full (n, n) matrices, which
    # full_propagators reads into new arrays, and the reduction's vector-matrix column sums
    import qcwalk.checks as checks
    import qcwalk.spectral as spectral

    monkeypatch.setattr(spectral, "PAIR_PRODUCT_MAX_N", 0)
    results = checks.run_invariant_checks(seed=0)
    assert len(results) == len(INVARIANT_CHECKS)
    assert all(r.passed for r in results), [r for r in results if not r.passed]


def per_group_invariant_checks(seed: int) -> list:
    """run_invariant_checks with each group of times in a grid of its own.

    Three propagator_pair calls per graph (the sampled times; t1, t2 and
    t1 + t2; the oracle times) and three kernel calls (the oracle times,
    the plateau through qc_distance, the regular-graph times).
    """
    import qcwalk.checks as checks
    from qcwalk.distance import qc_distance

    rng = np.random.Generator(np.random.PCG64(int(seed)))
    t_samples = rng.uniform(0.0, 5.0, size=4)
    errs = {name: [] for name in checks._TOLERANCES}

    def add(name, where, err):
        errs[name].append((where, float(err)))

    for label, g in checks.check_family(seed):
        lap = laplacian(g)
        sd = eigendecompose(lap)
        vecs, eye = sd.eigenvectors, np.eye(sd.n)
        add("laplacian row sums vanish", label, np.abs(lap.sum(axis=1)).max())
        add("laplacian trace is -2|edges|", label, abs(float(np.trace(lap)) + 2.0 * len(g.edges)))
        add("eigendecomposition reconstructs L", label, np.abs((vecs * sd.eigenvalues) @ vecs.T - lap).max())
        add("eigenvectors orthonormal", label, np.abs(vecs.T @ vecs - eye).max())
        vals = np.linalg.eigvalsh(lap)
        add("zero mode first, spectrum nonpositive", label, max(np.abs(vals).min(), vals.max()))

        p, u = propagator_pair(sd, t_samples)
        rows, cols = np.abs(p.sum(axis=-1) - 1.0), np.abs(p.sum(axis=-2) - 1.0)
        stoch = np.maximum(cols.max(axis=-1), rows.max(axis=-1))
        bounds = np.maximum(np.maximum(-p.min(axis=(-2, -1)), p.max(axis=(-2, -1)) - 1.0), 0.0)
        unitarity = np.abs(u @ u.conj().swapaxes(-1, -2) - eye).max(axis=(-2, -1))
        for i, t in enumerate(t_samples):
            add("heat propagator doubly stochastic", f"{label} t={t:.3f}", stoch[i])
            add("heat propagator entries in [0, 1]", f"{label} t={t:.3f}", bounds[i])
            add("unitary propagator unitary", f"{label} t={t:.3f}", unitarity[i])

        t1, t2 = rng.uniform(0.0, 5.0, size=(3, 3)).T[:2]
        p, u = propagator_pair(sd, np.stack([t1, t2, t1 + t2]))
        semigroup = np.abs(p[0] @ p[1] - p[2]).max(axis=(-2, -1))
        group = np.abs(u[0] @ u[1] - u[2]).max(axis=(-2, -1))
        for i in range(3):
            add("heat propagator semigroup", f"{label} t1={t1[i]:.3f} t2={t2[i]:.3f}", semigroup[i])
            add("unitary propagator group law", f"{label} t1={t1[i]:.3f} t2={t2[i]:.3f}", group[i])

        oracle_times, nodes = (0.3, 1.7), [0, sd.n - 1]
        p, u = propagator_pair(sd, oracle_times)
        psi = u[..., nodes]
        oracle = (psi.conj() * np.maximum(p[..., nodes], 0.0) * psi).sum(axis=-2).real
        direct = node_observables(sd, oracle_times)[0][..., nodes]
        for i, t in enumerate(oracle_times):
            for k, j in enumerate(nodes):
                err = abs(direct[i, k] - oracle[i, k])
                add("localized fidelity matches Uhlmann oracle", f"{label} j={j} t={t}", err)

        t_inf = 50.0 / sd.fiedler
        value, _ = qc_distance(sd, t_inf)
        add("long-time plateau 1 - 1/n", f"{label} t={t_inf:.1f}", abs(value - (1.0 - 1.0 / sd.n)))

        if label in ("complete(5)", "ring(6)"):
            regular_times = (0.2, 1.0, 4.0)
            fid = node_observables(sd, regular_times)[0]
            for t, err in zip(regular_times, fid.max(axis=-1) - fid.min(axis=-1)):
                add("regular graphs are node equivalent", f"{label} t={t}", err)
    return [checks._result(name, found) for name, found in errs.items()]


@pytest.mark.parametrize("seed", [0, 1, 1301])
def test_invariant_checks_equal_the_per_group_route(seed):
    # one grid per graph gives every check's worst error and its location, as one grid per
    # group of times did
    import qcwalk.checks as checks

    results = checks.run_invariant_checks(seed)
    assert len(results) == len(INVARIANT_CHECKS)
    assert results == per_group_invariant_checks(seed)


def test_invariant_checks_refuse_a_disconnected_graph(monkeypatch):
    # a disconnected family graph has no plateau: refused as qc_distance refuses it, so
    # verify reports the unit as refused instead of dividing by its zero Fiedler value
    import qcwalk.checks as checks
    from qcwalk import graph_from_edges
    from qcwalk.distance import DisconnectedGraphError

    monkeypatch.setattr(checks, "check_family", lambda seed: [("split(4)", graph_from_edges(4, [(0, 1), (2, 3)]))])
    with pytest.raises(DisconnectedGraphError, match="disconnected"):
        checks.run_invariant_checks(seed=0)


def test_invariant_checks_solve_each_family_graph_once(monkeypatch):
    import qcwalk.checks as checks

    counts = count_eigensolves(monkeypatch)
    assert all(r.passed for r in checks.run_invariant_checks(seed=0))
    # per family graph, eigendecompose's eigh and the zero-mode check's own eigvalsh; the
    # oracle is a closed form and takes no eigensolve
    graphs = len(checks.check_family(0))
    assert counts == {"eigh": graphs, "eigvalsh": graphs, "matrices": 2 * graphs}


def alter_the_route(monkeypatch, alter) -> None:
    """Every qcwalk reference to form_propagators calls ``alter(sd, props)`` on the stack it returns.

    The stack is (3, ...) + sd.propagator_shape: the packed pairs j <= k at
    n <= PAIR_PRODUCT_MAX_N. The kernel, the optimality sweep and the
    invariant checks all read what the formation step returns, so the
    alteration reaches every route.
    """
    import qcwalk.spectral as spectral

    original = spectral.form_propagators

    def altered(sd, t, out=None):
        props = original(sd, t, out)
        alter(sd, props)
        return props

    for mod in [m for key, m in sys.modules.items() if key.startswith("qcwalk")]:
        for attr, value in list(vars(mod).items()):
            if value is original:
                monkeypatch.setattr(mod, attr, altered)


def skew_the_route(monkeypatch, renormalise: bool) -> None:
    """Every qcwalk reference to form_propagators gets its Re scaled by 1 + 1e-6.

    With ``renormalise`` the moduli are kept instead and every off-diagonal
    entry of U is turned by the phase 1e-6, so each column keeps its unit
    norm and the oracle's pure states stay states, but U is not unitary.
    A packed stack holds symmetric matrices, whose columns a rescaling of
    each column would make unsymmetric.
    """

    def skew(sd, props):
        _, re, im = props
        if renormalise:
            off = ~np.eye(sd.n, dtype=bool)
            off = off[np.triu_indices(sd.n)] if len(sd.propagator_shape) == 1 else off
            a = (re + 1j * im)[..., off] * np.exp(1e-6j)
            re[..., off], im[..., off] = a.real, a.imag
        else:
            re *= 1 + 1e-6

    alter_the_route(monkeypatch, skew)


def test_verify_checks_the_route_the_cli_runs(monkeypatch, capsys):
    # every caller reads form_propagators, so a skewed exp(i L t) reaches every check
    skew_the_route(monkeypatch, renormalise=True)
    argv = ["verify", "--n-max", "4", "--samples", "16"]
    # the optimality sweep refuses the drifting unitary at every size: a failed check, not a
    # usage error
    code, stdout, stderr = run(argv, capsys)
    assert code == 3 and stderr == "4 check(s) failed\n"
    failed = [line for line in stdout.splitlines() if line.startswith("[FAIL]")]
    assert [line.split(":")[0] for line in failed] == [
        "[FAIL] unitary propagator unitary",
        "[FAIL] unitary propagator group law",
        "[FAIL] localized optimality on random_connected(3)",
        "[FAIL] localized optimality on random_connected(4)",
    ]
    for n, line in zip((3, 4), failed[2:]):
        prefix = f"[FAIL] localized optimality on random_connected({n}): refused: u[0] drifts from unitarity by "
        assert line.startswith(prefix)
    # with the sweep out of the way (every size passes with margin 0), the invariant checks
    # fail the unitary lines, and only those
    import qcwalk.checks as checks

    monkeypatch.setattr(checks, "verify_localized_optimality", lambda sd, samples, t, seed: 0.0)
    code, stdout, _ = run(argv, capsys)
    assert code == 3
    failed = [line.split(":")[0] for line in stdout.splitlines() if line.startswith("[FAIL]")]
    assert failed == ["[FAIL] unitary propagator unitary", "[FAIL] unitary propagator group law"]


def test_verify_reports_an_unnormalised_route_as_failed_checks(monkeypatch, capsys):
    # not renormalised, each column of U has norm 1 + 4e-7: the unitary lines fail and the
    # sweep refuses every size, so no size gives a margin. The oracle reads the same skewed
    # columns as the kernel, so it agrees with it and passes.
    skew_the_route(monkeypatch, renormalise=False)
    code, stdout, stderr = run(["verify", "--n-max", "4", "--samples", "16"], capsys)
    assert code == 3 and stderr == "4 check(s) failed\n"
    lines = stdout.splitlines()
    # every check still reports its line
    assert len(lines) == len(INVARIANT_CHECKS) + 2 + 1
    failed = [line.split(":")[0] for line in lines if line.startswith("[FAIL]")]
    assert failed == [
        "[FAIL] unitary propagator unitary",
        "[FAIL] unitary propagator group law",
        "[FAIL] localized optimality on random_connected(3)",
        "[FAIL] localized optimality on random_connected(4)",
    ]
    assert lines[-1] == "worst optimality margin: NA"


def test_verify_detects_tampered_fidelity(monkeypatch, capsys):
    # the reduction is the step the CLI's kernel and verify's checks both read F from
    import qcwalk.checks as checks

    true_reduction = checks.reduce_propagators

    def skewed(sd, props, out=None):
        obs = true_reduction(sd, props, out)
        np.minimum(obs[0] + 0.05, 1.0, out=obs[0])
        return obs

    monkeypatch.setattr(checks, "reduce_propagators", skewed)
    code, stdout, stderr = run(["verify", "--n-max", "4", "--samples", "16"], capsys)
    assert code == 3
    assert "FAIL" in stdout
    assert "[FAIL] localized fidelity matches Uhlmann oracle" in stdout


def test_verify_zero_mode_check_reads_its_own_spectrum(monkeypatch, capsys):
    # eigendecompose would pin this shifted zero mode to 0.0; the check must not trust it
    import qcwalk.checks as checks

    true_laplacian, true_decompose = checks.laplacian, checks.eigendecompose

    def shifted(g):
        lap = true_laplacian(g)
        return lap + 1e-6 * np.eye(4) if g.n == 4 else lap

    monkeypatch.setattr(checks, "laplacian", shifted)
    # eigendecompose refuses the shifted rows, so it is given the unshifted matrix (a
    # Laplacian's entries are integers) and only the check's own eigvalsh sees the shift
    monkeypatch.setattr(checks, "eigendecompose", lambda lap: true_decompose(np.round(lap)))
    code, stdout, _ = run(["verify", "--n-max", "3", "--samples", "4"], capsys)
    assert code == 3
    (line,) = [line for line in stdout.splitlines() if "zero mode" in line]
    assert line.startswith("[FAIL] zero mode first, spectrum nonpositive: worst error 1.000e-06")
    assert line.endswith("at path(4)")


# --- verify: every unit in this process, in report order ---------------------------------


def test_verify_forks_nothing_on_one_cpu_or_without_affinity(monkeypatch, capsys):
    # every unit runs in this process, whatever CPUs the platform reports
    monkeypatch.setattr(os, "fork", lambda: pytest.fail("verify forked"))
    assert run(["verify", "--n-max", "5", "--samples", "24"], capsys)[0] == 0
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    assert run(["verify", "--n-max", "5", "--samples", "24"], capsys)[0] == 0


def test_check_result_is_an_immutable_record_that_pickles():
    # a record of plain values: it pickles and compares field by field
    import pickle

    from qcwalk.checks import CheckResult

    result = CheckResult(name="unitary propagator unitary", passed=False, detail="worst error 1e-3")
    assert CheckResult._fields == ("name", "passed", "detail")
    assert pickle.loads(pickle.dumps(result)) == result
    assert result != CheckResult(name=result.name, passed=True, detail=result.detail)
    with pytest.raises(AttributeError):
        result.passed = True


@pytest.mark.parametrize(
    "failures, code, stderr",
    [
        # 3 is refused, so it fails its check and the run goes on; 4 raises and ends the run
        # before 7 would
        ({3: ValueError, 4: OSError, 7: np.linalg.LinAlgError}, 1, "qcwalk: error: size 4 failed"),
        ({5: np.linalg.LinAlgError, 8: OSError}, 2, "qcwalk: computation error: size 5 failed"),
    ],
    ids=["child-smallest", "parent-smallest"],
)
def test_verify_reraises_the_smallest_failing_size(failures, code, stderr, monkeypatch, capsys):
    import qcwalk.checks as checks

    true_sweep = checks.verify_localized_optimality

    def failing(sd, *args, **kwargs):
        if sd.n in failures:
            raise failures[sd.n](f"size {sd.n} failed")
        return true_sweep(sd, *args, **kwargs)

    monkeypatch.setattr(checks, "verify_localized_optimality", failing)
    assert run(["verify", "--n-max", "8", "--samples", "48"], capsys) == (code, "", stderr + "\n")


@pytest.mark.parametrize(
    "failures, code, stderr",
    [
        ({}, 2, "qcwalk: computation error: complete(5) failed"),
        # the invariant checks come first in report order, so their exception ends the run
        # before any size raises
        ({4: OSError}, 2, "qcwalk: computation error: complete(5) failed"),
        ({3: OSError}, 2, "qcwalk: computation error: complete(5) failed"),
    ],
    ids=["invariants-alone", "child-size", "parent-size"],
)
def test_verify_reraises_the_first_exception_in_report_order(failures, code, stderr, monkeypatch, capsys):
    import qcwalk.checks as checks

    true_decompose, true_sweep = checks.eigendecompose, checks.verify_localized_optimality

    def failing_decompose(lap):
        # n = 5 is a family graph (complete(5), the first), never a size of --n-max 4
        if len(lap) == 5:
            raise np.linalg.LinAlgError("complete(5) failed")
        return true_decompose(lap)

    def failing_sweep(sd, *args, **kwargs):
        if sd.n in failures:
            raise failures[sd.n](f"size {sd.n} failed")
        return true_sweep(sd, *args, **kwargs)

    monkeypatch.setattr(checks, "eigendecompose", failing_decompose)
    monkeypatch.setattr(checks, "verify_localized_optimality", failing_sweep)
    assert run(["verify", "--n-max", "4", "--samples", "16"], capsys) == (code, "", stderr + "\n")


def test_verify_reports_a_refused_unit_as_failed_checks(monkeypatch, capsys):
    # exp(L t) shifted by -0.01 and clipped at -1e-9: the kernel refuses the negative entries
    # inside the invariant checks, and the sweep refuses each size, so every check of every
    # unit fails on its own line
    import qcwalk.checks as checks

    def negative(sd, props):
        np.maximum(props[0] - 0.01, -1e-9, out=props[0])

    alter_the_route(monkeypatch, negative)
    code, stdout, stderr = run(["verify", "--n-max", "4", "--samples", "16"], capsys)
    assert (code, stderr) == (3, f"{len(INVARIANT_CHECKS) + 2} check(s) failed\n")
    refusal = "refused: classical distribution has negative entry -1.000e-09"
    assert stdout.splitlines() == [f"[FAIL] {name}: {refusal}" for name in checks._TOLERANCES] + [
        "[FAIL] localized optimality on random_connected(3): refused: density matrix trace must be 1, got 0.97",
        f"[FAIL] localized optimality on random_connected(4): {refusal}",
        "worst optimality margin: NA",
    ]


def nan_on(n: int, stack: slice):
    """For alter_the_route: NaN in ``stack`` of the formed stack, on n-node graphs only."""

    def alter(sd, props):
        if sd.n == n:
            props[stack] = np.nan

    return alter


def test_verify_fails_a_nan_unitary(monkeypatch, capsys):
    # NaN in exp(i L t) on the family's six-node graphs, ring(6) and wheel(6): the kernel refuses
    # the non-finite column sums it leaves, so every check of the invariant unit fails
    import qcwalk.checks as checks

    alter_the_route(monkeypatch, nan_on(6, slice(1, 3)))
    code, stdout, stderr = run(["verify", "--n-max", "4", "--samples", "16"], capsys)
    assert (code, stderr) == (3, f"{len(INVARIANT_CHECKS)} check(s) failed\n")
    refusal = "refused: unitary exp(i L t) has a non-finite entry: the decomposition is corrupt"
    assert [line for line in stdout.splitlines() if line.startswith("[FAIL]")] == [
        f"[FAIL] {name}: {refusal}" for name in checks._TOLERANCES
    ]


def test_verify_refuses_a_nan_heat_kernel(monkeypatch, capsys):
    # NaN in exp(L t) on the six-node graphs: the kernel refuses it, so the invariant unit fails
    import qcwalk.checks as checks

    alter_the_route(monkeypatch, nan_on(6, slice(0, 1)))
    code, stdout, stderr = run(["verify", "--n-max", "4", "--samples", "16"], capsys)
    assert (code, stderr) == (3, f"{len(INVARIANT_CHECKS)} check(s) failed\n")
    refusal = "refused: heat kernel exp(L t) has a NaN entry: the decomposition is corrupt"
    assert [line for line in stdout.splitlines() if line.startswith("[FAIL]")] == [
        f"[FAIL] {name}: {refusal}" for name in checks._TOLERANCES
    ]


def test_distance_refuses_a_nan_heat_kernel(monkeypatch, tmp_path, capsys):
    # a NaN heat kernel reaching F, C and G would print NA cells with exit 0
    alter_the_route(monkeypatch, nan_on(5, slice(0, 1)))
    out = tmp_path / "curve.csv"
    code, stdout, stderr = run(["distance", "--graph", "ring:5", "--out", str(out)], capsys)
    assert (code, stdout) == (1, "")
    assert stderr == "qcwalk: error: heat kernel exp(L t) has a NaN entry: the decomposition is corrupt\n"
    assert not out.exists()


def test_distance_refuses_a_nan_unitary(monkeypatch, tmp_path, capsys):
    # a NaN unitary reaching F, C and G would print NA cells with exit 0
    alter_the_route(monkeypatch, nan_on(5, slice(1, 3)))
    out = tmp_path / "curve.csv"
    argv = ["distance", "--graph", "ring:5", "--steps", "3", "--quantities", "qc,conditional", "--out", str(out)]
    code, stdout, stderr = run(argv, capsys)
    assert (code, stdout) == (1, "")
    assert stderr == "qcwalk: error: unitary exp(i L t) has a non-finite entry: the decomposition is corrupt\n"
    assert not out.exists()


def test_verify_reports_a_nan_margin_as_the_worst(monkeypatch, capsys):
    # the largest size's margin is NaN: it fails its check and is the worst margin, though it
    # comes after a finite one
    import qcwalk.checks as checks

    true_sweep = checks.verify_localized_optimality

    def nan_at_four(sd, *args, **kwargs):
        worst = true_sweep(sd, *args, **kwargs)
        return float("nan") if sd.n == 4 else worst

    monkeypatch.setattr(checks, "verify_localized_optimality", nan_at_four)
    code, stdout, stderr = run(["verify", "--n-max", "4", "--samples", "16"], capsys)
    assert (code, stderr) == (3, "1 check(s) failed\n")
    lines = stdout.splitlines()
    assert lines[-2].startswith("[FAIL] localized optimality on random_connected(4): worst margin nan ")
    assert lines[-1] == "worst optimality margin: nan"


# --- cost: one propagator pair per grid point ----------------------------------------


#: figure preset -> number of curves, each on the preset's 400-point default grid
_PRESET_CURVES = {"fig1-left": 3, "fig3-left": 6}


def count_propagators(monkeypatch) -> dict[str, list[int]]:
    """Wrap form_propagators; per matrix kind, the number each call forms (its block length)."""
    import qcwalk.spectral as spectral

    blocks = {"heat": [], "unitary": []}
    original = spectral.form_propagators

    def counted(sd, t, *out):
        # one heat and one unitary matrix per point
        for sizes in blocks.values():
            sizes.append(np.size(t))
        return original(sd, t, *out)

    # every qcwalk namespace that holds the propagator gets the counter
    for mod in [m for key, m in sys.modules.items() if key.startswith("qcwalk")]:
        for attr, value in list(vars(mod).items()):
            if value is original:
                monkeypatch.setattr(mod, attr, counted)
    return blocks


@pytest.mark.parametrize(
    "case",
    [
        "qc,average,gamma_s,gamma_l,delta",
        "conditional,coherence,gfid,short,long",
        *_PRESET_CURVES,
        "distance_curve",
        "verify_localized_optimality",
        "ring:128",
    ],
)
def test_distance_forms_one_propagator_pair_per_point(monkeypatch, tmp_path, case):
    from qcwalk.checks import verify_localized_optimality
    from qcwalk.distance import distance_curve

    sd = eigendecompose(laplacian(generate("random_connected", 11, extra=6, seed=0)))
    blocks = count_propagators(monkeypatch)
    if case == "distance_curve":
        points = 25
        assert distance_curve(sd, np.geomspace(1e-2, 1e2, points)).shape == (11, points)
    elif case == "verify_localized_optimality":
        # the optimality floor is the reduction of the sweep's own pair: one pair per point
        points = 4
        assert isinstance(verify_localized_optimality(sd, 10, [0.1, 0.5, 1.0, 3.0]), float)
    else:
        if case in _PRESET_CURVES:
            argv, points = ["figure", case], 400 * _PRESET_CURVES[case]
        elif case == "ring:128":
            argv = ["distance", "--graph", case, "--steps", "5", "--quantities", "qc,conditional"]
            points = 5
        else:
            argv = ["distance", "--graph", "random_connected:11:6", "--steps", "25", "--quantities", case]
            points = 25
        out = tmp_path / "out"
        assert main(argv + ["--out", str(out)]) == 0
        csvs = sorted(out.glob("*.csv")) if out.is_dir() else [out]
        assert sum(len(p.read_text().splitlines()) - 1 for p in csvs) == points
    matrices = {name: sum(sizes) for name, sizes in blocks.items()}
    assert matrices == {"heat": points, "unitary": points}
    if case == "ring:128":
        # every call forms one block of the budget's split, a point or a few at n = 128
        sizes = [len(range(points)[b]) for b in time_blocks(128 * 128, points)]
        assert blocks == {"heat": sizes, "unitary": sizes}


def test_distance_plateau_at_huge_time(capsys):
    code, stdout, stderr = run(
        ["distance", "--graph", "ring:5", "--tmin", "1e300", "--steps", "1", "--quantities", "qc,average"],
        capsys,
    )
    assert code == 0
    assert stdout.splitlines()[1] == "1e+300,0.8,0.8"
    assert stderr == ""


# --- console entry point ----------------------------------------------------------------


def child_env() -> dict:
    """A child process imports the same source tree as this one, however pytest was started."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def test_installed_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "qcwalk.cli", "graph", "complete", "3", "--out", "-"],
        capture_output=True,
        text=True,
        env=child_env(),
    )
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[0] == "3"


def test_importing_the_cli_loads_no_module_beyond_its_dependencies():
    # the benchmark's setup_s times this import: a worker pool module (multiprocessing,
    # concurrent.futures) or any other new import would add to it
    code = (
        "import sys; import numpy, argparse, json, dataclasses, pathlib, functools, itertools; "
        "before = set(sys.modules); import qcwalk.cli; "
        "print(*sorted(set(sys.modules) - before)); "
        "print('multiprocessing' in sys.modules, 'concurrent.futures' in sys.modules)"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=child_env())
    assert proc.returncode == 0, proc.stderr
    added, pools = proc.stdout.splitlines()
    assert "qcwalk.cli" in added.split()
    assert [m for m in added.split() if m not in ("__future__", "qcwalk") and not m.startswith("qcwalk.")] == []
    assert pools == "False False"


def test_stdout_csv_bytes_match_file_in_child_process(tmp_path):
    # --out - goes through the child's text-mode sys.stdout; CRLF must survive it
    env = child_env()
    argv = [sys.executable, "-m", "qcwalk.cli", "distance", "--graph", "ring:5", "--steps", "5"]
    argv += ["--quantities", "qc,average"]
    out = tmp_path / "curve.csv"
    to_file = subprocess.run(argv + ["--out", str(out)], capture_output=True, env=env)
    to_stdout = subprocess.run(argv + ["--out", "-"], capture_output=True, env=env)
    assert to_file.returncode == 0 and to_stdout.returncode == 0
    assert to_stdout.stdout == out.read_bytes()
    assert to_stdout.stdout.count(b"\r\n") == 6
