"""Command-line front end.

Subcommands:

* ``graph``    generate a graph, write its edge list, print a summary
* ``distance`` sweep distance quantities over a time grid, emit CSV
* ``figure``   canned multi-curve presets, one CSV per curve plus a manifest
* ``verify``   invariant spot checks and the localized-optimality sweep

Exit codes: 0 success, 1 usage or configuration error, 2 computation error
(disconnected graph, eigensolver failure, memory exhausted, a ``verify``
worker process lost), 3 verification failure. CSV uses a mandatory header
row, 12-significant-digit floats, the literal ``NA`` for undefined values,
and CRLF line endings. A sweep makes one kernel call for
its whole grid, fills one float table (a row per time point) and formats
each row with one ``%`` operation; every CSV is formatted before any file
is written, so a sweep that fails writes nothing.

The parser is built on the first :func:`main` call and reused by every later
call in the process; :func:`main` dispatches to ``cmd_<command>``, looked up
in this module by name at call time.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import distance as dist
from . import walks
from .checks import WorkerLostError, run_checks
from .config import DEFAULT_STEPS, DEFAULT_T_MIN, TimeGrid, default_grid, default_t_max
from .distance import DisconnectedGraphError
from .graph import (
    degree_sequence,
    generate,
    graph_from_spec,
    laplacian,
    read_edge_list,
    to_edge_list,
    write_edge_list,
)
from .spectral import SpectralDecomposition, eigendecompose

__all__ = ["main", "entry", "cmd_graph", "cmd_distance", "cmd_figure", "cmd_verify"]

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_COMPUTE = 2
EXIT_VERIFY = 3

FIGURES = ("fig1-left", "fig1-center", "fig1-right", "fig2", "fig3-left", "fig3-right")

#: every quantity a distance sweep accepts, in canonical column order, as
#: (graph-level column, vector over launch nodes), both read from one kernel
#: record and taken over its last (node) axis, so a grid record gives a value
#: per time; delta has both forms, the graph-level one evaluated at the node
#: realizing D_QC(t) and the node-level one used when --node picks a node.
#: Laws are looked up on dist at call time, so a patched law reaches every column.
_QUANTITIES = {
    "conditional": (None, lambda obs: dist.conditional_vector(obs)),
    "qc": (lambda obs: dist.qc_of(obs)[0], None),
    "average": (lambda obs: dist.conditional_vector(obs).mean(axis=-1), None),
    "coherence": (None, lambda obs: obs.coherence),
    "gfid": (None, lambda obs: obs.gfid),
    "short": (None, lambda obs: dist.short_vector(obs)),
    "long": (None, lambda obs: dist.long_vector(obs)),
    "gamma_s": (lambda obs: dist.gamma_of(obs, "S"), None),
    "gamma_l": (lambda obs: dist.gamma_of(obs, "L"), None),
    "delta": (lambda obs: dist.delta_of(obs), lambda obs: dist.delta_vector(obs)),
}


class _Parser(argparse.ArgumentParser):
    """argparse, but usage problems exit with code 1 instead of 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


#: the % format of a CSV cell holding a finite value and of one holding an undefined
#: (non-finite) value: NA, then %.0s, which consumes the value and prints nothing
_CELL, _NA_CELL = "%.12g", "NA%.0s"


def _fmt(value: float) -> str:
    """CSV cell: 12 significant digits, NA for an undefined (non-finite) value."""
    return (_CELL if np.isfinite(value) else _NA_CELL) % value


def _columns(sd: SpectralDecomposition, outputs, node: int | None):
    """Header names and evaluators for the requested quantities.

    Each evaluator is ``(cols, fn)``: ``fn`` maps the grid's kernel record
    (``node_observables(sd, times)``) to the values of the headers it added,
    one per time for a column (NaN where undefined) or a row of node values
    per time, and ``cols`` is the slice of the table's rows it fills; entry 0
    of a row is ``t``.
    """
    cells = slice(None) if node is None else slice(node, node + 1)
    headers: list[str] = []
    evaluators = []

    for q in outputs:
        if q not in _QUANTITIES:
            raise ValueError(f"unknown quantity {q!r}; choose from {tuple(_QUANTITIES)}")
        if outputs.count(q) > 1:
            raise ValueError(f"quantity {q!r} given more than once")
        column, vector = _QUANTITIES[q]
        first = 1 + len(headers)
        if column is not None and (vector is None or node is None):
            headers.append(q)
            evaluators.append((slice(first, first + 1), column))
        else:
            headers += [f"{q}_{j}" for j in range(sd.n)[cells]]
            fn = lambda obs, vector=vector: vector(obs)[..., cells]
            evaluators.append((slice(first, 1 + len(headers)), fn))
    return headers, evaluators


def _format_csv(sd, outputs, node, times) -> tuple[list[str], str]:
    """The sweep's column headers and its CSV text, header line included.

    One kernel call covers the whole grid. Its values fill one float table,
    ``t`` and then every column, a row per time point, and the whole table is
    one ``%`` format: each line's template has :func:`_fmt`'s cell formats,
    so a row with a non-finite cell prints NA there; nothing is written here.
    """
    headers, evaluators = _columns(sd, outputs, node)
    obs = walks.node_observables(sd, times)
    table = np.empty((times.size, 1 + len(headers)))
    table[:, 0] = times
    for cols, fn in evaluators:
        table[:, cols] = np.reshape(fn(obs), (times.size, -1))
    finite = np.isfinite(table)
    lines = [",".join([_CELL] * table.shape[1]) + "\r\n"] * times.size
    for i in np.flatnonzero(~finite.all(axis=1)):
        lines[i] = ",".join(np.where(finite[i], _CELL, _NA_CELL).tolist()) + "\r\n"
    text = "".join(lines) % tuple(table.ravel().tolist())
    return headers, ",".join(["t"] + headers) + "\r\n" + text


def _write(out: str, text: str) -> None:
    """Write ``text`` to the file ``out``, or to stdout when ``out`` is ``-``."""
    if out == "-":
        sys.stdout.write(text)
    else:
        with open(out, "w", newline="") as fh:
            fh.write(text)


# --- graph ------------------------------------------------------------------


def cmd_graph(args) -> int:
    g = generate(args.kind, args.n, extra=args.extra, seed=args.seed)
    dmax = int(degree_sequence(g).max())
    fiedler = _fmt(eigendecompose(laplacian(g)).fiedler) if g.n >= 2 else "NA"
    summary = f"nodes={g.n} edges={len(g.edges)} max_degree={dmax} fiedler={fiedler}"
    if args.out == "-":
        sys.stdout.write(to_edge_list(g))
        print(summary, file=sys.stderr)
    else:
        out = args.out or _default_edges_name(args)
        write_edge_list(g, out)
        print(summary)
        print(f"wrote {out}")
    return EXIT_OK


def _default_edges_name(args) -> str:
    stem = f"{args.kind}_{args.n}"
    if args.extra is not None:
        stem += f"_{args.extra}_seed{args.seed}"
    return stem + ".edges"


# --- distance ----------------------------------------------------------------


def cmd_distance(args) -> int:
    if args.edges is not None:
        g = read_edge_list(args.edges)
    else:
        g = graph_from_spec(args.graph, seed=args.seed)
    sd = eigendecompose(laplacian(g))
    dist.require_connected(sd)
    if args.node is not None:
        walks.check_node(sd, args.node)
    t_max = args.tmax
    if t_max is None:
        # one node has no fiedler value, so its grid ends at t = 10
        t_max = default_t_max(sd.fiedler) if g.n >= 2 else 10.0
    grid = TimeGrid(args.tmin, t_max, args.steps, "linear" if args.linear else "log")
    outputs = tuple(q.strip() for q in args.quantities.split(",") if q.strip())
    if not outputs:
        raise ValueError("at least one output quantity is required")
    _write(args.out, _format_csv(sd, outputs, args.node, grid.times())[1])
    return EXIT_OK


# --- figure ------------------------------------------------------------------


def _curve(label, kind, n, node, quantities, extra=None, seed=0):
    return {
        "label": label,
        "kind": kind,
        "n": n,
        "extra": extra,
        "node": node,
        "quantities": quantities,
        "graph": generate(kind, n, extra=extra, seed=seed),
    }


def _preset_curves(which: str, seed: int, n_panel: int) -> list[dict]:
    if which == "fig1-left":
        return [_curve(f"complete_{n}", "complete", n, None, ("qc",)) for n in (5, 10, 20)]
    if which in ("fig1-center", "fig1-right"):
        # node 0 is the hub; its dynamics agree across all three graphs
        node, quantities = (0, ("conditional",)) if which == "fig1-center" else (None, ("qc",))
        return [
            _curve(f"{kind}_{n_panel}", kind, n_panel, node, quantities)
            for kind in ("complete", "star", "wheel")
        ]
    if which == "fig2":
        curves = [_curve("ring_11", "ring", 11, 1, ("conditional",))]
        curves += [
            _curve(f"random_11_d{d}", "random_connected", 11, 1, ("conditional",), extra=d, seed=seed)
            for d in (4, 6, 8, 10)
        ]
        return curves
    if which in ("fig3-left", "fig3-right"):
        batch = [(11, d) for d in (4, 6, 8, 10)] + [(5, d) for d in (3, 4)]
        quantities = ("gamma_s", "gamma_l") if which == "fig3-left" else ("delta",)
        return [
            _curve(f"random_{n}_d{d}", "random_connected", n, None, quantities, extra=d, seed=seed)
            for n, d in batch
        ]
    raise ValueError(f"unknown figure preset {which!r}")


def cmd_figure(args) -> int:
    curves = _preset_curves(args.which, args.seed, args.n)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    for c in curves:
        c["sd"] = eigendecompose(laplacian(c["graph"]))
    # one shared grid per preset so curves are directly comparable
    grid = default_grid(min(c["sd"].fiedler for c in curves))
    times = grid.times()

    manifest = {
        "figure": args.which,
        "seed": args.seed,
        "grid": asdict(grid),
        "curves": [],
    }
    # every curve is swept and formatted before any file is written
    tables = [_format_csv(c["sd"], c["quantities"], c["node"], times) for c in curves]
    for c, (headers, text) in zip(curves, tables):
        path = out_dir / f"{args.which}_{c['label']}.csv"
        _write(str(path), text)
        manifest["curves"].append(
            {
                "file": path.name,
                "kind": c["kind"],
                "n": c["n"],
                "extra": c["extra"],
                "node": c["node"],
                "columns": ["t"] + headers,
            }
        )
        print(f"wrote {path}")
    manifest_path = out_dir / f"{args.which}_manifest.json"
    manifest_path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    print(f"wrote {manifest_path}")
    return EXIT_OK


# --- verify ------------------------------------------------------------------


def cmd_verify(args) -> int:
    # run_checks validates --n-max and --samples before any check runs, and runs the
    # invariant checks in this process beside the sweep's forked workers; a refused unit
    # comes back as failed results, any other exception of a unit is raised here
    results, worst = run_checks(n_max=args.n_max, samples=args.samples, seed=args.seed)
    failures = 0
    for r in results:
        tag = "ok " if r.passed else "FAIL"
        print(f"[{tag}] {r.name}: {r.detail}")
        failures += 0 if r.passed else 1
    margin = "NA" if worst is None else f"{worst:.3e}"  # NA when every size was refused
    print(f"worst optimality margin: {margin}")
    if failures:
        print(f"{failures} check(s) failed", file=sys.stderr)
        return EXIT_VERIFY
    print(f"all {len(results)} checks passed")
    return EXIT_OK


# --- wiring ------------------------------------------------------------------


def _seed(text: str) -> int:
    """The ``--seed`` of every subcommand: a nonnegative integer in decimal digits, else a usage error (exit 1)."""
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"must be a nonnegative integer, got {text!r}")
    return int(text)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call; every later call returns the same object."""
    parser = _Parser(prog="qcwalk", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("graph", help="generate a graph and write its edge list")
    p.add_argument("kind", help="complete|ring|path|star|wheel|random_connected")
    p.add_argument("n", type=int, help="number of nodes")
    p.add_argument("extra", type=int, nargs="?", default=None, help="degree target for random_connected")
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--out", default=None, help="edge-list path, or - for stdout")

    p = sub.add_parser("distance", help="sweep distance quantities, emit CSV")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--graph", help="generator spec kind:n[:extra]")
    src.add_argument("--edges", help="edge-list file path")
    p.add_argument("--tmin", type=float, default=DEFAULT_T_MIN, help="first grid time")
    p.add_argument(
        "--tmax", type=float, default=None, help="last grid time (default: 100/fiedler)"
    )
    p.add_argument("--steps", type=int, default=DEFAULT_STEPS, help="number of grid points")
    p.add_argument("--linear", action="store_true", help="linear spacing (default: log)")
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--node", type=int, default=None, help="restrict node-resolved quantities")
    p.add_argument("--out", default="-", help="CSV path, or - for stdout")
    p.add_argument(
        "--quantities",
        default="qc",
        help="comma list from " + ",".join(_QUANTITIES),
    )

    p = sub.add_parser("figure", help="emit the CSVs behind one preset figure")
    p.add_argument("which", choices=FIGURES)
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--n", type=int, default=8, help="panel size for fig1-center/right")
    p.add_argument("--out", default=".", help="output directory")

    p = sub.add_parser("verify", help="run invariant and optimality checks")
    p.add_argument("--n-max", type=int, default=8, help="largest random graph size (<= 10)")
    p.add_argument("--samples", type=int, default=200, help="diagonal states to sample")
    p.add_argument("--seed", type=_seed, default=0)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # looked up at call time, so a replaced cmd_* (patched or traced) is the one that runs
    command = globals()[f"cmd_{args.command}"]
    try:
        return command(args)
    except (DisconnectedGraphError, np.linalg.LinAlgError, MemoryError, WorkerLostError) as exc:
        print(f"qcwalk: computation error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return EXIT_COMPUTE
    except (ValueError, OSError) as exc:
        print(f"qcwalk: error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
