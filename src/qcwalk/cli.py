"""Command-line front end.

Subcommands:

* ``graph``    generate a graph, write its edge list, print a summary
* ``distance`` sweep distance quantities over a time grid, emit CSV
* ``figure``   canned multi-curve presets, one CSV per curve plus a manifest
* ``verify``   invariant spot checks and the localized-optimality sweep

Exit codes: 0 success, 1 usage or configuration error, 2 computation error
(disconnected graph, eigensolver failure), 3 verification failure. CSV uses
a mandatory header row, 12-significant-digit floats, and the literal ``NA``
for undefined values.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from contextlib import nullcontext
from pathlib import Path

import numpy as np

from . import distance as dist
from .checks import run_invariant_checks, run_optimality_checks
from .config import TimeGrid, default_grid
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
from .walks import check_node, node_observables

__all__ = ["main", "entry", "cmd_graph", "cmd_distance", "cmd_figure", "cmd_verify"]

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_COMPUTE = 2
EXIT_VERIFY = 3

FIGURES = ("fig1-left", "fig1-center", "fig1-right", "fig2", "fig3-left", "fig3-right")

#: every quantity a distance sweep accepts, in canonical column order, as
#: (graph-level column, vector over launch nodes), both read from one kernel
#: record; delta has both forms, the graph-level one evaluated at the node
#: realizing D_QC(t) and the node-level one used when --node picks a node.
#: Laws are looked up on dist at call time, so a patched law reaches every column.
_QUANTITIES = {
    "conditional": (None, lambda obs: dist.conditional_vector(obs)),
    "qc": (lambda obs: dist.qc_of(obs)[0], None),
    "average": (lambda obs: np.mean(dist.conditional_vector(obs)), None),
    "coherence": (None, lambda obs: obs.coherence),
    "gfid": (None, lambda obs: obs.gfid),
    "short": (None, lambda obs: dist.short_vector(obs)),
    "long": (None, lambda obs: dist.long_vector(obs)),
    "gamma_s": (lambda obs: dist.gamma_of(obs, "S"), None),
    "gamma_l": (lambda obs: dist.gamma_of(obs, "L"), None),
    "delta": (
        lambda obs: dist.delta_vector(obs)[dist.qc_of(obs)[1]],
        lambda obs: dist.delta_vector(obs),
    ),
}


class _Parser(argparse.ArgumentParser):
    """argparse, but usage problems exit with code 1 instead of 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _fmt(value) -> str:
    """CSV cell: 12 significant digits, NA for undefined."""
    if value is None:
        return "NA"
    value = float(value)
    if not np.isfinite(value):
        return "NA"
    return "%.12g" % value


def _columns(sd: SpectralDecomposition, outputs, node: int | None):
    """Header names and per-time evaluators for the requested quantities.

    Each evaluator maps one kernel record (``node_observables(sd, t)``) to
    the cells of the headers it added, in order.
    """
    nodes = list(range(sd.n)) if node is None else [node]
    headers: list[str] = []
    evaluators = []

    for q in outputs:
        if q not in _QUANTITIES:
            raise ValueError(f"unknown quantity {q!r}; choose from {tuple(_QUANTITIES)}")
        column, vector = _QUANTITIES[q]
        if column is not None and (vector is None or node is None):
            headers.append(q)
            evaluators.append(lambda obs, column=column: [column(obs)])
        else:
            headers += [f"{q}_{j}" for j in nodes]
            evaluators.append(lambda obs, vector=vector: vector(obs)[nodes])
    return headers, evaluators


def _write_csv(out: str, sd, outputs, node, times) -> list[str]:
    """Write the sweep to ``out`` (``-`` is stdout); return the column headers.

    Each row makes one kernel call, and every column reads from that record.
    """
    headers, evaluators = _columns(sd, outputs, node)
    with (nullcontext(sys.stdout) if out == "-" else open(out, "w", newline="")) as fh:
        writer = csv.writer(fh)
        writer.writerow(["t"] + headers)
        for t in times:
            t = float(t)
            obs = node_observables(sd, t)
            writer.writerow([_fmt(t)] + [_fmt(v) for fn in evaluators for v in fn(obs)])
    return headers


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


def _resolve_grid(args, fiedler: float) -> TimeGrid:
    t_max = args.tmax
    if t_max is None:
        t_max = default_grid(fiedler).t_max if fiedler > 0 else 10.0
    spacing = "linear" if args.linear else "log"
    return TimeGrid(t_min=args.tmin, t_max=t_max, steps=args.steps, spacing=spacing)


def cmd_distance(args) -> int:
    if args.edges is not None:
        g = read_edge_list(args.edges)
    else:
        g = graph_from_spec(args.graph, seed=args.seed)
    sd = eigendecompose(laplacian(g))
    dist.require_connected(sd)
    if args.node is not None:
        check_node(sd, args.node)
    grid = _resolve_grid(args, sd.fiedler if g.n >= 2 else 0.0)
    outputs = tuple(q.strip() for q in args.quantities.split(",") if q.strip())
    if not outputs:
        raise ValueError("at least one output quantity is required")
    _write_csv(args.out, sd, outputs, args.node, grid.times())
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
        "grid": {
            "t_min": grid.t_min,
            "t_max": grid.t_max,
            "steps": grid.steps,
            "spacing": grid.spacing,
        },
        "curves": [],
    }
    for c in curves:
        path = out_dir / f"{args.which}_{c['label']}.csv"
        headers = _write_csv(str(path), c["sd"], c["quantities"], c["node"], times)
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
    # the optimality sweep validates --n-max, so it runs first and fails fast
    opt_results, worst = run_optimality_checks(
        n_max=args.n_max, samples=args.samples, seed=args.seed
    )
    results = run_invariant_checks(seed=args.seed) + opt_results
    failures = 0
    for r in results:
        tag = "ok " if r.passed else "FAIL"
        print(f"[{tag}] {r.name}: {r.detail}")
        failures += 0 if r.passed else 1
    print(f"worst optimality margin: {worst:.3e}")
    if failures:
        print(f"{failures} check(s) failed", file=sys.stderr)
        return EXIT_VERIFY
    print(f"all {len(results)} checks passed")
    return EXIT_OK


# --- wiring ------------------------------------------------------------------


def _add_grid_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--tmin", type=float, default=1e-2, help="first grid time")
    p.add_argument(
        "--tmax", type=float, default=None, help="last grid time (default: 100/fiedler)"
    )
    p.add_argument("--steps", type=int, default=400, help="number of grid points")
    spacing = p.add_mutually_exclusive_group()
    spacing.add_argument("--log", action="store_true", help="log spacing (default)")
    spacing.add_argument("--linear", action="store_true", help="linear spacing")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="qcwalk", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("graph", help="generate a graph and write its edge list")
    p.add_argument("kind", help="complete|ring|path|star|wheel|random_connected")
    p.add_argument("n", type=int, help="number of nodes")
    p.add_argument("extra", type=int, nargs="?", default=None, help="degree target for random_connected")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None, help="edge-list path, or - for stdout")
    p.set_defaults(fn=cmd_graph)

    p = sub.add_parser("distance", help="sweep distance quantities, emit CSV")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--graph", help="generator spec kind:n[:extra]")
    src.add_argument("--edges", help="edge-list file path")
    _add_grid_flags(p)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--node", type=int, default=None, help="restrict node-resolved quantities")
    p.add_argument("--out", default="-", help="CSV path, or - for stdout")
    p.add_argument(
        "--quantities",
        default="qc",
        help="comma list from " + ",".join(_QUANTITIES),
    )
    p.set_defaults(fn=cmd_distance)

    p = sub.add_parser("figure", help="emit the CSVs behind one preset figure")
    p.add_argument("which", choices=FIGURES)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--n", type=int, default=8, help="panel size for fig1-center/right")
    p.add_argument("--out", default=".", help="output directory")
    p.set_defaults(fn=cmd_figure)

    p = sub.add_parser("verify", help="run invariant and optimality checks")
    p.add_argument("--n-max", type=int, default=8, help="largest random graph size (<= 10)")
    p.add_argument("--samples", type=int, default=200, help="diagonal states to sample")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (DisconnectedGraphError, np.linalg.LinAlgError) as exc:
        print(f"qcwalk: computation error: {exc}", file=sys.stderr)
        return EXIT_COMPUTE
    except (ValueError, OSError) as exc:
        print(f"qcwalk: error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
