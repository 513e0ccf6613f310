"""Command-line front end.

Subcommands:

* ``graph``    generate a graph, write its edge list, print a summary
* ``distance`` sweep distance quantities over a time grid, emit CSV
* ``figure``   canned multi-curve presets, one CSV per curve plus a manifest
* ``verify``   invariant spot checks and the localized-optimality sweep

Exit codes: 0 success, 1 usage or configuration error, 2 computation error
(disconnected graph, eigensolver failure, memory exhausted, a ``verify``
worker process lost), 3 verification failure. CSV uses a mandatory header
row, 12-significant-digit floats (``%.12g``), the literal ``NA`` for undefined
values, and CRLF line endings. A sweep refuses an unknown or repeated
quantity, then makes one kernel call for its whole grid, stacks each
quantity's column or node block into one float table (a row per time point)
and formats the whole table in numpy: a cell in positional form is built from
its exact 12-digit mantissa, and every other cell (exponent form, 0, NA, a near
rounding tie) is formatted by ``%`` itself, so the bytes are ``%``'s. A figure
preset is a list of curve specs, each giving one graph, one sweep and one
manifest entry. Every CSV is formatted before any file is written, so a sweep
that fails writes nothing.

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
from .spectral import eigendecompose

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


#: the % format of a CSV cell holding a finite value; an undefined (non-finite) one is NA
_CELL = "%.12g"

# A cell is built from 4-byte words, looked up as uint32; NUL bytes stand for nothing,
# and one bytes.translate deletes them. For each 4-digit group g = 0000-9999,
# _DIGIT_WORDS holds g in full, without its leading zeros, without its trailing zeros,
# and without its leading zeros but a lone 0 kept; then, for g = 000-999, "." and the
# 3 digits in full, and without trailing zeros (without the "." as well for 000).
_FULL, _NO_LEAD, _NO_TRAIL, _NO_LEAD_BUT_0 = 0, 10_000, 20_000, 30_000
_POINT_FULL, _POINT_NO_TRAIL = 40_000, 41_000


def _digit_words() -> np.ndarray:
    # per_digit[kind, p, d] is what digit d at place p (0: thousands) gives a word, and a
    # word ORs what its four digits give. Kind 0 is the digit's character, in byte p.
    # Kinds 1 and 2 are masks: a nonzero digit keeps byte p and the bytes after it (1: no
    # leading zeros) or before it (2: no trailing zeros). A mask ANDed with kind 0 strips.
    per_digit = b"".join(
        [bytes(p) + bytes([c]) + bytes(3 - p) for p in range(4) for c in b"0123456789"]
        + [bytes(4) + (bytes(p) + b"\xff" * (4 - p)) * 9 for p in range(4)]
        + [bytes(4) + (b"\xff" * (p + 1) + bytes(3 - p)) * 9 for p in range(4)]
    )
    a, b, c, d = np.frombuffer(per_digit, np.uint32).reshape(3, 4, 10).transpose(1, 0, 2)
    words = np.empty(42_000, np.uint32)
    abc = (a[:, :, None] | b[:, None, :])[..., None] | c[:, None, None, :]
    np.bitwise_or(abc[..., None], d[:, None, None, None, :], out=words[:30_000].reshape(3, 10, 10, 10, 10))
    full, lead_mask, trail_mask, lead_but_0_mask = words[:40_000].reshape(4, 10_000)
    np.bitwise_or(lead_mask, np.frombuffer(b"\0\0\0\xff", np.uint32), out=lead_but_0_mask)
    point, point_no_trail = words[40_000:].reshape(2, 1000)
    np.bitwise_and(full[:1000], np.frombuffer(b"\0\xff\xff\xff", np.uint32), out=point)
    point |= np.frombuffer(b".\0\0\0", np.uint32)
    np.bitwise_and(point, trail_mask[:1000], out=point_no_trail)
    masks = words[10_000:40_000].reshape(3, 10_000)
    masks &= full
    return words


_DIGIT_WORDS = _digit_words()
#: the word a cell starts with: its separator (CRLF before a row's first cell, else a
#: comma) and [1] a minus sign
_SEPARATOR_WORDS = np.frombuffer(b",\0\0\0,-\0\0\r\n\0\0\r\n-\0", np.uint32).reshape(2, 2)
_POW10 = np.array([float(10**k) for k in range(17)])


def _format_table(header: str, table: np.ndarray) -> str:
    """CSV text: the ``header`` line, then a line per row of the 2-d float ``table``,
    each cell ``_CELL % value`` or NA where the value is not finite, comma separated,
    every line ended by CRLF.

    A cell with 1e-4 <= |v| < 1e12 - 0.5 prints in positional form, from its 12-digit
    mantissa m = rint(y), y = |v| 10^k, k = 11 - floor(log10 |v|). 10^k is exact, so
    y is within half an ulp (6.2e-5) of the exact product; where y lies in [1e11,
    1e12) and 0.001 or more from a rounding tie, m is the correctly rounded mantissa
    that ``%`` prints. Every other cell is formatted by ``%`` itself: exponent form,
    0, NA, a near tie, and a cell whose y or m falls outside [1e11, 1e12) because
    log10 rounds across a power of ten or the rounding carries. So the text is
    ``%``'s, byte for byte. m's digits are split exactly in float64 (they stay below
    2^53): the integer part in as many 4-digit words as the largest one needs, then
    "." and 15 fraction digits in four words. A cell is its separator word and these,
    written after the header into one buffer whose NUL bytes one
    ``bytearray.translate`` deletes.
    """
    rows, cols = table.shape
    v = table.ravel()
    y = np.abs(v)
    with np.errstate(invalid="ignore"):  # NaN in the comparisons
        fast = (y >= 1e-4) & (y < 1e12 - 0.5)  # so floor(log10(y)) is in [-5, 11]
    y[~fast] = 1.0
    scale = _POW10[11 - np.floor(np.log10(y)).astype(np.intp)]
    y *= scale
    m = np.rint(y)
    fast &= (y >= 1e11) & (m < 1e12)
    y -= m
    fast &= np.abs(y, out=y) < 0.499
    m[~fast] = 0  # no digits where % prints the cell

    # m / 10^k = whole + fraction / 1e15, split exactly, in the buffers y and m
    whole = np.floor(np.divide(m, scale, out=y), out=y)
    fraction = np.subtract(m, whole * scale, out=m)
    fraction *= np.divide(1e15, scale, out=scale)  # inexact (1e-1) only where m is 0
    top = whole.max(initial=0)
    width = 6 + int(top >= 1e4) + int(top >= 1e8)  # separator, 4 digits a word, "." and 15 digits
    head = header.encode()
    head += bytes(-len(head) % 4)
    buffer = bytearray(len(head) + 4 * (rows * cols * width + 1))
    buffer[: len(head)] = head
    words = np.frombuffer(buffer, np.uint32)
    cells = words[len(head) // 4 : -1].reshape(rows * cols, width)
    separators = _SEPARATOR_WORDS[(np.arange(cols) == 0).astype(np.intp)]
    negative = (np.signbit(v) & fast).reshape(rows, cols)  # % prints the sign of the others
    cells[:, 0] = np.where(negative, separators[:, 1], separators[:, 0]).ravel()
    # a word: the number it is taken from, the place of its digit group, and its kinds in
    # _DIGIT_WORDS in full and stripped: of the zeros before the first digit for an
    # integer word, of those after the last for a fraction word
    digit_words = [(whole, place, _FULL, _NO_LEAD) for place in _POW10[4 * width - 24 : 0 : -4]]
    digit_words += [(whole, 1.0, _FULL, _NO_LEAD_BUT_0), (fraction, 1e12, _POINT_FULL, _POINT_NO_TRAIL)]
    digit_words += [(fraction, place, _FULL, _NO_TRAIL) for place in (1e8, 1e4, 1.0)]
    group, key = scale, np.empty(v.size, np.intp)
    leading = np.ones(v.size, bool)  # the integer groups so far are all 0
    for col, (rest, place, full, stripped) in enumerate(digit_words, 1):
        np.floor(np.divide(rest, place, out=group), out=group)
        rest -= group * place
        key[:] = group
        key += full
        np.add(key, stripped - full, out=key, where=leading if rest is whole else rest == 0)
        leading &= group == 0
        cells[:, col] = _DIGIT_WORDS[key]
    slow = np.flatnonzero(~fast)
    if slow.size:
        values = v[slow]
        texts = [_CELL % x if ok else "NA" for ok, x in zip(np.isfinite(values).tolist(), values.tolist())]
        cells[slow, 1:] = np.array(texts, dtype=f"S{4 * width - 4}").view(np.uint32).reshape(slow.size, -1)
    words[-1] = _SEPARATOR_WORDS[1, 0]  # the last line's CRLF
    return buffer.translate(None, b"\0").decode("ascii")


def _format_cell(value: float) -> str:
    """One CSV cell, by :func:`_format_table`'s rule: the one-cell table without its CRLFs."""
    return _format_table("", np.array([[value]], float))[2:-2]


def _format_csv(sd, outputs, node, times) -> tuple[list[str], str]:
    """The sweep's column headers and its CSV text, header line included.

    An unknown or repeated quantity is refused before the kernel runs. Then
    one kernel call covers the whole grid, and each requested quantity adds
    to the table, after ``t``, its graph-level column or its node block
    (every node, or only ``node``), a row per time point; delta is a node
    block when ``node`` is given. :func:`_format_table` formats the whole
    table; nothing is written here.
    """
    for q in outputs:
        if q not in _QUANTITIES:
            raise ValueError(f"unknown quantity {q!r}; choose from {tuple(_QUANTITIES)}")
        if outputs.count(q) > 1:
            raise ValueError(f"quantity {q!r} given more than once")
    obs = walks.node_observables(sd, times)
    cells = slice(None) if node is None else slice(node, node + 1)
    headers: list[str] = []
    columns = [times]
    for q in outputs:
        column, vector = _QUANTITIES[q]
        if column is not None and (vector is None or node is None):
            headers.append(q)
            columns.append(column(obs))
        else:
            headers += [f"{q}_{j}" for j in range(sd.n)[cells]]
            columns.append(vector(obs)[..., cells])
    table = np.column_stack(columns)
    return headers, _format_table(",".join(["t"] + headers), table)


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
    fiedler = _format_cell(eigendecompose(laplacian(g)).fiedler if g.n >= 2 else np.nan)
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


def _preset_curves(which: str, n_panel: int) -> list[tuple]:
    """The preset's curves, each a spec ``(label, kind, n, extra, node, quantities)``."""
    if which == "fig1-left":
        return [(f"complete_{n}", "complete", n, None, None, ("qc",)) for n in (5, 10, 20)]
    if which in ("fig1-center", "fig1-right"):
        # node 0 is the hub; its dynamics agree across all three graphs
        node, quantities = (0, ("conditional",)) if which == "fig1-center" else (None, ("qc",))
        kinds = ("complete", "star", "wheel")
        return [(f"{kind}_{n_panel}", kind, n_panel, None, node, quantities) for kind in kinds]
    if which == "fig2":
        random = [(f"random_11_d{d}", "random_connected", 11, d, 1, ("conditional",)) for d in (4, 6, 8, 10)]
        return [("ring_11", "ring", 11, None, 1, ("conditional",))] + random
    if which in ("fig3-left", "fig3-right"):
        batch = [(11, d) for d in (4, 6, 8, 10)] + [(5, d) for d in (3, 4)]
        quantities = ("gamma_s", "gamma_l") if which == "fig3-left" else ("delta",)
        return [(f"random_{n}_d{d}", "random_connected", n, d, None, quantities) for n, d in batch]
    raise ValueError(f"unknown figure preset {which!r}")


def cmd_figure(args) -> int:
    curves = _preset_curves(args.which, args.n)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    # the seed reaches only random_connected; the other kinds ignore it
    decompositions = [
        eigendecompose(laplacian(generate(kind, n, extra=extra, seed=args.seed)))
        for _, kind, n, extra, _, _ in curves
    ]
    # one shared grid per preset so curves are directly comparable
    grid = default_grid(min(sd.fiedler for sd in decompositions))
    times = grid.times()
    # every curve is swept and formatted before any file is written
    tables = [
        _format_csv(sd, quantities, node, times)
        for sd, (*_, node, quantities) in zip(decompositions, curves)
    ]
    entries = []
    for (label, kind, n, extra, node, _), (headers, text) in zip(curves, tables):
        path = out_dir / f"{args.which}_{label}.csv"
        _write(str(path), text)
        columns = ["t"] + headers
        entries.append({"file": path.name, "kind": kind, "n": n, "extra": extra, "node": node, "columns": columns})
        print(f"wrote {path}")
    manifest = {"figure": args.which, "seed": args.seed, "grid": asdict(grid), "curves": entries}
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
