"""Undirected graphs, their Laplacians, and deterministic graph generators.

Graphs are plain node-count-plus-edge-tuple values, immutable after
construction; the Laplacian is a read-only dense symmetric float array with
the negative sign convention: entry (j, j) is minus the degree of node j,
off-diagonal entries are 1 exactly on edges, so every row sums to zero and
all eigenvalues are nonpositive. Everything is desk scale (hundreds of
nodes, dense storage) and read-only, so it is safe to share between threads.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from pathlib import Path

import numpy as np

__all__ = [
    "Graph",
    "GENERATOR_KINDS",
    "graph_from_edges",
    "generate",
    "graph_from_spec",
    "laplacian",
    "degree_sequence",
    "to_edge_list",
    "parse_edge_list",
    "read_edge_list",
]

GENERATOR_KINDS = ("complete", "ring", "path", "star", "wheel", "random_connected")


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph on nodes 0..n-1.

    Edges are canonical: sorted tuples (u, v) with u < v, no duplicates.
    Build instances through :func:`graph_from_edges`, :func:`generate`, or
    :func:`read_edge_list` rather than the raw constructor.

    This is the one rule of every graph, checked in one pass: the node count
    first, so an edge list with n = 0 names the count, not an endpoint; then
    for each edge an endpoint in range, no self-loop, no repeat of the edge
    before it, and canonical increasing order.
    """

    n: int
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self):
        n = self.n
        if n < 1:
            raise ValueError(f"node count must be positive, got {n}")
        prev = (-1, -1)
        for e in self.edges:
            u, v = e
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u}, {v}) has an endpoint outside [0, {n})")
            if u == v:
                raise ValueError(f"self-loop ({u}, {v}) is not allowed")
            if e == prev:
                raise ValueError(f"duplicate edge ({u}, {v})")
            if u > v or e < prev:
                raise ValueError(f"edge {e} is not canonical for n={n}")
            prev = e


def check_int(value, what: str) -> int:
    """``value`` as an int: an int, a numpy integer or an integral float, else ValueError naming ``what`` and it."""
    try:
        number = int(value)
        if number == value:
            return number
    except (TypeError, ValueError, OverflowError):  # a string, NaN or an infinity
        pass
    raise ValueError(f"{what} must be an integer, got {value!r}")


def graph_from_edges(n: int, edges) -> Graph:
    """The canonical Graph of an edge list in any order and orientation.

    The count and the endpoints pass :func:`check_int`, so a non-integral
    one is refused rather than truncated. Each edge's endpoints are ordered
    and the edges sorted; Graph then rejects out-of-range endpoints,
    self-loops, and repeated edges (repeats are an error rather than being
    merged silently, so noisy inputs fail loudly), naming the offending
    edge as its canonical pair (u, v), u < v.
    """
    pairs = ((check_int(a, "edge endpoint"), check_int(b, "edge endpoint")) for a, b in edges)
    return Graph(check_int(n, "node count"), tuple(sorted((u, v) if u < v else (v, u) for u, v in pairs)))


def generate(kind: str, n: int, extra: int | None = None, seed: int = 0) -> Graph:
    """Deterministic graph generators.

    Kinds: complete, ring (n >= 3), path, star (node 0 is the hub, n >= 2),
    wheel (node 0 is the hub joined to a rim cycle, n >= 4), and
    random_connected.

    random_connected starts from ring(n) and connects node 1 to ``extra - 2``
    distinct non-neighbors, of 3..n-1, drawn without replacement from a
    PCG64 stream seeded with ``seed`` (an integer, by check_int), so node 1
    ends up with degree exactly ``extra`` (2 <= extra <= n - 1) and the
    result is reproducible per seed.
    """
    n = check_int(n, "node count")
    if kind not in GENERATOR_KINDS:
        raise ValueError(f"unknown graph kind {kind!r}; choose from {GENERATOR_KINDS}")
    if extra is not None and kind != "random_connected":
        raise ValueError("extra degree target only applies to random_connected")

    if kind == "complete":
        pairs = list(itertools.combinations(range(n), 2))
    elif kind in ("ring", "random_connected"):
        if n < 3:
            raise ValueError(f"{kind} requires n >= 3")
        pairs = [(i, i + 1) for i in range(n - 1)] + [(0, n - 1)]
        if kind == "random_connected":
            if extra is None:
                raise ValueError("random_connected requires a degree target (extra)")
            d1 = check_int(extra, "degree target")
            if not 2 <= d1 <= n - 1:
                raise ValueError(f"degree target {d1} unreachable; need 2 <= extra <= {n - 1}")
            rng = np.random.Generator(np.random.PCG64(check_int(seed, "seed")))
            pairs += [(1, k) for k in (3 + rng.choice(n - 3, size=d1 - 2, replace=False)).tolist()]
    elif kind == "path":
        pairs = [(i, i + 1) for i in range(n - 1)]
    elif kind == "star":
        if n < 2:
            raise ValueError("star requires n >= 2")
        pairs = [(0, k) for k in range(1, n)]
    else:  # wheel
        if n < 4:
            raise ValueError("wheel requires n >= 4")
        rim = [(i, i + 1) for i in range(1, n - 1)] + [(1, n - 1)]
        pairs = [(0, k) for k in range(1, n)] + rim

    return graph_from_edges(n, pairs)


def graph_from_spec(token: str, seed: int = 0) -> Graph:
    """Graph of a 'kind:n' or 'kind:n:extra' spec, e.g. 'random_connected:11:6'; see generate."""
    parts = token.split(":")
    if len(parts) not in (2, 3):
        raise ValueError(f"graph spec {token!r} is not kind:n or kind:n:extra")
    try:
        n = int(parts[1])
        extra = int(parts[2]) if len(parts) == 3 else None
    except ValueError:
        raise ValueError(f"graph spec {token!r} has non-integer parameters") from None
    return generate(parts[0], n, extra=extra, seed=seed)


def laplacian(g: Graph) -> np.ndarray:
    """Laplacian of ``g``, a read-only float matrix: 1 on edges, minus the degree on the diagonal."""
    m = np.zeros((g.n, g.n))
    for u, v in g.edges:
        m[u, v] = m[v, u] = 1.0
    np.fill_diagonal(m, -m.sum(axis=1))
    m.setflags(write=False)
    return m


def degree_sequence(g: Graph) -> np.ndarray:
    """Integer degree of every node."""
    return np.bincount(np.array(g.edges, dtype=int).ravel(), minlength=g.n)


# --- edge-list text format ------------------------------------------------
#
# First non-comment line: node count. Each following line: "u v" with
# 0-indexed endpoints. Lines starting with '#' (and blank lines) are skipped.


def to_edge_list(g: Graph) -> str:
    lines = [str(g.n)] + [f"{u} {v}" for u, v in g.edges]
    return "\n".join(lines) + "\n"


def parse_edge_list(text: str) -> Graph:
    n: int | None = None
    edges: list[tuple[int, int]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if n is None:
            try:
                n = int(line)
            except ValueError:
                raise ValueError(f"line {lineno}: expected the node count, got {raw!r}") from None
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ValueError(f"line {lineno}: expected 'u v', got {raw!r}")
        try:
            edges.append((int(parts[0]), int(parts[1])))
        except ValueError:
            raise ValueError(f"line {lineno}: endpoints must be integers, got {raw!r}") from None
    if n is None:
        raise ValueError("edge list has no node-count line")
    return graph_from_edges(n, edges)


def read_edge_list(path: str | Path) -> Graph:
    return parse_edge_list(Path(path).read_text())
