"""Undirected graphs, their Laplacians, and deterministic graph generators.

Graphs are plain node-count-plus-edge-tuple values; the Laplacian is an
explicit dense symmetric matrix with the negative sign convention: entry
(j, j) is minus the degree of node j, off-diagonal entries are 1 exactly on
edges, so every row sums to zero and all eigenvalues are nonpositive.
Everything is desk scale (hundreds of nodes, dense storage) and immutable
after construction, so instances are safe to share between threads.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from pathlib import Path

import numpy as np

__all__ = [
    "Graph",
    "Laplacian",
    "GENERATOR_KINDS",
    "graph_from_edges",
    "generate",
    "graph_from_spec",
    "laplacian",
    "degree_sequence",
    "to_edge_list",
    "parse_edge_list",
    "write_edge_list",
    "read_edge_list",
]

GENERATOR_KINDS = ("complete", "ring", "path", "star", "wheel", "random_connected")


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph on nodes 0..n-1.

    Edges are canonical: sorted tuples (u, v) with u < v, no duplicates.
    Build instances through :func:`graph_from_edges`, :func:`generate`, or
    :func:`read_edge_list` rather than the raw constructor.
    """

    n: int
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"node count must be positive, got {self.n}")
        prev = None
        for e in self.edges:
            u, v = e
            if not (0 <= u < v < self.n):
                raise ValueError(f"edge {e} is not canonical for n={self.n}")
            if prev is not None and e <= prev:
                raise ValueError(f"edges out of order or duplicated at {e}")
            prev = e


@dataclass(frozen=True)
class Laplacian:
    """Dense graph Laplacian (negative diagonal convention)."""

    matrix: np.ndarray

    def __post_init__(self):
        m = np.array(self.matrix, dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError("Laplacian must be a square matrix")
        if not np.array_equal(m, m.T):
            raise ValueError("Laplacian must be exactly symmetric")
        worst_row = float(np.abs(m.sum(axis=1)).max()) if m.size else 0.0
        if worst_row > 1e-12:
            raise ValueError(f"Laplacian rows must sum to zero (max |sum| = {worst_row:.3e})")
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    @property
    def n(self) -> int:
        return self.matrix.shape[0]


def graph_from_edges(n: int, edges) -> Graph:
    """Validate an edge list and return the canonical Graph.

    Rejects out-of-range endpoints, self-loops, and repeated edges
    (repeats are an error rather than being merged silently, so noisy
    inputs fail loudly).
    """
    n = int(n)
    if n < 1:
        raise ValueError(f"node count must be positive, got {n}")
    seen: set[tuple[int, int]] = set()
    for e in edges:
        u, v = (int(x) for x in e)
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge ({u}, {v}) has an endpoint outside [0, {n})")
        if u == v:
            raise ValueError(f"self-loop ({u}, {v}) is not allowed")
        key = (u, v) if u < v else (v, u)
        if key in seen:
            raise ValueError(f"duplicate edge ({u}, {v})")
        seen.add(key)
    return Graph(n, tuple(sorted(seen)))


def generate(kind: str, n: int, extra: int | None = None, seed: int = 0) -> Graph:
    """Deterministic graph generators.

    Kinds: complete, ring (n >= 3), path, star (node 0 is the hub, n >= 2),
    wheel (node 0 is the hub joined to a rim cycle, n >= 4), and
    random_connected.

    random_connected starts from ring(n) and connects node 1 to ``extra - 2``
    distinct non-neighbors drawn without replacement from a PCG64 stream
    seeded with ``seed``, so node 1 ends up with degree exactly ``extra``
    (2 <= extra <= n - 1) and the result is reproducible per seed.
    """
    n = int(n)
    if kind not in GENERATOR_KINDS:
        raise ValueError(f"unknown graph kind {kind!r}; choose from {GENERATOR_KINDS}")
    if extra is not None and kind != "random_connected":
        raise ValueError("extra degree target only applies to random_connected")
    if n < 1:
        raise ValueError(f"node count must be positive, got {n}")

    if kind == "complete":
        pairs = list(itertools.combinations(range(n), 2))
    elif kind == "ring":
        if n < 3:
            raise ValueError("ring requires n >= 3")
        pairs = [(i, i + 1) for i in range(n - 1)] + [(0, n - 1)]
    elif kind == "path":
        pairs = [(i, i + 1) for i in range(n - 1)]
    elif kind == "star":
        if n < 2:
            raise ValueError("star requires n >= 2")
        pairs = [(0, k) for k in range(1, n)]
    elif kind == "wheel":
        if n < 4:
            raise ValueError("wheel requires n >= 4")
        rim = [(i, i + 1) for i in range(1, n - 1)] + [(1, n - 1)]
        pairs = [(0, k) for k in range(1, n)] + rim
    else:  # random_connected
        if n < 3:
            raise ValueError("random_connected requires n >= 3")
        if extra is None:
            raise ValueError("random_connected requires a degree target (extra)")
        d1 = int(extra)
        if not 2 <= d1 <= n - 1:
            raise ValueError(f"degree target {d1} unreachable; need 2 <= extra <= {n - 1}")
        pairs = [(i, i + 1) for i in range(n - 1)] + [(0, n - 1)]
        rng = np.random.Generator(np.random.PCG64(int(seed)))
        candidates = [k for k in range(n) if k not in (0, 1, 2)]
        chosen = rng.choice(candidates, size=d1 - 2, replace=False)
        pairs += [(1, int(k)) for k in chosen]

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


def laplacian(g: Graph) -> Laplacian:
    """Laplacian of ``g``: 1 on edges, minus the degree on the diagonal."""
    m = np.zeros((g.n, g.n))
    for u, v in g.edges:
        m[u, v] = m[v, u] = 1.0
    np.fill_diagonal(m, -m.sum(axis=1))
    return Laplacian(m)


def degree_sequence(g: Graph) -> np.ndarray:
    """Integer degree of every node."""
    degs = np.zeros(g.n, dtype=int)
    for u, v in g.edges:
        degs[u] += 1
        degs[v] += 1
    return degs


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


def write_edge_list(g: Graph, path: str | Path) -> None:
    Path(path).write_text(to_edge_list(g))


def read_edge_list(path: str | Path) -> Graph:
    return parse_edge_list(Path(path).read_text())
