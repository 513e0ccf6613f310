import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.sparse.csgraph import connected_components

from qcwalk import graph as G
from qcwalk.spectral import eigendecompose


def edge_subset_graph(n: int, mask: int) -> G.Graph:
    """Graph picked out of all possible edges by the bits of ``mask``."""
    all_pairs = list(itertools.combinations(range(n), 2))
    edges = [e for i, e in enumerate(all_pairs) if mask >> i & 1]
    return G.graph_from_edges(n, edges)


def spectrum(g: G.Graph):
    return eigendecompose(G.laplacian(g))


graphs = st.integers(2, 9).flatmap(
    lambda n: st.builds(
        edge_subset_graph, st.just(n), st.integers(0, 2 ** (n * (n - 1) // 2) - 1)
    )
)


# --- construction and validation ---------------------------------------------


def test_graph_from_edges_canonicalizes():
    g = G.graph_from_edges(4, [(3, 1), (0, 2), (1, 0)])
    assert g.edges == ((0, 1), (0, 2), (1, 3))


def test_graph_from_edges_rejects_bad_input():
    with pytest.raises(ValueError):
        G.graph_from_edges(3, [(0, 3)])
    with pytest.raises(ValueError):
        G.graph_from_edges(3, [(1, 1)])
    with pytest.raises(ValueError):
        G.graph_from_edges(3, [(0, 1), (1, 0)])
    with pytest.raises(ValueError):
        G.graph_from_edges(0, [])


def test_generators_basic_shapes():
    assert len(G.generate("complete", 5).edges) == 10
    assert len(G.generate("ring", 11).edges) == 11
    assert len(G.generate("path", 6).edges) == 5
    assert len(G.generate("star", 7).edges) == 6
    # wheel: hub joined to every rim node plus the rim cycle
    assert len(G.generate("wheel", 9).edges) == 2 * 8


def test_generator_constraints():
    with pytest.raises(ValueError):
        G.generate("wheel", 3)
    with pytest.raises(ValueError):
        G.generate("ring", 2)
    with pytest.raises(ValueError):
        G.generate("nonsense", 5)
    with pytest.raises(ValueError):
        G.generate("complete", 5, extra=3)
    with pytest.raises(ValueError):
        G.generate("random_connected", 11)
    with pytest.raises(ValueError):
        G.generate("random_connected", 11, extra=11)


def test_ring_degrees_all_two():
    for n in (3, 6, 11):
        assert np.all(G.degree_sequence(G.generate("ring", n)) == 2)


def test_star_and_wheel_hub_degrees():
    assert G.degree_sequence(G.generate("star", 7))[0] == 6
    degs = G.degree_sequence(G.generate("wheel", 9))
    assert degs[0] == 8
    assert all(degs[j] == 3 for j in range(1, 9))


def test_random_connected_degree_target_and_reproducibility():
    for d in (2, 4, 6, 10):
        g = G.generate("random_connected", 11, extra=d, seed=42)
        assert G.degree_sequence(g)[1] == d
        assert spectrum(g).is_connected
        assert g == G.generate("random_connected", 11, extra=d, seed=42)
    # different seeds explore different edge sets
    sets = {G.generate("random_connected", 11, extra=6, seed=s).edges for s in range(8)}
    assert len(sets) > 1


def test_random_connected_keeps_ring_backbone():
    g = G.generate("random_connected", 11, extra=6, seed=0)
    ring = G.generate("ring", 11)
    assert set(ring.edges) <= set(g.edges)


# --- laplacian ----------------------------------------------------------------


@given(graphs)
@settings(max_examples=60, deadline=None)
def test_laplacian_rows_symmetry_trace(g):
    lap = G.laplacian(g).matrix
    assert np.array_equal(lap, lap.T)
    assert np.abs(lap.sum(axis=1)).max() <= 1e-12
    assert np.trace(lap) == -2.0 * len(g.edges)


def test_laplacian_matrix_values():
    lap = G.laplacian(G.generate("path", 3)).matrix
    expected = np.array([[-1.0, 1.0, 0.0], [1.0, -2.0, 1.0], [0.0, 1.0, -1.0]])
    assert np.array_equal(lap, expected)


def test_laplacian_is_read_only():
    lap = G.laplacian(G.generate("ring", 4))
    with pytest.raises(ValueError):
        lap.matrix[0, 0] = 5.0


def test_degree_helpers():
    g = G.generate("star", 5)
    assert G.degree_sequence(g).max() == 4
    assert G.degree_sequence(g).mean() == 2 * 4 / 5


# --- connectivity and the fiedler value ---------------------------------------


@given(graphs)
@settings(max_examples=60, deadline=None)
def test_fiedler_positive_iff_connected(g):
    # independent oracle: scipy's graph traversal on the adjacency matrix
    adjacency = np.zeros((g.n, g.n))
    for u, v in g.edges:
        adjacency[u, v] = 1.0
    n_components, _ = connected_components(adjacency, directed=False)
    sd = spectrum(g)
    assert (sd.fiedler > 0) == (n_components == 1)
    assert sd.is_connected == (n_components == 1)


def test_fiedler_known_values():
    assert spectrum(G.generate("complete", 4)).fiedler == pytest.approx(4.0, abs=1e-9)
    assert spectrum(G.generate("complete", 2)).fiedler == pytest.approx(2.0, abs=1e-12)
    assert spectrum(G.generate("ring", 6)).fiedler == pytest.approx(1.0, abs=1e-9)
    # circulant formula: 2(1 - cos(2 pi / n))
    want = 2.0 * (1.0 - math.cos(2.0 * math.pi / 11.0))
    assert spectrum(G.generate("ring", 11)).fiedler == pytest.approx(want, abs=1e-9)
    # path formula 2(1 - cos(pi / n)): ~1.1e-4 at n = 300, still far above ZERO_MODE_TOL
    sd = spectrum(G.generate("path", 300))
    assert sd.is_connected
    assert sd.fiedler == pytest.approx(2.0 * (1.0 - math.cos(math.pi / 300.0)), rel=1e-6)


def test_fiedler_requires_two_nodes():
    with pytest.raises(ValueError):
        spectrum(G.graph_from_edges(1, [])).fiedler


def test_disconnected_examples():
    assert not spectrum(G.graph_from_edges(4, [(0, 1), (2, 3)])).is_connected
    assert spectrum(G.graph_from_edges(4, [(0, 1), (2, 3)])).fiedler == 0.0
    assert spectrum(G.graph_from_edges(1, [])).is_connected


# --- edge-list text format -----------------------------------------------------


@given(graphs)
@settings(max_examples=40, deadline=None)
def test_edge_list_round_trip(g):
    assert G.parse_edge_list(G.to_edge_list(g)) == g


def test_edge_list_file_round_trip(tmp_path):
    g = G.generate("random_connected", 11, extra=6, seed=3)
    path = tmp_path / "g.edges"
    G.write_edge_list(g, path)
    assert G.read_edge_list(path) == g


def test_edge_list_comments_and_blanks():
    text = "# a comment\n\n5\n0 1\n# another\n1 2\n"
    g = G.parse_edge_list(text)
    assert g.n == 5
    assert g.edges == ((0, 1), (1, 2))


def test_edge_list_parse_errors():
    with pytest.raises(ValueError):
        G.parse_edge_list("")
    with pytest.raises(ValueError):
        G.parse_edge_list("banana\n")
    with pytest.raises(ValueError):
        G.parse_edge_list("3\n0 1 2\n")
    with pytest.raises(ValueError):
        G.parse_edge_list("3\n0 x\n")
