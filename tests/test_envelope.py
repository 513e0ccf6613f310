"""The Fiedler envelope: the kernel's F and delta against a bound that holds at every time.

For a connected graph the zero mode's eigenvector is flat, V[k, 0] = 1/sqrt(n),
so with lambda_2 the Fiedler value and Cauchy-Schwarz over the rows of the
orthogonal V,

    |p_kj - 1/n| = |sum_{a>=1} e^{lambda_a t} V_ka V_ja| <= (1 - 1/n) e^{-lambda_2 t}.

Each column of |exp(i L t)|^2 sums to 1, so F_j - 1/n = sum_k (p_kj - 1/n) |a_kj|^2 and

    |F_j - 1/n| <= (1 - 1/n) e^{-lambda_2 t}.

With |sqrt(p) - 1/sqrt(n)| <= sqrt(n) |p - 1/n|, G_j <= 1 and
sum_k |a_kj| <= sqrt(n), the same argument bounds delta_j = G_j^2 - C_j / n:
delta_j - 1/n = (G_j - s)(G_j + s) with s = sum_k |a_kj| / sqrt(n) <= 1 and
|G_j - s| <= (n - 1) e^{-lambda_2 t}, so

    |delta_j - 1/n| <= 2 (n - 1) e^{-lambda_2 t}.

Both are equalities at t = 0, and on K_n the first is reached at every
revival. The kernel's values are checked against them, with a roundoff
slack of 4 n eps, on 100 log-spaced times from 1e-3 to 100 / lambda_2 (the
default t_max, where the envelope is e^{-100}): at n = 200, where no other
oracle reaches, on small graphs, and on hypothesis-drawn connected graphs.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qcwalk import eigendecompose, graph_from_edges, graph_from_spec, laplacian
from qcwalk.distance import delta_vector
from qcwalk.walks import node_observables

EPS = np.finfo(float).eps

SPECS = [
    "complete:200",
    "ring:200",
    "star:200",
    "wheel:200",
    "random_connected:200:20",
    "path:300",
    "ring:11",
    "random_connected:11:6",
    "path:4",
    "wheel:8",
    "complete:2",
    "star:3",
]


def envelope_excess(g) -> tuple[float, float]:
    """The largest excess of |F_j - 1/n| and |delta_j - 1/n| over their envelopes, in units of n eps."""
    sd = eigendecompose(laplacian(g))
    n, fiedler = sd.n, sd.fiedler
    t = np.geomspace(1e-3, 100.0 / fiedler, 100)
    obs = node_observables(sd, t)
    decay = np.exp(-fiedler * t)[:, None]
    fidelity = np.abs(obs[0] - 1.0 / n) - (1.0 - 1.0 / n) * decay
    delta = np.abs(delta_vector(obs, n) - 1.0 / n) - 2.0 * (n - 1) * decay
    return fidelity.max() / (n * EPS), delta.max() / (n * EPS)


@pytest.mark.parametrize("spec", SPECS)
def test_fidelity_and_delta_stay_inside_the_fiedler_envelope(spec):
    fidelity, delta = envelope_excess(graph_from_spec(spec))
    assert fidelity <= 4.0, f"F exceeds its envelope by {fidelity:.2f} n eps"
    assert delta <= 4.0, f"delta exceeds its envelope by {delta:.2f} n eps"


@st.composite
def connected_graphs(draw):
    """A random spanning tree on n <= 12 nodes and any set of further edges."""
    n = draw(st.integers(2, 12))
    tree = {(draw(st.integers(0, k - 1)), k) for k in range(1, n)}
    others = [pair for pair in itertools.combinations(range(n), 2) if pair not in tree]
    extra = draw(st.sets(st.sampled_from(others))) if others else set()
    return graph_from_edges(n, tree | extra)


@given(connected_graphs())
@settings(max_examples=60, deadline=None, derandomize=True)
def test_drawn_connected_graphs_stay_inside_the_fiedler_envelope(g):
    fidelity, delta = envelope_excess(g)
    assert fidelity <= 4.0 and delta <= 4.0, (g, fidelity, delta)
