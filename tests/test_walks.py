import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qcwalk import generate, laplacian
from qcwalk.spectral import DensityMatrix, eigendecompose, uhlmann_fidelity
from qcwalk.walks import (
    classical_distribution,
    quantum_amplitudes,
    localized_fidelity,
    coherence,
    classical_fidelity,
)

FAMILY = [
    generate("complete", 5),
    generate("ring", 11),
    generate("path", 5),
    generate("star", 7),
    generate("wheel", 9),
    generate("random_connected", 8, extra=4, seed=2),
]
DECS = [eigendecompose(laplacian(g)) for g in FAMILY]

members = st.sampled_from(list(zip(FAMILY, DECS)))
times = st.floats(0.0, 8.0, allow_nan=False)
K2 = eigendecompose(laplacian(generate("complete", 2)))


# --- distributions and amplitudes ------------------------------------------------


@given(members, times)
@settings(max_examples=60, deadline=None)
def test_classical_distribution_is_probability(pair, t):
    g, sd = pair
    for j in (0, g.n - 1):
        p = classical_distribution(sd, j, t)
        assert p.min() >= 0.0
        assert abs(p.sum() - 1.0) <= 1e-10


@given(members, times)
@settings(max_examples=60, deadline=None)
def test_quantum_amplitudes_unit_norm(pair, t):
    g, sd = pair
    a = quantum_amplitudes(sd, g.n // 2, t)
    assert abs(np.vdot(a, a).real - 1.0) <= 1e-10


def test_start_conditions():
    sd = DECS[0]
    assert np.array_equal(classical_distribution(sd, 2, 0.0), np.eye(5)[2])
    assert np.array_equal(quantum_amplitudes(sd, 2, 0.0), np.eye(5, dtype=complex)[2])
    assert localized_fidelity(sd, 2, 0.0) == 1.0
    assert coherence(sd, 2, 0.0) == 0.0
    assert classical_fidelity(sd, 2, 0.0) == 1.0


def test_node_and_time_validation():
    sd = DECS[0]
    with pytest.raises(ValueError):
        classical_distribution(sd, 5, 1.0)
    with pytest.raises(ValueError):
        quantum_amplitudes(sd, -1, 1.0)
    with pytest.raises(ValueError):
        classical_distribution(sd, 0, -0.5)


def test_k2_closed_forms():
    for t in (0.05, 0.6, 1.3, 2.9):
        e = np.exp(-2 * t)
        p = classical_distribution(K2, 0, t)
        assert np.allclose(p, [(1 + e) / 2, (1 - e) / 2], atol=1e-12)

        f = localized_fidelity(K2, 0, t)
        assert f == pytest.approx((1 + e * np.cos(2 * t)) / 2, abs=1e-12)

        c = coherence(K2, 0, t)
        assert c == pytest.approx(abs(np.sin(2 * t)), abs=1e-12)

        g = classical_fidelity(K2, 0, t)
        want = np.sqrt((1 + e) / 2) * abs(np.cos(t)) + np.sqrt((1 - e) / 2) * abs(np.sin(t))
        assert g == pytest.approx(want, abs=1e-12)


def test_k2_perfect_state_transfer():
    a = quantum_amplitudes(K2, 0, np.pi / 2)
    assert abs(a[0]) <= 1e-12
    assert abs(abs(a[1]) - 1.0) <= 1e-12


def test_k3_return_probability():
    sd = eigendecompose(laplacian(generate("complete", 3)))
    for t in (0.3, 1.1):
        a = quantum_amplitudes(sd, 0, t)
        want = abs(1 / 3 + (2 / 3) * np.exp(-3j * t)) ** 2
        assert abs(a[0]) ** 2 == pytest.approx(want, abs=1e-12)


# --- long-time and short-time behavior -------------------------------------------


@pytest.mark.parametrize("g,sd", list(zip(FAMILY, DECS)))
def test_distribution_flattens(g, sd):
    t = 50.0 / sd.fiedler
    p = classical_distribution(sd, 0, t)
    assert np.abs(p - 1.0 / g.n).max() <= 1e-10


@pytest.mark.parametrize("g,sd", list(zip(FAMILY, DECS)))
def test_localized_fidelity_reaches_uniform(g, sd):
    t = 50.0 / sd.fiedler
    for j in range(g.n):
        assert localized_fidelity(sd, j, t) == pytest.approx(1.0 / g.n, abs=1e-6)


@given(members, times)
@settings(max_examples=60, deadline=None)
def test_scalar_ranges(pair, t):
    g, sd = pair
    j = g.n - 1
    assert 0.0 <= localized_fidelity(sd, j, t) <= 1.0
    assert 0.0 <= classical_fidelity(sd, j, t) <= 1.0
    assert 0.0 <= coherence(sd, j, t) <= g.n - 1 + 1e-9


@pytest.mark.parametrize("g,sd", list(zip(FAMILY, DECS)))
def test_short_time_coherence_slope(g, sd):
    # C_j(t) ~ 2 d_j t as t -> 0
    t = 1e-4
    degs = np.zeros(g.n, dtype=int)
    for u, v in g.edges:
        degs[u] += 1
        degs[v] += 1
    for j in range(g.n):
        assert coherence(sd, j, t) / (2 * degs[j] * t) == pytest.approx(1.0, rel=1e-2)


@pytest.mark.parametrize("g,sd", list(zip(FAMILY, DECS)))
def test_long_time_sqrtn_identity(g, sd):
    # sqrt(n) G_j(t) approaches the amplitude l1 norm once p is flat
    t = 50.0 / sd.fiedler
    for j in (0, g.n - 1):
        lhs = np.sqrt(g.n) * classical_fidelity(sd, j, t)
        rhs = np.abs(quantum_amplitudes(sd, j, t)).sum()
        assert lhs == pytest.approx(rhs, abs=1e-8)
        # and the combination n G^2 - C pins itself to 1
        c = coherence(sd, j, t)
        assert g.n * classical_fidelity(sd, j, t) ** 2 - c == pytest.approx(1.0, abs=0.02)


def test_regular_graph_node_equivalence():
    for g in (generate("ring", 11), generate("complete", 5)):
        sd = eigendecompose(laplacian(g))
        for t in (0.2, 1.0, 4.0):
            vals = [localized_fidelity(sd, j, t) for j in range(g.n)]
            assert max(vals) - min(vals) <= 1e-10


# --- fidelity reduction against the full Uhlmann oracle ---------------------------


@pytest.mark.parametrize("seed", range(4))
def test_localized_fidelity_matches_uhlmann(seed):
    g = generate("random_connected", 3 + 2 * (seed % 3), extra=2, seed=seed)
    sd = eigendecompose(laplacian(g))
    for t in (0.1, 0.8, 2.5):
        for j in range(g.n):
            p = classical_distribution(sd, j, t)
            psi = quantum_amplitudes(sd, j, t)
            oracle = uhlmann_fidelity(DensityMatrix.diagonal(p), DensityMatrix.pure(psi))
            assert localized_fidelity(sd, j, t) == pytest.approx(oracle, abs=1e-9)
