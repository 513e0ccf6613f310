import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import DensityMatrix, propagator_pair, uhlmann_fidelity
from qcwalk import degree_sequence, generate, laplacian
from qcwalk.spectral import eigendecompose
from qcwalk.walks import node_observables

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
    # the kernel clips these columns into [0, 1] and raises below -1e-10
    g, sd = pair
    node_observables(sd, t)
    p = propagator_pair(sd, t)[0]
    for j in (0, g.n - 1):
        assert p[:, j].min() >= -1e-10
        assert abs(p[:, j].sum() - 1.0) <= 1e-10


@given(members, times)
@settings(max_examples=60, deadline=None)
def test_quantum_amplitudes_unit_norm(pair, t):
    g, sd = pair
    a = propagator_pair(sd, t)[1][:, g.n // 2]
    assert abs(np.vdot(a, a).real - 1.0) <= 1e-10


def test_start_conditions():
    sd = DECS[0]
    p, u = propagator_pair(sd, 0.0)
    assert np.array_equal(p[:, 2], np.eye(5)[2])
    assert np.array_equal(u[:, 2], np.eye(5, dtype=complex)[2])
    fidelity, coherence, gfid = node_observables(sd, 0.0)
    assert fidelity[2] == 1.0
    assert coherence[2] == 0.0
    assert gfid[2] == 1.0


def test_node_and_time_validation():
    # --node is checked by the CLI (tests/test_cli.py); the propagators refuse a negative time
    sd = DECS[0]
    with pytest.raises(ValueError):
        propagator_pair(sd, -0.5)


def test_k2_closed_forms():
    for t in (0.05, 0.6, 1.3, 2.9):
        e = np.exp(-2 * t)
        p = propagator_pair(K2, t)[0][:, 0]
        assert np.allclose(p, [(1 + e) / 2, (1 - e) / 2], atol=1e-12)

        f, c, g = node_observables(K2, t)[:, 0]
        assert f == pytest.approx((1 + e * np.cos(2 * t)) / 2, abs=1e-12)
        assert c == pytest.approx(abs(np.sin(2 * t)), abs=1e-12)
        want = np.sqrt((1 + e) / 2) * abs(np.cos(t)) + np.sqrt((1 - e) / 2) * abs(np.sin(t))
        assert g == pytest.approx(want, abs=1e-12)


def test_k2_perfect_state_transfer():
    a = propagator_pair(K2, np.pi / 2)[1][:, 0]
    assert abs(a[0]) <= 1e-12
    assert abs(abs(a[1]) - 1.0) <= 1e-12


def test_k3_return_probability():
    sd = eigendecompose(laplacian(generate("complete", 3)))
    for t in (0.3, 1.1):
        a = propagator_pair(sd, t)[1][:, 0]
        want = abs(1 / 3 + (2 / 3) * np.exp(-3j * t)) ** 2
        assert abs(a[0]) ** 2 == pytest.approx(want, abs=1e-12)


# --- long-time and short-time behavior -------------------------------------------


@pytest.mark.parametrize("g,sd", list(zip(FAMILY, DECS)))
def test_distribution_flattens(g, sd):
    t = 50.0 / sd.fiedler
    p = propagator_pair(sd, t)[0][:, 0]
    assert np.abs(p - 1.0 / g.n).max() <= 1e-10


@pytest.mark.parametrize("g,sd", list(zip(FAMILY, DECS)))
def test_localized_fidelity_reaches_uniform(g, sd):
    t = 50.0 / sd.fiedler
    fid = node_observables(sd, t)[0]
    for j in range(g.n):
        assert fid[j] == pytest.approx(1.0 / g.n, abs=1e-6)


@given(members, times)
@settings(max_examples=60, deadline=None)
def test_scalar_ranges(pair, t):
    g, sd = pair
    j = g.n - 1
    fidelity, coherence, gfid = node_observables(sd, t)
    assert 0.0 <= fidelity[j] <= 1.0
    assert 0.0 <= gfid[j] <= 1.0
    assert 0.0 <= coherence[j] <= g.n - 1 + 1e-9


@pytest.mark.parametrize("g,sd", list(zip(FAMILY, DECS)))
def test_short_time_coherence_slope(g, sd):
    # C_j(t) ~ 2 d_j t as t -> 0
    t = 1e-4
    degs = degree_sequence(g)
    coh = node_observables(sd, t)[1]
    for j in range(g.n):
        assert coh[j] / (2 * degs[j] * t) == pytest.approx(1.0, rel=1e-2)


@pytest.mark.parametrize("g,sd", list(zip(FAMILY, DECS)))
def test_long_time_sqrtn_identity(g, sd):
    # sqrt(n) G_j(t) approaches the amplitude l1 norm once p is flat
    t = 50.0 / sd.fiedler
    _, coherence, gfid = node_observables(sd, t)
    u = propagator_pair(sd, t)[1]
    for j in (0, g.n - 1):
        lhs = np.sqrt(g.n) * gfid[j]
        rhs = np.abs(u[:, j]).sum()
        assert lhs == pytest.approx(rhs, abs=1e-8)
        # and the combination n G^2 - C pins itself to 1
        c = coherence[j]
        assert g.n * gfid[j] ** 2 - c == pytest.approx(1.0, abs=0.02)


def test_regular_graph_node_equivalence():
    for g in (generate("ring", 11), generate("complete", 5)):
        sd = eigendecompose(laplacian(g))
        for t in (0.2, 1.0, 4.0):
            vals = node_observables(sd, t)[0]
            assert vals.max() - vals.min() <= 1e-10


# --- fidelity reduction against the full Uhlmann oracle ---------------------------


@pytest.mark.parametrize("seed", range(4))
def test_localized_fidelity_matches_uhlmann(seed):
    g = generate("random_connected", 3 + 2 * (seed % 3), extra=2, seed=seed)
    sd = eigendecompose(laplacian(g))
    for t in (0.1, 0.8, 2.5):
        fid = node_observables(sd, t)[0]
        p, u = propagator_pair(sd, t)
        for j in range(g.n):
            oracle = uhlmann_fidelity(
                DensityMatrix.diagonal(np.clip(p[:, j], 0.0, 1.0)), DensityMatrix.pure(u[:, j])
            )
            assert fid[j] == pytest.approx(oracle, abs=1e-9)
