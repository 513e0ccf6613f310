import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qcwalk import generate, graph_from_edges, laplacian
from qcwalk.distance import (
    VIOLATION_TOL,
    DisconnectedGraphError,
    conditional_vector,
    delta_vector,
    distance_curve,
    gamma_of,
    gamma_ratio,
    long_vector,
    qc_distance,
    short_vector,
    verify_localized_optimality,
)
from qcwalk.spectral import eigendecompose
from qcwalk.walks import node_observables

K2 = eigendecompose(laplacian(generate("complete", 2)))
RING11 = eigendecompose(laplacian(generate("ring", 11)))
STAR7 = eigendecompose(laplacian(generate("star", 7)))
DISCONNECTED = eigendecompose(laplacian(graph_from_edges(4, [(0, 1), (2, 3)])))

FAMILY = [
    ("complete(5)", generate("complete", 5)),
    ("ring(11)", generate("ring", 11)),
    ("star(7)", generate("star", 7)),
    ("wheel(9)", generate("wheel", 9)),
    ("path(5)", generate("path", 5)),
    ("random(8,4)", generate("random_connected", 8, extra=4, seed=2)),
]


# --- conditional, max, average ----------------------------------------------------


def test_zero_time_values():
    cond = conditional_vector(node_observables(K2, 0.0))
    assert cond[0] == 0.0
    assert qc_distance(K2, 0.0) == (0.0, 0)
    assert np.mean(cond) == 0.0


def test_k2_closed_form_and_slope():
    for t in (0.3, 1.1, 2.4):
        want = (1 - np.exp(-2 * t) * np.cos(2 * t)) / 2
        assert conditional_vector(node_observables(K2, t))[0] == pytest.approx(want, abs=1e-12)
    h = 1e-6
    assert conditional_vector(node_observables(K2, h))[0] / h == pytest.approx(1.0, rel=1e-4)


def test_long_time_plateau():
    for label, g in FAMILY:
        sd = eigendecompose(laplacian(g))
        t = 50.0 / sd.fiedler
        cond = conditional_vector(node_observables(sd, t))
        for j in range(g.n):
            assert cond[j] == pytest.approx(1 - 1 / g.n, abs=1e-2), label


def test_qc_distance_argmax_is_max_degree_early():
    value, node = qc_distance(STAR7, 1e-3)
    assert node == 0
    assert value == pytest.approx(6e-3, rel=0.05)


def test_qc_tie_break_smallest_index():
    # exact ties resolve to the smallest index (all-zero column at t = 0);
    # regular-graph ties at t > 0 are only roundoff-degenerate, so there we
    # check the winner is equivalent to node 0, not that it is node 0
    assert qc_distance(RING11, 0.0) == (0.0, 0)
    for t in (0.4, 2.0):
        value, node = qc_distance(RING11, t)
        assert value == pytest.approx(conditional_vector(node_observables(RING11, t))[0], abs=1e-12)


def test_average_equals_max_on_regular_graphs():
    for t in (0.05, 0.7, 3.0, 20.0):
        value, _ = qc_distance(RING11, t)
        mean = np.mean(conditional_vector(node_observables(RING11, t)))
        assert mean == pytest.approx(value, abs=1e-12)


@given(st.floats(0.0, 30.0, allow_nan=False))
@settings(max_examples=40, deadline=None)
def test_distance_bounds(t):
    value, node = qc_distance(STAR7, t)
    assert 0.0 <= value <= 1.0
    assert 0 <= node < 7
    assert 0.0 <= np.mean(conditional_vector(node_observables(STAR7, t))) <= value + 1e-15


@pytest.mark.parametrize("kind,n", [("ring", 5), ("complete", 20)])
@pytest.mark.parametrize("t", [1e15, 1e300])
def test_plateau_holds_at_huge_times(kind, n, t):
    # an unpinned zero mode (|lambda_0| ~ 1e-15 from eigh) makes exp(lambda_0 t)
    # drift from 1 here: the plateau came out as 0.688, 0.99994 or 1.8e-15
    sd = eigendecompose(laplacian(generate(kind, n)))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        value, _ = qc_distance(sd, t)
        mean = np.mean(conditional_vector(node_observables(sd, t)))
    assert abs(value - (1.0 - 1.0 / n)) <= 1e-12
    assert abs(mean - (1.0 - 1.0 / n)) <= 1e-12


# --- curves ------------------------------------------------------------------------


def test_curve_matches_pointwise_bitwise():
    times = np.geomspace(1e-2, 20.0, 25)
    curve = distance_curve(STAR7, times)
    assert curve.shape == (7, times.size)
    for i, t in enumerate(times):
        cond = conditional_vector(node_observables(STAR7, t))
        for j in range(7):
            assert curve[j, i] == cond[j]
    qc_vals = [qc_distance(STAR7, t) for t in times]
    assert np.array_equal(curve.max(axis=0), [v for v, _ in qc_vals])
    assert np.array_equal(curve.argmax(axis=0), [n for _, n in qc_vals])


def test_curve_at_zero_grid():
    curve = distance_curve(K2, [0.0])
    assert np.array_equal(curve, np.zeros((2, 1)))
    assert curve.max(axis=0)[0] == 0.0


def test_curve_k5_reaches_plateau():
    curve = distance_curve(eigendecompose(laplacian(generate("complete", 5))), np.geomspace(1e-2, 10, 60))
    assert abs(curve.max(axis=0)[-1] - 0.8) <= 1e-3


def test_curve_values_in_unit_interval():
    curve = distance_curve(RING11, np.geomspace(1e-2, 300, 80))
    assert curve.min() >= 0.0
    assert curve.max() <= 1.0


def test_curve_grid_validation():
    with pytest.raises(ValueError):
        distance_curve(K2, [])
    with pytest.raises(ValueError):
        distance_curve(K2, [1.0, 0.5])
    with pytest.raises(ValueError):
        distance_curve(K2, [-1.0, 2.0])
    with pytest.raises(ValueError):
        distance_curve(K2, [1.0, 1.0])
    for times in ([np.inf], [np.nan], [0.5, np.inf]):
        with pytest.raises(ValueError, match="finite"):
            distance_curve(RING11, times)


# --- asymptotes and diagnostics ------------------------------------------------------


def test_asymptotes_at_zero():
    obs = node_observables(K2, 0.0)
    assert short_vector(obs)[0] == 0.0
    assert long_vector(obs)[0] == pytest.approx(0.0, abs=1e-12)


def test_k2_short_asymptote_closed_form():
    for t in (0.1, 0.8):
        short = short_vector(node_observables(K2, t))[0]
        assert short == pytest.approx(abs(np.sin(2 * t)) / 2, abs=1e-12)
    assert short_vector(node_observables(K2, 0.01))[0] == pytest.approx(0.01, rel=1e-3)


def test_long_asymptote_matches_distance_late():
    for label, g in FAMILY:
        sd = eigendecompose(laplacian(g))
        obs = node_observables(sd, 50.0 / sd.fiedler)
        gap = np.abs(conditional_vector(obs) - long_vector(obs))
        for j in range(g.n):
            assert gap[j] <= 1e-2, label


def test_gamma_limits():
    assert gamma_ratio(RING11, "S", 1e-3) == pytest.approx(1.0, abs=0.01)
    t_inf = 50.0 / RING11.fiedler
    assert gamma_ratio(RING11, "L", t_inf) == pytest.approx(1.0, abs=1e-3)


def test_gamma_undefined_at_zero():
    assert gamma_ratio(RING11, "S", 0.0) is None
    assert gamma_ratio(RING11, "L", 0.0) is None


def test_gamma_selector_accepts_aliases():
    t = 0.5
    assert gamma_ratio(RING11, "short", t) == gamma_ratio(RING11, "S", t)
    assert gamma_ratio(RING11, "long", t) == gamma_ratio(RING11, "L", t)
    with pytest.raises(ValueError):
        gamma_ratio(RING11, "X", t)


def test_delta_converges_to_one_over_n():
    t_inf = 50.0 / RING11.fiedler
    assert delta_vector(node_observables(RING11, t_inf))[0] == pytest.approx(1 / 11, abs=1e-2)
    assert delta_vector(node_observables(RING11, 3 * t_inf))[0] == pytest.approx(1 / 11, abs=1e-2)


def test_delta_starts_at_one():
    assert delta_vector(node_observables(RING11, 0.0))[0] == pytest.approx(1.0, abs=1e-12)


def test_asymptote_laws_and_gammas_read_one_record():
    obs = node_observables(STAR7, 0.5)
    c, g, n = obs.coherence[0], obs.gfid[0], obs.n
    assert short_vector(obs)[0] == c / 2.0
    assert long_vector(obs)[0] == 1.0 - g * g + c / n
    assert gamma_of(obs, "S") == gamma_ratio(STAR7, "S", 0.5)
    assert gamma_of(obs, "L") == gamma_ratio(STAR7, "L", 0.5)
    assert delta_vector(obs)[0] == g * g - c / n
    zero = node_observables(STAR7, 0.0)
    assert gamma_of(zero, "S") is None and gamma_of(zero, "L") is None


# --- connectivity guard ----------------------------------------------------------------


def test_disconnected_graphs_are_refused():
    with pytest.raises(DisconnectedGraphError):
        qc_distance(DISCONNECTED, 1.0)
    with pytest.raises(DisconnectedGraphError):
        distance_curve(DISCONNECTED, [1.0])
    with pytest.raises(DisconnectedGraphError):
        gamma_ratio(DISCONNECTED, "S", 1.0)
    with pytest.raises(DisconnectedGraphError):
        gamma_ratio(DISCONNECTED, "L", 1.0)
    with pytest.raises(DisconnectedGraphError):
        verify_localized_optimality(DISCONNECTED, 2, [1.0])


# --- localized optimality ----------------------------------------------------------------


def test_optimality_margins_nonnegative():
    g = generate("random_connected", 6, extra=3, seed=9)
    sd = eigendecompose(laplacian(g))
    margins = verify_localized_optimality(sd, 25, [0.1, 0.5, 1.0, 3.0], seed=9)
    assert margins.shape == (25, 4)
    assert margins.min() >= -VIOLATION_TOL
    assert margins.min() >= -1e-8


def test_optimality_k2_uniform_state():
    # rho = I/2 pushed through both maps must beat the localized floor
    margins = verify_localized_optimality(K2, 10, [0.4, 1.7], seed=0)
    assert margins.min() >= -VIOLATION_TOL


def test_optimality_localized_state_margin_zero():
    # z = indicator of node j: both channel outputs reduce to the localized
    # pair, so the full fidelity must equal F_j and the margin vanish
    from qcwalk.spectral import DensityMatrix, heat_propagator, unitary_propagator, uhlmann_fidelity

    sd = STAR7
    t = 0.9
    p = heat_propagator(sd, t)
    u = unitary_propagator(sd, t)
    for j in (0, 3):
        z = np.eye(7)[j]
        rho_c = DensityMatrix.diagonal(p @ z)
        rho_q = DensityMatrix((u * z) @ u.conj().T)
        fid = uhlmann_fidelity(rho_c, rho_q)
        assert fid == pytest.approx(node_observables(sd, t).fidelity[j], abs=1e-9)


def test_optimality_pure_rows_take_the_closed_form(monkeypatch):
    # z = e_j rows reduce to the localized pair: they take F = sum_k q_k rho_kk, not
    # uhlmann_fidelity, and give F_j(t); the mixed row between them takes the stacked eigvalsh
    import qcwalk.spectral as spectral

    calls = []
    true_uhlmann = spectral.uhlmann_fidelity

    def counted(rho1, rho2):
        calls.append(1)
        return true_uhlmann(rho1, rho2)

    monkeypatch.setattr(spectral, "uhlmann_fidelity", counted)
    sd, t = STAR7, 0.9
    p, u = spectral.heat_propagator(sd, t), spectral.unitary_propagator(sd, t)
    z = np.array([np.eye(7)[0], np.full(7, 1.0 / 7), np.eye(7)[3]])
    q, rho = np.clip(z @ p.T, 0.0, None), (u * z[:, None, :]) @ u.conj().T
    fid = spectral.classical_quantum_fidelity(q, rho)
    assert len(calls) == 0
    for s in (0, 2):
        oracle = true_uhlmann(spectral.DensityMatrix.diagonal(q[s]), spectral.DensityMatrix(rho[s]))
        assert fid[s] == pytest.approx(oracle, abs=1e-12)
    localized = node_observables(sd, t).fidelity
    assert fid[0] == pytest.approx(localized[0], abs=1e-9)
    assert fid[2] == pytest.approx(localized[3], abs=1e-9)
    assert fid[1] >= min(fid[0], fid[2]) - 1e-8


@pytest.mark.parametrize("size", [1, 7, 125])
def test_batched_dirichlet_draws_equal_sequential_draws(size):
    # the sweep draws a (size, n) batch; the benchmark's reference draws one row at a time
    for n in range(3, 11):
        batch = np.random.Generator(np.random.PCG64(n))
        seq = np.random.Generator(np.random.PCG64(n))
        rows = batch.dirichlet(np.ones(n), size=size)
        assert np.array_equal(rows, np.array([seq.dirichlet(np.ones(n)) for _ in range(size)]))
        assert batch.bit_generator.state == seq.bit_generator.state


def test_optimality_eigensolves_independent_of_sample_count(monkeypatch):
    from qcwalk.spectral import DensityMatrix

    counts = {"eigh": 0, "eigvalsh": 0, "builds": 0}
    for name in ("eigh", "eigvalsh"):

        def counted(*args, _name=name, _original=getattr(np.linalg, name), **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    true_post_init = DensityMatrix.__post_init__

    def counted_post_init(self):
        counts["builds"] += 1
        true_post_init(self)

    monkeypatch.setattr(DensityMatrix, "__post_init__", counted_post_init)
    sd = eigendecompose(laplacian(generate("random_connected", 8, extra=3, seed=4)))
    t_values = [0.1, 0.5, 1.0, 3.0]
    seen = []
    for n_samples in (5, 50):
        for key in counts:
            counts[key] = 0
        margins = verify_localized_optimality(sd, n_samples, t_values, seed=4)
        assert margins.shape == (n_samples, 4)
        seen.append(dict(counts))
    # two stacked eigvalsh per time point, whatever the sample count, and no DensityMatrix
    assert seen[0] == seen[1] == {"eigh": 0, "eigvalsh": 2 * len(t_values), "builds": 0}


def test_optimality_input_validation():
    with pytest.raises(ValueError):
        verify_localized_optimality(K2, 0, [1.0])
    # t_values is checked like distance_curve's grid
    ring5 = eigendecompose(laplacian(generate("ring", 5)))
    for t_values in ([], [[0.1, 0.2], [0.3, 0.4]], [0.3, 0.1], [-0.1]):
        with pytest.raises(ValueError):
            verify_localized_optimality(ring5, 5, t_values)
