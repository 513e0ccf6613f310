import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qcwalk import generate, graph_from_edges, graph_from_spec, laplacian
from qcwalk.checks import (
    VIOLATION_TOL,
    classical_quantum_affinity,
    classical_quantum_fidelity,
    verify_localized_optimality,
)
from qcwalk.distance import (
    DisconnectedGraphError,
    conditional_vector,
    delta_vector,
    distance_curve,
    gamma_of,
    long_vector,
    qc_distance,
    qc_of,
    short_vector,
)
from qcwalk import walks
from conftest import DensityMatrix, count_eigensolves, propagator_pair, uhlmann_fidelity
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
    assert long_vector(obs, K2.n)[0] == pytest.approx(0.0, abs=1e-12)


def test_k2_short_asymptote_closed_form():
    for t in (0.1, 0.8):
        short = short_vector(node_observables(K2, t))[0]
        assert short == pytest.approx(abs(np.sin(2 * t)) / 2, abs=1e-12)
    assert short_vector(node_observables(K2, 0.01))[0] == pytest.approx(0.01, rel=1e-3)


def test_long_asymptote_matches_distance_late():
    for label, g in FAMILY:
        sd = eigendecompose(laplacian(g))
        obs = node_observables(sd, 50.0 / sd.fiedler)
        gap = np.abs(conditional_vector(obs) - long_vector(obs, g.n))
        for j in range(g.n):
            assert gap[j] <= 1e-2, label


def test_gamma_limits():
    assert gamma_of(node_observables(RING11, 1e-3), "S", RING11.n) == pytest.approx(1.0, abs=0.01)
    t_inf = 50.0 / RING11.fiedler
    assert gamma_of(node_observables(RING11, t_inf), "L", RING11.n) == pytest.approx(1.0, abs=1e-3)


def test_gamma_undefined_at_zero():
    # NaN at one time as on a grid: undefined has one spelling
    assert np.isnan(gamma_of(node_observables(RING11, 0.0), "S", RING11.n))
    assert np.isnan(gamma_of(node_observables(RING11, 0.0), "L", RING11.n))


def test_gamma_selector_is_s_or_l():
    obs = node_observables(RING11, 0.5)
    for which in ("short", "long", "s", "l", "X"):
        with pytest.raises(ValueError, match="asymptote selector must be 'S' or 'L'"):
            gamma_of(obs, which, RING11.n)


def test_delta_converges_to_one_over_n():
    t_inf = 50.0 / RING11.fiedler
    assert delta_vector(node_observables(RING11, t_inf), RING11.n)[0] == pytest.approx(1 / 11, abs=1e-2)
    assert delta_vector(node_observables(RING11, 3 * t_inf), RING11.n)[0] == pytest.approx(1 / 11, abs=1e-2)


def test_delta_starts_at_one():
    assert delta_vector(node_observables(RING11, 0.0), RING11.n)[0] == pytest.approx(1.0, abs=1e-12)


def test_asymptote_laws_and_gammas_read_one_record():
    obs, n = node_observables(STAR7, 0.5), STAR7.n
    _, c, g = obs[:, 0]
    assert short_vector(obs)[0] == c / 2.0
    assert long_vector(obs, n)[0] == 1.0 - g * g + c / n
    assert gamma_of(obs, "S", n) == qc_of(obs)[0] / short_vector(obs).max()
    assert gamma_of(obs, "L", n) == qc_of(obs)[0] / long_vector(obs, n).max()
    assert delta_vector(obs, n)[0] == g * g - c / n
    zero = node_observables(STAR7, 0.0)
    assert np.isnan(gamma_of(zero, "S", n)) and np.isnan(gamma_of(zero, "L", n))


@pytest.mark.parametrize("spec", ["ring:11", "random_connected:11:6"])
def test_laws_on_one_launch_node_take_the_graphs_n(spec):
    # a record of one launch node is still a record of the whole graph: the laws with a
    # 1/n read the graph's n, never the record's width
    sd = eigendecompose(laplacian(graph_from_spec(spec)))
    obs = node_observables(sd, np.geomspace(1e-2, 1e2, 12))
    laws = {
        "conditional": conditional_vector,
        "short": short_vector,
        "long": lambda obs: long_vector(obs, sd.n),
        "delta": lambda obs: delta_vector(obs, sd.n),
    }
    for name, law in laws.items():
        full = law(obs)
        for j in range(sd.n):
            assert np.array_equal(law(obs[..., j : j + 1]), full[..., j : j + 1]), (name, j)


# --- connectivity guard ----------------------------------------------------------------


def test_disconnected_graphs_are_refused():
    with pytest.raises(DisconnectedGraphError):
        qc_distance(DISCONNECTED, 1.0)
    with pytest.raises(DisconnectedGraphError):
        distance_curve(DISCONNECTED, [1.0])
    with pytest.raises(DisconnectedGraphError):
        verify_localized_optimality(DISCONNECTED, 2, [1.0])


# --- localized optimality ----------------------------------------------------------------


def test_optimality_margins_nonnegative():
    g = generate("random_connected", 6, extra=3, seed=9)
    sd = eigendecompose(laplacian(g))
    worst = verify_localized_optimality(sd, 25, [0.1, 0.5, 1.0, 3.0], seed=9)
    assert isinstance(worst, float)
    assert worst >= -VIOLATION_TOL
    assert worst >= -1e-8


@pytest.mark.parametrize(
    "n_samples, message",
    [
        (2.5, "sample count must be an integer, got 2.5"),
        (0.999, "sample count must be an integer, got 0.999"),
        (0, "need at least one sample"),
    ],
)
def test_optimality_sample_count_must_be_a_positive_integer(n_samples, message):
    # refused, not truncated to 2 or to 0 samples
    with pytest.raises(ValueError, match=f"^{message}$"):
        verify_localized_optimality(K2, n_samples, [0.4, 1.7])


def test_optimality_takes_an_integral_sample_count_of_any_type():
    reference = verify_localized_optimality(K2, 3, [0.4, 1.7], seed=1)
    for n_samples in (3.0, np.int64(3), np.float32(3)):
        assert verify_localized_optimality(K2, n_samples, [0.4, 1.7], seed=1) == reference


def test_optimality_k2_uniform_state():
    # rho = I/2 pushed through both maps must beat the localized floor
    assert verify_localized_optimality(K2, 10, [0.4, 1.7], seed=0) >= -VIOLATION_TOL


def test_optimality_localized_state_margin_zero():
    # z = indicator of node j: both channel outputs reduce to the localized
    # pair, so the full fidelity must equal F_j and the margin vanish
    sd = STAR7
    t = 0.9
    p, u = propagator_pair(sd, t)
    for j in (0, 3):
        z = np.eye(7)[j]
        rho_c = DensityMatrix.diagonal(p @ z)
        rho_q = DensityMatrix((u * z) @ u.conj().T)
        fid = uhlmann_fidelity(rho_c, rho_q)
        assert fid == pytest.approx(node_observables(sd, t)[0, j], abs=1e-9)


def test_optimality_pure_rows_take_the_closed_form():
    # z = e_j rows reduce to the localized pair: they take F = sum_k q_k rho_kk and give
    # F_j(t); the mixed row between them takes the stacked eigvalsh
    sd, t = STAR7, 0.9
    p, u = propagator_pair(sd, t)
    z = np.array([np.eye(7)[0], np.full(7, 1.0 / 7), np.eye(7)[3]])
    q, rho = np.clip(z @ p.T, 0.0, None), (u * z[:, None, :]) @ u.conj().T
    fid = classical_quantum_fidelity(q[None], u[None], z[None])[0]
    for s in (0, 2):
        oracle = uhlmann_fidelity(DensityMatrix.diagonal(q[s]), DensityMatrix(rho[s]))
        assert fid[s] == pytest.approx(oracle, abs=1e-12)
    localized = node_observables(sd, t)[0]
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


def full_route(sd, n_samples, t_values, seed):
    """The sweep's draws z and its margins with every sample eigensolved, both (T, n_samples)."""
    rng = np.random.Generator(np.random.PCG64(seed))
    p, u = propagator_pair(sd, t_values)
    z = rng.dirichlet(np.ones(sd.n), size=(len(t_values), n_samples))
    q = np.clip(z @ p.swapaxes(-1, -2), 0.0, None)
    floor = node_observables(sd, t_values)[0].min(axis=-1)
    return z, classical_quantum_fidelity(q, u, z) - floor[:, None]


def test_optimality_decomposes_one_matrix_per_sample_and_time(monkeypatch):
    # four times at n = 8, formed at once: the sample of the smallest affinity margin takes one
    # eigvalsh, then, in one more call only if there are any, every other sample whose
    # affinity margin is within AFFINITY_SLACK of that sample's exact margin; the affinity
    # certifies the rest, so no sample is eigensolved twice
    import qcwalk.checks as checks

    sd = eigendecompose(laplacian(generate("random_connected", 8, extra=3, seed=4)))
    t_values, n_samples = [0.1, 0.5, 1.0, 3.0], 500
    affinities, solved = [], []

    def affinity(q, u, z, _original=checks.classical_quantum_affinity):
        affinities.append(_original(q, u, z))
        return affinities[-1]

    def fidelity(q, u, z, _original=checks._fidelity):
        solved.append(z[:, 0])
        return _original(q, u, z)

    monkeypatch.setattr(checks, "classical_quantum_affinity", affinity)
    monkeypatch.setattr(checks, "_fidelity", fidelity)
    counts = count_eigensolves(monkeypatch)
    worst = verify_localized_optimality(sd, n_samples, t_values, seed=4)
    swept = dict(counts)
    monkeypatch.undo()  # the reference route below runs unpatched
    z, margins = full_route(sd, n_samples, t_values, 4)
    lower = affinities[0] - node_observables(sd, t_values)[0].min(axis=-1)[:, None]
    first = np.unravel_index(lower.argmin(), lower.shape)
    candidate = ~(lower > margins[first] + checks.AFFINITY_SLACK)
    candidate[first] = False
    candidates = np.nonzero(candidate)
    assert np.array_equal(np.concatenate(solved), np.concatenate([z[first][None], z[candidates]]))
    assert swept == {"eigh": 0, "eigvalsh": 1 + (candidates[0].size > 0), "matrices": 1 + candidates[0].size}
    # on this case the first sample is the only one the affinity cannot certify
    assert candidates[0].size == 0
    assert worst == margins.min()


@pytest.mark.parametrize("seed", [0, 7, 1301])
def test_optimality_worst_margin_is_the_full_routes_bit_for_bit(seed, monkeypatch):
    # the pruned sweep against every sample eigensolved, on verify's graphs and times; with a
    # budget of 1, each exact-fidelity candidate is a chunk of its own
    t_values = (0.1, 0.5, 1.0, 3.0)
    for n in range(3, 11):
        sd = eigendecompose(laplacian(generate("random_connected", n, extra=min(n - 1, 3), seed=seed + n)))
        reference = full_route(sd, 125, t_values, seed + n)[1].min()
        assert verify_localized_optimality(sd, 125, t_values, seed=seed + n) == reference
        with monkeypatch.context() as patch:
            patch.setattr(walks, "BLOCK_ELEMENTS", 1)
            assert verify_localized_optimality(sd, 125, t_values, seed=seed + n) == reference


@pytest.mark.parametrize(
    "graph",
    [generate("star", 7), generate("ring", 11), generate("random_connected", 10, extra=3, seed=10)],
)
def test_built_states_have_their_weights_as_spectrum(graph):
    # the fidelity reads z as the spectrum of U diag(z) U^dag; an eigensolve agrees
    sd = eigendecompose(laplacian(graph))
    u = propagator_pair(sd, [0.1, 0.5, 1.0, 3.0])[1]
    z = np.random.Generator(np.random.PCG64(3)).dirichlet(np.ones(sd.n), size=(4, 40))
    rho = (u[:, None] * z[:, :, None, :]) @ u.conj().swapaxes(-1, -2)[:, None]
    assert np.abs(np.linalg.eigvalsh(rho) - np.sort(z, axis=-1)).max() <= 1e-13


def test_optimality_refuses_a_drifting_unitary_before_any_fidelity(monkeypatch):
    import qcwalk.checks as checks

    def drifting(sd, t, _original=checks.form_propagators):
        # exp(i L t) scaled by 1 + 1e-8; exp(L t) as formed
        props = _original(sd, t)
        props[1:] *= 1 + 1e-8
        return props

    monkeypatch.setattr(checks, "form_propagators", drifting)
    monkeypatch.setattr(
        np.linalg,
        "eigvalsh",
        lambda *args, **kwargs: pytest.fail("a fidelity was computed past the drift guard"),
    )
    with pytest.raises(ValueError, match=r"u\[0\] drifts from unitarity by"):
        verify_localized_optimality(STAR7, 5, [0.1, 0.5, 1.0, 3.0])


@pytest.mark.parametrize("block_elements", [1, 8000, 10**6])
def test_optimality_margins_independent_of_block_size(monkeypatch, block_elements):
    # the budget sizes only the exact-fidelity chunks: a chunk per candidate at 1, one chunk
    # of every candidate at 8000 and above
    sd = eigendecompose(laplacian(generate("random_connected", 10, extra=3, seed=1)))
    t_values = np.geomspace(0.05, 5.0, 9)
    reference = full_route(sd, 30, t_values, 6)[1].min()
    monkeypatch.setattr(walks, "BLOCK_ELEMENTS", block_elements)
    assert verify_localized_optimality(sd, 30, t_values, seed=6) == reference


def nan_at_one(q, u, z, _original=classical_quantum_affinity):
    """checks.classical_quantum_affinity with a NaN at [0, 3]."""
    affinity = _original(q, u, z)
    affinity[0, 3] = np.nan
    return affinity


def test_optimality_reports_a_nan_bound_as_a_nan_margin(monkeypatch):
    # a NaN affinity certifies nothing: the worst margin reads NaN, so the check fails
    import qcwalk.checks as checks

    sd = eigendecompose(laplacian(generate("random_connected", 6, extra=3, seed=9)))
    assert verify_localized_optimality(sd, 25, [0.1, 0.5, 1.0, 3.0], seed=9) >= -VIOLATION_TOL
    monkeypatch.setattr(checks, "classical_quantum_affinity", nan_at_one)
    assert np.isnan(verify_localized_optimality(sd, 25, [0.1, 0.5, 1.0, 3.0], seed=9))


@pytest.mark.parametrize("block_elements", [1, 10**6])
def test_optimality_stops_at_a_nan_margin(monkeypatch, block_elements):
    # a NaN lower margin is final: the sweep returns NaN before any sample is eigensolved,
    # whatever the budget of the exact-fidelity chunks
    import qcwalk.checks as checks

    sd = eigendecompose(laplacian(generate("random_connected", 6, extra=3, seed=9)))
    monkeypatch.setattr(walks, "BLOCK_ELEMENTS", block_elements)
    monkeypatch.setattr(checks, "classical_quantum_affinity", nan_at_one)
    counts = count_eigensolves(monkeypatch)
    assert np.isnan(verify_localized_optimality(sd, 25, [0.1, 0.5, 1.0, 3.0], seed=9))
    assert counts == {"eigh": 0, "eigvalsh": 0, "matrices": 0}


@pytest.mark.parametrize("block_elements", [1, walks.BLOCK_ELEMENTS])
def test_optimality_validates_once_per_call(monkeypatch, block_elements):
    # on verify's graphs and times, a call's states are validated once, all four times
    # together, however many exact-fidelity chunks it takes: a chunk per candidate at 1
    import qcwalk.checks as checks

    monkeypatch.setattr(walks, "BLOCK_ELEMENTS", block_elements)
    t_values = (0.1, 0.5, 1.0, 3.0)
    for n in range(3, 11):
        sd = eigendecompose(laplacian(generate("random_connected", n, extra=min(n - 1, 3), seed=n)))
        validated = []

        def counted(q, u, z, _original=checks._check_states):
            validated.append(q.shape[0])
            return _original(q, u, z)

        with monkeypatch.context() as patch:
            patch.setattr(checks, "_check_states", counted)
            verify_localized_optimality(sd, 125, t_values, seed=n)
        assert validated == [4]


def test_optimality_forms_its_whole_grid_in_one_call(monkeypatch):
    # at a budget of one element the kernel would form a block per time; the sweep still
    # forms its whole grid, every time of it, in one form_propagators call
    import qcwalk.checks as checks

    monkeypatch.setattr(walks, "BLOCK_ELEMENTS", 1)
    sd = eigendecompose(laplacian(generate("random_connected", 10, extra=3, seed=10)))
    t_values = (0.1, 0.5, 1.0, 3.0)
    formed = []

    def counted(sd, t, _original=checks.form_propagators):
        formed.append(np.array(t))
        return _original(sd, t)

    monkeypatch.setattr(checks, "form_propagators", counted)
    verify_localized_optimality(sd, 125, t_values, seed=10)
    assert len(formed) == 1
    assert np.array_equal(formed[0], t_values)


def test_optimality_input_validation():
    with pytest.raises(ValueError):
        verify_localized_optimality(K2, 0, [1.0])
    # t_values is checked like distance_curve's grid
    ring5 = eigendecompose(laplacian(generate("ring", 5)))
    for t_values in ([], [[0.1, 0.2], [0.3, 0.4]], [0.3, 0.1], [-0.1]):
        with pytest.raises(ValueError):
            verify_localized_optimality(ring5, 5, t_values)
