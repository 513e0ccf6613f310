import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st

from qcwalk import gamma_ratio, generate, laplacian, qc_distance
from qcwalk.distance import verify_localized_optimality
from qcwalk.spectral import (
    DensityMatrix,
    check_density,
    classical_quantum_fidelity,
    eigendecompose,
    heat_propagator,
    unitary_propagator,
    uhlmann_fidelity,
)
from qcwalk.walks import node_observables

FAMILY = [
    generate("complete", 5),
    generate("ring", 6),
    generate("path", 4),
    generate("star", 5),
    generate("wheel", 6),
    generate("random_connected", 9, extra=5, seed=1),
]
DECS = [eigendecompose(laplacian(g)) for g in FAMILY]

family_members = st.sampled_from(DECS)
times = st.floats(0.0, 5.0, allow_nan=False)


# --- eigendecomposition ---------------------------------------------------------


@pytest.mark.parametrize("g", FAMILY)
def test_reconstruction_and_orthogonality(g):
    lap = laplacian(g)
    sd = eigendecompose(lap)
    rebuilt = (sd.eigenvectors * sd.eigenvalues) @ sd.eigenvectors.T
    assert np.abs(rebuilt - lap.matrix).max() <= 1e-9
    assert np.abs(sd.eigenvectors.T @ sd.eigenvectors - np.eye(sd.n)).max() <= 1e-9


@pytest.mark.parametrize("g", FAMILY)
def test_spectrum_nonpositive_zero_mode_first(g):
    sd = eigendecompose(laplacian(g))
    assert abs(sd.eigenvalues[0]) <= 1e-9
    assert sd.eigenvalues.max() <= 1e-9
    # sorted by modulus
    assert np.all(np.diff(np.abs(sd.eigenvalues)) >= -1e-12)


def test_zero_mode_vector_is_uniform():
    sd = eigendecompose(laplacian(generate("wheel", 6)))
    v = sd.eigenvectors[:, 0]
    assert np.abs(np.abs(v) - 1 / np.sqrt(6)).max() <= 1e-9


@pytest.mark.parametrize("g", FAMILY + [generate("path", 300)])
def test_zero_mode_pinned_exactly_for_connected_graphs(g):
    sd = eigendecompose(laplacian(g))
    assert sd.eigenvalues[0] == 0.0
    assert np.all(sd.eigenvectors[:, 0] == 1.0 / np.sqrt(g.n))
    # the pinned vector stays orthogonal to the rest of the eigenbasis
    assert np.abs(sd.eigenvectors.T @ sd.eigenvectors - np.eye(g.n)).max() <= 1e-9


def test_zero_mode_left_alone_for_disconnected_graphs():
    from qcwalk import graph_from_edges

    lap = laplacian(graph_from_edges(4, [(0, 1), (2, 3)]))
    sd = eigendecompose(lap)
    # two zero modes: neither is the flat vector, and both stay as eigh found them
    rebuilt = (sd.eigenvectors * sd.eigenvalues) @ sd.eigenvectors.T
    assert np.abs(rebuilt - lap.matrix).max() <= 1e-12
    assert np.abs(sd.eigenvectors.T @ sd.eigenvectors - np.eye(4)).max() <= 1e-12


def test_known_spectra():
    k2 = eigendecompose(laplacian(generate("complete", 2)))
    assert np.allclose(k2.eigenvalues, [0.0, -2.0], atol=1e-12)
    assert np.abs(np.abs(k2.eigenvectors) - 1 / np.sqrt(2)).max() <= 1e-12

    k3 = eigendecompose(laplacian(generate("complete", 3)))
    assert np.allclose(k3.eigenvalues, [0.0, -3.0, -3.0], atol=1e-9)

    r4 = eigendecompose(laplacian(generate("ring", 4)))
    assert np.allclose(r4.eigenvalues, [0.0, -2.0, -2.0, -4.0], atol=1e-9)


def test_connectivity_via_spectrum():
    from qcwalk import graph_from_edges

    sd = eigendecompose(laplacian(graph_from_edges(4, [(0, 1), (2, 3)])))
    assert not sd.is_connected
    assert sd.fiedler == 0.0
    sd = eigendecompose(laplacian(generate("ring", 5)))
    assert sd.is_connected
    assert sd.fiedler == pytest.approx(2 * (1 - np.cos(2 * np.pi / 5)), abs=1e-9)


# --- propagators ----------------------------------------------------------------


@given(family_members, times)
@settings(max_examples=60, deadline=None)
def test_heat_propagator_doubly_stochastic(sd, t):
    p = heat_propagator(sd, t)
    assert np.abs(p.sum(axis=0) - 1).max() <= 1e-10
    assert np.abs(p.sum(axis=1) - 1).max() <= 1e-10
    assert p.min() >= -1e-10
    assert p.max() <= 1 + 1e-10


@given(family_members, times)
@settings(max_examples=60, deadline=None)
def test_unitary_propagator_unitary(sd, t):
    u = unitary_propagator(sd, t)
    assert np.abs(u @ u.conj().T - np.eye(sd.n)).max() <= 1e-10


@given(family_members, st.floats(0.0, 5.0), st.floats(0.0, 5.0))
@settings(max_examples=40, deadline=None)
def test_heat_semigroup(sd, t1, t2):
    lhs = heat_propagator(sd, t1) @ heat_propagator(sd, t2)
    assert np.abs(lhs - heat_propagator(sd, t1 + t2)).max() <= 1e-8


@given(family_members, st.floats(-5.0, 5.0))
@settings(max_examples=40, deadline=None)
def test_unitary_group_inverse(sd, t):
    prod = unitary_propagator(sd, t) @ unitary_propagator(sd, -t)
    assert np.abs(prod - np.eye(sd.n)).max() <= 1e-8
    assert np.abs(unitary_propagator(sd, -t) - unitary_propagator(sd, t).conj().T).max() <= 1e-12


def test_propagators_identity_at_zero():
    sd = DECS[0]
    assert np.array_equal(heat_propagator(sd, 0.0), np.eye(sd.n))
    assert np.array_equal(unitary_propagator(sd, 0.0), np.eye(sd.n, dtype=complex))


def test_heat_rejects_negative_time():
    sd = DECS[0]
    with pytest.raises(ValueError):
        heat_propagator(sd, -0.1)
    # non-finite times are refused too, by both propagators and every caller
    for t in (np.nan, np.inf, -np.inf):
        for call in (
            lambda: heat_propagator(sd, t),
            lambda: unitary_propagator(sd, t),
            lambda: node_observables(sd, t),
            lambda: qc_distance(sd, t),
            lambda: gamma_ratio(sd, "S", t),
            lambda: verify_localized_optimality(sd, 5, [0.5, t]),
        ):
            with pytest.raises(ValueError, match="finite"):
                call()


def test_k2_closed_forms():
    sd = eigendecompose(laplacian(generate("complete", 2)))
    for t in (0.1, 0.7, 2.3):
        p = heat_propagator(sd, t)
        e = np.exp(-2 * t)
        assert np.allclose(p, [[(1 + e) / 2, (1 - e) / 2], [(1 - e) / 2, (1 + e) / 2]], atol=1e-12)
        u = unitary_propagator(sd, t)
        ph = np.exp(-2j * t)
        assert abs(u[0, 0] - (1 + ph) / 2) <= 1e-12
        assert abs(u[1, 0] - (1 - ph) / 2) <= 1e-12


def test_complete_graph_diagonal_decay():
    # K_n: p_jj(t) = 1/n + (1 - 1/n) e^{-n t}
    for n in (3, 5, 8):
        sd = eigendecompose(laplacian(generate("complete", n)))
        for t in (0.2, 1.0):
            p = heat_propagator(sd, t)
            want = 1 / n + (1 - 1 / n) * np.exp(-n * t)
            assert np.abs(np.diag(p) - want).max() <= 1e-12


@pytest.mark.parametrize("sd", DECS)
def test_first_order_expansion(sd):
    t = 1e-3
    lap = (sd.eigenvectors * sd.eigenvalues) @ sd.eigenvectors.T
    bound = 2 * t**2 * np.abs(sd.eigenvalues).max() ** 2
    assert np.abs(heat_propagator(sd, t) - np.eye(sd.n) - t * lap).max() <= bound


# --- density matrices and fidelity ----------------------------------------------


def random_density(rng, n: int) -> DensityMatrix:
    evals = rng.dirichlet(np.ones(n))
    z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, _ = np.linalg.qr(z)
    return DensityMatrix((q * evals) @ q.conj().T)


def test_density_matrix_validation():
    with pytest.raises(ValueError):
        DensityMatrix(np.array([[0.5, 0.1], [0.3, 0.5]]))  # not Hermitian
    with pytest.raises(ValueError):
        DensityMatrix(np.eye(2))  # trace 2
    with pytest.raises(ValueError):
        DensityMatrix(np.diag([1.5, -0.5]))  # negative eigenvalue
    with pytest.raises(ValueError):
        DensityMatrix(np.ones((2, 3)))


def test_density_matrix_constructors():
    d = DensityMatrix.diagonal([0.25, 0.75])
    assert np.array_equal(d.matrix, np.diag([0.25, 0.75]).astype(complex))
    p = DensityMatrix.pure(np.array([1.0, 1.0]) / np.sqrt(2))
    assert np.abs(p.matrix - 0.5 * np.ones((2, 2))).max() <= 1e-12


def test_fidelity_trivial_cases():
    eye3 = DensityMatrix(np.eye(3) / 3)
    assert uhlmann_fidelity(eye3, eye3) == pytest.approx(1.0, abs=1e-12)
    e0 = DensityMatrix.pure([1.0, 0.0])
    e1 = DensityMatrix.pure([0.0, 1.0])
    assert uhlmann_fidelity(e0, e1) == pytest.approx(0.0, abs=1e-12)
    with pytest.raises(ValueError):
        uhlmann_fidelity(eye3, e0)


def test_fidelity_diagonal_vs_plus_state():
    # diag(p, 1-p) against |+><+| always gives 1/2: the pure-state reduction
    # <+|rho|+> = (p + (1-p))/2 collapses independent of p
    plus = DensityMatrix.pure(np.array([1.0, 1.0]) / np.sqrt(2))
    for p in (0.0, 0.2, 0.5, 0.9, 1.0):
        rho = DensityMatrix.diagonal([p, 1 - p])
        assert uhlmann_fidelity(rho, plus) == pytest.approx(0.5, abs=1e-9)


def test_fidelity_pure_reduction_matches_expectation():
    rng = np.random.Generator(np.random.PCG64(5))
    for n in (2, 4, 6):
        for _ in range(5):
            rho = random_density(rng, n)
            psi = rng.normal(size=n) + 1j * rng.normal(size=n)
            psi /= np.linalg.norm(psi)
            direct = float((psi.conj() @ rho.matrix @ psi).real)
            assert uhlmann_fidelity(rho, DensityMatrix.pure(psi)) == pytest.approx(
                direct, abs=1e-9
            )


def test_fidelity_symmetric_and_matches_sqrtm_oracle():
    # independent route: scipy's matrix square root instead of our eigh-based one
    rng = np.random.Generator(np.random.PCG64(11))
    for n in (2, 3, 5):
        for _ in range(4):
            r1, r2 = random_density(rng, n), random_density(rng, n)
            ours = uhlmann_fidelity(r1, r2)
            assert ours == pytest.approx(uhlmann_fidelity(r2, r1), abs=1e-9)
            root = scipy.linalg.sqrtm(r1.matrix)
            inner = scipy.linalg.sqrtm(root @ r2.matrix @ root)
            oracle = float(np.trace(inner).real) ** 2
            assert ours == pytest.approx(oracle, abs=1e-9)
            assert 0.0 <= ours <= 1.0


# --- stacked validation and the batched classical-quantum fidelity ----------------


def test_batched_fidelity_matches_scalar_uhlmann():
    rng = np.random.Generator(np.random.PCG64(17))
    for n in (2, 3, 5, 8):
        q = rng.dirichlet(np.ones(n), size=20)
        rho = np.array([random_density(rng, n).matrix for _ in range(20)])
        batched = classical_quantum_fidelity(q, rho)
        scalar = [
            uhlmann_fidelity(DensityMatrix.diagonal(qs), DensityMatrix(rs)) for qs, rs in zip(q, rho)
        ]
        assert batched.shape == (20,)
        assert np.abs(batched - scalar).max() <= 1e-12


def _faulty_stack(fault: str) -> np.ndarray:
    # three valid states; member 2 carries the fault
    stack = np.array([np.eye(3) / 3, np.diag([0.5, 0.25, 0.25]), np.diag([0.2, 0.3, 0.5])], dtype=complex)
    if fault == "hermiticity":
        stack[2, 0, 1] = 0.1
    elif fault == "trace":
        stack[2] *= 1.5
    else:
        stack[2] = np.diag([1.2, -0.3, 0.1])
    return stack


@pytest.mark.parametrize("fault", ["hermiticity", "trace", "negativity"])
def test_stacked_validation_refuses_a_later_member(fault):
    stack = _faulty_stack(fault)
    with pytest.raises(ValueError):
        DensityMatrix(stack[2])
    with pytest.raises(ValueError):
        check_density(stack)
    check_density(stack[:2])
    # both sides of the batched fidelity are validated
    q_good = np.full((3, 3), 1.0 / 3)
    with pytest.raises(ValueError):
        classical_quantum_fidelity(q_good, stack)
    if fault != "hermiticity":  # a diagonal state is Hermitian by construction
        q_bad = np.array([np.diagonal(m).real for m in stack])
        with pytest.raises(ValueError):
            classical_quantum_fidelity(q_bad, stack[[0, 0, 0]])


def test_batched_fidelity_refuses_mismatched_shapes():
    with pytest.raises(ValueError):
        classical_quantum_fidelity(np.full((2, 3), 1.0 / 3), np.array([np.eye(2) / 2] * 2))
