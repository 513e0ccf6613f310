import warnings

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st

from conftest import DensityMatrix, propagator_pair, uhlmann_fidelity
from qcwalk import generate, laplacian, qc_distance
from qcwalk.checks import classical_quantum_affinity, classical_quantum_fidelity, verify_localized_optimality
from qcwalk.distance import gamma_of
from qcwalk.spectral import SpectralDecomposition, eigendecompose
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
    assert np.abs(rebuilt - lap).max() <= 1e-9
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
    # two zero modes set to 0.0: neither vector is the flat one, and both stay as eigh found them
    rebuilt = (sd.eigenvectors * sd.eigenvalues) @ sd.eigenvectors.T
    assert np.abs(rebuilt - lap).max() <= 1e-12
    assert np.abs(sd.eigenvectors.T @ sd.eigenvectors - np.eye(4)).max() <= 1e-12


@pytest.mark.parametrize(
    "matrix, message",
    [
        (np.zeros((2, 3)), "Laplacian must be a square matrix"),
        (np.zeros(3), "Laplacian must be a square matrix"),
        (np.zeros((0, 0)), "Laplacian must have at least one node"),
        ([[-1.0, 1.0], [0.5, -0.5]], "Laplacian must be exactly symmetric"),
        ([[-1.0, 1.0], [1.0, -1.5]], "Laplacian rows must sum to zero (max |sum| = 5.000e-01)"),
        # row sums of NaN pass a `> 1e-12` test, and a NaN is unequal to itself
        ([[-np.inf, np.inf], [np.inf, -np.inf]], "Laplacian must be finite"),
        ([[np.nan, 0.0], [0.0, np.nan]], "Laplacian must be finite"),
    ],
)
def test_eigendecompose_refuses_a_matrix_that_is_not_a_laplacian(matrix, message):
    with pytest.raises(ValueError) as exc:
        eigendecompose(matrix)
    assert str(exc.value) == message


def test_eigendecompose_takes_row_sums_within_roundoff():
    # the row-sum rule refuses above 1e-12, so a plain list within it is decomposed
    sd = eigendecompose([[-1.0, 1.0], [1.0, -1.0 + 5e-13]])
    assert sd.eigenvalues[0] == 0.0 and abs(sd.eigenvalues[1] + 2.0) <= 1e-12


@pytest.mark.parametrize(
    "vals, vecs",
    [(np.zeros(3), np.eye(2)), (np.zeros((2, 1)), np.eye(2)), (np.zeros(2), np.zeros((2, 3)))],
    ids=["sizes", "eigenvalues-2d", "eigenvectors-not-square"],
)
def test_spectral_decomposition_refuses_mismatched_shapes(vals, vecs):
    with pytest.raises(ValueError) as exc:
        SpectralDecomposition(vals, vecs)
    assert str(exc.value) == "eigenvalues and eigenvectors have mismatched shapes"


def test_spectral_decomposition_freezes_copies_not_the_callers_arrays():
    vals, vecs = np.array([0.0, -2.0]), np.eye(2)
    sd = SpectralDecomposition(vals, vecs)
    assert vals.flags.writeable and vecs.flags.writeable
    assert sd.eigenvalues is not vals and sd.eigenvectors is not vecs
    for frozen in (sd.eigenvalues, sd.eigenvectors):
        with pytest.raises(ValueError):
            frozen[0] = 1.0  # read-only
    vals[1] = -3.0  # the caller's array is its own
    assert sd.eigenvalues.tolist() == [0.0, -2.0]


@pytest.mark.parametrize("split, merged", [(0.5, True), (2.0, False)])
def test_eigenvalue_clusters_merge_within_tolerance(monkeypatch, split, merged):
    # eigh is made to return K_4's eigenbasis with its triple eigenvalue -4 spread out,
    # neighbours split * tol apart for the rule's tol = n * eps * max|lambda|
    _, vecs = np.linalg.eigh(laplacian(generate("complete", 4)))
    gap = split * 4 * np.finfo(float).eps * 4
    spread = np.array([-4.0 - gap, -4.0, -4.0 + gap, 1e-16])
    monkeypatch.setattr(np.linalg, "eigh", lambda matrix: (spread.copy(), vecs.copy()))
    sd = eigendecompose(laplacian(generate("complete", 4)))
    want = [0.0, -4.0, -4.0, -4.0] if merged else [0.0, -4.0 + gap, -4.0, -4.0 - gap]
    assert sd.eigenvalues.tolist() == want
    assert np.all(sd.eigenvectors[:, 0] == 0.5)


def test_disconnected_zero_cluster_is_exactly_zero():
    from qcwalk import graph_from_edges

    # eigh puts one of the two zeros at about -4e-17 here
    sd = eigendecompose(laplacian(graph_from_edges(5, [(0, 1), (1, 2), (3, 4)])))
    assert sd.eigenvalues[:2].tolist() == [0.0, 0.0]
    assert np.all(sd.eigenvalues[2:] != 0.0)
    assert not sd.is_connected
    assert sd.fiedler == 0.0


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
    p = propagator_pair(sd, t)[0]
    assert np.abs(p.sum(axis=0) - 1).max() <= 1e-10
    assert np.abs(p.sum(axis=1) - 1).max() <= 1e-10
    assert p.min() >= -1e-10
    assert p.max() <= 1 + 1e-10


@given(family_members, times)
@settings(max_examples=60, deadline=None)
def test_unitary_propagator_unitary(sd, t):
    u = propagator_pair(sd, t)[1]
    assert np.abs(u @ u.conj().T - np.eye(sd.n)).max() <= 1e-10


@given(family_members, st.floats(0.0, 5.0), st.floats(0.0, 5.0))
@settings(max_examples=40, deadline=None)
def test_heat_semigroup(sd, t1, t2):
    p = propagator_pair(sd, [t1, t2, t1 + t2])[0]
    assert np.abs(p[0] @ p[1] - p[2]).max() <= 1e-8


@given(family_members, st.floats(0.0, 5.0), st.floats(0.0, 5.0))
@settings(max_examples=40, deadline=None)
def test_unitary_group_law(sd, t1, t2):
    u = propagator_pair(sd, [t1, t2, t1 + t2])[1]
    assert np.abs(u[0] @ u[1] - u[2]).max() <= 1e-8
    # L is real symmetric, so U = U^T and U(-t) = conj(U(t)) = U(t)^dag: no separate inverse
    assert np.abs(u - u.swapaxes(-1, -2)).max() <= 1e-12


def test_propagators_identity_at_zero():
    sd = DECS[0]
    p, u = propagator_pair(sd, 0.0)
    assert np.array_equal(p, np.eye(sd.n)) and np.array_equal(u.real, np.eye(sd.n)) and not u.imag.any()


def test_heat_rejects_negative_time():
    sd = DECS[0]
    with pytest.raises(ValueError):
        propagator_pair(sd, -0.1)
    # non-finite times are refused too, by the propagators and every caller
    for t in (np.nan, np.inf, -np.inf):
        for call in (
            lambda: propagator_pair(sd, t),
            lambda: node_observables(sd, t),
            lambda: qc_distance(sd, t),
            lambda: gamma_of(node_observables(sd, t), "S", sd.n),
            lambda: verify_localized_optimality(sd, 5, [0.5, t]),
        ):
            with pytest.raises(ValueError, match="finite"):
                call()


@pytest.mark.parametrize("propagator, name", [(propagator_pair, "heat")])
def test_propagators_refuse_an_overflowing_phase(propagator, name):
    # K_200's max|lambda| is 200, so t = 1e306 is finite but its phase 2e308 is not
    sd = eigendecompose(laplacian(generate("complete", 200)))
    message = rf"^{name} propagator needs a finite phase t \* max\|lambda\|, got 1e\+306$"
    with pytest.raises(ValueError, match=message):
        propagator(sd, 1e306)
    # on a grid the first such point is named
    with pytest.raises(ValueError, match=message):
        propagator(sd, [1.0, 1e306, 1e307])
    assert all(np.isfinite(m).all() for m in propagator(sd, 1e305))


def test_k2_closed_forms():
    sd = eigendecompose(laplacian(generate("complete", 2)))
    for t in (0.1, 0.7, 2.3):
        p, u = propagator_pair(sd, t)
        e = np.exp(-2 * t)
        assert np.allclose(p, [[(1 + e) / 2, (1 - e) / 2], [(1 - e) / 2, (1 + e) / 2]], atol=1e-12)
        ph = np.exp(-2j * t)
        assert abs(u[0, 0] - (1 + ph) / 2) <= 1e-12
        assert abs(u[1, 0] - (1 - ph) / 2) <= 1e-12


def test_complete_graph_diagonal_decay():
    # K_n: p_jj(t) = 1/n + (1 - 1/n) e^{-n t}
    for n in (3, 5, 8):
        sd = eigendecompose(laplacian(generate("complete", n)))
        for t in (0.2, 1.0):
            p = propagator_pair(sd, t)[0]
            want = 1 / n + (1 - 1 / n) * np.exp(-n * t)
            assert np.abs(np.diag(p) - want).max() <= 1e-12


@pytest.mark.parametrize("sd", DECS)
def test_first_order_expansion(sd):
    t = 1e-3
    lap = (sd.eigenvectors * sd.eigenvalues) @ sd.eigenvectors.T
    bound = 2 * t**2 * np.abs(sd.eigenvalues).max() ** 2
    assert np.abs(propagator_pair(sd, t)[0] - np.eye(sd.n) - t * lap).max() <= bound


# --- density matrices and fidelity ----------------------------------------------


def random_unitary(rng, n: int) -> np.ndarray:
    q, _ = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    return q


def random_density(rng, n: int) -> DensityMatrix:
    evals = rng.dirichlet(np.ones(n))
    q = random_unitary(rng, n)
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


def test_empty_density_matrix_is_refused():
    # refused by its own rule, before the Hermiticity test reduces over no entries
    for m in (np.zeros((0, 0)), np.zeros((0, 0), dtype=complex)):
        with pytest.raises(ValueError, match="^density matrix must not be empty$"):
            DensityMatrix(m)


def test_non_finite_density_matrices_are_refused():
    for m in (np.diag([np.nan, 1.0]), np.array([[0.5, np.nan], [np.nan, 0.5]])):
        with pytest.raises(ValueError):
            DensityMatrix(m)


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
        u = np.array([random_unitary(rng, n) for _ in range(3)])
        q = rng.dirichlet(np.ones(n), size=(3, 20))
        z = rng.dirichlet(np.ones(n), size=(3, 20))
        batched = classical_quantum_fidelity(q, u, z)
        scalar = [
            uhlmann_fidelity(DensityMatrix.diagonal(qs), DensityMatrix((ui * zs) @ ui.conj().T))
            for ui, q_row, z_row in zip(u, q, z)
            for qs, zs in zip(q_row, z_row)
        ]
        assert batched.shape == (3, 20)
        assert np.abs(batched.ravel() - scalar).max() <= 1e-12


def _bound_cases(rng, n: int):
    """(q, u, z) on 4 random unitaries: random, pure (z = e_j), flat and near-zero weights."""
    u = np.array([random_unitary(rng, n) for _ in range(4)])
    near_zero = rng.dirichlet(np.ones(n), size=(2, 4, 20))
    near_zero[0, ..., 0], near_zero[1, ..., -1] = 1e-18, 1e-20
    near_zero /= near_zero.sum(axis=-1, keepdims=True)
    yield rng.dirichlet(np.ones(n), size=(4, 50)), u, rng.dirichlet(np.ones(n), size=(4, 50))
    yield rng.dirichlet(np.ones(n), size=(4, n)), u, np.broadcast_to(np.eye(n), (4, n, n))
    yield rng.dirichlet(np.ones(n), size=(4, 3)), u, np.full((4, 3, n), 1.0 / n)
    yield near_zero[0], u, near_zero[1]


@pytest.mark.parametrize("n", [2, 3, 5, 8, 10])
def test_affinity_bounds_the_fidelity_from_below(n):
    rng = np.random.Generator(np.random.PCG64(31 + n))
    for q, u, z in _bound_cases(rng, n):
        affinity = classical_quantum_affinity(q, u, z)
        assert affinity.shape == q.shape[:2]
        assert (affinity <= classical_quantum_fidelity(q, u, z) + 1e-15).all()


@pytest.mark.parametrize("sd", DECS)
def test_affinity_is_the_fidelity_where_the_states_commute(sd):
    # at t = 0 the unitary is exactly I: both states are diagonal, and A = F = (sum sqrt(q z))^2
    p, u = propagator_pair(sd, [0.0])
    z = np.random.Generator(np.random.PCG64(sd.n)).dirichlet(np.ones(sd.n), size=(1, 40))
    q = np.clip(z @ p.swapaxes(-1, -2), 0.0, None)
    assert np.abs(classical_quantum_affinity(q, u, z) - classical_quantum_fidelity(q, u, z)).max() <= 1e-15


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


def _fidelity_inputs():
    # T = 3 unitaries, S = 2 launches each, n = 3: every state valid
    rng = np.random.Generator(np.random.PCG64(29))
    u = np.array([random_unitary(rng, 3) for _ in range(3)])
    return rng.dirichlet(np.ones(3), size=(3, 2)), u, rng.dirichlet(np.ones(3), size=(3, 2))


# per DensityMatrix fault, the fault of the fidelity's inputs (q, u, z) in member 2
_FIDELITY_FAULTS = {
    "hermiticity": ("u", "drifts from unitarity by"),
    "trace": ("z", "trace must be 1"),
    "negativity": ("q", "negative eigenvalue"),
}


@pytest.mark.parametrize("fault", ["hermiticity", "trace", "negativity"])
def test_stacked_validation_refuses_a_later_member(fault):
    stack = _faulty_stack(fault)
    with pytest.raises(ValueError):
        DensityMatrix(stack[2])
    for member in stack[:2]:
        DensityMatrix(member)
    # every input of the batched fidelity and its affinity bound is validated, member by member
    q, u, z = _fidelity_inputs()
    classical_quantum_fidelity(q, u, z)
    classical_quantum_affinity(q, u, z)
    which, message = _FIDELITY_FAULTS[fault]
    if which == "u":
        u[2] *= 1 + 1e-8
    elif which == "z":
        z[2, 1] *= 1.5
    else:
        q[2, 1] = [1.2, -0.3, 0.1]
    for fn in (classical_quantum_fidelity, classical_quantum_affinity):
        with pytest.raises(ValueError, match=message):
            fn(q, u, z)
        fn(q[:2], u[:2], z[:2])


_NON_STATES = {
    # rho = diag(1.2, -0.2, 0): Hermitian, unit trace, not positive semidefinite
    "negative z": ("z", [1.2, -0.2, 0.0], "negative eigenvalue -2.000e-01"),
    "off-trace z": ("z", [0.5, 0.3, 0.3], "trace must be 1"),
    "negative q": ("q", [1.2, -0.2, 0.0], "negative eigenvalue -2.000e-01"),
    # a real trace prints as a real number
    "off-trace q": ("q", [0.5, 0.3, 0.1], "trace must be 1, got 0.9$"),
    "non-finite z": ("z", [np.nan, 0.5, 0.5], "trace must be 1"),
    "non-unitary u": ("u", np.diag([1.0, 1.0, 1.0 + 1e-8]), r"u\[2\] drifts from unitarity by"),
    "non-finite u": ("u", np.diag([1.0, 1.0, np.nan]), r"u\[2\] drifts from unitarity by nan"),
}


@pytest.mark.parametrize("case", _NON_STATES)
def test_non_states_are_refused_before_any_eigensolve(monkeypatch, case):
    # the fidelity takes only (q, u, z), so a state that is not a density matrix cannot
    # reach it: a bad weight vector or unitary in a later member is refused up front
    q, u, z = _fidelity_inputs()
    u[2] = np.eye(3)
    which, value, message = _NON_STATES[case]
    if which == "u":
        u[2] = value
    else:
        {"q": q, "z": z}[which][2, 1] = value
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda *a, **k: pytest.fail("eigvalsh ran"))
    # the affinity bound refuses the same inputs with the same message
    refusals = []
    for fn in (classical_quantum_fidelity, classical_quantum_affinity):
        with pytest.raises(ValueError, match=message) as refused:
            fn(q, u, z)
        refusals.append(str(refused.value))
    assert refusals[0] == refusals[1]


def test_batched_fidelity_refuses_mismatched_shapes():
    q, u, z = _fidelity_inputs()
    for args in (
        (q[0], u, z),  # q not (T, S, n)
        (q, u, z[:, :, :2]),  # z of another n
        (q, u[:2], z),  # a unitary short of T
        (q, u[:, :2, :2], z),  # unitaries of another n
        (q[:1, :0], u[:1], z[:1, :0]),  # no launch: refused here, not by a reduction over nothing
        (q[:0], u[:0], z[:0]),  # no unitary
    ):
        for fn in (classical_quantum_fidelity, classical_quantum_affinity):
            with pytest.raises(ValueError, match=r"need q and z of shape .*, with T, S and n at least 1$"):
                fn(*args)


@pytest.mark.parametrize(
    "q, z, expected",
    [
        ([0.5, 0.5 + 1e-11, -1e-11], [0.2, 0.3, 0.5], 0.49494897),
        ([0.2, 0.3, 0.5], [0.5, 0.5 + 1e-11, -1e-11], 0.49494897),
        ([1.0 + 1e-11, -1e-11, 0.0], [0.2, 0.3, 0.5], 0.2),
    ],
    ids=["negative-q", "negative-z", "pure-q"],
)
def test_tolerated_negative_weights_read_as_zero(q, z, expected):
    # a weight above NEGATIVITY_TOL passes validation; it must not reach a square root as a
    # negative number. Both functions give the clipped inputs' values, with no warning
    q, z, u = np.array(q)[None, None], np.array(z)[None, None], np.eye(3)[None]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for fn in (classical_quantum_fidelity, classical_quantum_affinity):
            value = fn(q, u, z)[0, 0]
            assert value == fn(np.clip(q, 0.0, None), u, np.clip(z, 0.0, None))[0, 0]
            assert value == pytest.approx(expected, abs=1e-8)
