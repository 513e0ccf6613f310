"""Spectral machinery shared by the classical and quantum walks.

Both propagators come from one symmetric eigendecomposition of the
Laplacian: the classical (heat) semigroup exp(L t) and the quantum unitary
exp(i L t) differ only in how the eigenvalues are exponentiated. Computing
the decomposition once and reusing it across a whole time grid is what
keeps long curves cheap, so every walk-level routine accepts a
SpectralDecomposition rather than a raw matrix.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import Laplacian

__all__ = [
    "SpectralDecomposition",
    "DensityMatrix",
    "check_density",
    "eigendecompose",
    "heat_propagator",
    "unitary_propagator",
    "uhlmann_fidelity",
    "classical_quantum_fidelity",
]

#: eigenvalue magnitudes at or below this count as the flat zero mode
ZERO_MODE_TOL = 1e-9

_HERMITICITY_TOL = 1e-12
_TRACE_TOL = 1e-10
_NEGATIVITY_TOL = -1e-10

#: a state whose largest eigenvalue exceeds this is treated as pure
_PURE_THRESHOLD = 1.0 - 1e-12


def _is_connected(eigenvalues: np.ndarray) -> bool:
    # sorted by modulus: a repeated zero eigenvalue means more than one component
    return eigenvalues.size == 1 or abs(eigenvalues[1]) > ZERO_MODE_TOL


@dataclass(frozen=True)
class SpectralDecomposition:
    """Eigensystem of a graph Laplacian, sorted by eigenvalue magnitude.

    ``eigenvalues[0]`` is the zero mode (the flat vector for connected
    graphs); ``eigenvalues[1]`` is the algebraic connectivity up to sign.
    Columns of ``eigenvectors`` hold the matching orthonormal eigenvectors.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.eigenvalues, dtype=float)
        vecs = np.asarray(self.eigenvectors, dtype=float)
        if vals.ndim != 1 or vecs.shape != (vals.size, vals.size):
            raise ValueError("eigenvalues and eigenvectors have mismatched shapes")
        vals.setflags(write=False)
        vecs.setflags(write=False)
        object.__setattr__(self, "eigenvalues", vals)
        object.__setattr__(self, "eigenvectors", vecs)

    @property
    def n(self) -> int:
        return self.eigenvalues.size

    @property
    def is_connected(self) -> bool:
        return _is_connected(self.eigenvalues)

    @property
    def fiedler(self) -> float:
        """Magnitude of the first nonzero eigenvalue (0.0 if disconnected)."""
        if self.n < 2:
            raise ValueError("fiedler value needs at least two nodes")
        mag = abs(float(self.eigenvalues[1]))
        return mag if mag > ZERO_MODE_TOL else 0.0


def eigendecompose(lap: Laplacian) -> SpectralDecomposition:
    """Symmetric eigendecomposition sorted by |eigenvalue|, zero mode first.

    numpy's eigh already returns ascending eigenvalues, but the Laplacian
    here is negative semidefinite, so ascending order puts the zero mode
    last; the stable argsort by modulus pins it at index 0 instead.

    A connected graph's zero mode is then pinned to eigenvalue 0.0 and the
    flat vector 1/sqrt(n): eigh's roundoff (|lambda_0| up to ~1e-14) makes
    exp(lambda_0 t) drift from 1 at large t and corrupts the plateau.
    """
    vals, vecs = np.linalg.eigh(lap.matrix)
    order = np.argsort(np.abs(vals), kind="stable")
    vals, vecs = vals[order], vecs[:, order]
    if _is_connected(vals):
        vals[0] = 0.0
        vecs[:, 0] = 1.0 / np.sqrt(vals.size)
    return SpectralDecomposition(vals, vecs)


def heat_propagator(sd: SpectralDecomposition, t: float) -> np.ndarray:
    """exp(L t): the classical transition-probability matrix at time t.

    Column j holds the occupation distribution after starting at node j.
    Because the Laplacian is symmetric with zero row sums, the result is
    doubly stochastic for t >= 0. Negative t is rejected: the semigroup
    does not run backwards. So is a non-finite t.
    """
    t = float(t)
    if not (np.isfinite(t) and t >= 0):
        raise ValueError(f"heat propagator needs finite t >= 0, got {t}")
    if t == 0.0:
        # exactly the identity, not the identity up to roundoff
        return np.eye(sd.n)
    # exp(lambda t) with lambda <= 0 underflows harmlessly to 0 for large t
    weights = np.exp(sd.eigenvalues * t)
    return (sd.eigenvectors * weights) @ sd.eigenvectors.T


def unitary_propagator(sd: SpectralDecomposition, t: float) -> np.ndarray:
    """exp(i L t): the quantum walk unitary at time t (complex, unitary); any finite t."""
    t = float(t)
    if not np.isfinite(t):
        raise ValueError(f"unitary propagator needs finite t, got {t}")
    if t == 0.0:
        return np.eye(sd.n, dtype=complex)
    phases = np.exp(1j * sd.eigenvalues * t)
    return (sd.eigenvectors * phases) @ sd.eigenvectors.T


def check_density(m: np.ndarray, eigenvalues: np.ndarray | None = None) -> np.ndarray:
    """Validate a density matrix, or a stack (..., n, n) of them; return the eigenvalues.

    Every member must be square, Hermitian, of unit trace and positive
    semidefinite, within the tolerances DensityMatrix uses. The eigenvalues
    come from one (stacked) eigvalsh unless the caller already knows them:
    a diagonal state's eigenvalues are its diagonal.
    """
    m = np.asarray(m)
    if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
        raise ValueError("density matrix must be square")
    if np.abs(m - np.swapaxes(m, -1, -2).conj()).max() > _HERMITICITY_TOL:
        raise ValueError("density matrix must be Hermitian")
    tr = np.trace(m, axis1=-2, axis2=-1)
    off = np.abs(tr - 1.0) > _TRACE_TOL
    if off.any():
        raise ValueError(f"density matrix trace must be 1, got {complex(tr[off].flat[0]):.12g}")
    vals = np.linalg.eigvalsh(m) if eigenvalues is None else np.asarray(eigenvalues)
    smallest = float(vals.min())
    if smallest < _NEGATIVITY_TOL:
        raise ValueError(f"density matrix has negative eigenvalue {smallest:.3e}")
    return vals


@dataclass(frozen=True)
class DensityMatrix:
    """Validated density matrix: Hermitian, unit trace, positive semidefinite."""

    matrix: np.ndarray

    def __post_init__(self):
        m = np.array(self.matrix, dtype=complex)
        if m.ndim != 2:
            raise ValueError("density matrix must be square")
        check_density(m)
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    @property
    def n(self) -> int:
        return self.matrix.shape[0]

    @classmethod
    def diagonal(cls, p) -> "DensityMatrix":
        """Classical state: probabilities on the diagonal, no coherences."""
        p = np.asarray(p, dtype=float)
        return cls(np.diag(p).astype(complex))

    @classmethod
    def pure(cls, psi) -> "DensityMatrix":
        """Rank-one projector |psi><psi| from a normalized state vector."""
        psi = np.asarray(psi, dtype=complex)
        return cls(np.outer(psi, psi.conj()))


def _psd_sqrt(m: np.ndarray) -> np.ndarray:
    vals, vecs = np.linalg.eigh(m)
    vals = np.clip(vals, 0.0, None)
    return (vecs * np.sqrt(vals)) @ vecs.conj().T


def uhlmann_fidelity(rho1: DensityMatrix, rho2: DensityMatrix) -> float:
    """Fidelity [tr sqrt(sqrt(rho1) rho2 sqrt(rho1))]^2, clamped to [0, 1].

    Shortcut for rank-one inputs: if either state is pure |psi><psi| the
    fidelity collapses to <psi| rho |psi>, which is both faster and better
    conditioned than the nested square roots.
    """
    if rho1.n != rho2.n:
        raise ValueError("density matrices must have equal dimension")
    for pure, other in ((rho1, rho2), (rho2, rho1)):
        vals, vecs = np.linalg.eigh(pure.matrix)
        if vals[-1] > _PURE_THRESHOLD:
            psi = vecs[:, -1]
            return float(np.clip((psi.conj() @ other.matrix @ psi).real, 0.0, 1.0))
    root = _psd_sqrt(rho1.matrix)
    inner = root @ rho2.matrix @ root
    vals = np.clip(np.linalg.eigvalsh(inner), 0.0, None)
    return float(np.clip(np.sqrt(vals).sum() ** 2, 0.0, 1.0))


def classical_quantum_fidelity(q, rho) -> np.ndarray:
    """Uhlmann fidelity of diag(q[s]) and rho[s] for a stack of S state pairs.

    ``q`` is (S, n), one classical (diagonal) state per row; ``rho`` is
    (S, n, n). Both stacks are validated like DensityMatrix. sqrt(diag(q))
    is elementwise, so each mixed pair costs one eigvalsh of
    sqrt(q_i) rho_ij sqrt(q_j), all S in one stacked call. Rows where either
    state is pure take the exact closed form F = sum_k q_k rho_kk instead
    (<psi|diag(q)|psi> when rho is |psi><psi|, rho_kk when q is e_k), the
    same rank-one shortcut uhlmann_fidelity takes.
    """
    q = np.asarray(q, dtype=float)
    rho = np.asarray(rho, dtype=complex)
    if q.ndim != 2 or rho.shape != q.shape + q.shape[-1:]:
        raise ValueError("need q of shape (S, n) and rho of shape (S, n, n)")
    check_density(q[:, :, None] * np.eye(q.shape[1]), eigenvalues=q)
    rho_vals = check_density(rho)
    pure = (q.max(axis=1) > _PURE_THRESHOLD) | (rho_vals[:, -1] > _PURE_THRESHOLD)
    root = np.sqrt(q)
    inner = root[:, :, None] * rho * root[:, None, :]
    vals = np.clip(np.linalg.eigvalsh(inner), 0.0, None)
    mixed = np.sqrt(vals).sum(axis=1) ** 2
    rank_one = np.einsum("sk,skk->s", q, rho).real
    return np.clip(np.where(pure, rank_one, mixed), 0.0, 1.0)
