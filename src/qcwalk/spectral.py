"""Spectral machinery shared by the classical and quantum walks.

Both propagators come from one symmetric eigendecomposition of the
Laplacian: the classical (heat) semigroup exp(L t) and the quantum unitary
exp(i L t) differ only in how the eigenvalues are exponentiated. Computing
the decomposition once and reusing it across a whole time grid is what
keeps long curves cheap, so every walk-level routine accepts a
SpectralDecomposition rather than a raw matrix; connectivity and the
Fiedler value read the eigenvalue clusters :func:`eigendecompose` merges.

:func:`real_propagators` is the one place the spectrum is exponentiated:
it forms the pair as three real matrices, exp(L t), Re exp(i L t) and
Im exp(i L t), for the kernel (:mod:`qcwalk.walks`) and for the
optimality sweep and invariant checks of :mod:`qcwalk.checks` alike; a
caller that needs the complex unitary forms re + 1j * im.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

__all__ = ["SpectralDecomposition", "eigendecompose", "real_propagators"]

#: how negative a probability (a state's eigenvalue, an entry of exp(L t)) may be
NEGATIVITY_TOL = -1e-10

#: real_propagators forms a block as one GEMM against the pair products while n is at most
#: this, and as one stacked product per matrix above it. Timed with one BLAS thread on
#: 400-point grids, the GEMM was faster up to n = 36, level at n = 40 and slower from n = 44,
#: where its pair products (n**3 entries) outgrow the cache; n = 32 keeps them at 256 KiB.
PAIR_PRODUCT_MAX_N = 32


@dataclass(frozen=True)
class SpectralDecomposition:
    """Eigensystem of a graph Laplacian, sorted by eigenvalue magnitude.

    ``eigenvalues[0]`` is the zero mode, exactly 0.0 (the flat vector for
    connected graphs); ``eigenvalues[1]`` is the algebraic connectivity up
    to sign, exactly 0.0 when the graph is disconnected. Columns of
    ``eigenvectors`` hold the matching orthonormal eigenvectors.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def __post_init__(self):
        # copies, so freezing them leaves the caller's arrays writeable
        vals = np.array(self.eigenvalues, dtype=float)
        vecs = np.array(self.eigenvectors, dtype=float)
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
        # eigendecompose sets the whole zero cluster to 0.0: a second zero is a second component
        return self.n == 1 or self.eigenvalues[1] != 0.0

    @functools.cached_property
    def pair_products(self) -> np.ndarray:
        """W[a, j * n + k] = V[j, a] V[k, a], shape (n, n * n): f @ W is V diag(f) V^T, flattened."""
        vecs = self.eigenvectors
        return (vecs.T[:, :, None] * vecs.T[:, None, :]).reshape(self.n, -1)

    @property
    def fiedler(self) -> float:
        """Magnitude of the first nonzero eigenvalue (0.0 if disconnected)."""
        if self.n < 2:
            raise ValueError("fiedler value needs at least two nodes")
        return abs(float(self.eigenvalues[1]))


def eigendecompose(matrix) -> SpectralDecomposition:
    """Symmetric eigendecomposition of a Laplacian, sorted by |eigenvalue|, zero mode first.

    ``matrix``, taken as a float array, must be square, have at least one
    row, be exactly symmetric and have row sums within 1e-12 of zero, checked
    in that order; else ValueError: ``Laplacian must be a square matrix``,
    ``Laplacian must have at least one node``, ``... exactly symmetric`` or
    ``Laplacian rows must sum to zero (max |sum| = ...)``.

    eigh spreads an exactly repeated eigenvalue, and the phases e^{i lambda t}
    of one eigenspace then drift apart by t times the spread. So neighbours of
    eigh's ascending eigenvalues at most n * eps * max|lambda| apart (the scale
    of its backward error) form a cluster, set to its mean. The cluster of the
    largest eigenvalue is the zero mode, set to 0.0 so exp(lambda_0 t) stays 1
    at large t; if it has one member (a connected graph) its vector is the
    flat 1/sqrt(n). The stable argsort by modulus puts that cluster first.
    """
    m = np.asarray(matrix, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError("Laplacian must be a square matrix")
    if not m.size:
        raise ValueError("Laplacian must have at least one node")
    if not np.array_equal(m, m.T):
        raise ValueError("Laplacian must be exactly symmetric")
    worst_row = float(np.abs(m.sum(axis=1)).max())
    if worst_row > 1e-12:
        raise ValueError(f"Laplacian rows must sum to zero (max |sum| = {worst_row:.3e})")
    vals, vecs = np.linalg.eigh(m)
    tol = vals.size * np.finfo(float).eps * np.abs(vals).max()
    cluster = np.concatenate(([0], np.cumsum(np.diff(vals) > tol)))
    size = np.bincount(cluster)
    merged = (np.bincount(cluster, vals) / size)[cluster]
    merged[cluster == cluster[-1]] = 0.0
    if size[-1] == 1:
        vecs[:, -1] = 1.0 / np.sqrt(vals.size)
    order = np.argsort(np.abs(merged), kind="stable")
    return SpectralDecomposition(merged[order], vecs[:, order])


def _refuse(t: np.ndarray, ok: np.ndarray, needs: str) -> None:
    """ValueError naming the first point of ``t`` where ``ok`` is false."""
    if not ok.all():
        raise ValueError(f"{needs}, got {float(t[~ok].flat[0])}")


def real_propagators(sd: SpectralDecomposition, t, out=None) -> np.ndarray:
    """exp(L t), Re exp(i L t) and Im exp(i L t), stacked: a real array of shape (3,) + np.shape(t) + (n, n).

    The propagator pair of the kernel, the optimality sweep and the
    invariant checks; ``p, re, im = real_propagators(sd, t)`` unpacks it.
    ``t`` is one time or a grid, each point with its own three matrices.
    Column j of exp(L t) is the occupation distribution after starting at
    node j, doubly stochastic because L is symmetric with zero row sums.
    Negative t is refused (the semigroup does not run backwards), and so is
    a non-finite t and one whose phase t max|lambda| overflows; the message
    names the first such point. The phases lambda t are evaluated once for
    all three. At n <= PAIR_PRODUCT_MAX_N the block is one GEMM,
    [exp(lambda t); cos(lambda t); sin(lambda t)] times sd.pair_products;
    above it, one stacked product V diag(f) V^T per matrix. The route
    depends on n alone. A point's values then do not depend on how a grid
    is split into calls, except where OpenBLAS's GEMM rounds a row
    differently with the number of rows: on 200-point grids that was so at
    n = 17, 19, 21-23, 25-27 and 29-31, by up to about 1e-14 in F, C or G.
    Where t == 0 the three are exactly I, I and 0.

    ``out``, if given, is a C-contiguous float array of that shape which
    receives the stack (a caller sweeping blocks reuses one) and is returned.
    """
    t = np.asarray(t, dtype=float)
    _refuse(t, np.isfinite(t) & (t >= 0), "heat propagator needs finite t >= 0")
    with np.errstate(over="ignore"):
        phases = sd.eigenvalues * t[..., None]
    _refuse(t, np.isfinite(phases).all(axis=-1), "heat propagator needs a finite phase t * max|lambda|")
    factors = np.empty((3,) + phases.shape)
    # exp(lambda t) with lambda <= 0 underflows harmlessly to 0 for large t
    np.exp(phases, out=factors[0])
    np.cos(phases, out=factors[1])
    np.sin(phases, out=factors[2])
    n = sd.n
    if out is None:
        out = np.empty(factors.shape + (n,))
    elif out.shape != factors.shape + (n,) or out.dtype != float or not out.flags.c_contiguous:
        raise ValueError(f"out must be a C-contiguous float array of shape {factors.shape + (n,)}")
    if n <= PAIR_PRODUCT_MAX_N:
        np.matmul(factors.reshape(-1, n), sd.pair_products, out=out.reshape(-1, n * n))
    else:
        np.matmul(sd.eigenvectors * factors[..., None, :], sd.eigenvectors.T, out=out)
    zero = t == 0.0
    if zero.any():
        out[:2, zero] = np.eye(n)
        out[2, zero] = 0.0
    return out

