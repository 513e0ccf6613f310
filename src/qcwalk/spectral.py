"""Spectral machinery shared by the classical and quantum walks.

Both propagators come from one symmetric eigendecomposition of the
Laplacian: the classical (heat) semigroup exp(L t) and the quantum unitary
exp(i L t) differ only in how the eigenvalues are exponentiated. Computing
the decomposition once and reusing it across a whole time grid is what
keeps long curves cheap, so every walk-level routine accepts a
SpectralDecomposition rather than a raw matrix; connectivity and the
Fiedler value read the eigenvalue clusters :func:`eigendecompose` merges.

:func:`form_propagators` is the one place the spectrum is exponentiated:
it forms the pair as three real matrices, exp(L t), Re exp(i L t) and
Im exp(i L t), for the kernel (:mod:`qcwalk.walks`) and for the
optimality sweep and invariant checks of :mod:`qcwalk.checks` alike. The
Laplacian is symmetric, so all three are too: while n is at most
PAIR_PRODUCT_MAX_N it forms only their n(n+1)/2 distinct entries, the
pairs j <= k in ``np.triu_indices(n)`` order. This module alone reads
that stack: :func:`reduce_propagators` reduces it in place, column by
column, to the F, C and G of every launch node, for the kernel and the
checks alike, and :func:`full_propagators` reads the pair off it, the real
exp(L t) and the complex exp(i L t) as (n, n) matrices in new arrays, for
the checks that read whole matrices.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

__all__ = ["SpectralDecomposition", "eigendecompose", "form_propagators", "full_propagators", "reduce_propagators"]

#: how negative a probability (a state's eigenvalue, an entry of exp(L t)) may be
NEGATIVITY_TOL = -1e-10

#: form_propagators forms each point's n(n+1)/2 distinct entries per matrix by one GEMM against
#: the packed pair products while n is at most this, and the full matrices by one product per
#: matrix above it. Timed with one BLAS thread, the packed kernel took 0.6 of the full one's
#: time at n = 11 and 0.9 at n = 32, but 1.05 at n = 40 and 1.4 at n = 60 (the README's "Cost"
#: paragraph); n = 32 keeps the pair products at 132 KiB.
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
        object.__setattr__(self, "eigenvalues", _frozen(vals))
        object.__setattr__(self, "eigenvectors", _frozen(vecs))

    @property
    def n(self) -> int:
        return self.eigenvalues.size

    @property
    def is_connected(self) -> bool:
        # eigendecompose sets the whole zero cluster to 0.0: a second zero is a second component
        return self.n == 1 or self.eigenvalues[1] != 0.0

    @property
    def propagator_shape(self) -> tuple[int, ...]:
        """Trailing shape of one matrix as form_propagators writes it: (n(n+1)/2,) or (n, n)."""
        n = self.n
        return (n * (n + 1) // 2,) if n <= PAIR_PRODUCT_MAX_N else (n, n)

    @functools.cached_property
    def pair_products(self) -> np.ndarray:
        """W[a, i] = V[j, a] V[k, a] for the i-th pair (j, k) of np.triu_indices(n), shape (n, n(n+1)/2).

        f @ W packs V diag(f) V^T: its entries on and above the diagonal, row by row.
        """
        j, k, _, _ = _pairs(self.n)
        vecs = self.eigenvectors
        return _frozen(np.ascontiguousarray((vecs[j] * vecs[k]).T))

    @property
    def fiedler(self) -> float:
        """Magnitude of the first nonzero eigenvalue (0.0 if disconnected)."""
        if self.n < 2:
            raise ValueError("fiedler value needs at least two nodes")
        return abs(float(self.eigenvalues[1]))


def _frozen(array: np.ndarray) -> np.ndarray:
    array.setflags(write=False)
    return array


@functools.cache
def _pairs(n: int) -> tuple[np.ndarray, ...]:
    """The packed layout of n nodes, read-only and built once per n, as it depends on n alone.

    The pairs j <= k of np.triu_indices(n) as rows j and columns k, the index
    I[j, k] = I[k, j] of each pair in the layout, and the incidence M[i, j],
    1 where node j is in pair i. verify decomposes some twenty graphs of ten
    or fewer nodes per run, so building these per decomposition cost it
    about a fifth of its time.
    """
    j, k = np.triu_indices(n)
    index = np.empty((n, n), dtype=np.intp)
    index[j, k] = index[k, j] = np.arange(j.size)
    incidence = np.zeros((j.size, n))
    incidence[index, np.arange(n)] = 1.0
    return _frozen(j), _frozen(k), _frozen(index), _frozen(incidence)


def eigendecompose(matrix) -> SpectralDecomposition:
    """Symmetric eigendecomposition of a Laplacian, sorted by |eigenvalue|, zero mode first.

    ``matrix``, taken as a float array, must be square, have at least one
    row, have only finite entries, be exactly symmetric and have row sums
    within 1e-12 of zero, checked in that order; else ValueError:
    ``Laplacian must be a square matrix``, ``Laplacian must have at least
    one node``, ``Laplacian must be finite``, ``... exactly symmetric`` or
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
    if not np.isfinite(m).all():
        raise ValueError("Laplacian must be finite")
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


def form_propagators(sd: SpectralDecomposition, t, out=None) -> np.ndarray:
    """exp(L t), Re exp(i L t) and Im exp(i L t), stacked: shape (3,) + np.shape(t) + sd.propagator_shape.

    The one formation step of the propagator pair, for the kernel and the
    checks of verify. ``t`` is one time or a grid, each point with its own
    three matrices. Column j of exp(L t) is the occupation distribution
    after starting at node j, doubly stochastic because L is symmetric with
    zero row sums. Negative t is refused (the semigroup does not run
    backwards), and so is a non-finite t and one whose phase t max|lambda|
    overflows; the message names the first such point. The phases lambda t
    are evaluated once for all three.

    At n <= PAIR_PRODUCT_MAX_N each matrix is packed: the last axis holds
    its n(n+1)/2 entries (j, k), j <= k, in np.triu_indices(n) order, and
    each point is one GEMM, its [exp(lambda t); cos(lambda t); sin(lambda t)]
    of shape (3, n) times sd.pair_products. Above it each matrix is full,
    (n, n), one product V diag(f) V^T. So every point's BLAS calls have one
    shape however many points share the call, and a point's values do not
    depend on how a grid is split into calls. Where t == 0 the three are
    exactly I, I and 0.

    ``out``, if given, is a C-contiguous 1-d float array of the stack's size
    whose memory receives it (a caller sweeping blocks reuses one); the
    stack returned is a view of it.
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
    n, entries = sd.n, sd.propagator_shape
    size = 3 * t.size * math.prod(entries)
    if out is None:
        out = np.empty(size)
    elif out.shape != (size,) or out.dtype != float or not out.flags.c_contiguous:
        raise ValueError(f"out must be a C-contiguous float array of {size} entries")
    props = out.reshape(factors.shape[:-1] + entries)
    packed = len(entries) == 1
    if packed:  # the point axes lead, so the stacked product is one (3, n) GEMM per point
        np.matmul(factors.swapaxes(0, -2), sd.pair_products, out=props.swapaxes(0, -2))
    else:
        np.matmul(sd.eigenvectors * factors[..., None, :], sd.eigenvectors.T, out=props)
    zero = t == 0.0
    if zero.any():
        props[:2, zero] = np.equal(*_pairs(n)[:2]) if packed else np.eye(n)
        props[2, zero] = 0.0
    return props


def full_propagators(sd: SpectralDecomposition, props: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The pair of a stack form_propagators wrote: real exp(L t) and complex exp(i L t).

    Each has shape np.shape(t) + (n, n) and shares no memory with ``props``:
    a packed stack is expanded through the layout's index I[j, k] = I[k, j],
    so entries (j, k) and (k, j) are the same bits, and a full one is copied.
    """
    # p stays a view of the gathered stack: a copy of it moved the last bit of verify's row sums
    p, re, im = props[..., _pairs(sd.n)[2]] if len(sd.propagator_shape) == 1 else props.copy()
    return p, re + 1j * im


def reduce_propagators(sd: SpectralDecomposition, props: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """The reduction step: F, C and G from a stack of exp(L t) and exp(i L t), column by column.

    ``props`` is a float array of shape ``(3,) + shape + sd.propagator_shape``
    holding exp(L t), Re exp(i L t) and Im exp(i L t) in the layout
    form_propagators writes. It is the reduction's work space and is
    overwritten, so the reduction allocates no array of its size. Every
    entry of exp(L t) is checked and clipped into [0, 1] first: for the first
    point with a NaN entry ValueError says ``heat kernel exp(L t) has a NaN
    entry: ...``, and for one with an entry more negative than roundoff
    allows ``classical distribution has negative entry ...``. Then |a|^2 =
    re^2 + im^2 and |a| its square root, all in real arithmetic, and the
    three stacks become p |a|^2, |a| and sqrt(p) |a|, whose column sums give
    F, C and G. The sums are BLAS products, one shape per point however many
    points the stack holds: packed, one GEMM of the point's three rows
    against the layout's incidence M[i, j], 1 where node j is in pair i;
    full, a vector-matrix product per matrix. A non-finite sum can then only
    come from exp(i L t): ValueError ``unitary exp(i L t) has a non-finite
    entry: the decomposition is corrupt``. Returns F, C and G stacked, shape
    ``(3,) + shape + (n,)``: F and G clipped into [0, 1], C clipped to be
    nonnegative. ``out``, of that shape, receives them if given, and is
    returned.
    """
    p, re, im = props
    if not p.min(initial=np.inf) >= NEGATIVITY_TOL:  # a NaN minimum is bad too
        smallest = p.reshape(-1, math.prod(sd.propagator_shape)).min(axis=-1)
        first = float(smallest[~(smallest >= NEGATIVITY_TOL)].flat[0])
        if np.isnan(first):
            raise ValueError("heat kernel exp(L t) has a NaN entry: the decomposition is corrupt")
        raise ValueError(f"classical distribution has negative entry {first:.3e}")
    np.clip(p, 0.0, 1.0, out=p)
    re *= re
    im *= im
    re += im  # |a|^2
    np.sqrt(p, out=im)
    p *= re  # p |a|^2
    np.sqrt(re, out=re)  # |a|
    im *= re  # sqrt(p) |a|
    if len(sd.propagator_shape) == 1:
        if out is None:
            out = np.empty(props.shape[:-1] + (sd.n,))
        np.matmul(props.swapaxes(0, -2), _pairs(sd.n)[3], out=out.swapaxes(0, -2))
    else:
        out = np.matmul(np.ones(sd.n), props, out=out)
    if not np.isfinite(out).all():  # p is finite by now, so a NaN or inf came from the unitary
        raise ValueError("unitary exp(i L t) has a non-finite entry: the decomposition is corrupt")
    fidelity, coherence, gfid = out
    np.clip(fidelity, 0.0, 1.0, out=fidelity)
    np.square(coherence, out=coherence)
    coherence -= 1.0
    np.maximum(coherence, 0.0, out=coherence)
    np.clip(gfid, 0.0, 1.0, out=gfid)
    return out
