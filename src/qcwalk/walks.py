"""Node-local observables of the paired classical and quantum walks.

Every quantity here conditions on a launch node j: the classical walk
starts from the point mass at j and the quantum walk from the basis state
|j>. The three scalar summaries are

* localized fidelity  F_j(t) = sum_k p_kj |a_kj|^2,
  the overlap between the classical occupation distribution and the quantum
  one, weighted so it equals the Uhlmann fidelity between the dephased
  classical state and the pure quantum state;
* coherence           C_j(t) = (sum_k |a_kj|)^2 - 1,
  the l1 coherence of the quantum state in the node basis, rescaled so a
  basis state gives 0 and a flat superposition gives n - 1;
* classical fidelity  G_j(t) = sum_k sqrt(p_kj) |a_kj|,
  the Bhattacharyya overlap between the classical distribution and the
  quantum measurement distribution |a|^2.

Here p_kj is column j of exp(L t) and a_kj is column j of exp(i L t).

:func:`node_observables` is the one numerical kernel: for one time or a
whole grid it forms the propagator pair of each point once and reduces it
column by column to the vectors F, C and G over all launch nodes, shape
``np.shape(t) + (n,)``. A grid is swept in blocks of
``max(1, BLOCK_ELEMENTS // n**2)`` points. Each block's pair is formed in
real arithmetic, as exp(L t), Re exp(i L t) and Im exp(i L t), by
:func:`qcwalk.spectral.real_propagators` (one GEMM at small n, one
stacked product per matrix above), and reduced with |a|^2 = re^2 + im^2.
So at small n the per-point cost is flops, not call overhead; at n >= 64
a block is one point. Every distance quantity,
curve, CLI column and figure preset reads from it, so a time point costs
one propagator pair however many quantities and nodes are asked for. The
value at one launch node j is entry j of the last axis:
``obs.fidelity[..., j]``, or a law of :mod:`qcwalk.distance` applied to the
record.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .spectral import NEGATIVITY_TOL, SpectralDecomposition, real_propagators

__all__ = ["NodeObservables", "time_blocks", "reduce_propagators", "node_observables"]

#: element budget B of one propagator block: max(1, B // n**2) time points, so each of
#: its three real matrix stacks holds at most B entries. node_observables writes every
#: block into one buffer per call: a fresh 3 * B-entry array per block lies above glibc's
#: default 128 KiB mmap threshold and was page-faulted in anew for most blocks.
BLOCK_ELEMENTS = 8000


def check_node(sd: SpectralDecomposition, j: int) -> int:
    j = int(j)
    if not 0 <= j < sd.n:
        raise ValueError(f"node {j} out of range for n={sd.n}")
    return j


@dataclass(frozen=True)
class NodeObservables:
    """F_j(t), C_j(t) and G_j(t), shape np.shape(t) + (n,); the last axis is the launch node j."""

    fidelity: np.ndarray  # clamped into [0, 1]
    coherence: np.ndarray  # clamped to be nonnegative
    gfid: np.ndarray  # clamped into [0, 1]

    @property
    def n(self) -> int:
        return self.fidelity.shape[-1]


def time_blocks(elements: int, count: int) -> list[slice]:
    """Slices over ``count`` items, ``max(1, BLOCK_ELEMENTS // elements)`` items each.

    ``elements`` is the entry count of one item, ``n * n`` for the propagator
    of one grid point, so a block holds at most BLOCK_ELEMENTS entries.
    """
    size = max(1, BLOCK_ELEMENTS // elements)
    return [slice(start, start + size) for start in range(0, count, size)]


def reduce_propagators(p: np.ndarray, re: np.ndarray, im: np.ndarray) -> NodeObservables:
    """The reduction step: F, C and G from stacks of exp(L t) and exp(i L t), column by column.

    ``re`` and ``im`` are the real and imaginary parts of exp(i L t), so
    |a|^2 = re^2 + im^2 and |a| its square root, all in real arithmetic.
    Every entry of exp(L t) is checked and clipped into [0, 1] before the
    reductions; an entry more negative than roundoff allows means a corrupted
    decomposition and raises ValueError naming the first such point's minimum.
    """
    smallest = p.min(axis=(-2, -1))
    bad = smallest < NEGATIVITY_TOL
    if bad.any():
        raise ValueError(f"classical distribution has negative entry {float(smallest[bad].flat[0]):.3e}")
    p = np.clip(p, 0.0, 1.0)
    amp2 = re * re + im * im
    amp = np.sqrt(amp2)
    # column sums as stacked vector-matrix products (BLAS), not strided reductions
    ones = np.ones(p.shape[-1])
    return NodeObservables(
        fidelity=np.clip(ones @ (p * amp2), 0.0, 1.0),
        coherence=np.maximum((ones @ amp) ** 2 - 1.0, 0.0),
        gfid=np.clip(ones @ (np.sqrt(p) * amp), 0.0, 1.0),
    )


def node_observables(sd: SpectralDecomposition, t) -> NodeObservables:
    """The kernel: F, C and G over all launch nodes at one time or on a grid.

    The result has shape ``np.shape(t) + (n,)``; a single time is the
    one-point case of the same sweep. Each block of :func:`time_blocks`
    forms its propagator pair with real_propagators, into one buffer
    reused by every block, and passes it to :func:`reduce_propagators`.
    """
    times = np.asarray(t, dtype=float)
    flat = times.reshape(-1)
    n = sd.n
    out = np.empty((3, flat.size, n))
    blocks = time_blocks(n * n, flat.size)
    work = np.empty(3 * (flat[blocks[0]].size if blocks else 0) * n * n)
    for b in blocks:
        block = flat[b]
        props = work[: 3 * block.size * n * n].reshape(3, block.size, n, n)
        obs = reduce_propagators(*real_propagators(sd, block, props))
        out[0, b], out[1, b], out[2, b] = obs.fidelity, obs.coherence, obs.gfid
    return NodeObservables(*out.reshape((3,) + times.shape + (n,)))
