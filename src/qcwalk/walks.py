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
stacked product per matrix above) into one work buffer that every block of
the call reuses. :func:`reduce_propagators` then reduces it in that buffer:
|a|^2 = re^2 + im^2, and p |a|^2, |a| and sqrt(p) |a| overwrite the three
stacks before BLAS column sums write F, C and G into the result. So a
block allocates no array of n**2 entries per point, and at small n the
per-point cost is flops, not call overhead; from n = 91 on a block is one
point. A point's values do not depend on the blocks, except in the last
bits at some n between 17 and 31 (see real_propagators). Every distance
quantity, curve, CLI column and figure preset reads from it, so a time
point costs one propagator pair however many quantities and nodes are
asked for. The value at one launch node j is entry j of the last axis:
``obs.fidelity[..., j]``, or a law of :mod:`qcwalk.distance` applied to the
record.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .spectral import NEGATIVITY_TOL, SpectralDecomposition, real_propagators

__all__ = ["NodeObservables", "time_blocks", "reduce_propagators", "node_observables"]

#: element budget B of one propagator block: max(1, B // n**2) time points, so each of
#: its three real matrix stacks holds at most B entries. A kernel call forms and reduces
#: every block in one work buffer, so no fresh block-sized array has to stay under glibc's
#: 128 KiB mmap threshold. Of 8000, 16384, 24576 and 32768, 16384 ran the kernel fastest on
#: 40 points at n = 60 and within 0.14 ms of the fastest on 400 points at n = 11, with
#: 0.4 MB less peak RSS than 24576 (the table in the README's "Cost" paragraph).
BLOCK_ELEMENTS = 16384


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


def reduce_propagators(props: np.ndarray, out: np.ndarray | None = None) -> NodeObservables:
    """The reduction step: F, C and G from a stack of exp(L t) and exp(i L t), column by column.

    ``props`` is a float array of shape ``(3,) + shape + (n, n)`` holding
    exp(L t), Re exp(i L t) and Im exp(i L t), the layout real_propagators
    writes. It is the reduction's work space and is overwritten, so the
    reduction allocates no array of its size. Every entry of exp(L t) is
    checked and clipped into [0, 1] first; an entry more negative than
    roundoff allows, or a NaN one, means a corrupted decomposition and
    raises ValueError naming the first such point's minimum. Then |a|^2 =
    re^2 + im^2 and |a| its square root, all in real arithmetic, and the
    three stacks become p |a|^2, |a| and sqrt(p) |a|, whose column sums give
    F, C and G.
    ``out``, of shape ``(3,) + shape + (n,)``, receives F, C and G if
    given; the result is views of it.
    """
    p, re, im = props
    smallest = p.min(axis=(-2, -1))
    bad = ~(smallest >= NEGATIVITY_TOL)  # a NaN minimum is bad too
    if bad.any():
        raise ValueError(f"classical distribution has negative entry {float(smallest[bad].flat[0]):.3e}")
    np.clip(p, 0.0, 1.0, out=p)
    re *= re
    im *= im
    re += im  # |a|^2
    np.sqrt(p, out=im)
    p *= re  # p |a|^2
    np.sqrt(re, out=re)  # |a|
    im *= re  # sqrt(p) |a|
    # column sums as stacked vector-matrix products (BLAS), not strided reductions
    out = np.matmul(np.ones(p.shape[-1]), props, out=out)
    fidelity, coherence, gfid = out
    np.clip(fidelity, 0.0, 1.0, out=fidelity)
    np.square(coherence, out=coherence)
    coherence -= 1.0
    np.maximum(coherence, 0.0, out=coherence)
    np.clip(gfid, 0.0, 1.0, out=gfid)
    return NodeObservables(fidelity, coherence, gfid)


def node_observables(sd: SpectralDecomposition, t) -> NodeObservables:
    """The kernel: F, C and G over all launch nodes at one time or on a grid.

    The result has shape ``np.shape(t) + (n,)``; a single time is the
    one-point case of the same sweep. Each block of :func:`time_blocks`
    forms its propagator pair with real_propagators into one work buffer,
    reused by every block, and :func:`reduce_propagators` reduces it there,
    writing the block's F, C and G straight into the result.
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
        real_propagators(sd, block, props)
        reduce_propagators(props, out[:, b])
    return NodeObservables(*out.reshape((3,) + times.shape + (n,)))
