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
whole grid it forms the propagator pair of each point once and reduces
it column by column to the vectors F, C and G over all launch nodes,
shape ``np.shape(t) + (n,)``. Each block's pair is formed in real
arithmetic, as exp(L t), Re exp(i L t) and Im exp(i L t), by
:func:`qcwalk.spectral.form_propagators` into one work buffer that every
block of the call reuses, in the layout that module alone reads (packed
symmetric matrices up to n = 32; see :mod:`qcwalk.spectral`). A grid is
swept in blocks of ``max(1, BLOCK_ELEMENTS // e)`` points, e the entries
formed per matrix: 248 points at n = 11, one point from n = 91 on.
:func:`qcwalk.spectral.reduce_propagators` then reduces the block in
that buffer: |a|^2 = re^2 + im^2, and p |a|^2, |a| and sqrt(p) |a|
overwrite the three stacks before their column sums write F, C and G
into the result. So a block allocates no array of its own size and is a
few numpy calls however many points it holds. Every point's BLAS calls
have one shape whatever its block, so its values do not depend on the
blocks (see form_propagators). Every distance quantity, curve, CLI
column and figure preset reads from it, so a time point costs one
propagator pair however many quantities and nodes are asked for. The
record is one read-only array of shape ``(3,) + np.shape(t) + (n,)``:
``F, C, G = obs``. The value at one launch node j is entry j of the last
axis, ``F[..., j]``, or a law of :mod:`qcwalk.distance` applied to the
record.
"""

from __future__ import annotations

import math

import numpy as np

from .spectral import SpectralDecomposition, form_propagators, reduce_propagators

__all__ = ["time_blocks", "node_observables"]

#: element budget B of one propagator block: max(1, B // e) time points for e entries formed
#: per matrix (n(n+1)/2 at n <= 32, else n**2), so each of its three real matrix stacks holds
#: at most B entries. A kernel call forms and reduces every block in one work buffer, so no
#: fresh block-sized array has to stay under glibc's 128 KiB mmap threshold. Of 8000, 16384,
#: 24576 and 32768, 16384 ran the kernel fastest on 40 points at n = 60, with less peak RSS
#: than the larger two; on 400 points at n = 11 the packed blocks ran fastest at 32768, one
#: block, by 0.1 ms (the README's "Cost" paragraph).
BLOCK_ELEMENTS = 16384


def time_blocks(elements: int, count: int) -> list[slice]:
    """Slices over ``count`` items, ``max(1, BLOCK_ELEMENTS // elements)`` items each.

    ``elements`` is the entry count of one item, so a block holds at most
    BLOCK_ELEMENTS entries: for the propagators of one grid point it is the
    count form_propagators forms per matrix, math.prod(sd.propagator_shape).
    """
    size = max(1, BLOCK_ELEMENTS // elements)
    return [slice(start, start + size) for start in range(0, count, size)]


def node_observables(sd: SpectralDecomposition, t) -> np.ndarray:
    """The kernel: F, C and G over all launch nodes at one time or on a grid.

    The result is one read-only array, F, C and G stacked, of shape
    ``(3,) + np.shape(t) + (n,)``; a single time is the one-point case of
    the same sweep. Each block of :func:`time_blocks` forms its propagator
    pair with form_propagators into one work buffer, reused by every block,
    and reduce_propagators reduces it there, writing the block's F, C and G
    into the result.
    """
    times = np.asarray(t, dtype=float)
    flat = times.reshape(-1)
    n = sd.n
    entries = math.prod(sd.propagator_shape)
    out = np.empty((3, flat.size, n))
    blocks = time_blocks(entries, flat.size)
    work = np.empty(3 * (flat[blocks[0]].size if blocks else 0) * entries)
    for b in blocks:
        block = flat[b]
        props = form_propagators(sd, block, work[: 3 * block.size * entries])
        reduce_propagators(sd, props, out[:, b])
    obs = out.reshape((3,) + times.shape + (n,))
    obs.setflags(write=False)
    return obs
