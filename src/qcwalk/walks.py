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

:func:`node_observables` is the one numerical kernel: for one time t it
forms both propagators once and reduces them column by column to the
vectors F, C and G over all launch nodes. Every distance quantity, curve,
CLI column and figure preset reads from it, so a time point costs one
propagator pair however many quantities and nodes are asked for. The
value at one launch node j is entry j of a vector: ``obs.fidelity[j]``, or
a law of :mod:`qcwalk.distance` applied to the record.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .spectral import NEGATIVITY_TOL, SpectralDecomposition, heat_propagator, unitary_propagator

__all__ = ["NodeObservables", "node_observables"]


def check_node(sd: SpectralDecomposition, j: int) -> int:
    j = int(j)
    if not 0 <= j < sd.n:
        raise ValueError(f"node {j} out of range for n={sd.n}")
    return j


@dataclass(frozen=True)
class NodeObservables:
    """F_j(t), C_j(t) and G_j(t) at one time t; entry j belongs to launch node j."""

    fidelity: np.ndarray  # clamped into [0, 1]
    coherence: np.ndarray  # clamped to be nonnegative
    gfid: np.ndarray  # clamped into [0, 1]

    @property
    def n(self) -> int:
        return self.fidelity.size


def node_observables(sd: SpectralDecomposition, t: float) -> NodeObservables:
    """The kernel: F, C and G over all launch nodes from one propagator pair.

    Every entry of exp(L t) is checked and clipped into [0, 1] before the
    reductions; an entry more negative than roundoff allows means a corrupted
    decomposition and raises ValueError.
    """
    t = float(t)
    p = heat_propagator(sd, t)
    smallest = float(p.min())
    if smallest < NEGATIVITY_TOL:
        raise ValueError(f"classical distribution has negative entry {smallest:.3e}")
    p = np.clip(p, 0.0, 1.0)
    amp = np.abs(unitary_propagator(sd, t))
    return NodeObservables(
        fidelity=np.clip((p * amp**2).sum(axis=0), 0.0, 1.0),
        coherence=np.maximum(amp.sum(axis=0) ** 2 - 1.0, 0.0),
        gfid=np.clip((np.sqrt(p) * amp).sum(axis=0), 0.0, 1.0),
    )

