"""Renumbered graphs: the kernel's F against itself under a relabelling of the nodes.

Each quantity is invariant under renumbering: if L' = P L P^T, F at node
perm[j] of the renamed graph equals F at node j of the original. The program
does not inherit this exactly, since eigh of P L P^T rounds differently and
the numbering moves a graph's hubs and ends against BLAS's blocking. So each
side may use the plain relative bound of tests/test_oracles.py,
1e-12 + 10 t eps max|lambda|, once: the two records must agree within twice it, on 100 log-spaced times
from 1e-2 to 100 / lambda_2, at sizes where no exact oracle is cheap enough.

C and 1 - G are left out. C needs the phase-sensitivity factor near a
revival (wheel:31 uses 1.27 times the plain bound at t = 2.84), and 1 - G
on path:64 misses it by far at intermediate times, where G reads the
square roots of entries of exp(L t) below roundoff.
"""

import numpy as np
import pytest

from conftest import renumbered
from qcwalk import eigendecompose, graph_from_spec, laplacian
from qcwalk.walks import node_observables

EPS = np.finfo(float).eps

SPECS = [
    "random_connected:11:6",
    "ring:21",
    "wheel:31",
    "random_connected:25:10",
    "complete:120",
    "ring:64",
    "path:64",
    "ring:200",
    "wheel:200",
    "star:200",
    "random_connected:200:20",
]


@pytest.mark.parametrize("spec", SPECS)
def test_fidelity_is_invariant_under_renumbering(spec):
    g = graph_from_spec(spec)
    renamed, back = renumbered(g)
    sd = eigendecompose(laplacian(g))
    t = np.geomspace(1e-2, 100.0 / sd.fiedler, 100)
    fidelity = node_observables(sd, t)[0]
    moved = back(node_observables(eigendecompose(laplacian(renamed)), t)[0])
    bound = 2.0 * (1e-12 + 10.0 * t * EPS * np.abs(sd.eigenvalues).max())[:, None]
    use = np.abs(moved - fidelity) / np.abs(fidelity) / bound
    worst = np.unravel_index(use.argmax(), use.shape)
    assert use.max() <= 1.0, f"F of {spec} renumbered uses {use.max():.3g} of the bound at t={t[worst[0]]:.3g}"
