"""The per-time kernel walks.node_observables against an independent route.

The kernel forms exp(L t) and exp(i L t) from one eigendecomposition; the
reference here forms them with scipy.linalg.expm from the Laplacian matrix
and reduces them to F, C and G directly. The derived graph-level quantities
(qc, gamma_S, gamma_L) and the delta vector are checked the same way.
"""

import numpy as np
import pytest
from scipy.linalg import expm

from qcwalk import generate, laplacian
import qcwalk.walks as walks
from qcwalk.distance import (
    conditional_vector,
    delta_vector,
    distance_curve,
    gamma_of,
    gamma_ratio,
    qc_distance,
    qc_of,
)
from qcwalk.spectral import eigendecompose
from qcwalk.walks import node_observables

GRAPHS = [
    ("star(7)", generate("star", 7)),
    ("wheel(9)", generate("wheel", 9)),
    ("ring(11)", generate("ring", 11)),
    ("random_connected(11,6)", generate("random_connected", 11, extra=6, seed=0)),
]
TIMES = np.geomspace(1e-2, 1e2, 25)
REL_TOL = 1e-10


def expm_observables(lap: np.ndarray, t: float):
    p = expm(lap * t)
    amp = np.abs(expm(1j * lap * t))
    fidelity = (p * amp**2).sum(axis=0)
    coh = amp.sum(axis=0) ** 2 - 1.0
    gfid = (np.sqrt(np.clip(p, 0.0, None)) * amp).sum(axis=0)
    return fidelity, coh, gfid


def assert_close(observed, ref, what):
    observed, ref = np.asarray(observed, dtype=float), np.asarray(ref, dtype=float)
    err = np.abs(observed - ref)
    bound = REL_TOL * np.maximum(1.0, np.abs(ref))
    assert np.all(err <= bound), f"{what}: worst error {err.max():.3e}"


@pytest.mark.parametrize("label,g", GRAPHS, ids=[label for label, _ in GRAPHS])
def test_kernel_matches_expm(label, g):
    lap = laplacian(g)
    sd = eigendecompose(lap)
    n = g.n
    for t in TIMES:
        obs = node_observables(sd, t)
        f, c, gf = expm_observables(lap.matrix, t)
        assert_close(obs.fidelity, f, f"{label} F at t={t:.3g}")
        assert_close(obs.coherence, c, f"{label} C at t={t:.3g}")
        assert_close(obs.gfid, gf, f"{label} G at t={t:.3g}")

        qc = (1.0 - f).max()
        assert_close(qc_distance(sd, t)[0], qc, f"{label} qc at t={t:.3g}")
        assert_close(gamma_ratio(sd, "S", t), qc / (c / 2.0).max(), f"{label} gamma_S at t={t:.3g}")
        long_max = (1.0 - gf**2 + c / n).max()
        assert_close(gamma_ratio(sd, "L", t), qc / long_max, f"{label} gamma_L at t={t:.3g}")
        assert_close(delta_vector(obs), gf**2 - c / n, f"{label} delta at t={t:.3g}")


def test_pointwise_functions_are_node_lookups_into_the_kernel():
    sd = eigendecompose(laplacian(generate("wheel", 9)))
    for t in (0.0, 0.37, 4.2):
        obs = node_observables(sd, t)
        assert qc_distance(sd, t) == qc_of(obs)
        assert gamma_ratio(sd, "S", t) == gamma_of(obs, "S")
        assert gamma_ratio(sd, "L", t) == gamma_of(obs, "L")
        assert np.array_equal(distance_curve(sd, [t]).conditional[:, 0], conditional_vector(obs))


def test_kernel_at_zero_time_is_exact():
    sd = eigendecompose(laplacian(generate("ring", 6)))
    obs = node_observables(sd, 0.0)
    assert np.array_equal(obs.fidelity, np.ones(6))
    assert np.array_equal(obs.coherence, np.zeros(6))
    assert np.array_equal(obs.gfid, np.ones(6))


def test_kernel_refuses_negative_time():
    sd = eigendecompose(laplacian(generate("ring", 6)))
    with pytest.raises(ValueError):
        node_observables(sd, -0.5)


def test_kernel_refuses_negative_probabilities(monkeypatch):
    # an entry of exp(L t) below -1e-10 means a corrupted decomposition, not roundoff
    sd = eigendecompose(laplacian(generate("ring", 6)))
    monkeypatch.setattr(walks, "heat_propagator", lambda sd, t: np.eye(sd.n) - 1e-6)
    with pytest.raises(ValueError, match="negative entry"):
        node_observables(sd, 0.5)
