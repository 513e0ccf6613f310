"""The quantum-classical distance, its asymptotes, and the optimality check.

The headline quantity is

    D_QC(t) = max_j D_QC(t|j),    D_QC(t|j) = 1 - F_j(t),

the worst-case infidelity between the classically evolved and quantum
evolved walker over all localized launch nodes. Restricting to localized
starts is justified by a concavity argument (verified numerically here by
:func:`verify_localized_optimality`): among all diagonal initial states the
minimum fidelity is attained on a basis state.

Two closed-form asymptotes bracket the exact curve,

    short:  D^S(t|j) = C_j(t) / 2
    long:   D^L(t|j) = 1 - G_j(t)^2 + C_j(t) / n

and the diagnostics gamma_S, gamma_L (ratios of the exact maximum to each
asymptote's maximum) and delta = G^2 - C/n quantify where each regime
holds. All operations require a connected graph: the stationary state and
the long-time laws presuppose a single component.

Every quantity reads F, C and G from one walks.node_observables record per t,
looked up on the walks module so that a patched kernel reaches every caller.
"""

from __future__ import annotations

import numpy as np

from . import walks
from .spectral import (
    SpectralDecomposition,
    classical_quantum_fidelity,
    heat_propagator,
    unitary_propagator,
)
from .walks import NodeObservables

__all__ = [
    "DisconnectedGraphError",
    "conditional_vector",
    "short_vector",
    "long_vector",
    "delta_vector",
    "qc_of",
    "gamma_of",
    "qc_distance",
    "distance_curve",
    "gamma_ratio",
    "verify_localized_optimality",
]

#: asymptote maxima at or below this are treated as vanishing (ratio undefined)
RATIO_FLOOR = 1e-12

#: slack allowed before an optimality margin counts as a real violation
VIOLATION_TOL = 1e-8


class DisconnectedGraphError(ValueError):
    """Raised when a distance quantity is requested for a disconnected graph."""


def require_connected(sd: SpectralDecomposition) -> None:
    """Refuse a disconnected graph with DisconnectedGraphError."""
    if not sd.is_connected:
        raise DisconnectedGraphError(
            "graph is disconnected (repeated zero Laplacian eigenvalue); "
            "distance quantities presuppose a single component"
        )


# Laws over all launch nodes at once, read from one kernel record. The pointwise
# API below applies them to node_observables(sd, t).


def conditional_vector(obs: NodeObservables) -> np.ndarray:
    return 1.0 - obs.fidelity


def short_vector(obs: NodeObservables) -> np.ndarray:
    return obs.coherence / 2.0


def long_vector(obs: NodeObservables) -> np.ndarray:
    return 1.0 - obs.gfid * obs.gfid + obs.coherence / obs.n


def delta_vector(obs: NodeObservables) -> np.ndarray:
    return obs.gfid * obs.gfid - obs.coherence / obs.n


def qc_of(obs: NodeObservables) -> tuple[float, int]:
    """(max_j D_QC(t|j), argmax node); ties go to the smallest node index."""
    cond = conditional_vector(obs)
    j = int(np.argmax(cond))
    return float(cond[j]), j


_ASYMPTOTES = {"s": short_vector, "short": short_vector, "l": long_vector, "long": long_vector}


def gamma_of(obs: NodeObservables, which: str) -> float | None:
    """gamma_K = D_QC / max_j D^K(t|j) for K in {S, L}; None when undefined."""
    asymptote = _ASYMPTOTES.get(str(which).lower())
    if asymptote is None:
        raise ValueError(f"asymptote selector must be 'S' or 'L', got {which!r}")
    denom = float(asymptote(obs).max())
    return None if denom <= RATIO_FLOOR else qc_of(obs)[0] / denom


def qc_distance(sd: SpectralDecomposition, t: float) -> tuple[float, int]:
    """(max_j D_QC(t|j), argmax node); ties go to the smallest node index."""
    require_connected(sd)
    return qc_of(walks.node_observables(sd, t))


def _check_grid(times) -> np.ndarray:
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or times.size == 0:
        raise ValueError("time grid must be a nonempty 1-d array")
    if not np.all(np.isfinite(times)):
        raise ValueError("time grid must be finite")
    if times[0] < 0:
        raise ValueError("time grid must be nonnegative")
    if times.size > 1 and not np.all(np.diff(times) > 0):
        raise ValueError("time grid must be strictly increasing")
    return times


def distance_curve(sd: SpectralDecomposition, times) -> np.ndarray:
    """D_QC(t|j) on a grid: the (n, len(times)) array with [j, i] = D_QC(times[i] | j).

    Column i comes from one kernel call, node_observables(sd, times[i]), so
    its cells are bitwise identical to conditional_vector of that record and
    each grid point costs one propagator pair. D_QC(t) is curve.max(axis=0),
    its node curve.argmax(axis=0) (ties go to the smallest index, as in
    qc_of) and the node average curve.mean(axis=0).
    """
    require_connected(sd)
    times = _check_grid(times)
    cond = np.empty((sd.n, times.size))
    for i, t in enumerate(times):
        cond[:, i] = conditional_vector(walks.node_observables(sd, t))
    return cond


def gamma_ratio(sd: SpectralDecomposition, which: str, t: float) -> float | None:
    """gamma_K(t) = D_QC(t) / D^K_QC(t) for K in {S, L}.

    Both numerator and denominator are maximized over launch nodes. When
    the asymptote maximum vanishes (below RATIO_FLOOR, e.g. at t = 0 where
    both distances are 0) the ratio is undefined and None is returned
    rather than a 0/0 quotient. Ratios may exceed 1.
    """
    require_connected(sd)
    return gamma_of(walks.node_observables(sd, t), which)


def verify_localized_optimality(
    sd: SpectralDecomposition,
    n_samples: int,
    t_values,
    seed: int = 0,
) -> np.ndarray:
    """Check that localized starts minimize the classical-quantum fidelity.

    Draws ``n_samples`` diagonal initial states with Dirichlet-uniform
    weights z, pushes each through both evolutions,

        E_C(rho) = diag(P(t) z)          (classical, dephased)
        E_Q(rho) = U(t) diag(z) U(t)^dag (quantum)

    and compares the full Uhlmann fidelity of the pair against the smallest
    localized fidelity min_j F_j(t). The full fidelity should never fall
    below that minimum. All samples at one time are drawn, evolved,
    validated and compared as one stack: per time that is one propagator
    pair, one stacked eigvalsh to validate the quantum states and one for
    their fidelities (classical_quantum_fidelity), whatever ``n_samples``
    is. Keep n at desk scale (<= 10 or so). ``t_values`` is checked like
    distance_curve's grid.

    Returns the margins, shape (n_samples, len(t_values)): entry [s, i] is
    the s-th sample's fidelity at t_values[i] minus min_j F_j there.
    Localized starts attain the minimum when every margin is at least
    -VIOLATION_TOL, the roundoff slack.
    """
    require_connected(sd)
    n_samples = int(n_samples)
    if n_samples < 1:
        raise ValueError("need at least one sample")
    t_values = _check_grid(t_values)
    rng = np.random.Generator(np.random.PCG64(int(seed)))
    n = sd.n

    margins = np.empty((n_samples, t_values.size))
    for i, t in enumerate(t_values):
        p = heat_propagator(sd, float(t))
        u = unitary_propagator(sd, float(t))
        floor = float(walks.node_observables(sd, t).fidelity.min())
        # one row per sample; batch draws equal n_samples sequential draws
        z = rng.dirichlet(np.ones(n), size=n_samples)
        q = np.clip(z @ p.T, 0.0, None)
        rho_q = (u * z[:, None, :]) @ u.conj().T
        margins[:, i] = classical_quantum_fidelity(q, rho_q) - floor
    return margins
