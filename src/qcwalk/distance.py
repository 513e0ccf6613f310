"""The quantum-classical distance and its asymptotes.

The headline quantity is

    D_QC(t) = max_j D_QC(t|j),    D_QC(t|j) = 1 - F_j(t),

the worst-case infidelity between the classically evolved and quantum
evolved walker over all localized launch nodes. Restricting to localized
starts is justified by a concavity argument: among all diagonal initial
states the minimum fidelity is attained on a basis state, which
:func:`qcwalk.checks.verify_localized_optimality` verifies numerically.

Two closed-form asymptotes bracket the exact curve,

    short:  D^S(t|j) = C_j(t) / 2
    long:   D^L(t|j) = 1 - G_j(t)^2 + C_j(t) / n

and the diagnostics gamma_S, gamma_L (ratios of the exact maximum to each
asymptote's maximum) and delta = G^2 - C/n quantify where each regime
holds. All operations require a connected graph: the stationary state and
the long-time laws presuppose a single component.

Every quantity reads F, C and G from one walks.node_observables record, the
array ``F, C, G = obs``, for one time or a whole grid, looked up on the
walks module so that a patched kernel reaches every caller. The laws below
work over the record's last (node) axis, so one call covers every time of a
grid. The laws with a 1/n take the graph's size n as an argument and never
read it from the record's width, so they hold on a record of a few launch
nodes too.
"""

from __future__ import annotations

import numpy as np

from . import walks
from .config import check_grid
from .spectral import SpectralDecomposition

__all__ = [
    "DisconnectedGraphError",
    "conditional_vector",
    "short_vector",
    "long_vector",
    "delta_vector",
    "qc_of",
    "gamma_of",
    "delta_of",
    "qc_distance",
    "distance_curve",
]

#: asymptote maxima at or below this are treated as vanishing (ratio undefined)
RATIO_FLOOR = 1e-12


class DisconnectedGraphError(ValueError):
    """Raised when a distance quantity is requested for a disconnected graph."""


def require_connected(sd: SpectralDecomposition) -> None:
    """Refuse a disconnected graph with DisconnectedGraphError."""
    if not sd.is_connected:
        raise DisconnectedGraphError(
            "graph is disconnected (repeated zero Laplacian eigenvalue); "
            "distance quantities presuppose a single component"
        )


# Laws over the launch nodes of one kernel record, F, C, G = obs; each works over
# the last (node) axis, so a grid record gives one value per time. n is the graph's size.


def conditional_vector(obs: np.ndarray) -> np.ndarray:
    return 1.0 - obs[0]


def short_vector(obs: np.ndarray) -> np.ndarray:
    return obs[1] / 2.0


def long_vector(obs: np.ndarray, n: int) -> np.ndarray:
    _, coherence, gfid = obs
    return 1.0 - gfid * gfid + coherence / n


def delta_vector(obs: np.ndarray, n: int) -> np.ndarray:
    _, coherence, gfid = obs
    return gfid * gfid - coherence / n


def qc_of(obs: np.ndarray):
    """(max_j D_QC(t|j), argmax node) per time; ties go to the smallest node index."""
    cond = conditional_vector(obs)
    return cond.max(axis=-1), cond.argmax(axis=-1)


def gamma_of(obs: np.ndarray, which: str, n: int, qc=None):
    """gamma_K = D_QC / max_j D^K(t|j) for K in {S, L}, per time; ratios may exceed 1.

    Undefined, and NaN, where the asymptote maximum is at or below
    RATIO_FLOOR (e.g. at t = 0, where both distances vanish), for a record
    at one time and on a grid alike. ``qc`` is qc_of(obs), computed here if
    not given; a caller reading several laws of one record computes it once.
    """
    if which == "S":
        denom = short_vector(obs).max(axis=-1)
    elif which == "L":
        denom = long_vector(obs, n).max(axis=-1)
    else:
        raise ValueError(f"asymptote selector must be 'S' or 'L', got {which!r}")
    out = np.full(np.shape(denom), np.nan)
    value = (qc_of(obs) if qc is None else qc)[0]
    return np.divide(value, denom, out=out, where=denom > RATIO_FLOOR)[()]


def delta_of(obs: np.ndarray, n: int, qc=None) -> np.ndarray:
    """delta = G^2 - C/n at the node realizing D_QC, per time; ``qc`` as in gamma_of."""
    node = (qc_of(obs) if qc is None else qc)[1]
    return np.take_along_axis(delta_vector(obs, n), np.expand_dims(node, -1), axis=-1)[..., 0]


def qc_distance(sd: SpectralDecomposition, t: float) -> tuple[float, int]:
    """(max_j D_QC(t|j), argmax node); ties go to the smallest node index."""
    require_connected(sd)
    value, node = qc_of(walks.node_observables(sd, float(t)))
    return float(value), int(node)


def distance_curve(sd: SpectralDecomposition, times) -> np.ndarray:
    """D_QC(t|j) on a grid: the (n, len(times)) array with [j, i] = D_QC(times[i] | j).

    It is the transpose of conditional_vector of one grid kernel call,
    node_observables(sd, times), so each grid point costs one propagator
    pair. Column i is conditional_vector of the one-point record at
    times[i], bit for bit.
    D_QC(t) is curve.max(axis=0), its node curve.argmax(axis=0) (ties go
    to the smallest index, as in qc_of) and the node average
    curve.mean(axis=0).
    """
    require_connected(sd)
    times = check_grid(times)
    return np.ascontiguousarray(conditional_vector(walks.node_observables(sd, times)).T)

