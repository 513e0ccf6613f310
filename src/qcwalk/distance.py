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

Every quantity reads F, C and G from one walks.node_observables record, the
array ``F, C, G = obs``, for one time or a whole grid, looked up on the
walks module so that a patched kernel reaches every caller. The laws below
work over the record's last (node) axis, so one call covers every time of a
grid. The laws with a 1/n take the graph's size n as an argument and never
read it from the record's width, so they hold on a record of a few launch
nodes too. The optimality sweep forms its pairs with
spectral.real_propagators, as the kernel does, and takes min_j F_j from
walks.reduce_propagators of those same pairs.
"""

from __future__ import annotations

import numpy as np

from . import walks
from .config import check_grid
from .spectral import (
    SpectralDecomposition,
    classical_quantum_affinity,
    classical_quantum_fidelity,
    real_propagators,
)

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
    "verify_localized_optimality",
]

#: asymptote maxima at or below this are treated as vanishing (ratio undefined)
RATIO_FLOOR = 1e-12

#: slack allowed before an optimality margin counts as a real violation
VIOLATION_TOL = 1e-8

#: an optimality sample whose affinity margin exceeds the worst exact margin by more than
#: this cannot be the worst, since its fidelity is at least its affinity. It only has to
#: exceed the roundoff in affinity - fidelity, at most 8.9e-16 on verify's graphs and times.
AFFINITY_SLACK = 1e-12


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


def gamma_of(obs: np.ndarray, which: str, n: int):
    """gamma_K = D_QC / max_j D^K(t|j) for K in {S, L}, per time; ratios may exceed 1.

    Undefined, and NaN, where the asymptote maximum is at or below
    RATIO_FLOOR (e.g. at t = 0, where both distances vanish), for a record
    at one time and on a grid alike.
    """
    if which == "S":
        denom = short_vector(obs).max(axis=-1)
    elif which == "L":
        denom = long_vector(obs, n).max(axis=-1)
    else:
        raise ValueError(f"asymptote selector must be 'S' or 'L', got {which!r}")
    out = np.full(np.shape(denom), np.nan)
    return np.divide(qc_of(obs)[0], denom, out=out, where=denom > RATIO_FLOOR)[()]


def delta_of(obs: np.ndarray, n: int) -> np.ndarray:
    """delta = G^2 - C/n at the node realizing D_QC, per time."""
    node = qc_of(obs)[1]
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
    times[i]: bitwise, except at the few n between 17 and 31 where the
    GEMM's rounding depends on the block's row count (see
    spectral.real_propagators), where the two agree to about 1e-14.
    D_QC(t) is curve.max(axis=0), its node curve.argmax(axis=0) (ties go
    to the smallest index, as in qc_of) and the node average
    curve.mean(axis=0).
    """
    require_connected(sd)
    times = check_grid(times)
    return np.ascontiguousarray(conditional_vector(walks.node_observables(sd, times)).T)


def verify_localized_optimality(
    sd: SpectralDecomposition,
    n_samples: int,
    t_values,
    seed: int = 0,
) -> float:
    """Check that localized starts minimize the classical-quantum fidelity.

    Draws ``n_samples`` diagonal initial states with Dirichlet-uniform
    weights z, pushes each through both evolutions,

        E_C(rho) = diag(P(t) z)          (classical, dephased)
        E_Q(rho) = U(t) diag(z) U(t)^dag (quantum)

    and compares the full Uhlmann fidelity of the pair against the smallest
    localized fidelity min_j F_j(t). The full fidelity should never fall
    below that minimum. The times are swept in the kernel's blocks
    (walks.time_blocks): each block forms its pairs with one
    real_propagators call and makes all its Dirichlet draws at once. Its
    classical states P(t) z and unitaries U = Re + i Im are formed first;
    then walks.reduce_propagators reduces the same buffer in place, so
    min_j F_j is the kernel's own F bit for bit.

    Every sample of a block is first bounded below by its affinity
    (classical_quantum_affinity, which validates every input and raises
    ValueError if a U(t) drifts from unitarity): its lower margin is the
    affinity minus min_j F_j. The sample with the smallest lower margin
    takes the exact fidelity, and m, the smaller of its margin and the worst
    exact margin of the earlier blocks, bounds the worst margin from above.
    A sample whose lower margin exceeds m + AFFINITY_SLACK cannot be the
    worst; every other one, a NaN lower margin included, takes the exact
    fidelity, in chunks of at most walks.BLOCK_ELEMENTS // n**2 samples,
    which bounds memory whatever ``n_samples`` is. So each sample is
    certified by its affinity or by its exact fidelity, and the result is
    the exact worst margin, bit for bit, whatever the block and chunk
    sizes. Keep n at desk scale (<= 10 or so). ``t_values`` is checked
    like distance_curve's grid.

    Returns the worst margin over all samples and times: the smallest
    fidelity minus min_j F_j at its time. It is NaN if a fidelity or a
    lower margin is NaN, since a NaN bound certifies nothing. Localized
    starts attain the minimum when it is at least -VIOLATION_TOL, the
    roundoff slack.
    """
    require_connected(sd)
    n_samples = int(n_samples)
    if n_samples < 1:
        raise ValueError("need at least one sample")
    t_values = check_grid(t_values)
    rng = np.random.Generator(np.random.PCG64(int(seed)))
    n = sd.n

    worst = np.inf
    for b in walks.time_blocks(n * n, t_values.size):
        props = real_propagators(sd, t_values[b])
        p, re, im = props
        u = re + 1j * im
        # batch draws equal sequential draws, time by time
        z = rng.dirichlet(np.ones(n), size=(len(p), n_samples))
        q = np.clip(z @ p.swapaxes(-1, -2), 0.0, None)
        # the reduction overwrites the pair, so it runs once q and u are formed
        floor = walks.reduce_propagators(props)[0].min(axis=-1)
        lower = classical_quantum_affinity(q, u, z) - floor[:, None]

        def margins(times, samples):
            """Exact margins of the samples (times[i], samples[i]) of this block."""
            fid = classical_quantum_fidelity(q[times, samples, None], u[times], z[times, samples, None])
            # a NaN lower margin certifies nothing: its sample's margin reads NaN
            return np.where(np.isnan(lower[times, samples]), np.nan, fid[:, 0] - floor[times])

        bound = np.minimum(worst, margins(*np.unravel_index([lower.argmin()], lower.shape))[0])
        times, samples = np.nonzero(~(lower > bound + AFFINITY_SLACK))
        for c in walks.time_blocks(n * n, times.size):
            worst = np.minimum(worst, margins(times[c], samples[c]).min())
    return float(worst)
