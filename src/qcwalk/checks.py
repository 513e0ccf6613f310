"""The checks of ``qcwalk verify``: invariant spot checks and the localized-optimality sweep.

Each invariant check evaluates one mathematical property the library relies on
(stochasticity, unitarity, semigroup composition, the fidelity reduction,
stationary values) on a small fixed family of graphs and reports the worst
error found against the property's tolerance. The checks are deterministic
given the seed. They are spot checks for field use; the test suite covers
the same ground more thoroughly. Each family graph forms every propagator
the checks read in one form_propagators call, as the optimality sweep forms
its grid: the matrix checks and the oracle read the pair full_propagators
returns, and the kernel's reduction, spectral.reduce_propagators, then
reduces the whole stack, F, C and G read at their grid positions.

:func:`verify_localized_optimality` checks numerically the concavity
argument behind D_QC's worst case over localized launches (see
:mod:`qcwalk.distance`). It certifies most samples with
:func:`classical_quantum_affinity`, a closed-form lower bound, and
eigensolves each of the rest once with the body of
:func:`classical_quantum_fidelity`, the library's one Uhlmann fidelity.
Both validate their inputs, with the same messages; the affinity is the
sweep's one validation, once per call. This module alone holds the
check's policy: its floor VIOLATION_TOL, its AFFINITY_SLACK, its states'
trace and purity thresholds, and its pass rule.

:func:`run_checks` runs every check of ``qcwalk verify`` in this process.
Its units, the invariant checks and the optimality sweep's graph sizes
(each size seeds its graph and its draws with ``seed + n``), run in report
order, and every unit is reported by one rule (_refused): a refusal fails
each of its checks, and any other exception ends the run.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from . import walks
from .config import check_grid
from .distance import qc_of, require_connected
from .graph import Graph, check_int, generate, laplacian
from .spectral import (
    NEGATIVITY_TOL,
    SpectralDecomposition,
    eigendecompose,
    form_propagators,
    full_propagators,
    reduce_propagators,
)

__all__ = [
    "CheckResult",
    "run_checks",
    "run_invariant_checks",
    "check_family",
    "classical_quantum_fidelity",
    "classical_quantum_affinity",
    "verify_localized_optimality",
]

#: slack allowed before an optimality margin counts as a real violation
VIOLATION_TOL = 1e-8

#: an optimality sample whose affinity margin exceeds the worst exact margin by more than
#: this cannot be the worst, since its fidelity is at least its affinity. It only has to
#: exceed the roundoff in affinity - fidelity, at most 8.9e-16 on verify's graphs and times.
AFFINITY_SLACK = 1e-12

_TRACE_TOL = 1e-10

#: a state whose largest eigenvalue exceeds this is treated as pure
_PURE_THRESHOLD = 1.0 - 1e-12


class CheckResult(NamedTuple):
    name: str
    passed: bool
    detail: str


def check_family(seed: int = 0) -> list[tuple[str, Graph]]:
    """Small connected graphs exercising every generator, each (kind, n[, extra]) labelled kind(n[,extra])."""
    family = (("complete", 5), ("ring", 6), ("path", 4), ("star", 5), ("wheel", 6), ("random_connected", 8, 4))
    return [(f"{kind}({','.join(map(str, params))})", generate(kind, *params, seed=seed)) for kind, *params in family]


#: the invariant checks in reported order, each with its tolerance
_TOLERANCES = {
    "laplacian row sums vanish": 1e-12,
    "laplacian trace is -2|edges|": 1e-12,
    "eigendecomposition reconstructs L": 1e-9,
    "eigenvectors orthonormal": 1e-9,
    "zero mode first, spectrum nonpositive": 1e-9,
    "heat propagator doubly stochastic": 1e-10,
    "heat propagator entries in [0, 1]": 1e-10,
    "unitary propagator unitary": 1e-10,
    "heat propagator semigroup": 1e-8,
    "unitary propagator group law": 1e-8,
    "localized fidelity matches Uhlmann oracle": 1e-9,
    "long-time plateau 1 - 1/n": 1e-2,
    "regular graphs are node equivalent": 1e-10,
}


def _worst(items, key):
    """The first of ``items`` whose ``key`` is NaN, else the first whose ``key`` is largest.

    None if there are none. A NaN compares false with everything, so a
    plain max would pass over it unless it came first.
    """
    return max(items, key=lambda item: (math.isnan(key(item)), key(item)), default=None)


def _result(name: str, errs: list[tuple[str, float]]) -> CheckResult:
    """Worst error of one check (see _worst) against its tolerance; a NaN error fails."""
    where, worst = _worst(errs, key=lambda kv: kv[1])
    tol = _TOLERANCES[name]
    return CheckResult(
        name=name,
        passed=worst <= tol,
        detail=f"worst error {worst:.3e} (tolerance {tol:.0e}) at {where}",
    )


def run_invariant_checks(seed: int = 0) -> list[CheckResult]:
    """Numerical invariants of the graph, spectral, and walk layers."""
    rng = np.random.Generator(np.random.PCG64(check_int(seed, "seed")))
    t_samples = rng.uniform(0.0, 5.0, size=4)
    errs: dict[str, list[tuple[str, float]]] = {name: [] for name in _TOLERANCES}

    def add(name: str, where: str, err) -> None:
        errs[name].append((where, float(err)))

    for label, g in check_family(seed):
        lap = laplacian(g)
        sd = eigendecompose(lap)
        vecs, eye = sd.eigenvectors, np.eye(sd.n)
        add("laplacian row sums vanish", label, np.abs(lap.sum(axis=1)).max())
        trace = float(np.trace(lap))
        add("laplacian trace is -2|edges|", label, abs(trace + 2.0 * len(g.edges)))
        add(
            "eigendecomposition reconstructs L",
            label,
            np.abs((vecs * sd.eigenvalues) @ vecs.T - lap).max(),
        )
        add("eigenvectors orthonormal", label, np.abs(vecs.T @ vecs - eye).max())
        # read eigvalsh's own spectrum: eigendecompose sets the zero cluster to 0.0
        vals = np.linalg.eigvalsh(lap)
        add("zero mode first, spectrum nonpositive", label, max(np.abs(vals).min(), vals.max()))

        # three rounds of three draws, (t1, t2) the first two of each: one (3, 3) batch
        # equals the draws taken round by round
        t1, t2 = rng.uniform(0.0, 5.0, size=(3, 3)).T[:2]
        oracle_times, nodes = (0.3, 1.7), [0, sd.n - 1]
        # a disconnected graph has no plateau: refused as qc_distance refuses it
        require_connected(sd)
        t_inf = 50.0 / sd.fiedler
        regular_times = (0.2, 1.0, 4.0) if (lap.diagonal() == lap[0, 0]).all() else ()  # all degrees equal
        # every time the checks read is one grid, formed once: the 4 sampled times, t1, t2 and
        # t1 + t2, the 2 oracle times, the plateau and, on regular graphs, 3 more
        props = form_propagators(sd, [*t_samples, *t1, *t2, *(t1 + t2), *oracle_times, t_inf, *regular_times])
        p, u = full_propagators(sd, props)
        ps, us = p[:4], u[:4]
        rows, cols = np.abs(ps.sum(axis=-1) - 1.0), np.abs(ps.sum(axis=-2) - 1.0)
        stoch = np.maximum(cols.max(axis=-1), rows.max(axis=-1))
        bounds = np.maximum(np.maximum(-ps.min(axis=(-2, -1)), ps.max(axis=(-2, -1)) - 1.0), 0.0)
        unitarity = np.abs(us @ us.conj().swapaxes(-1, -2) - eye).max(axis=(-2, -1))
        for i, t in enumerate(t_samples):
            where = f"{label} t={t:.3f}"
            add("heat propagator doubly stochastic", where, stoch[i])
            add("heat propagator entries in [0, 1]", where, bounds[i])
            add("unitary propagator unitary", where, unitarity[i])

        (p1, p2, p12), (u1, u2, u12) = np.split(p[4:13], 3), np.split(u[4:13], 3)
        semigroup = np.abs(p1 @ p2 - p12).max(axis=(-2, -1))
        group = np.abs(u1 @ u2 - u12).max(axis=(-2, -1))
        for i in range(3):
            where = f"{label} t1={t1[i]:.3f} t2={t2[i]:.3f}"
            add("heat propagator semigroup", where, semigroup[i])
            add("unitary propagator group law", where, group[i])

        # the oracle is Uhlmann's fidelity of diag(p) and the pure |psi> = U e_j, in the closed
        # form <psi|diag(p)|psi> (Jozsa 1994), summed in complex arithmetic from the columns:
        # independent of the kernel's real reduction
        psi = u[13:15, :, nodes]
        oracle = (psi.conj() * np.maximum(p[13:15, :, nodes], 0.0) * psi).sum(axis=-2).real
        # the kernel's reduction, read at the oracle times, the plateau and the regular-graph times
        obs = reduce_propagators(sd, props)
        direct = obs[0, 13:15][..., nodes]
        for i, t in enumerate(oracle_times):
            for k, j in enumerate(nodes):
                err = abs(direct[i, k] - oracle[i, k])
                add("localized fidelity matches Uhlmann oracle", f"{label} j={j} t={t}", err)

        value = float(qc_of(obs[:, 15])[0])
        add("long-time plateau 1 - 1/n", f"{label} t={t_inf:.1f}", abs(value - (1.0 - 1.0 / sd.n)))

        fid = obs[0, 16:]
        spread = fid.max(axis=-1) - fid.min(axis=-1)
        for t, err in zip(regular_times, spread):
            add("regular graphs are node equivalent", f"{label} t={t}", err)

    return [_result(name, found) for name, found in errs.items()]


def _check_weights(total: np.ndarray, weights: np.ndarray) -> None:
    """The trace and positivity rule of a state, read from its trace and eigenvalues."""
    off = ~(np.abs(total - 1.0) <= _TRACE_TOL)
    if off.any():
        raise ValueError(f"density matrix trace must be 1, got {total[off].flat[0].item():.12g}")
    smallest = float(weights.min())
    if not smallest >= NEGATIVITY_TOL:
        raise ValueError(f"density matrix has negative eigenvalue {smallest:.3e}")


def _check_states(q, u, z):
    """The states' inputs as arrays, refused as classical_quantum_fidelity documents; weights clipped at 0."""
    q = np.asarray(q, dtype=float)
    u = np.asarray(u, dtype=complex)
    z = np.asarray(z, dtype=float)
    if q.ndim != 3 or 0 in q.shape or z.shape != q.shape or u.shape != q.shape[:1] + q.shape[-1:] * 2:
        raise ValueError("need q and z of shape (T, S, n) and u of shape (T, n, n), with T, S and n at least 1")
    _check_weights(q.sum(axis=-1), q)
    _check_weights(z.sum(axis=-1), z)
    drift = np.linalg.norm(u @ u.conj().swapaxes(-1, -2) - np.eye(q.shape[-1]), axis=(-2, -1))
    bad = np.flatnonzero(~(drift <= -NEGATIVITY_TOL))
    if bad.size:
        raise ValueError(f"u[{bad[0]}] drifts from unitarity by {drift[bad[0]]:.3e}")
    return np.maximum(q, 0.0), u, np.maximum(z, 0.0)


def _fidelity(q: np.ndarray, u: np.ndarray, z: np.ndarray) -> np.ndarray:
    """classical_quantum_fidelity of inputs _check_states has passed."""
    rho = (u[:, None] * z[:, :, None, :]) @ u.conj().swapaxes(-1, -2)[:, None]
    pure = (q.max(axis=-1) > _PURE_THRESHOLD) | (z.max(axis=-1) > _PURE_THRESHOLD)
    root = np.sqrt(q)
    inner = root[..., :, None] * rho * root[..., None, :]
    vals = np.clip(np.linalg.eigvalsh(inner), 0.0, None)
    mixed = np.sqrt(vals).sum(axis=-1) ** 2
    rank_one = np.einsum("tsk,tskk->ts", q, rho).real
    return np.clip(np.where(pure, rank_one, mixed), 0.0, 1.0)


def classical_quantum_fidelity(q, u, z) -> np.ndarray:
    """Uhlmann fidelity of diag(q[i, s]) and u[i] diag(z[i, s]) u[i]^dag, shape (T, S).

    ``q`` and ``z`` are (T, S, n) weights and ``u`` is (T, n, n): T unitaries,
    each evolving S launches. The inputs that define the states are
    validated, so a state that is not a density matrix never forms: T, S and
    n must be at least 1, every row of q and z a probability vector (trace 1
    within 1e-10, no weight below NEGATIVITY_TOL; a tolerated negative
    weight reads as 0), and each u[i] unitary to within
    ||u u^dag - I||_F <= -NEGATIVITY_TOL, else ValueError names the drift and
    the index i. sqrt(diag(q)) is elementwise, so each mixed pair costs one
    eigvalsh of sqrt(q_k) rho_kl sqrt(q_l), all T * S in one stacked call.
    Pairs where either state is pure (largest weight above 1 - 1e-12) take
    the closed form F = sum_k q_k rho_kk, which is <psi|diag(q)|psi> when
    rho = |psi><psi| (Jozsa, J. Mod. Opt. 41, 1994).
    """
    return _fidelity(*_check_states(q, u, z))


def classical_quantum_affinity(q, u, z) -> np.ndarray:
    """Squared affinity (tr sqrt(sigma) sqrt(rho))^2 of classical_quantum_fidelity's states, shape (T, S).

    A lower bound on their Uhlmann fidelity: F = ||sqrt(sigma) sqrt(rho)||_1^2
    and |tr X| <= ||X||_1 (Luo and Zhang, Phys. Rev. A 69, 032106, 2004).
    With sigma = diag(q) and sqrt(rho) = u diag(sqrt z) u^dag it is
    A = (sum_k sqrt(q_k) sum_a |u_ka|^2 sqrt(z_a))^2: O(n^2) per pair, with
    no state formed and no eigensolve. Equal to F where the two states
    commute, as at t = 0 where u = I. The inputs are validated as
    classical_quantum_fidelity validates them, with the same messages.
    """
    q, u, z = _check_states(q, u, z)
    weights = u.real**2 + u.imag**2  # |u_ka|^2
    diagonal = np.sqrt(z) @ weights.swapaxes(-1, -2)  # the diagonal of sqrt(rho)
    return (np.sqrt(q) * diagonal).sum(axis=-1) ** 2


def verify_localized_optimality(sd: SpectralDecomposition, n_samples: int, t_values, seed: int = 0) -> float:
    """Check that localized starts minimize the classical-quantum fidelity.

    Draws ``n_samples`` diagonal initial states with Dirichlet-uniform
    weights z, pushes each through both evolutions,

        E_C(rho) = diag(P(t) z)          (classical, dephased)
        E_Q(rho) = U(t) diag(z) U(t)^dag (quantum)

    and compares the full Uhlmann fidelity of the pair against the smallest
    localized fidelity min_j F_j(t). The full fidelity should never fall
    below that minimum. The whole grid is formed once, however many times it
    holds (it is not swept in the kernel's time blocks): one
    form_propagators call forms every time's pair, and all T * n_samples
    Dirichlet draws are made at once. The classical states P(t) z and
    unitaries U are read from the pairs full_propagators returns, and
    reduce_propagators reduces the formed stack, so min_j F_j is the
    kernel's own F bit for bit.

    Then classical_quantum_affinity validates the inputs, once, as
    classical_quantum_fidelity validates them (ValueError if a U(t) drifts
    from unitarity, say), and bounds every sample below: its lower margin
    is the affinity minus min_j F_j. A NaN lower margin certifies nothing,
    so if there is one the sweep returns NaN at once, before any eigensolve.
    Otherwise the sample with the smallest lower margin takes the exact
    fidelity, read from the validated arrays with no second validation, and
    its exact margin m bounds the worst margin from above. Any other sample
    whose lower margin exceeds m + AFFINITY_SLACK cannot be the worst; every
    one that does not takes the exact fidelity, in chunks of at most
    walks.BLOCK_ELEMENTS // n**2 samples. Only those chunks are bounded:
    the draws, the classical states and the affinities hold
    T * n_samples * n doubles for the T times, so memory grows with
    ``n_samples`` and with the grid, however long. Each sample is certified
    by its affinity or by its exact fidelity, at most one eigensolve, and
    the result is the exact worst margin, bit for bit, whatever the chunk
    size. Keep n at desk scale (<= 10 or so). ``t_values`` is checked like
    distance_curve's grid.

    Returns the worst margin over all samples and times: the smallest
    fidelity minus min_j F_j at its time, NaN if a lower or an exact margin
    is NaN. Localized starts attain the minimum when it is at least
    -VIOLATION_TOL, the roundoff slack.
    """
    require_connected(sd)
    n_samples = check_int(n_samples, "sample count")
    if n_samples < 1:
        raise ValueError("need at least one sample")
    t_values = check_grid(t_values)
    rng = np.random.Generator(np.random.PCG64(check_int(seed, "seed")))
    n = sd.n

    props = form_propagators(sd, t_values)
    p, u = full_propagators(sd, props)
    # batch draws equal sequential draws, time by time
    z = rng.dirichlet(np.ones(n), size=(t_values.size, n_samples))
    q = np.clip(z @ p.swapaxes(-1, -2), 0.0, None)
    floor = reduce_propagators(sd, props)[0].min(axis=-1)
    lower = classical_quantum_affinity(q, u, z) - floor[:, None]
    if np.isnan(lower).any():
        return math.nan

    def margins(times, samples):
        """Exact margins of the samples (times[i], samples[i])."""
        fid = _fidelity(q[times, samples, None], u[times], z[times, samples, None])
        return fid[:, 0] - floor[times]

    first = np.unravel_index([lower.argmin()], lower.shape)
    worst = margins(*first)[0]
    candidate = ~(lower > worst + AFFINITY_SLACK)
    candidate[first] = False  # its exact margin is already in worst
    times, samples = np.nonzero(candidate)
    for c in walks.time_blocks(n * n, times.size):
        worst = np.minimum(worst, margins(times[c], samples[c]).min())
    return float(worst)


def _refused(names, exc: ValueError) -> list[CheckResult]:
    """Each of a unit's checks, failed by the unit's refusal ``exc``."""
    if isinstance(exc, np.linalg.LinAlgError):  # a computation error, not a refusal
        raise exc
    return [CheckResult(name=name, passed=False, detail=f"refused: {exc}") for name in names]


def run_checks(n_max: int, samples: int, seed: int) -> tuple[list[CheckResult], float | None]:
    """Every check of ``qcwalk verify``: the invariant checks, then the localized-optimality sweep.

    The sweep spreads ``samples`` Dirichlet draws across random connected
    graphs of sizes 3..n_max and times {0.1, 0.5, 1, 3}. ``n_max``,
    ``samples`` and ``seed`` are validated before any unit runs, all three
    by check_int and ``samples`` up to the count whose largest draw, at
    n_max, still fits one numpy array. The units run in report order: the
    invariant checks, then one per size, ascending. Returns the results in
    report order and the worst margin (by _worst: a NaN one, else the
    smallest), None if no size gave one. A unit that refuses its input (a
    ValueError other than numpy's LinAlgError) fails each of its checks,
    since none was established over the whole family, and the run goes on;
    any other exception ends the run.
    """
    n_max, samples = check_int(n_max, "n_max"), check_int(samples, "sample count")
    if n_max > 10:
        raise ValueError("n_max above 10 is not supported (dense fidelity cost)")
    if n_max < 3:
        raise ValueError("need n_max >= 3")
    if samples < 1:
        raise ValueError(f"need samples >= 1, got {samples}")
    seed = check_int(seed, "seed")
    sizes = range(3, n_max + 1)
    t_values = (0.1, 0.5, 1.0, 3.0)
    per_size = int(np.ceil(samples / (len(sizes) * len(t_values))))
    if len(t_values) * per_size * n_max * 8 > np.iinfo(np.intp).max:
        raise ValueError(f"samples {samples} too large: the draw at n={n_max} cannot be one array")
    drawn = per_size * len(t_values)
    try:
        results = run_invariant_checks(seed)
    except ValueError as exc:
        results = _refused(_TOLERANCES, exc)
    margins = []
    for n in sizes:
        name = f"localized optimality on random_connected({n})"
        try:
            g = generate("random_connected", n, extra=min(n - 1, 3), seed=seed + n)
            sd = eigendecompose(laplacian(g))
            worst = verify_localized_optimality(sd, per_size, t_values, seed=seed + n)
        except ValueError as exc:
            results += _refused([name], exc)
        else:
            margins.append(worst)
            detail = f"worst margin {worst:.3e} over {drawn} samples (floor {-VIOLATION_TOL:.0e})"
            results.append(CheckResult(name=name, passed=worst >= -VIOLATION_TOL, detail=detail))
    return results, _worst(margins, key=lambda margin: -margin)
