"""Self-contained invariant spot checks, runnable from the CLI.

Each check evaluates one mathematical property the library relies on
(stochasticity, unitarity, semigroup composition, the fidelity reduction,
stationary values) on a small fixed family of graphs and reports the worst
error found against the property's tolerance. The checks are deterministic
given the seed. They are spot checks for field use; the test suite covers
the same ground more thoroughly.

:func:`run_checks` runs every check of ``qcwalk verify`` in this process.
Its units, the invariant checks and the optimality sweep's graph sizes
(each size seeds its graph and its draws with ``seed + n``), run in report
order, and every unit is reported by one rule: a refusal fails each of its
checks, and any other exception ends the run. Each size eigensolves only
the samples its affinity bound cannot certify (see
:func:`qcwalk.distance.verify_localized_optimality`).
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from . import walks
from .distance import VIOLATION_TOL, qc_distance, verify_localized_optimality
from .graph import Graph, generate, laplacian
from .spectral import eigendecompose, real_propagators

__all__ = ["CheckResult", "run_checks", "run_invariant_checks", "check_family"]


class CheckResult(NamedTuple):
    name: str
    passed: bool
    detail: str


def check_family(seed: int = 0) -> list[tuple[str, Graph]]:
    """Small connected graphs exercising every generator."""
    return [
        ("complete(5)", generate("complete", 5)),
        ("ring(6)", generate("ring", 6)),
        ("path(4)", generate("path", 4)),
        ("star(5)", generate("star", 5)),
        ("wheel(6)", generate("wheel", 6)),
        ("random_connected(8,4)", generate("random_connected", 8, extra=4, seed=seed)),
    ]


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
    rng = np.random.Generator(np.random.PCG64(int(seed)))
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

        # each group of sampled times is one grid: one propagator call per group, the
        # route the kernel reads
        p, re, im = real_propagators(sd, t_samples)
        u = re + 1j * im
        rows, cols = np.abs(p.sum(axis=-1) - 1.0), np.abs(p.sum(axis=-2) - 1.0)
        stoch = np.maximum(cols.max(axis=-1), rows.max(axis=-1))
        bounds = np.maximum(np.maximum(-p.min(axis=(-2, -1)), p.max(axis=(-2, -1)) - 1.0), 0.0)
        unitarity = np.abs(u @ u.conj().swapaxes(-1, -2) - eye).max(axis=(-2, -1))
        for i, t in enumerate(t_samples):
            where = f"{label} t={t:.3f}"
            add("heat propagator doubly stochastic", where, stoch[i])
            add("heat propagator entries in [0, 1]", where, bounds[i])
            add("unitary propagator unitary", where, unitarity[i])

        # three rounds of three draws, (t1, t2) the first two of each: one (3, 3) batch
        # equals the draws taken round by round
        t1, t2 = rng.uniform(0.0, 5.0, size=(3, 3)).T[:2]
        p, re, im = real_propagators(sd, np.stack([t1, t2, t1 + t2]))
        u = re + 1j * im
        semigroup = np.abs(p[0] @ p[1] - p[2]).max(axis=(-2, -1))
        group = np.abs(u[0] @ u[1] - u[2]).max(axis=(-2, -1))
        for i in range(3):
            where = f"{label} t1={t1[i]:.3f} t2={t2[i]:.3f}"
            add("heat propagator semigroup", where, semigroup[i])
            add("unitary propagator group law", where, group[i])

        # the oracle is Uhlmann's fidelity of diag(p) and the pure |psi> = U e_j, in the closed
        # form <psi|diag(p)|psi> (Jozsa 1994), summed in complex arithmetic from the columns:
        # independent of the kernel's real reduction
        oracle_times, nodes = (0.3, 1.7), [0, sd.n - 1]
        p, re, im = real_propagators(sd, oracle_times)
        psi = (re + 1j * im)[..., nodes]
        oracle = (psi.conj() * np.maximum(p[..., nodes], 0.0) * psi).sum(axis=-2).real
        direct = walks.node_observables(sd, oracle_times)[0][..., nodes]
        for i, t in enumerate(oracle_times):
            for k, j in enumerate(nodes):
                err = abs(direct[i, k] - oracle[i, k])
                add("localized fidelity matches Uhlmann oracle", f"{label} j={j} t={t}", err)

        t_inf = 50.0 / sd.fiedler
        value, _ = qc_distance(sd, t_inf)
        add("long-time plateau 1 - 1/n", f"{label} t={t_inf:.1f}", abs(value - (1.0 - 1.0 / sd.n)))

        if label in ("complete(5)", "ring(6)"):
            regular_times = (0.2, 1.0, 4.0)
            fid = walks.node_observables(sd, regular_times)[0]
            spread = fid.max(axis=-1) - fid.min(axis=-1)
            for t, err in zip(regular_times, spread):
                add("regular graphs are node equivalent", f"{label} t={t}", err)

    return [_result(name, found) for name, found in errs.items()]


def _optimality_unit(n: int, per_size: int, t_values, seed: int):
    """The unit of run_checks that sweeps the random connected graph of size n."""
    name = f"localized optimality on random_connected({n})"

    def sweep() -> tuple[list[CheckResult], float]:
        g = generate("random_connected", n, extra=min(n - 1, 3), seed=seed + n)
        sd = eigendecompose(laplacian(g))
        worst = verify_localized_optimality(sd, per_size, t_values, seed=seed + n)
        samples = per_size * len(t_values)
        detail = f"worst margin {worst:.3e} over {samples} samples (floor {-VIOLATION_TOL:.0e})"
        return [CheckResult(name=name, passed=worst >= -VIOLATION_TOL, detail=detail)], worst

    return [name], sweep


def run_checks(n_max: int, samples: int, seed: int) -> tuple[list[CheckResult], float | None]:
    """Every check of ``qcwalk verify``: the invariant checks, then the localized-optimality sweep.

    The sweep spreads ``samples`` Dirichlet draws across random connected
    graphs of sizes 3..n_max and times {0.1, 0.5, 1, 3}. ``n_max`` and
    ``samples`` are validated before any unit runs. The units run in report
    order: the invariant checks, then one per size, ascending; each is a
    (names of its checks, thunk) whose thunk returns its results and its
    margin, None for the invariant checks. Returns the results in report
    order and the worst margin (by _worst: a NaN one, else the smallest),
    None if no size gave one. A unit that refuses its input (a ValueError
    other than numpy's LinAlgError) fails each of its checks, since none was
    established over the whole family, and the run goes on; any other
    exception ends the run.
    """
    if n_max > 10:
        raise ValueError("n_max above 10 is not supported (dense fidelity cost)")
    if n_max < 3:
        raise ValueError("need n_max >= 3")
    if samples < 1:
        raise ValueError(f"need samples >= 1, got {samples}")
    sizes = range(3, n_max + 1)
    t_values = (0.1, 0.5, 1.0, 3.0)
    per_size = int(np.ceil(samples / (len(sizes) * len(t_values))))
    units = [(list(_TOLERANCES), lambda: (run_invariant_checks(seed), None))]
    units += [_optimality_unit(n, per_size, t_values, seed) for n in sizes]
    results, margins = [], []
    for names, thunk in units:
        try:
            unit_results, margin = thunk()
        except ValueError as exc:
            if isinstance(exc, np.linalg.LinAlgError):  # a computation error, not a refusal
                raise
            unit_results = [CheckResult(name=name, passed=False, detail=f"refused: {exc}") for name in names]
            margin = None
        results += unit_results
        if margin is not None:
            margins.append(margin)
    return results, _worst(margins, key=lambda margin: -margin)
