"""Self-contained invariant spot checks, runnable from the CLI.

Each check evaluates one mathematical property the library relies on
(stochasticity, unitarity, semigroup composition, the fidelity reduction,
stationary values) on a small fixed family of graphs and reports the worst
error found against the property's tolerance. The checks are deterministic
given the seed. They are spot checks for field use; the test suite covers
the same ground more thoroughly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import walks
from .distance import qc_distance, verify_localized_optimality
from .graph import Graph, generate, laplacian
from .spectral import (
    DensityMatrix,
    eigendecompose,
    heat_propagator,
    unitary_propagator,
    uhlmann_fidelity,
)

__all__ = ["CheckResult", "run_invariant_checks", "run_optimality_checks", "check_family"]


@dataclass(frozen=True)
class CheckResult:
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


def _result(name: str, worst: float, tol: float, where: str) -> CheckResult:
    return CheckResult(
        name=name,
        passed=worst <= tol,
        detail=f"worst error {worst:.3e} (tolerance {tol:.0e}) at {where}",
    )


def run_invariant_checks(seed: int = 0) -> list[CheckResult]:
    """Numerical invariants of the graph, spectral, and walk layers."""
    rng = np.random.Generator(np.random.PCG64(int(seed)))
    family = check_family(seed)
    results: list[CheckResult] = []

    def sweep(name, tol, errs):
        worst_label, worst = max(errs, key=lambda kv: kv[1])
        results.append(_result(name, worst, tol, worst_label))

    laps = [(label, laplacian(g)) for label, g in family]
    decs = [(label, eigendecompose(lap)) for label, lap in laps]

    sweep(
        "laplacian row sums vanish",
        1e-12,
        [(label, float(np.abs(lap.matrix.sum(axis=1)).max())) for label, lap in laps],
    )
    sweep(
        "laplacian trace is -2|edges|",
        1e-12,
        [
            (label, abs(float(np.trace(lap.matrix)) + 2.0 * len(g.edges)))
            for (label, lap), (_, g) in zip(laps, family)
        ],
    )
    sweep(
        "eigendecomposition reconstructs L",
        1e-9,
        [
            (
                label,
                float(
                    np.abs(
                        (sd.eigenvectors * sd.eigenvalues) @ sd.eigenvectors.T - lap.matrix
                    ).max()
                ),
            )
            for (label, sd), (_, lap) in zip(decs, laps)
        ],
    )
    sweep(
        "eigenvectors orthonormal",
        1e-9,
        [
            (
                label,
                float(np.abs(sd.eigenvectors.T @ sd.eigenvectors - np.eye(sd.n)).max()),
            )
            for label, sd in decs
        ],
    )
    # read eigvalsh's own spectrum: eigendecompose pins a connected graph's zero mode to 0.0
    spectra = [(label, np.linalg.eigvalsh(lap.matrix)) for label, lap in laps]
    sweep(
        "zero mode first, spectrum nonpositive",
        1e-9,
        [
            (label, max(float(np.abs(vals).min()), float(vals.max())))
            for label, vals in spectra
        ],
    )

    t_samples = rng.uniform(0.0, 5.0, size=4)
    stoch_errs, band_errs, unit_errs = [], [], []
    for label, sd in decs:
        for t in t_samples:
            p = heat_propagator(sd, t)
            stoch_errs.append(
                (
                    f"{label} t={t:.3f}",
                    max(
                        float(np.abs(p.sum(axis=0) - 1.0).max()),
                        float(np.abs(p.sum(axis=1) - 1.0).max()),
                    ),
                )
            )
            band_errs.append(
                (f"{label} t={t:.3f}", max(float(-p.min()), float(p.max() - 1.0), 0.0))
            )
            u = unitary_propagator(sd, t)
            unit_errs.append(
                (
                    f"{label} t={t:.3f}",
                    float(np.abs(u @ u.conj().T - np.eye(sd.n)).max()),
                )
            )
    sweep("heat propagator doubly stochastic", 1e-10, stoch_errs)
    sweep("heat propagator entries in [0, 1]", 1e-10, band_errs)
    sweep("unitary propagator unitary", 1e-10, unit_errs)

    semi_errs, group_errs = [], []
    for label, sd in decs:
        for _ in range(3):
            t1, t2 = rng.uniform(0.0, 5.0, size=2)
            lhs = heat_propagator(sd, t1) @ heat_propagator(sd, t2)
            semi_errs.append(
                (
                    f"{label} t1={t1:.3f} t2={t2:.3f}",
                    float(np.abs(lhs - heat_propagator(sd, t1 + t2)).max()),
                )
            )
            t = rng.uniform(0.0, 5.0)
            prod = unitary_propagator(sd, t) @ unitary_propagator(sd, -t)
            group_errs.append(
                (f"{label} t={t:.3f}", float(np.abs(prod - np.eye(sd.n)).max()))
            )
    sweep("heat propagator semigroup", 1e-8, semi_errs)
    sweep("unitary propagator group inverse", 1e-8, group_errs)

    # the oracle is built by hand from the propagators, independent of the kernel
    fid_errs = []
    for label, sd in decs:
        for t in (0.3, 1.7):
            p = heat_propagator(sd, t)
            u = unitary_propagator(sd, t)
            direct = walks.node_observables(sd, t).fidelity
            for j in (0, sd.n - 1):
                oracle = uhlmann_fidelity(
                    DensityMatrix.diagonal(np.clip(p[:, j], 0.0, None)),
                    DensityMatrix.pure(u[:, j]),
                )
                fid_errs.append((f"{label} j={j} t={t}", abs(direct[j] - oracle)))
    sweep("localized fidelity matches Uhlmann oracle", 1e-9, fid_errs)

    plateau_errs = []
    for label, sd in decs:
        t_inf = 50.0 / sd.fiedler
        value, _ = qc_distance(sd, t_inf)
        plateau_errs.append((f"{label} t={t_inf:.1f}", abs(value - (1.0 - 1.0 / sd.n))))
    sweep("long-time plateau 1 - 1/n", 1e-2, plateau_errs)

    regular_errs = []
    for label in ("ring(6)", "complete(5)"):
        sd = dict(decs)[label]
        for t in (0.2, 1.0, 4.0):
            fid = walks.node_observables(sd, t).fidelity
            regular_errs.append((f"{label} t={t}", float(fid.max() - fid.min())))
    sweep("regular graphs are node equivalent", 1e-10, regular_errs)

    return results


def run_optimality_checks(
    n_max: int = 8, samples: int = 200, seed: int = 0
) -> tuple[list[CheckResult], float]:
    """Localized-optimality sweep over random connected graphs.

    Spreads ``samples`` Dirichlet draws across sizes 3..n_max and times
    {0.1, 0.5, 1, 3}; returns per-size results plus the worst margin seen.
    """
    if n_max > 10:
        raise ValueError("n_max above 10 is not supported (dense fidelity cost)")
    if n_max < 3:
        raise ValueError("need n_max >= 3")
    if samples < 1:
        raise ValueError(f"need samples >= 1, got {samples}")
    sizes = list(range(3, n_max + 1))
    t_values = (0.1, 0.5, 1.0, 3.0)
    per_size = int(np.ceil(samples / (len(sizes) * len(t_values))))
    results = []
    worst = np.inf
    for n in sizes:
        g = generate("random_connected", n, extra=min(n - 1, 3), seed=seed + n)
        sd = eigendecompose(laplacian(g))
        report = verify_localized_optimality(sd, per_size, t_values, seed=seed + n)
        worst = min(worst, report.worst_violation)
        results.append(
            CheckResult(
                name=f"localized optimality on random_connected({n})",
                passed=report.passed,
                detail=(
                    f"worst margin {report.worst_violation:.3e} over "
                    f"{report.margins.size} samples (floor -1e-08)"
                ),
            )
        )
    return results, float(worst)
