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
from .distance import VIOLATION_TOL, qc_distance, verify_localized_optimality
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
    "unitary propagator group inverse": 1e-8,
    "localized fidelity matches Uhlmann oracle": 1e-9,
    "long-time plateau 1 - 1/n": 1e-2,
    "regular graphs are node equivalent": 1e-10,
}


def _result(name: str, errs: list[tuple[str, float]]) -> CheckResult:
    """Worst error of one check against its tolerance; the first maximum wins."""
    where, worst = max(errs, key=lambda kv: kv[1])
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
        add("laplacian row sums vanish", label, np.abs(lap.matrix.sum(axis=1)).max())
        trace = float(np.trace(lap.matrix))
        add("laplacian trace is -2|edges|", label, abs(trace + 2.0 * len(g.edges)))
        add(
            "eigendecomposition reconstructs L",
            label,
            np.abs((vecs * sd.eigenvalues) @ vecs.T - lap.matrix).max(),
        )
        add("eigenvectors orthonormal", label, np.abs(vecs.T @ vecs - eye).max())
        # read eigvalsh's own spectrum: eigendecompose pins a connected graph's zero mode to 0.0
        vals = np.linalg.eigvalsh(lap.matrix)
        add("zero mode first, spectrum nonpositive", label, max(np.abs(vals).min(), vals.max()))

        for t in t_samples:
            where = f"{label} t={t:.3f}"
            p = heat_propagator(sd, t)
            u = unitary_propagator(sd, t)
            stoch = max(np.abs(p.sum(axis=0) - 1.0).max(), np.abs(p.sum(axis=1) - 1.0).max())
            add("heat propagator doubly stochastic", where, stoch)
            add("heat propagator entries in [0, 1]", where, max(-p.min(), p.max() - 1.0, 0.0))
            add("unitary propagator unitary", where, np.abs(u @ u.conj().T - eye).max())

        for _ in range(3):
            t1, t2 = rng.uniform(0.0, 5.0, size=2)
            lhs = heat_propagator(sd, t1) @ heat_propagator(sd, t2)
            add(
                "heat propagator semigroup",
                f"{label} t1={t1:.3f} t2={t2:.3f}",
                np.abs(lhs - heat_propagator(sd, t1 + t2)).max(),
            )
            t = rng.uniform(0.0, 5.0)
            prod = unitary_propagator(sd, t) @ unitary_propagator(sd, -t)
            add("unitary propagator group inverse", f"{label} t={t:.3f}", np.abs(prod - eye).max())

        # the oracle is built by hand from the propagators, independent of the kernel
        for t in (0.3, 1.7):
            p = heat_propagator(sd, t)
            u = unitary_propagator(sd, t)
            direct = walks.node_observables(sd, t).fidelity
            for j in (0, sd.n - 1):
                oracle = uhlmann_fidelity(
                    DensityMatrix.diagonal(np.clip(p[:, j], 0.0, None)),
                    DensityMatrix.pure(u[:, j]),
                )
                where = f"{label} j={j} t={t}"
                add("localized fidelity matches Uhlmann oracle", where, abs(direct[j] - oracle))

        t_inf = 50.0 / sd.fiedler
        value, _ = qc_distance(sd, t_inf)
        add("long-time plateau 1 - 1/n", f"{label} t={t_inf:.1f}", abs(value - (1.0 - 1.0 / sd.n)))

        if label in ("complete(5)", "ring(6)"):
            for t in (0.2, 1.0, 4.0):
                fid = walks.node_observables(sd, t).fidelity
                add("regular graphs are node equivalent", f"{label} t={t}", fid.max() - fid.min())

    return [_result(name, found) for name, found in errs.items()]


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
        margins = verify_localized_optimality(sd, per_size, t_values, seed=seed + n)
        size_worst = float(margins.min())
        worst = min(worst, size_worst)
        results.append(
            CheckResult(
                name=f"localized optimality on random_connected({n})",
                passed=size_worst >= -VIOLATION_TOL,
                detail=(
                    f"worst margin {size_worst:.3e} over "
                    f"{margins.size} samples (floor {-VIOLATION_TOL:.0e})"
                ),
            )
        )
    return results, float(worst)
