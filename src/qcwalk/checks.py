"""Self-contained invariant spot checks, runnable from the CLI.

Each check evaluates one mathematical property the library relies on
(stochasticity, unitarity, semigroup composition, the fidelity reduction,
stationary values) on a small fixed family of graphs and reports the worst
error found against the property's tolerance. The checks are deterministic
given the seed. They are spot checks for field use; the test suite covers
the same ground more thoroughly.

The optimality sweep's graph sizes are independent (each seeds its graph and
its draws with ``seed + n``), so they run in one process per usable CPU, this
one and ``os.fork``ed children; the output does not depend on their number.
Without ``os.sched_getaffinity`` (outside Linux) every size runs here.
"""

from __future__ import annotations

import os
import pickle
from dataclasses import dataclass

import numpy as np

from . import walks
from .distance import VIOLATION_TOL, qc_distance, verify_localized_optimality
from .graph import Graph, generate, laplacian
from .spectral import DensityMatrix, eigendecompose, real_propagators, uhlmann_fidelity

__all__ = ["CheckResult", "WorkerLostError", "run_invariant_checks", "run_optimality_checks", "check_family"]


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


class WorkerLostError(RuntimeError):
    """A forked worker of the optimality sweep ended without sending its outcomes."""


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

        # the oracle is built by hand from the propagators, independent of the kernel's reduction
        oracle_times = (0.3, 1.7)
        p, re, im = real_propagators(sd, oracle_times)
        u = re + 1j * im
        direct = walks.node_observables(sd, oracle_times).fidelity
        for i, t in enumerate(oracle_times):
            for j in (0, sd.n - 1):
                oracle = uhlmann_fidelity(
                    DensityMatrix.diagonal(np.clip(p[i, :, j], 0.0, None)),
                    DensityMatrix.pure(u[i, :, j]),
                )
                where = f"{label} j={j} t={t}"
                add("localized fidelity matches Uhlmann oracle", where, abs(direct[i, j] - oracle))

        t_inf = 50.0 / sd.fiedler
        value, _ = qc_distance(sd, t_inf)
        add("long-time plateau 1 - 1/n", f"{label} t={t_inf:.1f}", abs(value - (1.0 - 1.0 / sd.n)))

        if label in ("complete(5)", "ring(6)"):
            regular_times = (0.2, 1.0, 4.0)
            fid = walks.node_observables(sd, regular_times).fidelity
            spread = fid.max(axis=-1) - fid.min(axis=-1)
            for t, err in zip(regular_times, spread):
                add("regular graphs are node equivalent", f"{label} t={t}", err)

    return [_result(name, found) for name, found in errs.items()]


def _usable_cpus() -> int:
    """CPUs this process may run on (Linux); 1 where the platform cannot say."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return 1


def _refused(exc: BaseException) -> bool:
    """A refused state or unitary: any ValueError but numpy's LinAlgError (a computation error)."""
    return isinstance(exc, ValueError) and not isinstance(exc, np.linalg.LinAlgError)


def _sweep_sizes(sizes, per_size: int, t_values, seed: int) -> dict:
    """Per size, ascending: (worst margin, sample count), or the exception its sweep raised.

    A refusal (see _refused) is that size's outcome and the sweep goes on;
    any other exception ends the sweep at its size, as it would end a
    serial loop.
    """
    outcomes = {}
    for n in sorted(sizes):
        try:
            g = generate("random_connected", n, extra=min(n - 1, 3), seed=seed + n)
            sd = eigendecompose(laplacian(g))
            margins = verify_localized_optimality(sd, per_size, t_values, seed=seed + n)
            outcomes[n] = (float(margins.min()), margins.size)
        except Exception as exc:  # handed to the caller, which reports or re-raises it
            outcomes[n] = exc
            if not _refused(exc):
                break
    return outcomes


def _in_workers(shares, sweep) -> dict:
    """The merged outcomes of sweep(share) over all shares.

    The first share runs in this process, each other one in a forked child
    that pickles its outcomes through a pipe and always leaves through
    os._exit. Every child is read and reaped before this returns or raises;
    one that exits without its outcomes raises WorkerLostError.
    """
    children = []  # (pid, read end of its pipe, share)
    try:
        for share in shares[1:]:
            read_fd, write_fd = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(read_fd)
                os.close(write_fd)
                raise
            if pid == 0:
                code = 1
                try:
                    os.close(read_fd)
                    with open(write_fd, "wb") as fh:
                        pickle.dump(sweep(share), fh)
                    code = 0
                finally:
                    os._exit(code)
            os.close(write_fd)
            children.append((pid, read_fd, share))
        outcomes = sweep(shares[0])
    finally:
        replies = []
        for pid, read_fd, share in children:
            with open(read_fd, "rb") as fh:
                data = fh.read()
            replies.append((share, data, os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])))
    for share, data, code in replies:
        if code != 0:
            status = f"exit status {code}" if code > 0 else f"signal {-code}"
            sizes = ", ".join(map(str, sorted(share)))
            raise WorkerLostError(
                f"optimality sweep worker for sizes {sizes} ended without a result ({status})"
            )
        # the bytes come from this function's own child, so they are safe to unpickle
        outcomes.update(pickle.loads(data))
    return outcomes


def run_optimality_checks(n_max: int, samples: int, seed: int) -> tuple[list[CheckResult], float]:
    """Localized-optimality sweep over random connected graphs.

    Spreads ``samples`` Dirichlet draws across sizes 3..n_max and times
    {0.1, 0.5, 1, 3}; returns per-size results, in ascending size, plus the
    worst margin seen. The sizes are dealt round-robin, largest first, to
    one process per usable CPU (at most one per size). A size whose sweep
    refuses its input (a ValueError other than numpy's LinAlgError) is a
    failed result; any other exception is re-raised, that of the smallest
    size if several raise, as a serial loop over the sizes would.
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
    workers = min(_usable_cpus(), len(sizes))
    shares = [sizes[::-1][w::workers] for w in range(workers)]
    outcomes = _in_workers(shares, lambda share: _sweep_sizes(share, per_size, t_values, seed))
    raised = [n for n, o in outcomes.items() if isinstance(o, Exception) and not _refused(o)]
    if raised:
        raise outcomes[min(raised)]
    results = []
    worst = np.inf
    for n in sizes:
        name = f"localized optimality on random_connected({n})"
        if isinstance(outcomes[n], Exception):
            results.append(CheckResult(name=name, passed=False, detail=f"refused: {outcomes[n]}"))
            continue
        size_worst, count = outcomes[n]
        worst = min(worst, size_worst)
        results.append(
            CheckResult(
                name=name,
                passed=size_worst >= -VIOLATION_TOL,
                detail=(
                    f"worst margin {size_worst:.3e} over "
                    f"{count} samples (floor {-VIOLATION_TOL:.0e})"
                ),
            )
        )
    return results, float(worst)
