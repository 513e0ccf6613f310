"""Self-contained invariant spot checks, runnable from the CLI.

Each check evaluates one mathematical property the library relies on
(stochasticity, unitarity, semigroup composition, the fidelity reduction,
stationary values) on a small fixed family of graphs and reports the worst
error found against the property's tolerance. The checks are deterministic
given the seed. They are spot checks for field use; the test suite covers
the same ground more thoroughly.

:func:`run_checks` runs every check of ``qcwalk verify``. Its units, the
invariant checks and the optimality sweep's graph sizes, are independent
(each size seeds its graph and its draws with ``seed + n``), so they run in
one process per usable CPU, this one and ``os.fork``ed children; the
invariant checks always run here. Every unit is reported by one rule: a
refusal fails each of its checks, and any other exception is re-raised, the
first in report order. The output does not depend on the number of
processes. Without ``os.sched_getaffinity`` (outside Linux) every unit
runs here.
"""

from __future__ import annotations

import math
import os
import pickle
from dataclasses import dataclass

import numpy as np

from . import walks
from .distance import VIOLATION_TOL, qc_distance, verify_localized_optimality
from .graph import Graph, generate, laplacian
from .spectral import eigendecompose, real_propagators

__all__ = ["CheckResult", "WorkerLostError", "run_checks", "run_invariant_checks", "check_family"]


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
        add("laplacian row sums vanish", label, np.abs(lap.matrix.sum(axis=1)).max())
        trace = float(np.trace(lap.matrix))
        add("laplacian trace is -2|edges|", label, abs(trace + 2.0 * len(g.edges)))
        add(
            "eigendecomposition reconstructs L",
            label,
            np.abs((vecs * sd.eigenvalues) @ vecs.T - lap.matrix).max(),
        )
        add("eigenvectors orthonormal", label, np.abs(vecs.T @ vecs - eye).max())
        # read eigvalsh's own spectrum: eigendecompose sets the zero cluster to 0.0
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

        # the oracle is Uhlmann's fidelity of diag(p) and the pure |psi> = U e_j, in the closed
        # form <psi|diag(p)|psi> (Jozsa 1994), summed in complex arithmetic from the columns:
        # independent of the kernel's real reduction
        oracle_times, nodes = (0.3, 1.7), [0, sd.n - 1]
        p, re, im = real_propagators(sd, oracle_times)
        psi = (re + 1j * im)[..., nodes]
        oracle = (psi.conj() * np.maximum(p[..., nodes], 0.0) * psi).sum(axis=-2).real
        direct = walks.node_observables(sd, oracle_times).fidelity[..., nodes]
        for i, t in enumerate(oracle_times):
            for k, j in enumerate(nodes):
                err = abs(direct[i, k] - oracle[i, k])
                add("localized fidelity matches Uhlmann oracle", f"{label} j={j} t={t}", err)

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


def _optimality_unit(n: int, per_size: int, t_values, seed: int):
    """The unit of run_checks' deal that sweeps the random connected graph of size n."""
    name = f"localized optimality on random_connected({n})"

    def sweep() -> tuple[list[CheckResult], float]:
        g = generate("random_connected", n, extra=min(n - 1, 3), seed=seed + n)
        sd = eigendecompose(laplacian(g))
        margins = verify_localized_optimality(sd, per_size, t_values, seed=seed + n)
        worst = float(margins.min())
        detail = f"worst margin {worst:.3e} over {margins.size} samples (floor {-VIOLATION_TOL:.0e})"
        return [CheckResult(name=name, passed=worst >= -VIOLATION_TOL, detail=detail)], worst

    return n, [name], sweep


def _run_share(share) -> dict:
    """Per unit of ``share``, keyed as the unit: its (results, margin), or the exception it raised.

    The units run in report order. A refusal (see _refused) fails every
    check of its unit, since none was established over the whole family,
    and the share goes on; any other exception ends the share at its unit,
    as it would end a serial run.
    """
    outcomes = {}
    for key, names, thunk in sorted(share):
        try:
            outcomes[key] = thunk()
        except Exception as exc:  # a refusal is reported here, any other is re-raised by the caller
            if not _refused(exc):
                outcomes[key] = exc
                break
            refused = [CheckResult(name=name, passed=False, detail=f"refused: {exc}") for name in names]
            outcomes[key] = (refused, None)
    return outcomes


def _in_workers(shares) -> dict:
    """The merged outcomes of _run_share over all shares.

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
                        pickle.dump(_run_share(share), fh)
                    code = 0
                finally:
                    os._exit(code)
            os.close(write_fd)
            children.append((pid, read_fd, share))
        outcomes = _run_share(shares[0])
    finally:
        replies = []
        for pid, read_fd, share in children:
            with open(read_fd, "rb") as fh:
                data = fh.read()
            replies.append((share, data, os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])))
    for share, data, code in replies:
        if code != 0:
            status = f"exit status {code}" if code > 0 else f"signal {-code}"
            # the invariant unit always runs in this process, so a child's units are sizes
            sizes = ", ".join(str(key) for key, _, _ in sorted(share))
            raise WorkerLostError(
                f"optimality sweep worker for sizes {sizes} ended without a result ({status})"
            )
        # the bytes come from this function's own child, so they are safe to unpickle
        outcomes.update(pickle.loads(data))
    return outcomes


def run_checks(n_max: int, samples: int, seed: int) -> tuple[list[CheckResult], float | None]:
    """Every check of ``qcwalk verify``: the invariant checks, then the localized-optimality sweep.

    The sweep spreads ``samples`` Dirichlet draws across random connected
    graphs of sizes 3..n_max and times {0.1, 0.5, 1, 3}. ``n_max`` and
    ``samples`` are validated before any unit runs. The units, in report
    order, are the invariant checks and then one per size, ascending; each
    is a (key in report order, names of its checks, thunk) whose thunk
    returns its results and its margin, None for the invariant checks.
    Dealt round-robin from the invariant checks and then the largest size,
    they run in one process per usable CPU (at most one per unit), so the
    invariant checks always run in this process. Returns the results in
    report order and the worst margin (by _worst: a NaN one, else the
    smallest), None if no size gave one. A unit that refuses its input (a
    ValueError other than numpy's LinAlgError) fails each of its checks; any
    other exception is re-raised, the first in report order if several
    units raise, as a serial run would raise it.
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
    # keyed 0, the invariant unit comes before every size in report order
    units = [(0, list(_TOLERANCES), lambda: (run_invariant_checks(seed), None))]
    units += [_optimality_unit(n, per_size, t_values, seed) for n in reversed(sizes)]
    workers = min(_usable_cpus(), len(units))
    outcomes = _in_workers([units[w::workers] for w in range(workers)])
    results, margins = [], []
    # a unit missing from outcomes comes after an exception of its share, so it is never reached
    for key in sorted(outcomes):
        if isinstance(outcomes[key], Exception):
            raise outcomes[key]
        unit_results, margin = outcomes[key]
        results += unit_results
        if margin is not None:
            margins.append(margin)
    return results, _worst(margins, key=lambda margin: -margin)
