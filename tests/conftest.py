"""Shared pytest wiring.

The acceptance tests register one line per criterion in ACCEPTANCE_LINES;
the terminal-summary hook below prints them after the run so the criterion
verdicts are visible without -s. real_propagators forms the pair and
expands it to (n, n) matrices, the stack p, re, im the checks of verify
read; propagator_pair reads it as most tests want it, with the unitary
complex.

DensityMatrix and uhlmann_fidelity are the tests' independent fidelity
oracle: the general Uhlmann fidelity by nested matrix square roots, which
no qcwalk process runs (checks.classical_quantum_fidelity and the kernel's
closed form are what it checks). count_eigensolves counts the
eigensolver calls and matrices a block of code makes. renumbered relabels
a graph's nodes by a fixed permutation, for tests that check the program
against itself. series_oracle gives F, C and 1 - G at one launch node from
the Taylor series of both propagators in exact integer powers of the
Laplacian, for times short next to 1 / max|λ|. random_connected_edges builds
random_connected's edges by loops, drawing node 1's chords from an explicit
list of candidates.
"""

from dataclasses import dataclass

import mpmath
import numpy as np

from qcwalk import graph_from_edges, laplacian
from qcwalk.checks import _PURE_THRESHOLD, _check_weights
from qcwalk.spectral import form_propagators, full_propagators

ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter):
    if not ACCEPTANCE_LINES:
        return
    terminalreporter.section("acceptance criteria")
    for line in ACCEPTANCE_LINES:
        terminalreporter.write_line(line)


def real_propagators(sd, t):
    """exp(L t), Re exp(i L t) and Im exp(i L t), stacked, shape (3,) + np.shape(t) + (n, n).

    The formed stack expanded: every matrix exactly symmetric at n <=
    PAIR_PRODUCT_MAX_N and, where t == 0, exactly I, I or 0.
    """
    return full_propagators(sd, form_propagators(sd, t))


def propagator_pair(sd, t):
    """exp(L t) and the complex exp(i L t), both read from real_propagators."""
    p, re, im = real_propagators(sd, t)
    return p, re + 1j * im


def renumbered(g, seed: int = 0):
    """g with node j renamed perm[j], perm a PCG64 permutation of its n nodes, and the map back.

    Returns the renamed graph and a function that takes a record of it (its
    last axis the launch nodes) to g's numbering: entry j of the result is
    entry perm[j] of the record.
    """
    perm = np.random.Generator(np.random.PCG64(seed)).permutation(g.n)
    renamed = graph_from_edges(g.n, [(perm[u], perm[v]) for u, v in g.edges])
    return renamed, lambda obs: obs[..., perm]


def random_connected_edges(n: int, extra: int, seed: int) -> tuple[tuple[int, int], ...]:
    """The canonical edges of generate("random_connected", n, extra, seed), built by loops.

    The ring 0-1-...-(n-1)-0, and node 1 joined to ``extra - 2`` nodes that
    a PCG64 Generator's choice draws without replacement from the list of
    node 1's non-neighbors [3, ..., n-1].
    """
    rng = np.random.Generator(np.random.PCG64(seed))
    candidates = [k for k in range(n) if k not in (0, 1, 2)]
    chosen = rng.choice(candidates, size=extra - 2, replace=False)
    edges = [(i, i + 1) for i in range(n - 1)] + [(0, n - 1)]
    for k in chosen:
        edges.append((1, int(k)))
    return tuple(sorted(edges))


def series_oracle(g, j: int, times) -> list[dict]:
    """F, C and 1 - G of graph ``g`` at launch node j, one dict of mpmath values per time.

    Column j of exp(L t) and of exp(i L t) is sum_m (t^m / m!) L^m e_j, with
    i^m in the second. L^m e_j is formed exactly in Python integers and the
    sums are taken at 40 digits; only the range check reads the spectrum.
    Term m is at most (2Δt)^m / m! in size, Δ the largest degree, and the
    sum stops at the first m where that bound is below 1e-45. The terms
    grow before they fall, and their norms add up to at most e^{t max|λ|},
    so a time with t · max|λ| > 8, where the cancellation would cost more
    than about 3.5 of the 40 digits, is refused with ValueError. A p_kj
    below the roundoff is read as 0, as in the mpmath.expm oracle.
    """
    max_lambda = np.abs(np.linalg.eigvalsh(laplacian(g))).max()
    neighbours = [[] for _ in range(g.n)]
    for u, v in g.edges:
        neighbours[u].append(v)
        neighbours[v].append(u)
    two_delta = 2 * max(len(nb) for nb in neighbours)
    powers = [[int(k == j) for k in range(g.n)]]
    values = []
    with mpmath.workdps(40):
        for t in times:
            if not 0 <= t * max_lambda <= 8:
                raise ValueError(f"t = {t} is outside the series' range 0 <= t * max|lambda| <= 8")
            coefficients, c, bound = [], mpmath.mpf(1), 1.0
            while bound >= 1e-45:
                m = len(coefficients)
                if m == len(powers):
                    v = powers[-1]
                    powers.append([sum(v[l] for l in nb) - len(nb) * v[k] for k, nb in enumerate(neighbours)])
                coefficients.append(c)
                c, bound = c * mpmath.mpf(t) / (m + 1), bound * two_delta * t / (m + 1)
            # i^m is 1, i, -1, -i: even terms are the real part, odd terms the imaginary one
            parts = [[cm * (1, 0, -1, 0)[(m + r) % 4] for m, cm in enumerate(coefficients)] for r in (0, 3)]
            p, a = [], []
            for k in range(g.n):
                column = [powers[m][k] for m in range(len(coefficients))]
                p.append(max(mpmath.fdot(coefficients, column), 0))
                a.append(mpmath.hypot(*(mpmath.fdot(part, column) for part in parts)))
            values.append(
                {
                    "F": mpmath.fsum(pk * ak**2 for pk, ak in zip(p, a)),
                    "C": mpmath.fsum(a) ** 2 - 1,
                    "1 - G": 1 - mpmath.fsum(mpmath.sqrt(pk) * ak for pk, ak in zip(p, a)),
                }
            )
    return values


def count_eigensolves(monkeypatch) -> dict[str, int]:
    """Patch np.linalg.eigh and eigvalsh to count into the returned dict.

    ``eigh`` and ``eigvalsh`` count calls, ``matrices`` the matrices of all
    of them (a stacked call counts its stack size); reset the entries to
    count afresh.
    """
    counts = {"eigh": 0, "eigvalsh": 0, "matrices": 0}
    for name in ("eigh", "eigvalsh"):

        def counted(a, *args, _name=name, _original=getattr(np.linalg, name), **kwargs):
            counts[_name] += 1
            counts["matrices"] += int(np.prod(np.shape(a)[:-2]))
            return _original(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    return counts


_HERMITICITY_TOL = 1e-12


@dataclass(frozen=True)
class DensityMatrix:
    """Validated density matrix: square, Hermitian, unit trace, positive semidefinite.

    Positivity is read from one eigvalsh; a non-finite trace or eigenvalue
    is refused as well. The trace and negativity messages are those of
    checks.classical_quantum_fidelity.
    """

    matrix: np.ndarray

    def __post_init__(self):
        m = np.array(self.matrix, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError("density matrix must be square")
        if m.size == 0:
            raise ValueError("density matrix must not be empty")
        if np.abs(m - m.conj().T).max() > _HERMITICITY_TOL:
            raise ValueError("density matrix must be Hermitian")
        _check_weights(np.trace(m), np.linalg.eigvalsh(m))
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    @property
    def n(self) -> int:
        return self.matrix.shape[0]

    @classmethod
    def diagonal(cls, p) -> "DensityMatrix":
        """Classical state: probabilities on the diagonal, no coherences."""
        p = np.asarray(p, dtype=float)
        return cls(np.diag(p).astype(complex))

    @classmethod
    def pure(cls, psi) -> "DensityMatrix":
        """Rank-one projector |psi><psi| from a normalized state vector."""
        psi = np.asarray(psi, dtype=complex)
        return cls(np.outer(psi, psi.conj()))


def _psd_sqrt(m: np.ndarray) -> np.ndarray:
    vals, vecs = np.linalg.eigh(m)
    vals = np.clip(vals, 0.0, None)
    return (vecs * np.sqrt(vals)) @ vecs.conj().T


def uhlmann_fidelity(rho1: DensityMatrix, rho2: DensityMatrix) -> float:
    """Fidelity [tr sqrt(sqrt(rho1) rho2 sqrt(rho1))]^2, clamped to [0, 1].

    Shortcut for rank-one inputs: if either state is pure |psi><psi| the
    fidelity collapses to <psi| rho |psi>, which is both faster and better
    conditioned than the nested square roots.
    """
    if rho1.n != rho2.n:
        raise ValueError("density matrices must have equal dimension")
    for pure, other in ((rho1, rho2), (rho2, rho1)):
        vals, vecs = np.linalg.eigh(pure.matrix)
        if vals[-1] > _PURE_THRESHOLD:
            psi = vecs[:, -1]
            return float(np.clip((psi.conj() @ other.matrix @ psi).real, 0.0, 1.0))
    root = _psd_sqrt(rho1.matrix)
    inner = root @ rho2.matrix @ root
    vals = np.clip(np.linalg.eigvalsh(inner), 0.0, None)
    return float(np.clip(np.sqrt(vals).sum() ** 2, 0.0, 1.0))
