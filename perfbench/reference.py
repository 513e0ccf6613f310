"""Independent reference for every benchmark output, through scipy.linalg.expm.

The program forms both propagators from one eigendecomposition; this module
forms them as ``expm(L t)`` and ``expm(1j L t)`` from a Laplacian it builds
itself from the generated graph's edge list. Only graph generation is shared
with the program. A cell passes when it is within ``1e-7 * max(1, |ref|)``
of the reference.
"""

from __future__ import annotations

import math
import re

import numpy as np
from scipy.linalg import expm

from qcwalk.graph import generate
from workloads import flags

REL_TOL = 1e-7

#: the program reports a gamma ratio as NA when the asymptote maximum is at or below this
RATIO_FLOOR = 1e-12

_NODE_QUANTITIES = ("conditional", "coherence", "gfid", "short", "long")

_OPT_LINE = re.compile(
    r"^\[(ok |FAIL)\] localized optimality on random_connected\((\d+)\): "
    r"worst margin (\S+) over (\d+) samples"
)
_WORST_LINE = re.compile(r"^worst optimality margin: (\S+)$")
_ALL_PASSED = re.compile(r"^all (\d+) checks passed$")


class CheckFailed(Exception):
    """An output does not match the reference; the op counts as failed."""


def tolerance(ref):
    return REL_TOL * np.maximum(1.0, np.abs(ref))


def laplacian(g) -> np.ndarray:
    """Dense Laplacian with diagonal -deg(j), built from the edge list."""
    lap = np.zeros((g.n, g.n))
    for u, v in g.edges:
        lap[u, v] = lap[v, u] = 1.0
    lap[np.diag_indices(g.n)] = -lap.sum(axis=1)
    return lap


def node_observables(lap: np.ndarray, t: float):
    """Per launch node j: D_QC(t|j), C_j(t), G_j(t) from expm propagators."""
    p = expm(lap * t)
    a = np.abs(expm(1j * lap * t))
    fidelity = np.clip((p * a**2).sum(axis=0), 0.0, 1.0)
    coherence = np.maximum(a.sum(axis=0) ** 2 - 1.0, 0.0)
    gfid = np.clip((np.sqrt(np.clip(p, 0.0, None)) * a).sum(axis=0), 0.0, 1.0)
    return 1.0 - fidelity, coherence, gfid


def _graph(spec: str, seed: int):
    kind, n, *extra = spec.split(":")
    return generate(kind, int(n), extra=int(extra[0]) if extra else None, seed=seed)


def _default_grid(lap: np.ndarray, steps: int) -> np.ndarray:
    fiedler = np.sort(np.abs(np.linalg.eigvalsh(lap)))[1]
    return np.geomspace(1e-2, max(float(round(100.0 / fiedler)), 1.0), steps)


def _parse_csv(text: str):
    lines = text.splitlines()
    if len(lines) < 2:
        raise CheckFailed("CSV has no data rows")
    header = lines[0].split(",")
    rows = [[math.nan if x == "NA" else float(x) for x in line.split(",")] for line in lines[1:]]
    if any(len(r) != len(header) for r in rows):
        raise CheckFailed("CSV rows and header differ in length")
    return header, np.array(rows)


class Checker:
    """Checks op outputs; remembers the worst deviation seen.

    Graph-level references depend only on the graph, and ``random_connected``
    has few distinct graphs at n = 11, so they are kept per edge list.
    """

    def __init__(self):
        self.max_abs_err = 0.0
        self._graph_level: dict = {}

    def _compare(self, observed: np.ndarray, ref: np.ndarray, what: str) -> None:
        undefined = np.isnan(ref)
        if not np.array_equal(undefined, np.isnan(observed)):
            raise CheckFailed(f"{what}: NA cells differ from the reference")
        err = np.where(undefined, 0.0, np.abs(observed - np.where(undefined, 0.0, ref)))
        if err.size:
            self.max_abs_err = max(self.max_abs_err, float(err.max()))
        bad = err > tolerance(np.where(undefined, 0.0, ref))
        if bad.any():
            idx = np.unravel_index(np.argmax(np.where(bad, err, -1.0)), err.shape)
            raise CheckFailed(f"{what}: cell {idx} is {observed[idx]!r}, reference {ref[idx]!r}")

    def check_csv(self, argv: list[str], text: str) -> int:
        """Check one ``distance`` CSV; return its data cell count."""
        opts = flags(argv)
        g = _graph(opts["--graph"], int(opts["--seed"]))
        lap = laplacian(g)
        quantities = opts["--quantities"].split(",")
        times = _default_grid(lap, int(opts.get("--steps", 400)))

        header, table = _parse_csv(text)
        expected = ["t"]
        for q in quantities:
            expected += [f"{q}_{j}" for j in range(g.n)] if q in _NODE_QUANTITIES else [q]
        if header != expected:
            raise CheckFailed(f"header {header[:4]}... differs from {expected[:4]}...")
        if len(table) != len(times):
            raise CheckFailed(f"{len(table)} rows, expected {len(times)}")
        self._compare(table[:, 0], times, "t column")

        if any(q in _NODE_QUANTITIES for q in quantities):
            ref = self._node_table(lap, times, quantities)
        else:
            key = (g.n, g.edges, len(times))
            if key not in self._graph_level:
                self._graph_level[key] = [node_observables(lap, t) for t in times]
            ref = self._graph_table(self._graph_level[key], g.n, quantities, table[:, 1:])
        self._compare(table[:, 1:], ref, "data cells")
        return table[:, 1:].size

    @staticmethod
    def _node_table(lap, times, quantities) -> np.ndarray:
        n = len(lap)
        rows = []
        for t in times:
            d, c, gf = node_observables(lap, t)
            cols = {"conditional": d, "coherence": c, "gfid": gf, "short": c / 2.0, "long": 1.0 - gf**2 + c / n}
            rows.append(np.concatenate([cols[q] for q in quantities]))
        return np.array(rows)

    @staticmethod
    def _graph_table(per_time, n, quantities, observed) -> np.ndarray:
        ref = np.empty(observed.shape)
        for i, (d, c, gf) in enumerate(per_time):
            qc = d.max()
            short, long = (c / 2.0).max(), (1.0 - gf**2 + c / n).max()
            for k, q in enumerate(quantities):
                if q == "qc":
                    ref[i, k] = qc
                elif q == "average":
                    ref[i, k] = d.mean()
                elif q == "gamma_s":
                    ref[i, k] = qc / short if short > RATIO_FLOOR else math.nan
                elif q == "gamma_l":
                    ref[i, k] = qc / long if long > RATIO_FLOOR else math.nan
                elif q == "delta":
                    # delta is taken at the argmax node; any node tying the max within
                    # tolerance is an acceptable argmax, so take the closest of those
                    ties = d >= qc - tolerance(qc)
                    candidates = (gf**2 - c / n)[ties]
                    ref[i, k] = candidates[np.argmin(np.abs(candidates - observed[i, k]))]
                else:
                    raise CheckFailed(f"no reference for quantity {q!r}")
        return ref

    def check_verify(self, argv: list[str], text: str) -> int:
        """Check ``verify`` output; return the optimality samples it reports."""
        opts = flags(argv)
        lines = text.splitlines()
        failed = [line for line in lines if line.startswith("[FAIL]")]
        if failed:
            raise CheckFailed(f"verify reported {failed[0]!r}")
        passed = sum(line.startswith("[ok ]") for line in lines)
        if not any((m := _ALL_PASSED.match(line)) and int(m.group(1)) == passed for line in lines):
            raise CheckFailed(f"no 'all {passed} checks passed' line")

        reported = {int(m.group(2)): (float(m.group(3)), int(m.group(4))) for m in map(_OPT_LINE.match, lines) if m}
        worst_lines = [float(m.group(1)) for m in map(_WORST_LINE.match, lines) if m]
        ref = optimality_reference(int(opts["--n-max"]), int(opts["--samples"]), int(opts["--seed"]))
        if sorted(reported) != sorted(ref):
            raise CheckFailed(f"optimality lines for sizes {sorted(reported)}, expected {sorted(ref)}")
        if len(worst_lines) != 1:
            raise CheckFailed("missing 'worst optimality margin' line")
        printed = [reported[n][0] for n in sorted(ref)] + worst_lines
        expect = [ref[n][0] for n in sorted(ref)] + [min(w for w, _ in ref.values())]
        for n in ref:
            if reported[n][1] != ref[n][1]:
                raise CheckFailed(f"size {n}: {reported[n][1]} samples, expected {ref[n][1]}")
        for value, r in zip(printed, expect):
            # margins are printed with %.3e: only the deviation beyond half a unit
            # in the last printed digit is error
            rounding = 0.5 * 10.0 ** (math.floor(math.log10(abs(value))) - 3) if value else 0.0
            err = max(abs(value - r) - rounding, 0.0)
            self.max_abs_err = max(self.max_abs_err, err)
            if err > tolerance(r):
                raise CheckFailed(f"worst margin {value!r}, reference {r!r}")
        return sum(k for _, k in reported.values())


def optimality_reference(n_max: int, samples: int, seed: int) -> dict[int, tuple[float, int]]:
    """Per graph size: (worst margin, sample count) of the localized-optimality sweep.

    Follows the program's sampling protocol (graph and Dirichlet draws from
    the same seeds, in the same order) but computes propagators with expm and
    the Uhlmann fidelity directly: the classical state is diagonal, so its
    square root is elementwise.
    """
    sizes = range(3, n_max + 1)
    t_values = (0.1, 0.5, 1.0, 3.0)
    per_size = max(1, math.ceil(samples / (len(sizes) * len(t_values))))
    out = {}
    for n in sizes:
        lap = laplacian(generate("random_connected", n, extra=min(n - 1, 3), seed=seed + n))
        rng = np.random.Generator(np.random.PCG64(seed + n))
        worst = math.inf
        for t in t_values:
            p, u = expm(lap * t), expm(1j * lap * t)
            floor = np.clip((p * np.abs(u) ** 2).sum(axis=0), 0.0, 1.0).min()
            z = np.array([rng.dirichlet(np.ones(n)) for _ in range(per_size)])
            root = np.sqrt(np.clip(z @ p.T, 0.0, None))  # sqrt of diag(P z), one row per sample
            rho_q = np.einsum("ik,sk,jk->sij", u, z, u.conj())
            inner = root[:, :, None] * rho_q * root[:, None, :]
            vals = np.clip(np.linalg.eigvalsh(inner), 0.0, None)
            fid = np.clip(np.sqrt(vals).sum(axis=1) ** 2, 0.0, 1.0)
            worst = min(worst, float((fid - floor).min()))
        out[n] = (worst, per_size * len(t_values))
    return out
