"""Acceptance gate: ten numbered criteria, one pass/fail line each.

Each test prints (and registers for the terminal summary) a line

    [criterion NN] PASS|FAIL <measured values vs tolerance>

and then asserts. Run with ``pytest tests/test_acceptance.py -v`` and read
the "acceptance criteria" section at the end of the run.
"""

import time

import numpy as np
import pytest

from conftest import ACCEPTANCE_LINES
from qcwalk import degree_sequence, generate, laplacian
from qcwalk.checks import run_invariant_checks
from qcwalk.distance import (
    conditional_vector,
    delta_vector,
    long_vector,
    qc_distance,
    verify_localized_optimality,
)
from qcwalk.spectral import (
    DensityMatrix,
    eigendecompose,
    heat_propagator,
    unitary_propagator,
    uhlmann_fidelity,
)
from qcwalk.walks import node_observables

# node-degree law graphs: the fixed menagerie plus five seeded random graphs
SHORT_TIME_SET = (
    [generate("complete", 5), generate("star", 7), generate("wheel", 9), generate("ring", 11)]
    + [generate("random_connected", 11, extra=6, seed=s) for s in range(5)]
)
SHORT_TIME_LABELS = ["complete:5", "star:7", "wheel:9", "ring:11"] + [
    f"random_connected:11:6 seed {s}" for s in range(5)
]


def sd_of(g):
    return eigendecompose(laplacian(g))


def second_order_coefficient(g):
    """kappa_j = d_j (d_j - 1) + m_j / 2 for every node, from the edge list.

    m_j counts the length-2 paths from j to the nodes that are neither j nor
    its neighbours.
    """
    adj = np.zeros((g.n, g.n), dtype=int)
    for u, v in g.edges:
        adj[u, v] = adj[v, u] = 1
    far = (adj == 0) & ~np.eye(g.n, dtype=bool)
    m = ((adj @ adj) * far).sum(axis=1)
    d = degree_sequence(g)
    return d * (d - 1) + m / 2.0


def report(num: int, ok: bool, detail: str) -> bool:
    line = f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} {detail}"
    ACCEPTANCE_LINES.append(line)
    print(line)
    return ok


def test_criterion_01_long_time_plateau():
    t0 = time.perf_counter()
    worst = 0.0
    for n in (5, 10, 20):
        value, _ = qc_distance(sd_of(generate("complete", n)), 10.0)
        worst = max(worst, abs(value - (1 - 1 / n)))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-3 and elapsed < 1.0
    assert report(
        1, ok, f"plateau error {worst:.2e} (tol 1e-3), {elapsed:.2f}s (limit 1s)"
    )


def test_criterion_02_short_time_degree_law():
    t0 = time.perf_counter()
    t = 1e-3
    worst = 0.0
    for g in SHORT_TIME_SET:
        sd = sd_of(g)
        degs = degree_sequence(g)
        cond = conditional_vector(node_observables(sd, t))
        for j in range(g.n):
            rel = abs(cond[j] / (degs[j] * t) - 1.0)
            worst = max(worst, rel)
    elapsed = time.perf_counter() - t0
    ok = worst <= 0.05 and elapsed < 1.0
    assert report(
        2, ok, f"worst relative slope error {worst:.2e} (tol 0.05), {elapsed:.2f}s (limit 1s)"
    )


def test_criterion_03_short_time_coherence_equality():
    # D(t|j) - C_j(t)/2 = -kappa_j t^2 + O(t^3) (README, "Acceptance status"),
    # so the ratio of the gap to -kappa_j t^2 departs from 1 by O(t)
    t = 1e-3
    rows = []
    for label, g in zip(SHORT_TIME_LABELS, SHORT_TIME_SET):
        sd = sd_of(g)
        kappa = second_order_coefficient(g)
        obs = node_observables(sd, t)
        for j in range(g.n):
            gap = conditional_vector(obs)[j] - obs.coherence[j] / 2.0
            rows.append((abs(gap / (-kappa[j] * t * t) - 1.0), label, j, kappa[j]))
    # argmax, unlike max, lands on a nan
    worst, label, j, kappa_j = rows[int(np.argmax([r[0] for r in rows]))]
    ok = worst <= 1e-2
    assert report(
        3,
        ok,
        f"worst |(D - C/2) / (-kappa t^2) - 1| {worst:.2e} (tol 1e-2) at t=1e-3, "
        f"{label} node {j} (kappa {kappa_j:g})",
    )


def test_criterion_04_long_time_decomposition():
    graphs = [
        generate("complete", 5),
        generate("complete", 20),
        generate("ring", 11),
        generate("star", 7),
        generate("wheel", 9),
        generate("path", 6),
        generate("random_connected", 11, extra=6, seed=0),
        generate("random_connected", 5, extra=3, seed=1),
    ]
    worst_gap, worst_identity = 0.0, 0.0
    for g in graphs:
        sd = sd_of(g)
        obs = node_observables(sd, 50.0 / sd.fiedler)
        for j in range(g.n):
            d = conditional_vector(obs)[j]
            worst_gap = max(worst_gap, abs(d - long_vector(obs)[j]))
            gg = obs.gfid[j]
            c = obs.coherence[j]
            worst_identity = max(worst_identity, abs(g.n * gg * gg - c - 1.0))
    ok = worst_gap <= 1e-2 and worst_identity <= 0.02
    assert report(
        4,
        ok,
        f"decomposition gap {worst_gap:.2e} (tol 1e-2), identity error {worst_identity:.2e} (tol 0.02)",
    )


def test_criterion_05_delta_convergence():
    worst = 0.0
    for n, extra in ((11, 6), (5, 3)):
        for seed in range(10):
            g = generate("random_connected", n, extra=extra, seed=seed)
            sd = sd_of(g)
            t_inf = 50.0 / sd.fiedler
            for t in (t_inf, 2 * t_inf, 5 * t_inf):
                _, node = qc_distance(sd, t)
                obs = node_observables(sd, t)
                worst = max(worst, abs(delta_vector(obs)[node] - 1.0 / n))
    ok = worst <= 1e-2
    assert report(5, ok, f"worst |delta - 1/n| {worst:.2e} (tol 1e-2), 20 random graphs")


def test_criterion_06_central_node_equivalence():
    decs = [sd_of(generate(kind, 8)) for kind in ("complete", "star", "wheel")]
    fiedler_min = min(sd.fiedler for sd in decs)
    times = np.geomspace(1e-2, round(100.0 / fiedler_min), 400)
    curves = [
        np.array([conditional_vector(node_observables(sd, t))[0] for t in times]) for sd in decs
    ]
    worst = max(
        float(np.abs(curves[0] - curves[1]).max()),
        float(np.abs(curves[0] - curves[2]).max()),
    )
    ok = worst <= 1e-9
    assert report(6, ok, f"hub-curve spread {worst:.2e} (tol 1e-9) over 400 grid points")


def test_criterion_07_wheel_departure():
    # sup |wheel - complete| over (0.1, 5) at n=8 sits just below the 0.01
    # threshold, so this qualitative-departure criterion does not hold
    wheel = sd_of(generate("wheel", 8))
    complete = sd_of(generate("complete", 8))
    times = np.linspace(0.1001, 4.9999, 600)
    diffs = np.array(
        [abs(qc_distance(wheel, t)[0] - qc_distance(complete, t)[0]) for t in times]
    )
    best = float(diffs.max())
    t_best = float(times[int(np.argmax(diffs))])
    ok = best > 0.01
    assert report(
        7, ok, f"max |wheel - complete| {best:.4f} at t={t_best:.2f} (needs > 0.01)"
    )


def test_criterion_08_ring_crossover():
    ok_all = True
    detail = []
    for seed in range(5):
        ring = sd_of(generate("ring", 11))
        d10 = sd_of(generate("random_connected", 11, extra=10, seed=seed))
        others = [
            sd_of(generate("random_connected", 11, extra=d, seed=seed)) for d in (4, 6, 8)
        ] + [d10]
        ring_early = conditional_vector(node_observables(ring, 0.05))[1]
        smallest = all(
            ring_early < conditional_vector(node_observables(sd, 0.05))[1] for sd in others
        )
        times = np.geomspace(0.05, 10.0, 200)
        crosses = any(
            conditional_vector(node_observables(ring, t))[1]
            > conditional_vector(node_observables(d10, t))[1]
            for t in times
        )
        ok_all = ok_all and smallest and crosses
        detail.append(f"seed {seed}: early-min={smallest} crossover={crosses}")
    assert report(8, ok_all, "; ".join(detail))


def test_criterion_09_localized_optimality_oracle():
    t0 = time.perf_counter()
    t_values = (0.1, 0.5, 1.0, 3.0)
    worst_margin = np.inf
    worst_reduction = 0.0
    total = 0
    for n in range(3, 9):
        g = generate("random_connected", n, extra=min(3, n - 1), seed=n)
        sd = sd_of(g)
        margins = verify_localized_optimality(sd, 9, t_values, seed=n)
        worst_margin = min(worst_margin, float(margins.min()))
        total += margins.size
        for t in t_values:
            p = heat_propagator(sd, t)
            u = unitary_propagator(sd, t)
            fid = node_observables(sd, t).fidelity
            for j in range(n):
                oracle = uhlmann_fidelity(
                    DensityMatrix.diagonal(np.clip(p[:, j], 0.0, None)),
                    DensityMatrix.pure(u[:, j]),
                )
                worst_reduction = max(worst_reduction, abs(fid[j] - oracle))
    elapsed = time.perf_counter() - t0
    ok = worst_margin >= -1e-8 and worst_reduction <= 1e-9 and elapsed < 30.0 and total >= 200
    assert report(
        9,
        ok,
        f"{total} samples, worst margin {worst_margin:.2e} (floor -1e-8), "
        f"reduction error {worst_reduction:.2e} (tol 1e-9), {elapsed:.1f}s (limit 30s)",
    )


def test_criterion_10_invariant_suite():
    results = run_invariant_checks(seed=0)
    failed = [r for r in results if not r.passed]
    ok = not failed
    summary = f"{len(results) - len(failed)}/{len(results)} invariant checks pass"
    if failed:
        summary += "; failing: " + ", ".join(r.name for r in failed)
    assert report(10, ok, summary)
