"""The kernel against closed forms evaluated in mpmath, with no eigensolver.

The complete graph K_n has Laplacian spectrum 0 and -n (n - 1 times), so
from launch node j both propagator columns are exact:

    p_jj = 1/n + (1 - 1/n) e^{-nt},     p_kj = (1 - e^{-nt}) / n,
    a_jj = 1/n + (1 - 1/n) e^{-int},    a_kj = (1 - e^{-int}) / n    (k != j).

F, C, 1 - G, D_QC(t|0) = 1 - F and gamma_S(t|0) = D_QC(t|0) / (C / 2) at
launch node 0 follow from these at 50 digits. The hub, node 0, of star(n)
and of wheel(n) sees only the eigenvalues 0 and -n too (its component in
every other eigenvector vanishes), so its propagator columns are exactly
K_n's and the same oracle checks them.

The kernel's phases e^{iλt} carry an error of order t · eps · max|λ|, with
max|λ| = n (the phase horizon). A quantity q moves by |dq/dφ| per radian of
the phase φ = nt, so its relative error is held to

    1e-12 + 10 · t · eps · n · max(1, |dq/dφ| / |q|).

The last factor is 1 except near a revival (nt close to a multiple of 2π),
where C, and so gamma_S, is small and a phase error is large next to it.
Only t >= 1e-2 is checked: at shorter times 1 - F, C and 1 - G cancel in the
kernel's arithmetic. K_32 and K_33, the last n of the packed layout and the
first of the full one (spectral.PAIR_PRODUCT_MAX_N), are checked at this
bound on 40 times from 0.1 to 100; K_33's worst error is 0.2 of it.

ring(n) is circulant, so its propagator columns are Fourier sums over
λ_m = -2 + 2 cos(2πm/n); its cases take the same bound with max|λ| for n,
and the factor 1. path(n) diagonalizes in the cosine basis, with
λ_m = -2 + 2 cos(πm/n), and takes the same bound as the ring. ring(n) is
vertex-transitive, so its node-0 case already is its min_j and max_j; the
path's graph-level min_j F, max_j C and max_j D_QC are read over the
closed form at every launch node.

Every node of K_n has node 0's closed form, so the graph-level min_j and
max_j are checked against it too, and the leaves of star(n), which read its
(n - 2)-fold eigenvalue -1, have a closed form of their own; both take the
plain bound, factor 1.

wheel(9), rim included, and random_connected:11:6 have no closed form:
mpmath.expm forms both propagators at 50 digits from the integer Laplacian,
and every node takes the plain bound with max|λ| read from the spectrum.

conftest.series_oracle, the Taylor series in exact powers of the Laplacian
for t · max|λ| <= 8, is itself checked here: against the K_n closed form
from t = 1e-8 to the end of its range, and against mpmath.expm at every node
of ring(12) and wheel(9).
"""

import mpmath
import numpy as np
import pytest

from conftest import series_oracle
from qcwalk import eigendecompose, generate, laplacian
from qcwalk.distance import conditional_vector, short_vector
from qcwalk.spectral import PAIR_PRODUCT_MAX_N
from qcwalk.walks import node_observables

TIMES = np.geomspace(1e-2, 1e4, 13)
EPS = np.finfo(float).eps


def complete_graph_oracle(n, t, phase) -> dict:
    """F, C, 1 - G, D_QC and gamma_S of K_n at launch node 0, with e^{-i phase} for e^{-int}."""
    heat, wave = mpmath.exp(-n * t), mpmath.expj(-phase)
    p_jj, p_kj = 1 / n + (1 - 1 / n) * heat, (1 - heat) / n
    a_jj, a_kj = abs(1 / n + (1 - 1 / n) * wave), abs(1 - wave) / n
    fidelity = p_jj * a_jj**2 + (n - 1) * p_kj * a_kj**2
    coherence = (a_jj + (n - 1) * a_kj) ** 2 - 1
    gfid = mpmath.sqrt(p_jj) * a_jj + (n - 1) * mpmath.sqrt(p_kj) * a_kj
    return {
        "F": fidelity,
        "C": coherence,
        "1 - G": 1 - gfid,
        "D_QC": 1 - fidelity,
        "gamma_S": (1 - fidelity) / (coherence / 2),
    }


def exact_and_condition(n: int, t: float) -> dict[str, tuple[float, float]]:
    """Per quantity, its exact value and max(1, |dq/dφ| / |q|) at the phase φ = nt.

    The slope is a central difference with step 1e-20, exact to about 1e-20
    relative at 50 digits.
    """
    with mpmath.workdps(50):
        n_, t_, step = mpmath.mpf(n), mpmath.mpf(t), mpmath.mpf("1e-20")
        exact, ahead, behind = (complete_graph_oracle(n_, t_, n_ * t_ + d) for d in (0, step, -step))
        return {
            name: (float(value), max(1.0, float(abs((ahead[name] - behind[name]) / (2 * step * value)))))
            for name, value in exact.items()
        }


# the complete graph's cases keep their bare-n ids
CASES = [pytest.param("complete", n, id=str(n)) for n in (3, 5, 50, 200)] + [
    pytest.param(kind, n, id=f"{kind}-{n}") for kind in ("star", "wheel") for n in (5, 8, 50, 200)
]


def assert_matches_complete_graph(kind: str, n: int, times) -> None:
    """Node 0's F, C, 1 - G, D_QC and gamma_S of kind(n) on ``times`` against K_n's closed form."""
    obs = node_observables(eigendecompose(laplacian(generate(kind, n))), times)
    distance, short = conditional_vector(obs)[:, 0], short_vector(obs)[:, 0]
    kernel = {
        "F": obs[0][:, 0],
        "C": obs[1][:, 0],
        "1 - G": 1.0 - obs[2][:, 0],
        "D_QC": distance,
        "gamma_S": distance / short,
    }
    for i, t in enumerate(times):
        for name, (exact, condition) in exact_and_condition(n, t).items():
            error = abs(kernel[name][i] - exact) / abs(exact)
            bound = 1e-12 + 10 * t * EPS * n * condition
            assert error <= bound, f"{name} of {kind}({n}) at t={t:.3g}: relative error {error:.2e} > {bound:.2e}"


@pytest.mark.parametrize("kind, n", CASES)
def test_complete_graph_matches_closed_form(kind, n):
    assert_matches_complete_graph(kind, n, TIMES)


@pytest.mark.parametrize("n", [PAIR_PRODUCT_MAX_N, PAIR_PRODUCT_MAX_N + 1])
def test_complete_graph_across_the_layout_cutoff(n):
    # the last packed n and the first full one, on a denser grid of the times a curve plots
    assert_matches_complete_graph("complete", n, np.geomspace(0.1, 100.0, 40))


def ring_oracle(n: int, times) -> list[dict[str, float]]:
    """F, C, 1 - G and D_QC of ring(n) at launch node 0, one dict per time, at 50 digits.

    With λ_m = λ_{n-m}, column 0 of each propagator is a cosine sum,

        p_k0 = (1/n) sum_m e^{λ_m t} cos(2πmk/n),    a_k0 = (1/n) sum_m e^{iλ_m t} cos(2πmk/n),

    and cos(2πmk/n) depends on mk mod n only, so n cosines make the whole table.
    Far from node 0 at short times the exact p_k0 is below the 50-digit
    roundoff of its sum, which may leave it slightly negative; it is read
    as 0 there, a change of about 1e-25 in G.
    """
    with mpmath.workdps(50):
        cosines = [mpmath.cos(2 * mpmath.pi * r / n) for r in range(n)]
        spectrum = [-2 + 2 * c for c in cosines]
        rows = [[cosines[m * k % n] for m in range(n)] for k in range(n)]
        values = []
        for t in times:
            phases = [lam * mpmath.mpf(t) for lam in spectrum]
            heat = [mpmath.exp(x) for x in phases]
            wave_re, wave_im = [mpmath.cos(x) for x in phases], [mpmath.sin(x) for x in phases]
            fidelity = l1 = gfid = 0
            for row in rows:
                p = max(mpmath.fdot(heat, row) / n, 0)
                a = mpmath.hypot(mpmath.fdot(wave_re, row), mpmath.fdot(wave_im, row)) / n
                fidelity += p * a**2
                l1 += a
                gfid += mpmath.sqrt(p) * a
            exact = {"F": fidelity, "C": l1**2 - 1, "1 - G": 1 - gfid, "D_QC": 1 - fidelity}
            values.append({name: float(value) for name, value in exact.items()})
        return values


RING_TIMES = (1.0, 100.0, 1e4)


@pytest.mark.parametrize("n", [11, 64, 200])
def test_ring_matches_closed_form(n):
    obs = node_observables(eigendecompose(laplacian(generate("ring", n))), RING_TIMES)
    kernel = {"F": obs[0][:, 0], "C": obs[1][:, 0], "D_QC": conditional_vector(obs)[:, 0]}
    # G reads sqrt(p) where p is below roundoff; at n = 200 and t = 100 that puts its
    # error at 35 times the bound, so only the smaller rings check it
    if n <= 64:
        kernel["1 - G"] = 1.0 - obs[2][:, 0]
    max_lambda = 2 - 2 * np.cos(2 * np.pi * (n // 2) / n)
    for i, (t, exact) in enumerate(zip(RING_TIMES, ring_oracle(n, RING_TIMES))):
        bound = 1e-12 + 10 * t * EPS * max_lambda
        for name, values in kernel.items():
            error = abs(values[i] - exact[name]) / abs(exact[name])
            assert error <= bound, f"{name} of ring({n}) at t={t:.3g}: relative error {error:.2e} > {bound:.2e}"


def path_oracle(n: int, times, launch: int = 0) -> list[dict[str, float]]:
    """F, C, 1 - G and D_QC of path(n) at node ``launch``, one dict per time, at 50 digits.

    The eigenvectors are the cosine basis v_m(k) = c_m cos(πm(k + 1/2)/n),
    with c_0² = 1/n and c_m² = 2/n above, for λ_m = -2 + 2 cos(πm/n), so
    from launch node j

        p_kj = sum_m e^{λ_m t} v_m(k) v_m(j),    a_kj = sum_m e^{iλ_m t} v_m(k) v_m(j),

    and every cosine is cos(πr/(2n)) for r = m(2k + 1) mod 4n, so 4n cosines
    make the whole table. A p_kj below the sum's roundoff is read as 0, as
    in ring_oracle.
    """
    with mpmath.workdps(50):
        cosines = [mpmath.cos(mpmath.pi * r / (2 * n)) for r in range(4 * n)]
        spectrum = [-2 + 2 * cosines[2 * m] for m in range(n)]
        weights = [
            mpmath.mpf(1 if m == 0 else 2) / n * cosines[m * (2 * launch + 1) % (4 * n)] for m in range(n)
        ]
        rows = [[weights[m] * cosines[m * (2 * k + 1) % (4 * n)] for m in range(n)] for k in range(n)]
        values = []
        for t in times:
            phases = [lam * mpmath.mpf(t) for lam in spectrum]
            heat = [mpmath.exp(x) for x in phases]
            wave_re, wave_im = [mpmath.cos(x) for x in phases], [mpmath.sin(x) for x in phases]
            fidelity = l1 = gfid = 0
            for row in rows:
                p = max(mpmath.fdot(heat, row), 0)
                a = mpmath.hypot(mpmath.fdot(wave_re, row), mpmath.fdot(wave_im, row))
                fidelity += p * a**2
                l1 += a
                gfid += mpmath.sqrt(p) * a
            exact = {"F": fidelity, "C": l1**2 - 1, "1 - G": 1 - gfid, "D_QC": 1 - fidelity}
            values.append({name: float(value) for name, value in exact.items()})
        return values


@pytest.mark.parametrize("n", [11, 64])
def test_path_matches_closed_form(n):
    # 1 - G is inside the bound at both sizes (its worst use of it, 0.7, is path(64) at
    # t = 100); by path(100) it is not, for the ring's reason
    obs = node_observables(eigendecompose(laplacian(generate("path", n))), RING_TIMES)
    kernel = {
        "F": obs[0][:, 0],
        "C": obs[1][:, 0],
        "1 - G": 1.0 - obs[2][:, 0],
        "D_QC": conditional_vector(obs)[:, 0],
    }
    max_lambda = 2 + 2 * np.cos(np.pi / n)
    for i, (t, exact) in enumerate(zip(RING_TIMES, path_oracle(n, RING_TIMES))):
        bound = 1e-12 + 10 * t * EPS * max_lambda
        for name, values in kernel.items():
            error = abs(values[i] - exact[name]) / abs(exact[name])
            assert error <= bound, f"{name} of path({n}) at t={t:.3g}: relative error {error:.2e} > {bound:.2e}"


@pytest.mark.parametrize("n", [11, 32])
def test_path_extremes_match_closed_form(n):
    # the graph-level min_j F, max_j C and max_j D_QC, read over every launch node's closed
    # form; path(64) would take the oracle 4 s
    obs = node_observables(eigendecompose(laplacian(generate("path", n))), RING_TIMES)
    kernel = {
        "F": obs[0].min(axis=1),
        "C": obs[1].max(axis=1),
        "D_QC": conditional_vector(obs).max(axis=1),
    }
    columns = [path_oracle(n, RING_TIMES, launch) for launch in range(n)]
    max_lambda = 2 + 2 * np.cos(np.pi / n)
    for i, t in enumerate(RING_TIMES):
        exact = {
            "F": min(column[i]["F"] for column in columns),
            "C": max(column[i]["C"] for column in columns),
            "D_QC": max(column[i]["D_QC"] for column in columns),
        }
        bound = 1e-12 + 10 * t * EPS * max_lambda
        for name, values in kernel.items():
            error = abs(values[i] - exact[name]) / abs(exact[name])
            assert error <= bound, f"{name} over path({n}) at t={t:.3g}: relative error {error:.2e} > {bound:.2e}"


@pytest.mark.parametrize("n", [3, 5, 50, 200])
def test_complete_graph_maxima_match_closed_form(n):
    # every node of K_n has node 0's closed form, so each time's min_j and max_j meet it
    # too: the graph-level maxima, read where eigh spreads the (n - 1)-fold eigenvalue -n
    obs = node_observables(eigendecompose(laplacian(generate("complete", n))), TIMES)
    kernel = {"F": obs[0], "C": obs[1], "1 - G": 1.0 - obs[2], "D_QC": conditional_vector(obs)}
    for i, t in enumerate(TIMES):
        bound = 1e-12 + 10 * t * EPS * n
        exact = exact_and_condition(n, t)
        for name, values in kernel.items():
            for extreme in (values[i].min(), values[i].max()):
                error = abs(extreme - exact[name][0]) / abs(exact[name][0])
                assert error <= bound, f"{name} over K_{n} at t={t:.3g}: relative error {error:.2e} > {bound:.2e}"


def star_leaf_oracle(n: int, t: float) -> dict[str, float]:
    """F, C, 1 - G and D_QC of star(n) at a leaf, at 50 digits.

    The spectrum is 0, -1 (n - 2 times) and -n. With w = e^{-nt} and o = e^{-t}
    (e^{-int} and e^{-it} for the unitary), column j of a leaf j is

        self: 1/n + w/(n(n-1)) + o(1 - 1/(n-1)),    hub: (1 - w)/n,
        each of the n - 2 other leaves: 1/n + w/(n(n-1)) - o/(n-1).
    """
    with mpmath.workdps(50):
        n_, t_ = mpmath.mpf(n), mpmath.mpf(t)

        def column(w, o):
            return (
                1 / n_ + w / (n_ * (n_ - 1)) + o * (1 - 1 / (n_ - 1)),
                (1 - w) / n_,
                1 / n_ + w / (n_ * (n_ - 1)) - o / (n_ - 1),
            )

        p = column(mpmath.exp(-n_ * t_), mpmath.exp(-t_))
        a = [abs(x) for x in column(mpmath.expj(-n_ * t_), mpmath.expj(-t_))]
        count = (1, 1, n - 2)
        fidelity = sum(c * pk * ak**2 for c, pk, ak in zip(count, p, a))
        l1 = sum(c * ak for c, ak in zip(count, a))
        gfid = sum(c * mpmath.sqrt(pk) * ak for c, pk, ak in zip(count, p, a))
        exact = {"F": fidelity, "C": l1**2 - 1, "1 - G": 1 - gfid, "D_QC": 1 - fidelity}
        return {name: float(value) for name, value in exact.items()}


@pytest.mark.parametrize("n", [5, 8, 50, 200])
def test_star_leaves_match_closed_form(n):
    # the leaves read the (n - 2)-fold eigenvalue -1, which no other oracle reaches
    obs = node_observables(eigendecompose(laplacian(generate("star", n))), TIMES)
    kernel = {"F": obs[0], "C": obs[1], "1 - G": 1.0 - obs[2], "D_QC": conditional_vector(obs)}
    for i, t in enumerate(TIMES):
        bound = 1e-12 + 10 * t * EPS * n
        exact = star_leaf_oracle(n, t)
        for name, values in kernel.items():
            error = np.abs(values[i, 1:] - exact[name]).max() / abs(exact[name])
            assert error <= bound, f"{name} at the leaves of star({n}) at t={t:.3g}: relative error {error:.2e} > {bound:.2e}"


def expm_oracle(g, t: float) -> dict[str, list[float]]:
    """F, C and 1 - G of graph ``g`` at every launch node, from mpmath.expm at 50 digits.

    For graphs with no closed form: exp(L t) and exp(i L t) come from
    mpmath's Taylor series with scaling and squaring on the integer
    Laplacian, with no eigensolver. A p_kj below the 50-digit roundoff is
    read as 0, as in ring_oracle.
    """
    with mpmath.workdps(50):
        lap = mpmath.matrix(laplacian(g).tolist())
        t_ = mpmath.mpf(t)
        heat, wave = mpmath.expm(lap * t_), mpmath.expm(lap * mpmath.mpc(0, t_))
        values = {"F": [], "C": [], "1 - G": []}
        for j in range(g.n):
            p = [max(heat[k, j], 0) for k in range(g.n)]
            a = [abs(wave[k, j]) for k in range(g.n)]
            values["F"].append(float(mpmath.fsum(pk * ak**2 for pk, ak in zip(p, a))))
            values["C"].append(float(mpmath.fsum(a) ** 2 - 1))
            values["1 - G"].append(float(1 - mpmath.fsum(mpmath.sqrt(pk) * ak for pk, ak in zip(p, a))))
        return values


EXPM_TIMES = (0.01, 1.0, 100.0)


@pytest.mark.parametrize(
    "graph",
    [
        pytest.param(generate("wheel", 9), id="wheel-9"),
        pytest.param(generate("random_connected", 11, extra=6, seed=0), id="random_connected-11-6"),
    ],
)
def test_graphs_without_closed_form_match_expm(graph):
    # every node, so the wheel's rim too, against exponentials formed with no eigensolver
    sd = eigendecompose(laplacian(graph))
    obs = node_observables(sd, EXPM_TIMES)
    kernel = {"F": obs[0], "C": obs[1], "1 - G": 1.0 - obs[2]}
    max_lambda = np.abs(sd.eigenvalues).max()
    for i, t in enumerate(EXPM_TIMES):
        bound = 1e-12 + 10 * t * EPS * max_lambda
        for name, exact in expm_oracle(graph, t).items():
            error = (np.abs(kernel[name][i] - exact) / np.abs(exact)).max()
            assert error <= bound, f"{name} at t={t:.3g}: relative error {error:.2e} > {bound:.2e}"


@pytest.mark.parametrize("n", [3, 5, 11])
def test_series_oracle_matches_complete_graph_closed_form(n):
    times = np.geomspace(1e-8, 7.9 / n, 8)
    series = series_oracle(generate("complete", n), 0, times)
    with mpmath.workdps(50):
        for t, values in zip(times, series):
            n_, t_ = mpmath.mpf(n), mpmath.mpf(t)
            exact = complete_graph_oracle(n_, t_, n_ * t_)
            values = dict(values, D_QC=1 - values["F"])
            for name in ("F", "C", "1 - G", "D_QC"):
                error = abs(values[name] - exact[name]) / abs(exact[name])
                assert error <= 1e-25, f"{name} of K_{n} at t={t:.3g}: relative error {mpmath.nstr(error, 3)}"


@pytest.mark.parametrize(
    "graph",
    [pytest.param(generate("ring", 12), id="ring-12"), pytest.param(generate("wheel", 9), id="wheel-9")],
)
def test_series_oracle_matches_expm(graph):
    # both oracles round to float from far more digits, so they agree to an ulp or two
    times = (1e-6, 1e-2, 0.5)
    exact = [expm_oracle(graph, t) for t in times]
    for j in range(graph.n):
        for t, series, values in zip(times, series_oracle(graph, j, times), exact):
            for name, value in values.items():
                assert float(series[name]) == pytest.approx(value[j], rel=1e-15, abs=0), f"{name} at node {j}, t={t}"


def test_series_oracle_refuses_a_time_past_its_range():
    ring = generate("ring", 12)  # max|λ| = 4
    assert series_oracle(ring, 0, [1.9])
    for t in (2.5, -1e-3):
        with pytest.raises(ValueError, match="outside the series' range"):
            series_oracle(ring, 0, [t])
