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
kernel's arithmetic.

ring(n) is circulant, so its propagator columns are Fourier sums over
λ_m = -2 + 2 cos(2πm/n); its cases take the same bound with max|λ| for n,
and the factor 1. path(n) diagonalizes in the cosine basis, with
λ_m = -2 + 2 cos(πm/n), and takes the same bound as the ring.
"""

import mpmath
import numpy as np
import pytest

from qcwalk import eigendecompose, generate, laplacian
from qcwalk.distance import conditional_vector, short_vector
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


@pytest.mark.parametrize("kind, n", CASES)
def test_complete_graph_matches_closed_form(kind, n):
    obs = node_observables(eigendecompose(laplacian(generate(kind, n))), TIMES)
    distance, short = conditional_vector(obs)[:, 0], short_vector(obs)[:, 0]
    kernel = {
        "F": obs.fidelity[:, 0],
        "C": obs.coherence[:, 0],
        "1 - G": 1.0 - obs.gfid[:, 0],
        "D_QC": distance,
        "gamma_S": distance / short,
    }
    for i, t in enumerate(TIMES):
        for name, (exact, condition) in exact_and_condition(n, t).items():
            error = abs(kernel[name][i] - exact) / abs(exact)
            bound = 1e-12 + 10 * t * EPS * n * condition
            assert error <= bound, f"{name} of {kind}({n}) at t={t:.3g}: relative error {error:.2e} > {bound:.2e}"


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
    kernel = {"F": obs.fidelity[:, 0], "C": obs.coherence[:, 0], "D_QC": conditional_vector(obs)[:, 0]}
    # G reads sqrt(p) where p is below roundoff; at n = 200 and t = 100 that puts its
    # error at 35 times the bound, so only the smaller rings check it
    if n <= 64:
        kernel["1 - G"] = 1.0 - obs.gfid[:, 0]
    max_lambda = 2 - 2 * np.cos(2 * np.pi * (n // 2) / n)
    for i, (t, exact) in enumerate(zip(RING_TIMES, ring_oracle(n, RING_TIMES))):
        bound = 1e-12 + 10 * t * EPS * max_lambda
        for name, values in kernel.items():
            error = abs(values[i] - exact[name]) / abs(exact[name])
            assert error <= bound, f"{name} of ring({n}) at t={t:.3g}: relative error {error:.2e} > {bound:.2e}"


def path_oracle(n: int, times) -> list[dict[str, float]]:
    """F, C, 1 - G and D_QC of path(n) at launch node 0, one dict per time, at 50 digits.

    The eigenvectors are the cosine basis v_m(k) = c_m cos(πm(k + 1/2)/n),
    with c_0² = 1/n and c_m² = 2/n above, for λ_m = -2 + 2 cos(πm/n), so

        p_k0 = sum_m e^{λ_m t} v_m(k) v_m(0),    a_k0 = sum_m e^{iλ_m t} v_m(k) v_m(0),

    and every cosine is cos(πr/(2n)) for r = m(2k + 1) mod 4n, so 4n cosines
    make the whole table. A p_k0 below the sum's roundoff is read as 0, as
    in ring_oracle.
    """
    with mpmath.workdps(50):
        cosines = [mpmath.cos(mpmath.pi * r / (2 * n)) for r in range(4 * n)]
        spectrum = [-2 + 2 * cosines[2 * m] for m in range(n)]
        weights = [mpmath.mpf(1 if m == 0 else 2) / n * cosines[m] for m in range(n)]
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
        "F": obs.fidelity[:, 0],
        "C": obs.coherence[:, 0],
        "1 - G": 1.0 - obs.gfid[:, 0],
        "D_QC": conditional_vector(obs)[:, 0],
    }
    max_lambda = 2 + 2 * np.cos(np.pi / n)
    for i, (t, exact) in enumerate(zip(RING_TIMES, path_oracle(n, RING_TIMES))):
        bound = 1e-12 + 10 * t * EPS * max_lambda
        for name, values in kernel.items():
            error = abs(values[i] - exact[name]) / abs(exact[name])
            assert error <= bound, f"{name} of path({n}) at t={t:.3g}: relative error {error:.2e} > {bound:.2e}"
