"""The kernel walks.node_observables against an independent route, and its grid form.

The kernel forms exp(L t) and exp(i L t) from one eigendecomposition: at
n <= PAIR_PRODUCT_MAX_N only the n(n+1)/2 distinct entries of each
symmetric matrix, by one GEMM per point, and above it the full matrices, by
one product per matrix. The reference here forms them with
scipy.linalg.expm from the Laplacian matrix and reduces them to F, C and G
directly. Graphs on both
sides of the cutoff are checked, and the packed route against the stacked
one below it. The derived graph-level quantities
(qc, gamma_S, gamma_L) and the delta vector are checked the same way. A grid
call sweeps its times in blocks of stacked products; it must agree bitwise
with one-point calls and keep every check a one-point call makes.
"""

import math

import numpy as np
import pytest
from scipy.linalg import expm

from conftest import real_propagators
from qcwalk import generate, laplacian
from qcwalk.cli import main
import qcwalk.walks as walks
from qcwalk.distance import (
    conditional_vector,
    delta_vector,
    distance_curve,
    gamma_of,
    qc_distance,
    qc_of,
)
import qcwalk.spectral as spectral
from qcwalk.spectral import PAIR_PRODUCT_MAX_N as CUT
from qcwalk.spectral import eigendecompose, form_propagators, full_propagators
from qcwalk.walks import node_observables, time_blocks

GRAPHS = [
    ("star(7)", generate("star", 7)),
    ("wheel(9)", generate("wheel", 9)),
    ("ring(11)", generate("ring", 11)),
    ("random_connected(11,6)", generate("random_connected", 11, extra=6, seed=0)),
    # the largest n of the GEMM route, and one well above it
    (f"random_connected({CUT},10)", generate("random_connected", CUT, extra=10, seed=0)),
    ("random_connected(60,20)", generate("random_connected", 60, extra=20, seed=0)),
]
TIMES = np.geomspace(1e-2, 1e2, 25)
REL_TOL = 1e-10
EPS = np.finfo(float).eps


def expm_observables(lap: np.ndarray, t: float):
    p = expm(lap * t)
    amp = np.abs(expm(1j * lap * t))
    fidelity = (p * amp**2).sum(axis=0)
    coh = amp.sum(axis=0) ** 2 - 1.0
    gfid = (np.sqrt(np.clip(p, 0.0, None)) * amp).sum(axis=0)
    return fidelity, coh, gfid


def assert_close(observed, ref, what):
    observed, ref = np.asarray(observed, dtype=float), np.asarray(ref, dtype=float)
    err = np.abs(observed - ref)
    bound = REL_TOL * np.maximum(1.0, np.abs(ref))
    assert np.all(err <= bound), f"{what}: worst error {err.max():.3e}"


@pytest.mark.parametrize("label,g", GRAPHS, ids=[label for label, _ in GRAPHS])
def test_kernel_matches_expm(label, g):
    lap = laplacian(g)
    sd = eigendecompose(lap)
    n = g.n
    for t in TIMES:
        obs = node_observables(sd, t)
        f, c, gf = expm_observables(lap, t)
        assert_close(obs[0], f, f"{label} F at t={t:.3g}")
        assert_close(obs[1], c, f"{label} C at t={t:.3g}")
        assert_close(obs[2], gf, f"{label} G at t={t:.3g}")

        qc = (1.0 - f).max()
        assert_close(qc_distance(sd, t)[0], qc, f"{label} qc at t={t:.3g}")
        assert_close(gamma_of(obs, "S", n), qc / (c / 2.0).max(), f"{label} gamma_S at t={t:.3g}")
        long_max = (1.0 - gf**2 + c / n).max()
        assert_close(gamma_of(obs, "L", n), qc / long_max, f"{label} gamma_L at t={t:.3g}")
        assert_close(delta_vector(obs, n), gf**2 - c / n, f"{label} delta at t={t:.3g}")


def test_pointwise_functions_are_node_lookups_into_the_kernel():
    sd = eigendecompose(laplacian(generate("wheel", 9)))
    for t in (0.0, 0.37, 4.2):
        obs = node_observables(sd, t)
        assert qc_distance(sd, t) == qc_of(obs)
        # NaN at t = 0 on both sides: a one-time record and a one-point grid agree
        for which in ("S", "L"):
            one_point = gamma_of(node_observables(sd, [t]), which, sd.n)
            np.testing.assert_array_equal(one_point, [gamma_of(obs, which, sd.n)])
        assert np.array_equal(distance_curve(sd, [t])[:, 0], conditional_vector(obs))


def test_kernel_at_zero_time_is_exact():
    # ring(6), then an n on each side of the route cutoff
    for n in (6, CUT, CUT + 1, 60):
        sd = eigendecompose(laplacian(generate("ring", n)))
        obs = node_observables(sd, 0.0)
        assert np.array_equal(obs, [np.ones(n), np.zeros(n), np.ones(n)])
        # the t = 0 point shares its block's product with t = 1
        p, re, im = real_propagators(sd, [0.0, 1.0])
        assert np.array_equal(p[0], np.eye(n))
        assert np.array_equal(re[0], np.eye(n))
        assert np.array_equal(im[0], np.zeros((n, n)))


@pytest.mark.parametrize("n", [5, CUT, CUT + 1, 60])
def test_real_propagators_are_the_propagator_pair(n):
    lap = laplacian(generate("random_connected", n, extra=n // 2, seed=0))
    sd = eigendecompose(lap)
    t = np.geomspace(1e-2, 1e2, 9)
    props = real_propagators(sd, t)
    assert props.shape == (3, 9, n, n)
    if n <= CUT:
        # every matrix exactly symmetric: a packed stack is expanded by one index
        assert np.array_equal(props, props.swapaxes(-1, -2))
    # against expm, within the phase error of order t eps max|lambda|
    bound = 1e-12 + 10 * t * EPS * np.abs(sd.eigenvalues).max()
    for i, ti in enumerate(t):
        u = expm(1j * lap * ti)
        for got, want in zip(props[:, i], (expm(lap * ti), u.real, u.imag)):
            assert np.abs(got - want).max() <= bound[i], ti
    # the formation step, in its own layout: packed at n <= CUT, full above
    formed = form_propagators(sd, t)
    assert formed.shape == (3, 9) + sd.propagator_shape
    assert np.array_equal(full_propagators(sd, formed), props)
    # written into a caller's buffer, the result is a view of that buffer with the same bits
    out = np.empty(formed.size)
    into = form_propagators(sd, t, out)
    assert np.shares_memory(into, out) and np.array_equal(into, formed)
    strided = np.empty(2 * formed.size)[::2]
    for bad in (np.empty(formed.size - 1), np.empty(formed.size, dtype=np.float32), strided):
        with pytest.raises(ValueError, match="out must be a C-contiguous float array"):
            form_propagators(sd, t, bad)


def test_kernel_refuses_negative_time():
    sd = eigendecompose(laplacian(generate("ring", 6)))
    with pytest.raises(ValueError):
        node_observables(sd, -0.5)


def test_kernel_refuses_negative_probabilities(monkeypatch):
    # an entry of exp(L t) below -1e-10 means a corrupted decomposition, not roundoff
    sd = eigendecompose(laplacian(generate("ring", 6)))
    true_block = walks.form_propagators

    def corrupted(sd, t, out=None):
        # the kernel reduces the buffer form_propagators wrote, so the corruption goes there
        props = true_block(sd, t, out)
        props[0] = np.eye(sd.n)[np.triu_indices(sd.n)] - 1e-6  # the packed I - 1e-6
        return props

    monkeypatch.setattr(walks, "form_propagators", corrupted)
    with pytest.raises(ValueError, match="negative entry"):
        node_observables(sd, 0.5)


# --- the packed route: each symmetric matrix's n(n+1)/2 distinct entries -------------------

PACKED_SIZES = (1, 2, 5, 11, 17, 21, 31, CUT)


def packed_decomposition(n: int):
    g = generate("complete", n) if n < 4 else generate("random_connected", n, extra=n // 2, seed=0)
    return eigendecompose(laplacian(g))


@pytest.mark.parametrize("n", PACKED_SIZES)
def test_packed_route_matches_the_stacked_route(n, monkeypatch):
    # a cutoff of 0 sends every n down the stacked route of n > CUT: full matrices, full sums
    sd = packed_decomposition(n)
    times = np.concatenate([[0.0], np.geomspace(1e-3, 1e3, 60)])
    assert sd.propagator_shape == (n * (n + 1) // 2,)
    packed = node_observables(sd, times)
    monkeypatch.setattr(spectral, "PAIR_PRODUCT_MAX_N", 0)
    assert sd.propagator_shape == (n, n)
    stacked = node_observables(sd, times)
    err = np.abs(packed - stacked)
    assert np.all(err <= 1e-13 * np.maximum(1.0, np.abs(stacked))), err.max()
    # the t = 0 row: exactly I, I and 0, packed and expanded, so F = 1, C = 0 and G = 1
    monkeypatch.undo()
    eye = np.eye(n)[np.triu_indices(n)]
    assert np.array_equal(form_propagators(sd, [0.0, 1.0])[:, 0], [eye, eye, np.zeros_like(eye)])
    assert np.array_equal(real_propagators(sd, 0.0), [np.eye(n), np.eye(n), np.zeros((n, n))])
    assert np.array_equal(packed[:, 0], [np.ones(n), np.zeros(n), np.ones(n)])


@pytest.mark.parametrize("n", PACKED_SIZES)
def test_pair_layout_is_cached_and_read_only(n):
    sd = packed_decomposition(n)
    pairs = n * (n + 1) // 2
    layout, products = spectral._pairs(n), sd.pair_products
    rows, cols, index, incidence = layout
    assert rows.shape == cols.shape == (pairs,) and index.shape == (n, n) and incidence.shape == (pairs, n)
    assert products.shape == (n, pairs)
    for cached in (products, *layout):
        assert not cached.flags.writeable
    node_observables(sd, np.geomspace(1e-2, 1e2, 40))
    real_propagators(sd, [0.5, 2.0])
    assert spectral._pairs(n) is layout and sd.pair_products is products
    # each decomposition holds its own pair products; the layout depends on n alone
    other = packed_decomposition(n)
    assert other.pair_products is not products
    assert spectral._pairs(other.n) is layout
    # the incidence sums each column of the symmetric matrix a row packs: exact on integers
    rng = np.random.default_rng(n)
    dense = rng.integers(-50, 50, size=(7, n, n)).astype(float)
    dense += dense.swapaxes(-1, -2)
    packed = dense[..., *np.triu_indices(n)]
    assert np.array_equal(packed @ incidence, dense.sum(axis=-2))
    assert np.array_equal(packed[..., index], dense)
    # f @ W packs V diag(f) V^T
    f = rng.standard_normal(n)
    want = ((sd.eigenvectors * f) @ sd.eigenvectors.T)[np.triu_indices(n)]
    assert np.abs(f @ products - want).max() <= 1e-14 * max(1.0, np.abs(f).max()) * n


# --- the grid kernel: blocks of stacked products ------------------------------------------

GRID_GRAPHS = {
    1: generate("complete", 1),
    5: generate("random_connected", 5, extra=3, seed=0),
    11: generate("random_connected", 11, extra=6, seed=0),
    # packed sizes where one GEMM over a block's points would round a point with their number
    17: generate("random_connected", 17, extra=8, seed=0),
    21: generate("random_connected", 21, extra=10, seed=0),
    CUT: generate("random_connected", CUT, extra=16, seed=0),
    60: generate("random_connected", 60, extra=20, seed=0),
    130: generate("ring", 130),
}


#: grid lengths around the block length b; at n = 130 a block is one point, so b - 1 is empty
GRID_LENGTHS = {
    "block-1": lambda b: b - 1,
    "block": lambda b: b,
    "block+1": lambda b: b + 1,
    "2*block+1": lambda b: 2 * b + 1,
}


def entries(n: int) -> int:
    """The entries form_propagators forms per matrix: the packed pairs at n <= CUT, else n**2."""
    return n * (n + 1) // 2 if n <= CUT else n * n


def block_length(n: int) -> int:
    return max(1, walks.BLOCK_ELEMENTS // entries(n))


@pytest.mark.parametrize("n", sorted(GRID_GRAPHS))
@pytest.mark.parametrize("length", GRID_LENGTHS)
def test_grid_call_is_bitwise_one_point_calls(n, length):
    sd = eigendecompose(laplacian(GRID_GRAPHS[n]))
    block = block_length(n)
    count = GRID_LENGTHS[length](block)
    sizes = [len(range(count)[b]) for b in time_blocks(entries(n), count)]
    assert sizes == [block] * (count // block) + [count % block] * (count % block > 0)
    times = np.geomspace(1e-3, 1e3, count)
    grid = node_observables(sd, times)
    # the record is one read-only float array, F, C and G stacked
    assert grid.shape == (3, count, n) and grid.dtype == float
    with pytest.raises(ValueError, match="read-only"):
        grid[0, 0] = 0.0
    # every block's first and last point, and every 13th point between (n = 1 has 16001)
    edges = set(range(0, count, block)) | set(range(block - 1, count, block)) | {count - 1}
    for i in sorted((edges | set(range(0, count, 13))) & set(range(count))):
        one = node_observables(sd, times[i])
        assert one.shape == (3, n) and one.dtype == float
        with pytest.raises(ValueError, match="read-only"):
            one[...] = 0.0
        for k in range(3):
            assert np.array_equal(grid[k, i], one[k]), (k, i)


def test_grid_starting_at_zero_reads_exact_identity(tmp_path):
    # two blocks on ring:5; the t = 0 row shares its stacked product with the rest of its block
    steps = block_length(5) + 1
    out = tmp_path / "curve.csv"
    argv = ["distance", "--graph", "ring:5", "--tmin", "0", "--tmax", "5", "--linear"]
    argv += ["--steps", str(steps), "--quantities", "conditional,coherence,gfid", "--out", str(out)]
    assert main(argv) == 0
    rows = out.read_text().splitlines()
    assert len(rows) == 1 + steps
    assert rows[1] == "0," + ",".join(["0"] * 10 + ["1"] * 5)
    sd = eigendecompose(laplacian(generate("ring", 5)))
    grid = node_observables(sd, np.linspace(0.0, 5.0, steps))
    assert np.array_equal(grid[:, 0], [np.ones(5), np.zeros(5), np.ones(5)])
    assert np.array_equal(real_propagators(sd, [0.0, 1.0])[:, 0], [np.eye(5), np.eye(5), np.zeros((5, 5))])


def test_negativity_in_second_block_raises_like_one_point(monkeypatch):
    sd = eigendecompose(laplacian(generate("ring", 11)))
    block = block_length(11)
    times = np.linspace(0.1, 10.0, 2 * block + 1)
    first_bad = times[block + 3]
    true_block = walks.form_propagators
    calls = []

    def corrupted(sd, t, out=None):
        # from first_bad on, every entry of exp(L t) sinks below -1e-10, by more at later t
        calls.append(np.size(t))
        t = np.asarray(t)
        props = true_block(sd, t, out)
        props[0] -= np.where(t >= first_bad, t, 0.0)[..., None]  # one packed axis at n = 11
        return props

    monkeypatch.setattr(walks, "form_propagators", corrupted)
    with pytest.raises(ValueError, match="negative entry") as one:
        node_observables(sd, first_bad)
    calls.clear()
    with pytest.raises(ValueError) as grid:
        node_observables(sd, times)
    assert calls == [block, block]
    assert str(grid.value) == str(one.value)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -0.5])
def test_bad_time_inside_grid_raises_todays_message(bad):
    sd = eigendecompose(laplacian(generate("random_connected", 11, extra=6, seed=0)))
    block = block_length(11)
    times = np.linspace(0.1, 10.0, 2 * block + 1)
    times[block + 2] = bad
    heat_message = f"heat propagator needs finite t >= 0, got {bad}"
    for call in (node_observables, real_propagators):
        for t in (bad, times):
            with pytest.raises(ValueError) as exc:
                call(sd, t)
            assert str(exc.value) == heat_message


# --- the in-place reduction -----------------------------------------------------------------


def out_of_place_reduction(sd, props):
    """F, C and G by the reduction's formulas, each step into a fresh array.

    The column sums are the reduction's: per point, one GEMM of its three
    packed rows against the pair incidence, or a vector-matrix product per
    full matrix. They are written out here, not read from
    spectral.column_sums, so the reference stays independent of the step it
    checks.
    """
    p, re, im = props
    p = np.clip(p, 0.0, 1.0)
    amp2 = re * re + im * im
    amp = np.sqrt(amp2)
    stack = np.stack([p * amp2, amp, np.sqrt(p) * amp])
    if len(sd.propagator_shape) == 1:
        incidence = spectral._pairs(sd.n)[3]
        f, c, g = np.empty(stack.shape[:-1] + (sd.n,))
        for i in np.ndindex(stack.shape[1:-1]):
            f[i], c[i], g[i] = np.ascontiguousarray(stack[(slice(None), *i)]) @ incidence
    else:
        f, c, g = np.ones(sd.n) @ stack
    return np.clip(f, 0.0, 1.0), np.maximum(c**2 - 1.0, 0.0), np.clip(g, 0.0, 1.0)


@pytest.mark.parametrize("n", [5, 11, CUT + 1, 60])
def test_in_place_reduction_is_bitwise_the_out_of_place_one(n):
    sd = eigendecompose(laplacian(generate("random_connected", n, extra=n // 2, seed=0)))
    # three blocks, the first starting at t = 0
    times = np.concatenate([[0.0], np.geomspace(1e-3, 1e3, 2 * block_length(n))])
    obs = node_observables(sd, times)
    blocks = time_blocks(entries(n), times.size)
    assert len(blocks) == 3
    for b in blocks:
        props = form_propagators(sd, times[b])
        want = out_of_place_reduction(sd, props)
        got = walks.reduce_propagators(sd, props)
        # given out, the reduction writes F, C and G there and returns that memory
        out = np.empty((3, len(times[b]), n))
        into = walks.reduce_propagators(sd, form_propagators(sd, times[b]), out)
        assert np.shares_memory(into, out)
        for k, ref in enumerate(want):
            assert np.array_equal(obs[k, b], ref), (k, b)
            assert np.array_equal(got[k], ref), (k, b)
            assert np.array_equal(out[k], ref), (k, b)


@pytest.mark.parametrize("n", [11, CUT + 1])
def test_full_propagators_own_their_memory(n):
    # on both sides of the cutoff the expanded matrices are a new array, so reducing the formed
    # stack in place leaves them as they were
    sd = eigendecompose(laplacian(generate("random_connected", n, extra=n // 2, seed=0)))
    props = form_propagators(sd, [0.5, 2.0])
    full = full_propagators(sd, props)
    assert not np.shares_memory(full, props)
    kept = full.copy()
    walks.reduce_propagators(sd, props)
    assert np.array_equal(full, kept)


def test_kernel_allocates_no_reduction_temporaries():
    # the traced peak of a 400-point sweep at n = 11 is the work buffer, the result, and a
    # slack for each block's phases and factor rows (4 * block * n floats) and 16 KiB more;
    # the reduction's own arrays are block * n(n+1)/2 floats each and would not fit in it
    import tracemalloc

    n, sd = 11, eigendecompose(laplacian(GRID_GRAPHS[11]))
    times = np.geomspace(1e-2, 1e2, 400)
    block = min(block_length(n), times.size)
    assert block < times.size
    node_observables(sd, times)  # the cached pair products and incidence are built outside the trace
    tracemalloc.start()
    try:
        node_observables(sd, times)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    work, result = 3 * block * entries(n) * 8, 3 * times.size * n * 8
    slack = 4 * block * n * 8 + 16 * 1024
    assert peak <= work + result + slack, (peak, work, result, slack)


def test_optimality_margins_read_the_reduction_of_an_untouched_pair(monkeypatch):
    # the sweep reduces its pair in place, but only after its samples' states are formed:
    # the unitaries its affinity bound and its fidelities read are the pair as formed, and
    # the worst margin is that of the out-of-place formulas, which leave the pair untouched
    import qcwalk.checks as checks

    sd = eigendecompose(laplacian(generate("random_connected", 10, extra=3, seed=1)))
    t_values = np.geomspace(0.05, 5.0, 9)
    formed, bounded, solved = [], [], []

    def kept(sd, t, _original=checks.form_propagators):
        props = _original(sd, t)
        formed.append(full_propagators(sd, props))
        return props

    def affinity(q, u, z, _original=checks.classical_quantum_affinity):
        bounded.append(u)
        return _original(q, u, z)

    def fidelity(q, u, z, _original=checks._fidelity):
        solved.extend(u)
        return _original(q, u, z)

    monkeypatch.setattr(checks, "form_propagators", kept)
    monkeypatch.setattr(checks, "classical_quantum_affinity", affinity)
    monkeypatch.setattr(checks, "_fidelity", fidelity)
    worst = checks.verify_localized_optimality(sd, 30, t_values, seed=6)
    (props,) = formed
    unitaries = props[1] + 1j * props[2]
    assert len(bounded) == 1 and np.array_equal(bounded[0], unitaries)
    assert solved and all(any(np.array_equal(u, v) for v in unitaries) for u in solved)
    reference = lambda sd, props: np.stack(out_of_place_reduction(sd, props))
    monkeypatch.setattr(walks, "reduce_propagators", reference)
    assert checks.verify_localized_optimality(sd, 30, t_values, seed=6) == worst


@pytest.mark.parametrize("n", range(3, 11))
def test_optimality_floor_is_the_kernels_fidelity(n, monkeypatch):
    # on verify's graphs and times, the F the sweep reduces is the kernel's, bit for bit
    import qcwalk.checks as checks

    sd = eigendecompose(laplacian(generate("random_connected", n, extra=min(n - 1, 3), seed=n)))
    t_values = (0.1, 0.5, 1.0, 3.0)
    kernel = node_observables(sd, t_values)[0]
    reduced = []

    def recorded(sd, props, _original=walks.reduce_propagators):
        obs = _original(sd, props)
        reduced.append(obs[0].copy())
        return obs

    monkeypatch.setattr(walks, "reduce_propagators", recorded)
    checks.verify_localized_optimality(sd, 5, t_values, seed=n)
    assert np.array_equal(np.concatenate(reduced), kernel)
