"""Machine-speed calibration: fixed numpy kernels timed around every op.

The benchmark runs on shared machines whose speed drifts by tens of percent
over minutes, far more than the changes it has to resolve. The worker times
a kernel before each op and after the last one; run.py scales each op's wall
time by the kernel's reference time over the mean of the kernel times on
either side of it. That gives op times at one reference machine speed. The
kernels do not touch qcwalk, so a change to the program cannot move them.

A kernel is a sum of parts, and each workload names the parts that resemble
its own costs (``workloads.WORKLOADS``):

* ``small``: complex products and reductions on 11 x 11 arrays, like the
  per-node propagator calls at n = 11 and other interpreter-bound work;
* ``gemm``: complex propagator products on 60 x 60 arrays, like the
  propagators at n = 60;
* ``eigh``: small symmetric eigensolves, like the optimality sweep.
"""

from __future__ import annotations

import time

import numpy as np

#: each part's duration on the reference machine, in seconds: medians of
#: interleaved timings of the parts on a 2-core x86-64 container (OpenBLAS
#: 0.3.31 on one thread, numpy 2.4.6, Python 3.11). Scaled times are estimates
#: of the time at that speed, not times measured on any one run.
REFERENCE_S = {"small": 0.040, "gemm": 0.043, "eigh": 0.0096}


def reference_seconds(parts) -> float:
    return sum(REFERENCE_S[p] for p in parts)


def kernel_seconds(parts) -> float:
    """Run the named parts of the fixed kernel once; return their wall time."""
    rng = np.random.default_rng(0)
    a = rng.standard_normal((11, 11))
    a = a + a.T
    w, v = np.linalg.eigh(a)
    b = rng.standard_normal((60, 60))
    wb, vb = np.linalg.eigh(b + b.T)
    acc = 0.0
    start = time.perf_counter()
    if "small" in parts:
        for i in range(2500):
            m = (v * np.exp(1j * w * (i * 1e-3))) @ v.T
            acc += float(np.abs(m[:, 0]).sum())
    if "gemm" in parts:
        for i in range(600):
            m = (vb * np.exp(1j * wb * (i * 1e-3))) @ vb.T
            acc += float(abs(m[0, 0]))
    if "eigh" in parts:
        for _ in range(500):
            acc += float(np.linalg.eigvalsh(a)[0])
    elapsed = time.perf_counter() - start
    if not np.isfinite(acc):
        raise RuntimeError("calibration kernel produced a non-finite result")
    return elapsed
