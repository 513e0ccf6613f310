#!/usr/bin/env python3
"""Print where the short- and long-time laws hold for one graph.

Tabulates D_QC(t), both asymptotes (maximized over nodes, like D_QC), the
ratios gamma_S and gamma_L, and delta at the argmax node. The short law
tracks the exact curve while gamma_S stays near 1; the long law takes over
once gamma_L settles at 1 and delta reaches 1/n.

    python3 scripts/asymptote_study.py --graph ring:11
    python3 scripts/asymptote_study.py --graph random_connected:11:6 --seed 3
"""

import argparse

import numpy as np

from qcwalk import default_t_max, eigendecompose, graph_from_spec, laplacian, time_grid
from qcwalk.config import DEFAULT_T_MIN
from qcwalk.distance import delta_of, gamma_of, long_vector, qc_of, short_vector
from qcwalk.walks import node_observables


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--graph", default="ring:11", help="generator spec kind:n[:extra]")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--points", type=int, default=12, help="rows to print")
    args = parser.parse_args()

    try:
        g = graph_from_spec(args.graph, seed=args.seed)
        sd = eigendecompose(laplacian(g))
        times = time_grid(DEFAULT_T_MIN, default_t_max(sd.fiedler), args.points)
        obs = node_observables(sd, times)
    except ValueError as exc:  # a bad spec, seed or row count: exit 2, no traceback
        parser.error(str(exc))
    columns = (
        qc_of(obs)[0],
        short_vector(obs).max(axis=-1),
        long_vector(obs).max(axis=-1),
        gamma_of(obs, "S"),
        gamma_of(obs, "L"),
        delta_of(obs),
    )

    print(f"graph {args.graph}  n={g.n}  fiedler={sd.fiedler:.4f}  1/n={1 / g.n:.4f}")
    print(f"{'t':>9}  {'D_QC':>7}  {'D^S':>7}  {'D^L':>7}  {'g_S':>7}  {'g_L':>7}  {'delta':>7}")
    for t, *row in zip(times, *columns):
        # an undefined gamma ratio is NaN
        print(f"{t:9.3f}  " + "  ".join("     NA" if np.isnan(x) else f"{x:7.4f}" for x in row))


if __name__ == "__main__":
    main()
