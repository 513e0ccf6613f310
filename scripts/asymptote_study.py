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

from qcwalk import default_grid, eigendecompose, graph_from_spec, laplacian
from qcwalk.distance import delta_vector, gamma_of, long_vector, qc_of, short_vector
from qcwalk.walks import node_observables


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--graph", default="ring:11", help="generator spec kind:n[:extra]")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--points", type=int, default=12, help="rows to print")
    args = parser.parse_args()

    g = graph_from_spec(args.graph, seed=args.seed)
    sd = eigendecompose(laplacian(g))
    grid = default_grid(sd.fiedler)
    times = np.geomspace(grid.t_min, grid.t_max, args.points)

    def fmt(x):
        return "     NA" if x is None else f"{x:7.4f}"

    print(f"graph {args.graph}  n={g.n}  fiedler={sd.fiedler:.4f}  1/n={1 / g.n:.4f}")
    print(f"{'t':>9}  {'D_QC':>7}  {'D^S':>7}  {'D^L':>7}  {'g_S':>7}  {'g_L':>7}  {'delta':>7}")
    for t in times:
        obs = node_observables(sd, t)
        value, node = qc_of(obs)
        d_s, d_l = short_vector(obs).max(), long_vector(obs).max()
        print(
            f"{t:9.3f}  {value:7.4f}  {d_s:7.4f}  {d_l:7.4f}  "
            f"{fmt(gamma_of(obs, 'S'))}  {fmt(gamma_of(obs, 'L'))}  "
            f"{delta_vector(obs)[node]:7.4f}"
        )


if __name__ == "__main__":
    main()
