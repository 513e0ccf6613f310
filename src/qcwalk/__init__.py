"""qcwalk: how far a quantum walk strays from its classical twin.

A continuous-time classical random walk on a finite undirected graph
evolves probabilities as exp(L t); the matching quantum walk evolves
amplitudes as exp(i L t) with the same Laplacian L. This package computes
the dynamical distance between the two evolutions,

    D_QC(t) = max_j [1 - F_j(t)],    F_j(t) = sum_k p_kj(t) |a_kj(t)|^2,

its node-conditioned and node-averaged variants, the coherence and
classical-fidelity split with its short- and long-time asymptotes, and the
numerical verification that localized launches are the worst case. A CLI
(`qcwalk`) exposes graph generation, distance sweeps to CSV, figure-style
presets, and the verification suite.

The package namespace holds the quick-start names and the library's Uhlmann
fidelity of a classical and a quantum state with its affinity lower bound;
everything else lives in the submodules (graph, spectral, walks, distance,
config, checks, cli).
"""

from .checks import classical_quantum_affinity, classical_quantum_fidelity
from .config import default_t_max, time_grid
from .distance import distance_curve, qc_distance
from .graph import (
    degree_sequence,
    generate,
    graph_from_edges,
    graph_from_spec,
    laplacian,
    read_edge_list,
)
from .spectral import eigendecompose

__version__ = "0.1.0"
