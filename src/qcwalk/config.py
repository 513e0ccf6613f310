"""The time grid every curve is sampled on, and check_grid, the one rule every grid obeys."""

from __future__ import annotations

import numpy as np

__all__ = ["time_grid"]

#: the default grid's first time and point count (also the CLI's --tmin and --steps)
DEFAULT_T_MIN = 1e-2
DEFAULT_STEPS = 400


def check_grid(times) -> np.ndarray:
    """``times`` as a float array; ValueError unless nonempty, 1-d, finite, nonnegative, increasing."""
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or times.size == 0:
        raise ValueError("time grid must be a nonempty 1-d array")
    if not np.all(np.isfinite(times)):
        raise ValueError("time grid must be finite")
    if times[0] < 0:
        raise ValueError("time grid must be nonnegative")
    if not np.all(times[1:] > times[:-1]):
        raise ValueError("time grid must be strictly increasing")
    return times


def time_grid(t_min: float, t_max: float, steps: int, spacing: str = "log") -> np.ndarray:
    """``steps`` points from ``t_min`` to ``t_max``, ``spacing`` "linear" or "log"; a read-only array.

    Endpoints are included whenever there are two or more points; a
    single-point grid is just [t_min], which is how a run at one instant
    (including t = 0) is requested. Log spacing needs t_min > 0. The points
    must pass :func:`check_grid`; anything else raises ValueError.
    """
    if spacing not in ("linear", "log"):
        raise ValueError(f"spacing must be 'linear' or 'log', got {spacing!r}")
    if steps < 1:
        raise ValueError("grid needs at least one point")
    if not (np.isfinite(t_min) and np.isfinite(t_max)):
        raise ValueError("t_min and t_max must be finite")
    # endpoints first: geomspace warns on opposite signs, linspace overflows on huge ones
    check_grid((t_min, t_max)[:steps])
    if spacing == "log" and t_min <= 0 and steps > 1:
        raise ValueError("log spacing requires t_min > 0")
    if steps == 1:
        points = np.array([float(t_min)])
    elif spacing == "linear":
        points = np.linspace(t_min, t_max, steps)
    else:
        points = np.geomspace(t_min, t_max, steps)
    points = check_grid(points)
    points.setflags(write=False)
    return points


def default_t_max(fiedler: float) -> float:
    """The default grid's last time, round(100 / fiedler) and at least 1.

    It reaches well past the classical relaxation time 1/fiedler, so curves
    show the full approach to the stationary plateau.
    """
    if fiedler <= 0:
        raise ValueError("default grid needs a positive fiedler value")
    return max(float(round(100.0 / fiedler)), 1.0)

