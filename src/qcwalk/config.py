"""The time grid every curve is sampled on, and check_grid, the one rule every grid obeys."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["TimeGrid", "default_grid"]

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


@dataclass(frozen=True)
class TimeGrid:
    """Sampling grid on the time axis.

    ``steps`` counts sample points. Endpoints are included whenever there
    are two or more points; a single-point grid is just [t_min], which is
    how a run at one instant (including t = 0) is requested. Log spacing
    needs t_min > 0. The points must pass :func:`check_grid`; they are formed
    once, when the grid is built (``dataclasses.replace`` builds a new grid).
    """

    t_min: float
    t_max: float
    steps: int
    spacing: str = "log"

    def __post_init__(self):
        if self.spacing not in ("linear", "log"):
            raise ValueError(f"spacing must be 'linear' or 'log', got {self.spacing!r}")
        if self.steps < 1:
            raise ValueError("grid needs at least one point")
        if not (np.isfinite(self.t_min) and np.isfinite(self.t_max)):
            raise ValueError("t_min and t_max must be finite")
        # endpoints first: geomspace warns on opposite signs, linspace overflows on huge ones
        check_grid((self.t_min, self.t_max)[: self.steps])
        if self.spacing == "log" and self.t_min <= 0 and self.steps > 1:
            raise ValueError("log spacing requires t_min > 0")
        if self.steps == 1:
            points = np.array([float(self.t_min)])
        elif self.spacing == "linear":
            points = np.linspace(self.t_min, self.t_max, self.steps)
        else:
            points = np.geomspace(self.t_min, self.t_max, self.steps)
        points = check_grid(points)
        points.setflags(write=False)
        # not a field: asdict (the figure manifest's grid block) and == see only the four above
        object.__setattr__(self, "_points", points)

    def times(self) -> np.ndarray:
        """The grid points, formed once at construction; a read-only array."""
        return self._points


def default_t_max(fiedler: float) -> float:
    """The default grid's last time, round(100 / fiedler) and at least 1.

    It reaches well past the classical relaxation time 1/fiedler, so curves
    show the full approach to the stationary plateau.
    """
    if fiedler <= 0:
        raise ValueError("default grid needs a positive fiedler value")
    return max(float(round(100.0 / fiedler)), 1.0)


def default_grid(fiedler: float) -> TimeGrid:
    """Log grid from DEFAULT_T_MIN out to :func:`default_t_max`, DEFAULT_STEPS points."""
    return TimeGrid(DEFAULT_T_MIN, default_t_max(fiedler), DEFAULT_STEPS, "log")
