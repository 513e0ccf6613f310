"""Run configuration shared by the CLI and the experiment scripts."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["TimeGrid", "default_grid"]


@dataclass(frozen=True)
class TimeGrid:
    """Sampling grid on the time axis.

    ``steps`` counts sample points. Endpoints are included whenever there
    are two or more points; a single-point grid is just [t_min], which is
    how a run at one instant (including t = 0) is requested. Log spacing
    needs t_min > 0.
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
        if self.t_min < 0:
            raise ValueError("t_min must be nonnegative")
        if self.spacing == "log" and self.t_min <= 0 and self.steps > 1:
            raise ValueError("log spacing requires t_min > 0")
        if self.steps > 1 and not self.t_max > self.t_min:
            raise ValueError("t_max must exceed t_min")

    def times(self) -> np.ndarray:
        if self.steps == 1:
            return np.array([float(self.t_min)])
        if self.spacing == "linear":
            return np.linspace(self.t_min, self.t_max, self.steps)
        return np.geomspace(self.t_min, self.t_max, self.steps)


def default_grid(fiedler: float) -> TimeGrid:
    """Log grid from 1e-2 out to saturation, 400 points.

    The upper end, round(100 / fiedler), reaches well past the classical
    relaxation time 1/fiedler, so curves show the full approach to the
    stationary plateau.
    """
    if fiedler <= 0:
        raise ValueError("default grid needs a positive fiedler value")
    t_max = max(float(round(100.0 / fiedler)), 1.0)
    return TimeGrid(t_min=1e-2, t_max=t_max, steps=400, spacing="log")

