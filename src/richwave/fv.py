"""First-order upwind finite-volume oracle for the diagonal system.

The advective (nonconservative) form d_t w_i + lambda_i(w) d_x w_i = 0 is
discretized directly with sign-upwinded one-sided differences and cell-center
eigenvalues.  Legitimate here: all fields are linearly degenerate and the
test data Lipschitz, so the exact solutions stay continuous.  The oracle
exists for independence and first-order convergence, not accuracy.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .solver import solve
from .systems import AdmissibilityError


class BlowUpError(RuntimeError):
    """Non-finite or inadmissible state appeared: CFL or admissibility violation."""


@dataclass
class FvGrid:
    """Uniform cell-centered grid with tail-pinned boundary cells."""

    system: object
    x_min: float
    x_max: float
    cells: int
    cfl: float = 0.9
    time: float = 0.0
    centers: np.ndarray = field(init=False)
    states: np.ndarray = field(init=False)
    left_state: np.ndarray = field(init=False)
    right_state: np.ndarray = field(init=False)

    def __post_init__(self):
        self.dx = (self.x_max - self.x_min) / self.cells
        self.centers = self.x_min + (np.arange(self.cells) + 0.5) * self.dx

    @classmethod
    def from_profile(cls, system, profile, x_min, x_max, cells, cfl=0.9):
        grid = cls(system, float(x_min), float(x_max), int(cells), float(cfl))
        grid.states = profile(grid.centers)
        grid.left_state = profile.left_tail
        grid.right_state = profile.right_tail
        return grid


def step(grid, max_dt=None):
    """One explicit upwind update; boundary cells reset to the tail states.

    The step size CFL * dx / max |lambda| is recomputed from the current
    states (capped by ``max_dt`` to land exactly on a target time).
    """
    try:
        lam = grid.system.eigenvalues(grid.states)
    except AdmissibilityError as exc:
        raise BlowUpError(
            "inadmissible state at t = %g: %s" % (grid.time, exc)
        ) from exc
    smax = float(np.max(np.abs(lam)))
    if smax > 0.0:
        dt = grid.cfl * grid.dx / smax
    else:
        dt = max_dt if max_dt is not None else grid.dx
    if max_dt is not None:
        dt = min(dt, float(max_dt))
    w = grid.states
    c = lam * (dt / grid.dx)
    d = np.diff(w, axis=0, prepend=w[:1], append=w[-1:])  # zero past either end
    new = w - c * np.where(lam > 0.0, d[:-1], d[1:])
    new[0] = grid.left_state
    new[-1] = grid.right_state
    if not np.isfinite(new).all():
        raise BlowUpError(
            "non-finite state after step at t = %g (dt = %g)" % (grid.time, dt)
        )
    grid.states = new
    grid.time += dt
    return grid


def run(system, profile, t_final, x_min, x_max, cells, cfl=0.9):
    """March the upwind scheme to exactly t_final."""
    grid = FvGrid.from_profile(system, profile, x_min, x_max, cells, cfl)
    while grid.time < t_final - 1e-13:
        step(grid, max_dt=t_final - grid.time)
    return grid


@dataclass
class ErrorTable:
    """Grid-refinement L1 errors against the exact engine."""

    cell_counts: tuple
    totals: tuple
    per_component: tuple  # one tuple per grid

    @property
    def ratios(self):
        out = []
        for k in range(len(self.totals) - 1):
            coarse, fine = self.totals[k], self.totals[k + 1]
            if fine == 0.0:
                # scheme exact on this data (e.g. constant states)
                out.append(math.inf if coarse > 0.0 else math.nan)
            else:
                out.append(coarse / fine)
        return tuple(out)

    @property
    def observed_orders(self):
        return tuple(
            math.log2(r) if r > 0.0 else math.nan for r in self.ratios
        )


def run_and_compare(system, profile, t_final, cell_counts,
                    x_min=None, x_max=None, cfl=0.9, reference=None):
    """L1 errors of the upwind scheme against exact evaluation at t_final.

    The default domain is the exact solution's support at t_final with an
    extra margin, so the pinned boundary cells are exact.
    """
    sol = reference if reference is not None else solve(system, profile)
    if x_min is None or x_max is None:
        lo, hi = sol.support_interval(t_final, margin=1.0)
        x_min = lo if x_min is None else x_min
        x_max = hi if x_max is None else x_max
    totals, per_comp = [], []
    for cells in cell_counts:
        grid = run(system, profile, t_final, x_min, x_max, cells, cfl=cfl)
        exact = sol.evaluate(t_final, grid.centers)
        err = np.sum(np.abs(grid.states - exact), axis=0) * grid.dx
        per_comp.append(tuple(float(e) for e in err))
        totals.append(float(err.sum()))
    return ErrorTable(
        cell_counts=tuple(int(c) for c in cell_counts),
        totals=tuple(totals),
        per_component=tuple(per_comp),
    )
