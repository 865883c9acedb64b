"""Piecewise-linear initial data with exact constant tails, and the L1 metric.

This is the single supported profile format: linear between strictly
increasing breakpoints, constant outside.  It keeps every improper integral
in the workbench exactly finite, because integrands built from a profile
vanish identically outside a computable interval.
"""

import math

import numpy as np

FILE_HEADER = "# richwave-profile v1, n=%d"


class PiecewiseProfile:
    """Piecewise-linear n-component function of x with constant tails.

    ``breakpoints`` is a strictly increasing 1-D array; ``values`` has one
    row of n state components per breakpoint.  Immutable after construction.
    """

    def __init__(self, breakpoints, values):
        self.breakpoints = np.asarray(breakpoints, dtype=float)
        self.values = np.asarray(values, dtype=float)
        if self.breakpoints.ndim != 1 or len(self.breakpoints) < 2:
            raise ValueError("need at least two breakpoints")
        if np.any(np.diff(self.breakpoints) <= 0):
            raise ValueError("breakpoints must be strictly increasing")
        if self.values.ndim == 1:
            self.values = self.values[:, None]
        if self.values.shape[0] != len(self.breakpoints):
            raise ValueError("one value row per breakpoint required")

    @property
    def n(self):
        return self.values.shape[1]

    @property
    def left_tail(self):
        return self.values[0].copy()

    @property
    def right_tail(self):
        return self.values[-1].copy()

    @property
    def half_width(self):
        """L such that the data are constant outside [-L, L]."""
        return max(abs(self.breakpoints[0]), abs(self.breakpoints[-1]))

    def __call__(self, x):
        """States at x; shape (..., n)."""
        x = np.asarray(x, dtype=float)
        out = np.empty(x.shape + (self.n,))
        for i in range(self.n):
            out[..., i] = np.interp(x, self.breakpoints, self.values[:, i])
        return out

    def segment_samples(self, count):
        """Sorted union of ``count`` equispaced points on every segment,
        breakpoints included once."""
        xs = self.breakpoints
        return np.unique(np.linspace(xs[:-1], xs[1:], count))

    def range_mesh(self, count):
        """States of the product mesh over each component's value range,
        ``count`` points per non-constant axis; shape ``(points, n)``.

        Its size grows as ``count ** n``."""
        axes = [np.linspace(lo, hi, count) if hi > lo else np.array([lo])
                for lo, hi in zip(self.values.min(axis=0), self.values.max(axis=0))]
        return np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, self.n)

    def component(self, i, x):
        return np.interp(np.asarray(x, dtype=float), self.breakpoints, self.values[:, i])

    def equal_tails(self):
        return bool(np.array_equal(self.values[0], self.values[-1]))

    def with_values(self, values):
        return PiecewiseProfile(self.breakpoints, values)

    def refined(self, extra_points):
        """Same function on the union of breakpoints and ``extra_points``."""
        pts = np.union1d(self.breakpoints, np.asarray(extra_points, dtype=float))
        return PiecewiseProfile(pts, self(pts))


def add_bump(profile, component, center, half_width, amplitude):
    """Profile plus a triangular bump on one component.

    The bump vanishes at its feet, so tail values are preserved even when
    the feet extend past the current core.
    """
    if half_width <= 0:
        raise ValueError("half_width must be positive")
    feet = np.array([center - half_width, center, center + half_width])
    out = profile.refined(feet)
    vals = out.values.copy()
    bump = amplitude * np.maximum(
        0.0, 1.0 - np.abs(out.breakpoints - center) / half_width
    )
    vals[:, component] += bump
    return out.with_values(vals)


def l1_distance(p, q, component):
    """L1 distance of one component of two profiles; exact for this class.

    Profiles with differing tail values for the component are declared
    infinitely far apart (the integral would diverge).
    """
    i = component
    if p.values[0, i] != q.values[0, i] or p.values[-1, i] != q.values[-1, i]:
        return math.inf
    grid = np.union1d(p.breakpoints, q.breakpoints)
    d = p.component(i, grid) - q.component(i, grid)
    total = 0.0
    for k in range(len(grid) - 1):
        u, v = grid[k], grid[k + 1]
        du, dv = d[k], d[k + 1]
        if du * dv >= 0.0:
            total += 0.5 * (abs(du) + abs(dv)) * (v - u)
        else:
            r = u + (v - u) * du / (du - dv)
            total += 0.5 * (abs(du) * (r - u) + abs(dv) * (v - r))
    return total


def write_profile(path, profile):
    lines = [FILE_HEADER % profile.n]
    for x, row in zip(profile.breakpoints, profile.values):
        lines.append(" ".join("%.17g" % v for v in (x, *row)))
    with open(path, "w", newline="") as fh:
        fh.write("\n".join(lines) + "\n")


def read_profile(path):
    with open(path) as fh:
        header = fh.readline().strip()
        if not header.startswith("# richwave-profile v1"):
            raise ValueError("not a richwave-profile v1 file: %r" % header)
        try:
            n = int(header.split("n=")[1])
        except (IndexError, ValueError):
            raise ValueError("malformed profile header: %r" % header)
        xs, rows = [], []
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = [float(tok) for tok in line.split()]
            if len(parts) != n + 1:
                raise ValueError("expected %d columns, got %d" % (n + 1, len(parts)))
            xs.append(parts[0])
            rows.append(parts[1:])
    return PiecewiseProfile(np.asarray(xs), np.asarray(rows))
