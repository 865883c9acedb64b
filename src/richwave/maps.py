"""Strictly increasing maps with exact affine tails and their one inversion rule.

:func:`invert_increasing` serves every inverse of the package: ``Z(t, .)``,
whose map gives value and slope together (one table pass per step), and
every tabulated inverse.  Where the knots of a map are
known (the kink images of ``Z(t, .)`` at one time, the breakpoints of
``Z0`` and of a shape), :func:`_invert_between_knots` starts each target's
Newton inside its own knot segment, where the map is smooth;
:func:`invert_floats` runs the same rule on Python floats for the few
targets of a small call.  Every inverse
read many times (``X0``, ``Z(t, .)`` at a fixed time, a shape inverse) is
one :func:`_inverse_table`: a Chebyshev table between the knot images,
bisected until it certifies against the forward map, or an error.
"""

from dataclasses import dataclass

import numpy as np

from .cheb import TabulationError, fit_piecewise

MAX_INVERT_ITERS = 200
_EPS = float(np.finfo(float).eps)
# Inverse tables are fitted through an inversion this tight (floored at
# 32 eps (|y| + 1)), so Newton's stopping error stays below the fit's rtol.
_TIGHT_TOL = 1e-15
_TABLE_RTOL = 1e-13
# Certificate points per table segment: the 7 first-kind Chebyshev points,
# none of which is a fit node.
_CHECK = np.cos(np.pi * (np.arange(7) + 0.5) / 7)
_SPLIT_LEVELS = 4  # bisections of an uncertified inverse table's knot segments


def _floored_tol(tol, y):
    """``tol`` floored at 32 eps (|y| + 1), the rounding of values near ``y``."""
    return np.maximum(tol, 32.0 * np.finfo(float).eps * (np.abs(y) + 1.0))


class InversionError(RuntimeError):
    """Inversion failed to meet its residual tolerance within the iteration cap.

    Usually means the map is not actually increasing, or the target value
    sits in a jump.  ``owner`` names the worst point: its index in
    :func:`invert_increasing`, the target ``y`` in ``MonotoneMap.invert``
    and ``(t, x)`` in ``LagrangianSolution.lagrangian_coordinate``.
    """

    def __init__(self, message, owner=None):
        super().__init__(message)
        self.owner = owner


def invert_increasing(f, y, lo, hi, f_lo, f_hi, left_slope, right_slope, tol):
    """x with ``F_p(x) = y_p`` for increasing maps affine outside ``[lo_p, hi_p]``.

    On its core ``F_p`` rises from ``f_lo_p`` to ``f_hi_p``; beyond it
    ``F_p`` continues with ``left_slope_p``/``right_slope_p``, so targets
    outside ``[f_lo_p, f_hi_p]`` take the exact affine inverse.  Core
    targets run Newton from the secant guess, safeguarded by the
    sign-enclosing bracket.  ``f(x, owner)`` gets the indices of the points
    asked for as ``owner`` and returns ``(F, F')`` at ``x``, with ``F'`` an
    array, or None to bisect the bracket instead.  A point is done when
    ``|r| <= tol``, or when its bracket has collapsed to machine width and
    ``|r| <= max(tol, 1024 eps (|y| + 1))``, the map's own noise.
    ``y`` is 1-D; the other arguments broadcast against it.  Raises
    :class:`InversionError` whose ``owner`` is the worst point's index.
    """
    # One array per argument; adding zeros is exact and cheaper than
    # np.broadcast_arrays for the 1-16 point calls that dominate.
    zero = np.zeros(np.shape(y))
    y, lo, hi, f_lo, f_hi, left_slope, right_slope, tol = (
        zero + a for a in (y, lo, hi, f_lo, f_hi, left_slope, right_slope, tol)
    )
    below = y < f_lo
    above = y > f_hi
    out = np.where(below, lo + (y - f_lo) / left_slope, hi + (y - f_hi) / right_slope)
    idx = np.nonzero(~(below | above))[0]
    if idx.size == 0:
        return out
    if idx.size < y.size:
        y, lo, hi, f_lo, f_hi, tol = (a[idx] for a in (y, lo, hi, f_lo, f_hi, tol))
    # np.minimum/np.maximum: np.clip costs twice as much on small calls
    x = np.minimum(np.maximum(lo + (y - f_lo) * (hi - lo) / (f_hi - f_lo), lo), hi)
    r_lo, r_hi = f_lo - y, f_hi - y  # residuals at the bracket ends
    eps = np.finfo(float).eps
    noise = np.maximum(tol, 1024.0 * eps * (np.abs(y) + 1.0))
    for _ in range(MAX_INVERT_ITERS):
        v, d = f(x, idx)
        r = np.asarray(v, dtype=float) - y
        abs_r = np.abs(r)
        done = abs_r <= tol
        if done.all():  # the usual last step: no collapse test
            out[idx] = x
            return out
        collapsed = (hi - lo) <= 4.0 * eps * np.maximum(1.0, np.abs(x))
        done |= collapsed & (abs_r <= noise)
        if done.any():
            out[idx[done]] = x[done]
            if done.all():
                return out
            keep = ~done
            idx, x, r, y, lo, hi, r_lo, r_hi, tol, noise = (
                a[keep] for a in (idx, x, r, y, lo, hi, r_lo, r_hi, tol, noise)
            )
            d = None if d is None else d[keep]
        # x lies in [lo, hi]: it starts clipped there, and every later x is
        # strictly inside the bracket or its midpoint.
        pos = r > 0.0
        hi = np.where(pos, x, hi)
        lo = np.where(pos, lo, x)
        r_lo, r_hi = np.where(pos, r_lo, r), np.where(pos, r, r_hi)
        mid = 0.5 * (lo + hi)
        if d is None:
            x = mid
            continue
        # a Newton step off a non-positive slope, or one that leaves the
        # open (finite) bracket, inf and NaN included, bisects instead
        up = d > 0.0
        cand = x - r / np.where(up, d, 1.0)
        x = np.where(up & (cand > lo) & (cand < hi), cand, mid)
    miss = np.minimum(np.abs(r_lo), np.abs(r_hi))  # worst: furthest from reach
    k = int(np.argmax(miss))
    raise InversionError(
        "inversion stalled: worst miss %.3e after %d iterations (tol %.1e)"
        % (miss[k], MAX_INVERT_ITERS, tol[k]),
        owner=int(idx[k]),
    )


def _fmax(a, b):
    """np.maximum on two floats: NaN if either is, else b unless a > b."""
    return a if a > b or a != a else b


def _fmin(a, b):
    """np.minimum on two floats: NaN if either is, else b unless a < b."""
    return a if a < b or a != a else b


def invert_floats(f, y, lo, hi, f_lo, f_hi, left_slope, right_slope, tol):
    """:func:`invert_increasing` on lists of Python floats, one target at a time.

    Each target runs the rule of :func:`invert_increasing` with the same
    IEEE operations in the same order, so every result keeps its bits: the
    exact affine tails, the clipped secant start, Newton safeguarded by the
    sign-enclosing bracket, the ``tol`` and collapse-with-``noise`` stops and
    ``MAX_INVERT_ITERS``.  ``f(x, p)`` gets a float and the target's index
    and returns the floats ``(F, F')``.  Targets that stall raise one
    :class:`InversionError` for the worst of them, as the batch would.
    """
    eps = _EPS  # a local: read in every step
    out, stalls = [], []
    for p, (yp, a, b, fa, fb, tp) in enumerate(zip(y, lo, hi, f_lo, f_hi, tol)):
        if yp < fa or yp > fb:
            out.append(a + (yp - fa) / left_slope if yp < fa else b + (yp - fb) / right_slope)
            continue
        x = _fmin(_fmax(a + (yp - fa) * (b - a) / (fb - fa), a), b)
        r_lo, r_hi = fa - yp, fb - yp
        noise = _fmax(tp, 1024.0 * eps * (abs(yp) + 1.0))
        for _ in range(MAX_INVERT_ITERS):
            v, d = f(x, p)
            r = v - yp
            abs_r = abs(r)
            if abs_r <= tp or (b - a <= 4.0 * eps * _fmax(1.0, abs(x)) and abs_r <= noise):
                out.append(x)
                break
            if r > 0.0:
                b, r_hi = x, r
            else:
                a, r_lo = x, r
            mid = 0.5 * (a + b)
            cand = x - r / d if d > 0.0 else mid
            x = cand if a < cand < b else mid
        else:
            out.append(None)
            stalls.append((_fmin(abs(r_lo), abs(r_hi)), p, tp))
    if stalls:
        # the batch's argmax: the first NaN, else the first largest miss
        miss, p, tp = stalls[0]
        for s in stalls[1:]:
            if miss == miss and (s[0] != s[0] or s[0] > miss):
                miss, p, tp = s
        raise InversionError(
            "inversion stalled: worst miss %.3e after %d iterations (tol %.1e)"
            % (miss, MAX_INVERT_ITERS, tp), owner=p)
    return out


class MonotoneMap:
    """Strictly increasing map, exact affine outside ``[x_lo, x_hi]``.

    ``forward`` is a vectorized callable trusted on the core interval;
    outside it the map continues as ``F(edge) + slope * (x - edge)``.
    ``deriv``, when given, is read with ``forward`` at every inversion step
    and accelerates inversion with Newton steps; without it the steps bisect.
    Instances are immutable; inversion solves ``|F(x) - y| <= tol``.
    """

    def __init__(self, forward, x_lo, x_hi, left_slope, right_slope, deriv=None,
                 tol=1e-12):
        if not x_lo < x_hi:
            raise ValueError("core interval is empty")
        self._forward = forward
        self.x_lo = float(x_lo)
        self.x_hi = float(x_hi)
        self.left_slope = float(left_slope)
        self.right_slope = float(right_slope)
        if self.left_slope <= 0.0 or self.right_slope <= 0.0:
            raise ValueError("tail slopes must be positive")
        self._deriv = deriv
        self.tol = float(tol)
        self.f_lo = float(np.asarray(forward(np.array([self.x_lo])))[0])
        self.f_hi = float(np.asarray(forward(np.array([self.x_hi])))[0])
        if not self.f_lo < self.f_hi:
            raise ValueError("forward map is not increasing across the core")

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        scalar = x.ndim == 0
        xv = np.atleast_1d(x).astype(float)
        out = np.empty_like(xv)
        left = xv < self.x_lo
        right = xv > self.x_hi
        inner = ~(left | right)
        if left.any():
            out[left] = self.f_lo + self.left_slope * (xv[left] - self.x_lo)
        if right.any():
            out[right] = self.f_hi + self.right_slope * (xv[right] - self.x_hi)
        if inner.any():
            out[inner] = np.asarray(self._forward(xv[inner]), dtype=float)
        return float(out[0]) if scalar else out

    def invert(self, y):
        """x with |F(x) - y| <= tol (:func:`invert_increasing`).

        An :class:`InversionError` names the worst target ``y``.
        """
        y = np.asarray(y, dtype=float)
        yv = y.reshape(-1)
        try:
            out = invert_increasing(
                self._step, yv, self.x_lo, self.x_hi, self.f_lo, self.f_hi,
                self.left_slope, self.right_slope, self.tol,
            )
        except InversionError as exc:
            target = float(yv[exc.owner])
            raise InversionError(
                "F^-1(y=%.17g): %s" % (target, exc), owner=target
            ) from exc
        return float(out[0]) if y.ndim == 0 else out.reshape(y.shape)

    def _step(self, x, owner):
        """``(F, F')`` on the core, as :func:`invert_increasing` takes it."""
        return self._forward(x), None if self._deriv is None else self._deriv(x)


def _sorted_knots(xk, yk):
    """``(xk, yk)``: the knots ``xk`` of an increasing map (any order,
    repeats allowed) sorted and unique, their images ``yk`` merged to
    strictly increase, as :func:`_invert_between_knots` needs.

    A knot is kept only if its image is above every image before it, and
    the outermost knot (a core edge) always, replacing kept knots whose
    image is not below its own: two distinct kink images of ``Z(t, .)`` can
    share one position within an ulp of a time at which they coincide.
    Raises :class:`InversionError` when fewer than two knots remain.
    """
    xk, first = np.unique(np.asarray(xk, dtype=float), return_index=True)
    yk = np.asarray(yk, dtype=float)[first]
    keep = yk < yk[-1]
    keep[1:] &= yk[1:] > np.maximum.accumulate(yk)[:-1]
    keep[-1] = True
    if np.count_nonzero(keep) < 2:
        raise InversionError("the map is not increasing across its core")
    return xk[keep], yk[keep]


def _invert_between_knots(f, xk, yk, y, slopes, tol):
    """:func:`invert_increasing` with each target bracketed by its own knot segment.

    F maps the sorted knots ``xk`` to the strictly increasing ``yk``, is
    smooth between them and exactly affine with ``slopes`` beyond the
    outermost.  Target ``y`` runs Newton from the secant inside the segment
    ``yk[k] <= y < yk[k + 1]``, clipped to the outermost segments, whose
    brackets end where F turns affine: a target at the last knot stays in
    the last segment, and one beyond either outer knot takes the exact
    affine inverse.
    """
    # np.minimum/np.maximum: np.clip costs twice as much on the 1-16 point
    # calls that dominate
    k = np.minimum(np.maximum(np.searchsorted(yk, y, side="right") - 1, 0), len(yk) - 2)
    return invert_increasing(f, y, xk[k], xk[k + 1], yk[k], yk[k + 1], *slopes, tol)


@dataclass(frozen=True)
class Certificate:
    """How an :class:`InverseTable` was checked.

    ``residual`` is the worst forward residual ``|F(table(y)) - y|`` on the
    check points; ``segments`` and ``max_degree`` describe the table, and
    ``splits`` counts the bisections of its knot segments it needed.
    """

    residual: float
    segments: int
    max_degree: int
    splits: int


@dataclass(frozen=True, eq=False)
class InverseTable:
    """The inverse of an increasing map as a certified Chebyshev table."""

    table: object  # a cheb.PiecewiseCheb
    certificate: Certificate

    def __call__(self, y):
        return self.table(y)


def _inverse_table(step, xk, yk, slopes, tol, name):
    """Certified table of the inverse of an increasing map F, named ``name``.

    ``step(x, owner)`` gives ``(F, F')`` as :func:`invert_increasing` takes
    it; F maps the knots ``xk`` (merged by :func:`_sorted_knots`) to ``yk``,
    is smooth between them and exactly affine with ``slopes`` beyond the
    outermost.  One ``fit_piecewise`` over the knot images runs
    :func:`_invert_between_knots` at ``_TIGHT_TOL``, and the table's tails
    take the reciprocal slopes.  The table is kept only if
    ``|F(table(y)) - y| <= tol`` on the ``_CHECK`` points of every segment,
    ``tol`` floored there by the segment's rounding and its fit's error.
    Otherwise (or when the fit fails or the tight inversion stalls) every
    knot segment is bisected in x and the table refitted, up to
    ``_SPLIT_LEVELS`` times, before :class:`TabulationError` names the map.
    """
    xk, yk = _sorted_knots(xk, yk)

    def tight(y):
        return _invert_between_knots(step, xk, yk, y, slopes, _floored_tol(_TIGHT_TOL, y))

    for splits in range(_SPLIT_LEVELS + 1):
        if splits:  # bisect every segment in x
            mid = 0.5 * (xk[:-1] + xk[1:])
            xk, yk = _sorted_knots(np.r_[xk, mid], np.r_[yk, step(mid, np.arange(mid.size))[0]])
        try:
            table = fit_piecewise(tight, yk, _TABLE_RTOL, (1.0 / slopes[0], 1.0 / slopes[1]))
        except (TabulationError, InversionError) as exc:
            failure = str(exc)
            continue
        lo, hi = yk[:-1, None], yk[1:, None]
        y = (0.5 * (lo + hi) + 0.5 * (hi - lo) * _CHECK).reshape(-1)
        residual = np.abs(step(table(y), np.arange(y.size))[0] - y).reshape(len(lo), -1)
        # Away from the origin a segment's residual carries its rounding and its
        # fit's error, _TABLE_RTOL of |x| scaled by the secant slope.
        x_size = np.maximum(np.abs(xk[:-1]), np.abs(xk[1:]))[:, None]
        if np.all(residual <= np.maximum(
                _floored_tol(tol, np.maximum(np.abs(lo), np.abs(hi))),
                _TABLE_RTOL * x_size * (hi - lo) / np.diff(xk)[:, None])):
            return InverseTable(table, Certificate(float(residual.max()), len(table.coefs),
                                                   max(len(c) for c in table.coefs) - 1, splits))
        failure = "worst residual %.3e" % residual.max()
    raise TabulationError("%s is not certified after %d splits: %s"
                          % (name, _SPLIT_LEVELS, failure))
