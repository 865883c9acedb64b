"""Per-segment Chebyshev tabulation of piecewise-smooth functions.

Coordinate maps and running primitives are smooth between profile
breakpoints and exactly affine outside the outermost ones, so a Chebyshev
interpolant per segment plus linear tails represents them to near machine
accuracy with cheap vectorized evaluation.
"""

import numpy as np
from numpy.polynomial import chebyshev as _C

_DEGREES = (16, 32, 64, 128, 256)


class TabulationError(RuntimeError):
    """A segment interpolant failed to converge to the requested accuracy."""


def _fit_segment(f, a, b, rtol):
    """Chebyshev coefficients of f on [a, b], degree chosen by tail decay."""
    for deg in _DEGREES:
        nodes = np.cos(np.pi * np.arange(deg + 1) / deg)  # second kind, [-1, 1]
        x = 0.5 * (a + b) + 0.5 * (b - a) * nodes
        vals = np.asarray(f(x), dtype=float)
        coef = _C.chebfit(nodes, vals, deg)
        scale = max(np.max(np.abs(coef)), 1e-300)
        tail = np.max(np.abs(coef[-3:]))
        if tail <= rtol * scale + 1e-300:
            cut = np.nonzero(np.abs(coef) > rtol * scale * 0.1)[0]
            return coef[: cut[-1] + 1] if cut.size else coef[:1]
    raise TabulationError(
        "Chebyshev fit on [%g, %g] did not converge (tail %.3e of scale %.3e)"
        % (a, b, tail, scale)
    )


class PiecewiseCheb:
    """Piecewise Chebyshev interpolant with linear extension outside the core.

    ``tails`` holds ``(value, slope)`` for the linear continuation at each
    end: ``f(x) = value + slope * (x - edge)``.  Immutable after construction.
    """

    def __init__(self, breaks, coefs, left_tail, right_tail):
        self.breaks = np.asarray(breaks, dtype=float)
        self.coefs = [np.asarray(c, dtype=float) for c in coefs]
        self.left_tail = (float(left_tail[0]), float(left_tail[1]))
        self.right_tail = (float(right_tail[0]), float(right_tail[1]))
        # Coefficient table, one column per segment, zero-padded at the
        # high-degree end: leading zeros pass through the Clenshaw recurrence
        # exactly, so every column evaluates bit-for-bit like chebval on its
        # own coefficients (only a top coefficient of -0.0, which no fit
        # produces, could flip the sign of an exact-zero result).  At least
        # two rows so the recurrence needs no special case for constant
        # segments.
        rows = max(2, max(len(c) for c in self.coefs))
        self._table = np.zeros((rows, len(self.coefs)))
        for k, c in enumerate(self.coefs):
            self._table[: len(c), k] = c
        b = self.breaks
        self._sums = b[:-1] + b[1:]
        self._widths = b[1:] - b[:-1]

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        scalar = x.ndim == 0
        xv = np.atleast_1d(x)
        out = np.empty_like(xv)
        b = self.breaks
        left = xv < b[0]
        right = xv > b[-1]
        if left.any():
            v, s = self.left_tail
            out[left] = v + s * (xv[left] - b[0])
        if right.any():
            v, s = self.right_tail
            out[right] = v + s * (xv[right] - b[-1])
        inner = ~(left | right)
        if inner.any():
            xi = xv[inner]
            # Searching the interior breaks yields the segment index directly;
            # a point on the last break stays in the last segment.
            seg = np.searchsorted(b[1:-1], xi, side="right")
            tt = (2.0 * xi - self._sums[seg]) / self._widths[seg]
            # Clenshaw recurrence over all points at once, in chebval's
            # operation order (Trefethen, ATAP ch. 3).
            c = self._table[:, seg]
            x2 = 2.0 * tt
            c0 = c[-2]
            c1 = c[-1]
            for k in range(len(c) - 3, -1, -1):
                c0, c1 = c[k] - c1, c0 + c1 * x2
            out[inner] = c0 + c1 * tt
        return float(out[0]) if scalar else out

    def derivative(self):
        b = self.breaks
        coefs = []
        for k, c in enumerate(self.coefs):
            scale = 2.0 / (b[k + 1] - b[k])
            coefs.append(_C.chebder(c) * scale if len(c) > 1 else np.zeros(1))
        return PiecewiseCheb(
            b, coefs, (self.left_tail[1], 0.0), (self.right_tail[1], 0.0)
        )

    def antiderivative(self, anchor=None, value=0.0):
        """Continuous antiderivative, normalized so F(anchor) = value.

        Requires constant tails (slope 0) so the result has exact linear
        tails; this is the only case the solver needs.
        """
        if self.left_tail[1] != 0.0 or self.right_tail[1] != 0.0:
            raise ValueError("antiderivative requires constant tails")
        b = self.breaks
        coefs = []
        c0 = 0.0
        for k, c in enumerate(self.coefs):
            scale = 0.5 * (b[k + 1] - b[k])
            ic = _C.chebint(c) * scale
            ic[0] += c0 - _C.chebval(-1.0, ic)
            coefs.append(ic)
            c0 = _C.chebval(1.0, ic)
        out = PiecewiseCheb(
            b,
            coefs,
            (0.0, self.left_tail[0]),
            (float(c0), self.right_tail[0]),
        )
        if anchor is not None:
            shift = out(anchor) - value
            out = out.shifted(-shift)
        return out

    def shifted(self, offset):
        coefs = []
        for c in self.coefs:
            c2 = c.copy()
            c2[0] += offset
            coefs.append(c2)
        lt = (self.left_tail[0] + offset, self.left_tail[1])
        rt = (self.right_tail[0] + offset, self.right_tail[1])
        return PiecewiseCheb(self.breaks, coefs, lt, rt)


def fit_piecewise(f, breaks, rtol=1e-13, tail_slopes=(0.0, 0.0), validate=True):
    """Tabulate ``f`` (vectorized, smooth between ``breaks``) segment by segment.

    The tails continue linearly from the edge values with ``tail_slopes``.
    With ``validate`` the interpolant is spot-checked at off-node points.
    """
    breaks = np.asarray(breaks, dtype=float)
    if breaks.ndim != 1 or len(breaks) < 2 or np.any(np.diff(breaks) <= 0):
        raise ValueError("breaks must be strictly increasing with length >= 2")
    coefs = [
        _fit_segment(f, breaks[k], breaks[k + 1], rtol)
        for k in range(len(breaks) - 1)
    ]
    left = float(np.asarray(f(np.array([breaks[0]])))[0])
    right = float(np.asarray(f(np.array([breaks[-1]])))[0])
    out = PiecewiseCheb(breaks, coefs, (left, tail_slopes[0]), (right, tail_slopes[1]))
    if validate:
        for k in range(len(breaks) - 1):
            a, b = breaks[k], breaks[k + 1]
            probe = a + (b - a) * np.array([0.123456, 0.5432101, 0.87654321])
            got = out(probe)
            want = np.asarray(f(probe), dtype=float)
            scale = max(1.0, float(np.max(np.abs(want))))
            if np.max(np.abs(got - want)) > 100.0 * rtol * scale:
                raise TabulationError(
                    "tabulation check failed on [%g, %g]: error %.3e"
                    % (a, b, float(np.max(np.abs(got - want))))
                )
    return out
