"""Per-segment Chebyshev tabulation of piecewise-smooth functions.

Coordinate maps and running primitives are smooth between profile
breakpoints and exactly affine outside the outermost ones, so a Chebyshev
interpolant per segment plus linear tails represents them to near machine
accuracy with cheap vectorized evaluation.  One evaluator serves every
table: :class:`StackedCheb` evaluates rows of tables on shared breaks, such
as a primitive and its integrand, in one pass, and a :class:`PiecewiseCheb`
call is a stack of one table on one row.  A call runs on numpy arrays, or,
when it has at most ``_SCALAR_COLUMNS`` (point, table) pairs, on Python
floats: on a few points numpy's fixed cost per operation, not the
arithmetic, sets the time.  Both paths make the same IEEE operations in
the same order, so a value has the same bits whichever path or batch
computes it.  :func:`fit_piecewise` fits the tables of several owners in
one degree ladder; each segment resolves on its own, so each table keeps
the bits of its fit alone.
"""

import functools
from bisect import bisect_right

import numpy as np
from numpy.polynomial import chebyshev as _C

_DEGREES = (16, 32, 64, 128, 256)
# A segment also resolves once its tail is below this fraction of rtol times
# the largest segment scale of the fit: a segment of rounding noise next to
# segments of order one has no relative accuracy to reach.
_TAIL_FLOOR = 1e-3
# Points per StackedCheb recurrence: bounds the gathered coefficient block.
_STACK_CHUNK = 4096
# A StackedCheb call of at most this many (point, table) columns runs on
# Python floats: below it numpy's per-operation cost on tiny arrays exceeds
# the arithmetic.  Both paths cost more with the table depth, so the paths
# cross at 40-56 columns for table depths 2 to 32 (measured on one- and
# two-table stacks of 8 segments).
_SCALAR_COLUMNS = 48


class TabulationError(RuntimeError):
    """A segment interpolant failed to converge to the requested accuracy;
    ``owner`` indexes the failing owner of a batch (table or inverse map)."""

    def __init__(self, message, owner=None):
        super().__init__(message)
        self.owner = owner


def _clenshaw(c, tt):
    """Series ``sum_k c[k] T_k(tt)``, ``len(c) >= 2``, in chebval's operation order."""
    x2 = 2.0 * tt
    c0 = c[-2]
    c1 = c[-1]
    for k in range(len(c) - 3, -1, -1):
        c0, c1 = c[k] - c1, c0 + c1 * x2
    return c0 + c1 * tt


class PiecewiseCheb:
    """Piecewise Chebyshev interpolant with linear extension outside the core.

    ``tails`` holds ``(value, slope)`` for the linear continuation at each
    end: ``f(x) = value + slope * (x - edge)``.  Immutable after construction.
    A call evaluates ``x`` of any shape as a one-table :class:`StackedCheb`
    on one row; a 0-d ``x`` gives a ``float``.
    """

    def __init__(self, breaks, coefs, left_tail, right_tail):
        self.breaks = np.asarray(breaks, dtype=float)
        self.coefs = [np.asarray(c, dtype=float) for c in coefs]
        self.left_tail = (float(left_tail[0]), float(left_tail[1]))
        self.right_tail = (float(right_tail[0]), float(right_tail[1]))
        self._stack = StackedCheb([[self]])

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        out = self._stack(x.reshape(1, -1))
        return float(out[0, 0, 0]) if x.ndim == 0 else out.reshape(x.shape)

    def derivative(self):
        b = self.breaks
        coefs = []
        for k, c in enumerate(self.coefs):
            scale = 2.0 / (b[k + 1] - b[k])
            coefs.append(_C.chebder(c) * scale if len(c) > 1 else np.zeros(1))
        return PiecewiseCheb(
            b, coefs, (self.left_tail[1], 0.0), (self.right_tail[1], 0.0)
        )

    def antiderivative(self, anchor=None):
        """Continuous antiderivative, normalized so F(anchor) = 0 to rounding.

        The shift is the table's value at ``anchor``, so ``F(anchor)`` is the
        rounding of evaluating the shifted table there, a few ulp of the
        table's scale.  Shifting again does not always reach 0: the
        last Clenshaw step adds ``c_0`` to a sum the other coefficients fix.

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
            out = out.shifted(-out(anchor))
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


class StackedCheb:
    """Rows of equally many :class:`PiecewiseCheb` on shared breaks, one pass.

    ``x`` of shape ``(len(rows), m)`` gives ``out[j, q]``, table ``j`` of row
    ``q`` at ``x[q]``.  Every segment of every table is one column of a
    ``(depth, tables * rows * segments)`` coefficient array, zero-padded at
    the high-degree end.  The zeros pass through the Clenshaw recurrence
    exactly, so each point gets the bits of ``chebval`` on its segment's own
    coefficients (only a top coefficient of -0.0, which no fit produces,
    could flip the sign of an exact-zero result).  A call masks both affine
    tails, makes one ``searchsorted`` on the interior breaks, then one column
    gather and one recurrence per chunk of points.

    A call of at most ``_SCALAR_COLUMNS`` (point, table) pairs runs the same
    steps on Python floats, point by point (``_row``, which also serves
    callers that read a few floats of one row): a tail value
    ``v + s * (x - edge)``, the segment by ``bisect_right`` on the interior
    breaks, and the recurrence on the column's own coefficients.  At 1 to 16
    points it costs a fraction of the numpy path, whose dozens of array
    operations per call each cost microseconds on tiny arrays.
    """

    def __init__(self, rows):
        b = self.breaks = rows[0][0].breaks
        self._sums, self._widths = b[:-1] + b[1:], b[1:] - b[:-1]
        self._nseg = len(b) - 1
        # Segment k of table j in row q is column (j * len(rows) + q) * nseg + k;
        # at least two coefficient rows, so a constant segment needs no
        # special case in the recurrence.
        cols = [c for j in range(len(rows[0])) for row in rows for c in row[j].coefs]
        self._table = np.zeros((max(2, max(map(len, cols))), len(cols)))
        for k, c in enumerate(cols):
            self._table[: len(c), k] = c
        self._offsets = np.arange(len(rows[0]))[:, None] * (len(rows) * self._nseg)
        # (value, slope) of each side's linear tail, each of shape (table, row).
        self._tails = [tuple(np.transpose([[getattr(t, s) for t in r] for r in rows]))
                       for s in ("left_tail", "right_tail")]

    @functools.cached_property
    def _row(self):
        """``row(q, xs)``: every table of row ``q`` at each Python float of
        ``xs``, as one list, point-major, with the numpy path's IEEE
        operations in its order, so each value keeps its bits.  The
        small-call path's one recurrence, built on first use.

        Each column of ``_table`` drops its trailing +0.0 padding, keeping
        at least two coefficients and one +0.0 above a -0.0 top, so the
        recurrence takes the bits of the padded one; it is stored top first
        as ``(c[-1], c[-2], (c[-3], ..., c[0]))``.
        """
        nseg, tables, table = self._nseg, len(self._offsets), self._table
        nonzero = table.view(np.int64) != 0  # entries other than +0.0
        n = np.where(nonzero.any(axis=0), len(table) - np.argmax(nonzero[::-1], axis=0), 0)
        # a -0.0 top keeps one pad
        n += (n > 0) & (table[n - 1, np.arange(n.size)] == 0.0)
        cols = []
        for c, n_k in zip(table.T.tolist(), np.maximum(n, 2).tolist()):
            c = c[:n_k][::-1]
            cols.append((c[0], c[1], tuple(c[2:])))
        # Columns and tails by [row][table], the columns then by segment.
        stride = len(cols) // tables  # rows * nseg
        cols = [[cols[k:k + nseg] for k in range(start, len(cols), stride)]
                for start in range(0, stride, nseg)]
        lefts, rights = ([list(zip(vq, sq)) for vq, sq in zip(v.T.tolist(), s.T.tolist())]
                         for v, s in self._tails)
        b = self.breaks
        b0, b1, inner = float(b[0]), float(b[-1]), b[1:-1].tolist()
        sums, widths = self._sums.tolist(), self._widths.tolist()

        def row(q, xs):
            out, left, right, row_cols = [], lefts[q], rights[q], cols[q]
            for xv in xs:
                if xv < b0:
                    out += [v + s * (xv - b0) for v, s in left]
                    continue
                if xv > b1:
                    out += [v + s * (xv - b1) for v, s in right]
                    continue
                # bisect_right is searchsorted(side="right"); NaN takes the
                # last segment in both
                k = bisect_right(inner, xv)
                tt = (2.0 * xv - sums[k]) / widths[k]
                x2 = 2.0 * tt
                for segments in row_cols:
                    c1, c0, rest = segments[k]
                    for ck in rest:
                        c0, c1 = ck - c1, c0 + c1 * x2
                    out.append(c0 + c1 * tt)
            return out

        return row

    def _call_floats(self, x):
        """``__call__`` on Python floats, row by row (``_row``)."""
        row, tables, vals = self._row, len(self._offsets), []
        for q, xq in enumerate(x.tolist()):
            vals += row(q, xq)
        return np.array(vals).reshape(-1, tables).T.reshape((tables,) + x.shape)

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        rows, m = x.shape
        if x.size * len(self._offsets) <= _SCALAR_COLUMNS:
            return self._call_floats(x)
        xf = x.reshape(-1)
        out = np.empty((len(self._offsets), xf.size))
        b = self.breaks
        left = xf < b[0]
        right = xf > b[-1]
        # Results go in one table row at a time: a 1-D fancy assignment is
        # several times cheaper than a 2-D one on small calls.
        for mask, edge, (v, s) in zip((left, right), (b[0], b[-1]), self._tails):
            idx = np.nonzero(mask)[0]
            if idx.size:
                if rows > 1:
                    r = idx // m  # the row of each point
                    v, s = v[:, r], s[:, r]
                for row, val in zip(out, v + s * (xf[idx] - edge)):
                    row[idx] = val
        inner = np.nonzero(~(left | right))[0]
        if inner.size:
            xi = xf[inner]
            # The interior breaks give the segment directly; a point on the
            # last break stays in the last segment.
            seg = np.searchsorted(b[1:-1], xi, side="right")
            tt = (2.0 * xi - self._sums[seg]) / self._widths[seg]
            if rows > 1:
                seg += inner // m * self._nseg
            # np.take gathers contiguous columns; chunks bound the block.
            for lo in range(0, inner.size, _STACK_CHUNK):
                c = slice(lo, lo + _STACK_CHUNK)
                cols, tc = seg[c], tt[c]
                if len(out) > 1:  # each table's column, table-major
                    cols, tc = (cols + self._offsets).reshape(-1), np.tile(tc, len(out))
                vals = _clenshaw(np.take(self._table, cols, axis=1), tc)
                for row, val in zip(out, vals.reshape(len(out), -1)):
                    row[inner[c]] = val
        return out.reshape(len(out), rows, m)


def _interpolant_coefs(vals):
    """Chebyshev coefficients of the interpolants through rows of ``vals``.

    Row ``vals[r]`` holds values at the second-kind points ``cos(pi j / N)``,
    ``j = 0 .. N``.  The coefficients are the DCT-I of the row, taken as one
    real FFT of its even extension ``v_0 .. v_N, v_{N-1} .. v_1`` divided by
    ``N``, with ``c_0`` and ``c_N`` halved.  The FFT transforms each row on
    its own, so a row's coefficients keep their bits whatever rows share the
    call (a matrix product would not: BLAS blocks rows together).
    """
    n = vals.shape[1] - 1
    coef = np.fft.rfft(np.concatenate([vals, vals[:, -2:0:-1]], axis=1), axis=1).real / n
    coef[:, 0] *= 0.5
    coef[:, -1] *= 0.5
    return coef


def fit_piecewise(f, breaks, rtol=1e-13, tail_slopes=(0.0, 0.0)):
    """Tabulate ``f`` (vectorized, smooth between ``breaks``) segment by segment.

    ``f`` is called once per rung of the degree ladder on the nodes of every
    segment still unresolved (the first call also takes both edges), then on
    off-node check points of all segments, so it must evaluate each point
    independently of its batch.  A segment resolves when its last three
    coefficients are below ``rtol`` times its own scale (largest
    coefficient), or below ``_TAIL_FLOOR * rtol`` times the largest scale of
    any segment of its table so far.  The tails continue with ``tail_slopes``.

    ``breaks`` may also be a list of break arrays, one per owner: one ladder
    then fits the segments of every owner, ``f(x, owner)`` gets each point's
    owner index, and the result is the list of the owners' tables.  Each
    owner keeps its own largest scale, end values, check and failure, so its
    table has the bits of its fit alone.  :class:`TabulationError` reports
    the first owner that fails, its index as ``owner``.
    """
    several = np.ndim(breaks[0]) > 0
    if not several:
        f1, breaks = f, [breaks]
        f = lambda x, owner: f1(x)
    breaks = [np.asarray(b, dtype=float) for b in breaks]
    if any(b.ndim != 1 or len(b) < 2 or np.any(np.diff(b) <= 0) for b in breaks):
        raise ValueError("breaks must be strictly increasing with length >= 2")
    seg_owner = np.repeat(np.arange(len(breaks)), [len(b) - 1 for b in breaks])
    lo = np.concatenate([b[:-1] for b in breaks])
    hi = np.concatenate([b[1:] for b in breaks])
    coefs, failed = [None] * len(lo), {}  # failed: owner -> message
    ends = np.concatenate([b[[0, -1]] for b in breaks])
    todo, largest = np.arange(len(lo)), np.zeros(len(breaks))
    for deg in _DEGREES:
        nodes = np.cos(np.pi * np.arange(deg + 1) / deg)  # second kind, [-1, 1]
        a, b, own = lo[todo, None], hi[todo, None], seg_owner[todo]
        x = (0.5 * (a + b) + 0.5 * (b - a) * nodes).reshape(-1)
        vals = np.asarray(f(np.concatenate([x, ends]), np.concatenate(
            [np.repeat(own, deg + 1), np.arange(ends.size) // 2])), dtype=float)
        if ends.size:
            ends, edge_vals = ends[:0], vals[x.size:].reshape(-1, 2)
        coef = _interpolant_coefs(vals[: x.size].reshape(len(todo), deg + 1))
        scale = np.maximum(np.max(np.abs(coef), axis=1), 1e-300)
        tail = np.max(np.abs(coef[:, -3:]), axis=1)
        # each owner's largest scale rises to its rung maximum, unless that is NaN
        top = np.full(len(breaks), -np.inf)
        np.maximum.at(top, own, scale)
        largest = np.where(top > largest, top, largest)
        done = tail <= np.maximum(rtol * scale, _TAIL_FLOOR * rtol * largest[own]) + 1e-300
        # Trim each resolved row after its last coefficient above the floor.
        keep = np.abs(coef) > (rtol * scale * 0.1)[:, None]
        length = np.where(keep.any(axis=1), deg + 1 - np.argmax(keep[:, ::-1], axis=1), 1)
        for k, c, m in zip(todo[done], coef[done], length[done]):
            coefs[k] = c[:m]
        if done.all():
            break
        todo, tail, scale = todo[~done], tail[~done], scale[~done]
    else:
        for k, t, s in zip(todo, tail, scale):  # each owner's first unresolved segment
            failed.setdefault(seg_owner[k], "Chebyshev fit on [%g, %g] did not converge "
                              "(tail %.3e of scale %.3e)" % (lo[k], hi[k], t, s))
    out = [None if p in failed else PiecewiseCheb(
        b, [coefs[k] for k in np.flatnonzero(seg_owner == p)],
        (edge_vals[p, 0], tail_slopes[0]), (edge_vals[p, 1], tail_slopes[1]))
        for p, b in enumerate(breaks)]
    seg = np.flatnonzero([out[p] is not None for p in seg_owner])  # the segments to check
    if seg.size:
        own = seg_owner[seg]
        probe = lo[seg, None] + np.outer(hi[seg] - lo[seg], [0.123456, 0.5432101, 0.87654321])
        got = np.concatenate([out[p](probe[own == p]) for p in np.unique(own)])
        want = np.asarray(f(probe.ravel(), np.repeat(own, 3)), dtype=float).reshape(probe.shape)
        scale = np.maximum(1.0, np.max(np.abs(want), axis=1))
        err = np.max(np.abs(got - want), axis=1)
        for j in np.flatnonzero(err > 100.0 * rtol * scale):  # each owner's first failure
            failed.setdefault(own[j], "tabulation check failed on [%g, %g]: error %.3e"
                              % (lo[seg[j]], hi[seg[j]], err[j]))
    if failed:
        p = min(failed)
        raise TabulationError(failed[p], owner=int(p))
    return out if several else out[0]
