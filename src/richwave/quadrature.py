"""Adaptive Simpson quadrature with pre-splitting at known kinks.

Every integral in the package funnels through :func:`integrate`, one
adaptive-Simpson entry.  Scalar bounds give one integral of ``f(x)``; array
bounds give integrals ``[a_p, b_p]`` in one pass by the owner idiom:
``f(x, owner)`` gets the index of the integral each point belongs to, the
panels of all integrals refine together, one integrand call per level, and
each panel's result is credited to its owner, so each integral keeps the
bits of its own pass (``integrate_abs`` is the L1 norm, split at the roots
``refine_sign_changes`` finds).  Integrands may return m components per
point: a panel is accepted only when every component meets its budget.
Integrands are piecewise smooth with kink locations known to the caller
(profile breakpoints and their coordinate images), so each interval is split
there first and every panel converges at Simpson's full order (the
vectorised form of the adaptive scheme of Gander & Gautschi, BIT 40 (2000)).
"""

import numpy as np

MAX_DEPTH = 40
MAX_PANELS = 2 ** 20  # live panels of one level: bounds a diverging pass's memory
# Probe points per panel and bisection cap of ``refine_sign_changes``.
_SIGN_SAMPLES = 9
_SIGN_ITERS = 52
# Bisection steps replayed from one integrand call of ``bisect_brackets``.
_BISECT_LEVELS = 4


class QuadratureError(RuntimeError):
    """Adaptive refinement hit the depth limit before reaching the tolerance.

    Carries the worst offending subinterval as ``interval = (lo, hi)`` and
    the integral it belongs to as ``owner``: its index in a batch of
    :func:`integrate`, the point ``(t, z)`` in
    ``LagrangianSolution.position_quadrature``.
    """

    def __init__(self, message, interval=None, owner=None):
        super().__init__(message)
        self.interval = interval
        self.owner = owner


def _feval(f, *args):
    x = args[0]
    out = np.asarray(f(*args), dtype=float)
    if out.shape[:1] != x.shape:
        out = np.broadcast_to(out, x.shape)
    return out


def _panels(a, b, kinks):
    """Kink-split panels ``(lo, hi, owner)`` of the intervals ``[a_p, b_p]``.

    Per interval, kinks strictly inside become panel edges, in increasing
    order, except those within ``1e-14 * (b_p - a_p)`` of the previous edge
    or of ``b_p``.  Panels are ordered by owner, then by position.
    """
    thr = 1e-14 * (b - a)
    kinks = np.sort(kinks, axis=1)
    edges = np.full((len(a), kinks.shape[1] + 2), np.nan)
    edges[:, 0] = a
    edges[:, -1] = b
    last = a
    for j in range(kinks.shape[1]):
        k = kinks[:, j]
        take = (k - last > thr) & (b - k > thr)
        edges[take, j + 1] = k[take]
        last = np.where(take, k, last)
    valid = ~np.isnan(edges)
    flat = edges[valid]
    owner = np.nonzero(valid)[0]
    inner = owner[:-1] == owner[1:]
    return flat[:-1][inner], flat[1:][inner], owner[:-1][inner]


def integrate(f, a, b, kinks=(), tol=1e-10):
    """Integral of ``f`` over ``[a, b]``, or over every ``[a_p, b_p]`` in one pass.

    ``f`` returns values of the shape of its points (scalars broadcast) or a
    ``(points, m)`` array of m components.  Scalar ``a`` and ``b`` give one
    integral of ``f(x)``, a float or a length-m array; ``kinks`` lists
    points where ``f`` loses smoothness.  1-D ``a`` and ``b`` give shape
    ``(len(a),)`` or ``(len(a), m)``: ``f(x, owner)`` gets the index ``p``
    of the integral each point belongs to, ``kinks`` is an optional
    ``(len(a), K)`` array (NaN-padded) of integral ``p``'s kinks in row
    ``p``, and when every interval is empty (or there is none) ``f`` is
    never called and the zeros are ``(len(a),)``.  Kinks inside an interval
    become panel boundaries.  Each owner's panels refine and sum as they
    would alone, so each integral keeps the bits of its own pass.

    Every component of integral ``p`` meets the absolute accuracy ``tol``:
    each of its panels gets the budget ``tol * (hi - lo) / |b_p - a_p|`` per
    component.  ``a_p == b_p`` gives 0 and ``a_p > b_p`` flips the sign.
    Raises :class:`QuadratureError` if any panel still fails its error budget
    after ``MAX_DEPTH`` bisection levels or past ``MAX_PANELS`` live panels;
    its ``owner`` is the integral's index (0 for one integral).
    """
    one = np.ndim(a) == 0
    if one:
        g, a, b = f, [a], [b]
        f = lambda x, owner: g(x)
    a = np.asarray(a, dtype=float).reshape(-1)
    b = np.asarray(b, dtype=float).reshape(-1)
    sign = np.where(b < a, -1.0, 1.0)
    a, b = np.minimum(a, b), np.maximum(a, b)
    kinks = (np.asarray(kinks, dtype=float).reshape(len(a), -1) if np.size(kinks)
             else np.empty((len(a), 0)))
    full = a < b
    lo, hi, own = _panels(a[full], b[full], kinks[full])
    own = np.nonzero(full)[0][own]
    if len(lo) == 0:
        return 0.0 if one else np.zeros(len(a))

    mid = 0.5 * (lo + hi)
    n = len(lo)
    fvals = _feval(f, np.concatenate([lo, mid, hi]), np.tile(own, 3))
    vector = fvals.ndim == 2
    # Values are kept as (panels, m) columns; a scalar integrand is m = 1.
    fvals = fvals.reshape(3 * n, -1)
    m = fvals.shape[1]
    total = np.zeros(len(a) * m)
    flo, fmid, fhi = fvals[:n], fvals[n:2 * n], fvals[2 * n:]
    simp = ((hi - lo) / 6.0)[:, None] * (flo + 4.0 * fmid + fhi)
    budget = tol * (hi - lo) / (b - a)[own]

    for depth in range(MAX_DEPTH + 1):
        n = len(lo)
        m1 = 0.5 * (lo + mid)
        m2 = 0.5 * (mid + hi)
        fm = _feval(f, np.concatenate([m1, m2]), np.concatenate([own, own]))
        fm = fm.reshape(2 * n, m)
        fm1, fm2 = fm[:n], fm[n:]
        left = ((mid - lo) / 6.0)[:, None] * (flo + 4.0 * fm1 + fmid)
        right = ((hi - mid) / 6.0)[:, None] * (fmid + 4.0 * fm2 + fhi)
        err = left + right - simp
        done = np.all(np.abs(err) <= 15.0 * budget[:, None], axis=1)
        # Richardson-corrected value on accepted panels, summed per
        # (owner, component) in panel order.
        slot = own[done, None] * m + np.arange(m)
        total += np.bincount(
            slot.reshape(-1),
            weights=(left + right + err / 15.0)[done].reshape(-1),
            minlength=len(total),
        )
        if done.all():
            total = sign[:, None] * total.reshape(len(a), m)
            if one:
                return total[0] if vector else float(total[0, 0])
            return total if vector else total[:, 0]
        if depth == MAX_DEPTH or 2 * np.count_nonzero(~done) > MAX_PANELS:
            worst_err = np.max(np.abs(err), axis=1)
            worst = int(np.argmax(np.where(done, -np.inf, worst_err)))
            limit = ("depth %d" % MAX_DEPTH if depth == MAX_DEPTH
                     else "%d live panels" % MAX_PANELS)
            raise QuadratureError(
                "adaptive Simpson: %s exceeded with panel error %.3e on "
                "[%.17g, %.17g]" % (limit, worst_err[worst], lo[worst], hi[worst]),
                interval=(float(lo[worst]), float(hi[worst])),
                owner=int(own[worst]),
            )
        keep = ~done
        lo, mid0, hi0, own = lo[keep], mid[keep], hi[keep], own[keep]
        flo, fmid0, fhi0 = flo[keep], fmid[keep], fhi[keep]
        lo = np.concatenate([lo, mid0])
        hi = np.concatenate([mid0, hi0])
        own = np.concatenate([own, own])
        mid = np.concatenate([m1[keep], m2[keep]])
        flo = np.concatenate([flo, fmid0])
        fhi = np.concatenate([fmid0, fhi0])
        fmid = np.concatenate([fm1[keep], fm2[keep]])
        simp = np.concatenate([left[keep], right[keep]])
        budget = np.concatenate([budget[keep] / 2.0, budget[keep] / 2.0])
    raise AssertionError("unreachable")


def integrate_abs(f, lo, hi, kinks, tol):
    """L1 norms ``int_lo_p^hi_p |f(., p)|`` of piecewise-smooth integrands.

    ``f(x, owner)`` follows :func:`integrate` over several integrals; row ``p`` of ``kinks``
    (any order, NaN-padded) holds where owner ``p``'s integrand loses
    smoothness.  Those inside ``(lo_p, hi_p)`` and the sign changes found
    between them (:func:`refine_sign_changes`) become panel edges.
    """
    lo, hi = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
    # Kinks clipped to lo or hi only make empty panels, which the probe skips.
    inside = np.sort(np.clip(kinks, lo[:, None], hi[:, None]), axis=1)
    roots = refine_sign_changes(f, np.column_stack([lo, inside, hi]))
    return integrate(
        lambda x, owner: np.abs(f(x, owner)), lo, hi,
        np.column_stack([kinks, roots]), tol,
    )


def bisect_brackets(f, lo, hi, vlo, iters):
    """Midpoints of the brackets ``[lo_k, hi_k]`` after ``iters`` bisections.

    ``lo``, ``hi`` and ``vlo`` are float arrays; ``vlo`` holds the nonzero
    values ``f(lo)``, of the opposite sign to ``f(hi)``; ``f(x, owner)`` gets
    each point's bracket index.  One ``f`` call serves ``_BISECT_LEVELS``
    steps: it takes every bracket's dyadic points, each ``0.5 * (a + b)`` of
    its parents, and the steps replay on those values, so brackets end
    exactly where one-step bisection ends.  The loop stops early once every
    bracket's midpoint equals one of its ends: from then on each step leaves
    the bracket unchanged or collapses it onto that end, so the returned
    midpoints are those of the full ``iters`` steps.
    """
    rows = np.arange(len(lo))
    for start in range(0, iters, _BISECT_LEVELS):
        mid = 0.5 * (lo + hi)
        if np.all((mid == lo) | (mid == hi)):
            break
        levels = min(_BISECT_LEVELS, iters - start)
        width = 2 ** levels
        edges = np.empty((len(lo), width + 1))
        edges[:, 0], edges[:, width] = lo, hi
        for d in range(1, levels + 1):
            e = edges[:, ::width >> d]
            e[:, 1::2] = 0.5 * (e[:, :-1:2] + e[:, 2::2])
        inner = edges[:, 1:-1]
        vals = _feval(f, inner.ravel(), np.repeat(rows, width - 1)).reshape(inner.shape)
        # Replay the steps: ``at`` is the edge index of each bracket's lo.
        at = np.zeros(len(lo), dtype=int)
        for d in range(1, levels + 1):
            vm = vals[rows, at + (width >> d) - 1]
            left = vlo * vm <= 0.0
            vlo = np.where(left, vlo, vm)
            at = np.where(left, at, at + (width >> d))
        lo, hi = edges[rows, at], edges[rows, at + 1]
    return 0.5 * (lo + hi)


def refine_sign_changes(f, edges):
    """Roots of ``f(., p)`` between consecutive edges of row ``p``, by bisection.

    ``edges`` rows increase, NaN entries skipped; ``f(x, owner)`` follows
    :func:`integrate` over several integrals.  Row ``p``'s probes form one increasing sequence,
    its first edge, then the last ``_SIGN_SAMPLES - 1`` of ``_SIGN_SAMPLES``
    equispaced points of each panel, and all rows share one probe call.  A
    root is a sign change between neighbouring probes, bisected by one
    :func:`bisect_brackets` call, or a lone zero probe between probes of
    opposite sign: all the piecewise-monotone integrands here need.  Returns
    ``(P, R)`` NaN-padded roots, each row increasing.
    """
    edges = np.asarray(edges, dtype=float)
    valid = ~np.isnan(edges)
    flat, owner = edges[valid], np.nonzero(valid)[0]
    panel = (owner[:-1] == owner[1:]) & (flat[:-1] < flat[1:])
    if not panel.any():
        return np.full((len(edges), 0), np.nan)
    xs = np.linspace(flat[:-1][panel], flat[1:][panel], _SIGN_SAMPLES, axis=1)
    own = owner[:-1][panel]
    # Each panel of a row after its first starts at the previous one's last probe.
    probe = np.ones(xs.shape, dtype=bool)
    probe[1:, 0] = own[1:] != own[:-1]
    xs, own = xs[probe], np.repeat(own, probe.sum(axis=1))
    vals = _feval(f, xs, own)
    sgn = np.sign(vals)
    k = np.flatnonzero((own[:-1] == own[1:]) & (sgn[:-1] * sgn[1:] < 0))
    zero = np.flatnonzero(
        (own[:-2] == own[2:]) & (sgn[1:-1] == 0) & (sgn[:-2] * sgn[2:] < 0)) + 1
    root = xs.copy()  # a lone zero probe is its own root
    root[k] = bisect_brackets(
        lambda x, b: f(x, own[k[b]]), xs[k], xs[k + 1], vals[k], _SIGN_ITERS)
    at = np.sort(np.concatenate([k, zero]))
    own = own[at]
    # Column of each root: its rank among its owner's (probes are by owner).
    col = np.arange(len(own)) - np.searchsorted(own, own)
    out = np.full((len(edges), col.max(initial=-1) + 1), np.nan)
    out[own, col] = root[at]
    return out
