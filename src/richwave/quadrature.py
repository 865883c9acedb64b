"""Adaptive Simpson quadrature with pre-splitting at known kinks.

Every integral in the package funnels through :func:`integrate_many`, which
integrates a batch of integrals ``[a_p, b_p]`` in one adaptive pass: the
panels of all integrals refine together, one integrand call per level, and
each panel's result is credited to the integral that owns it.
:func:`integrate` is the one-integral call.  Integrands are piecewise smooth
with kink locations known to the caller (profile breakpoints and their
coordinate images), so each interval is split there first and every panel
converges at Simpson's full order (the vectorised form of the adaptive
scheme of Gander & Gautschi, BIT 40 (2000)).
"""

import numpy as np

MAX_DEPTH = 40


class QuadratureError(RuntimeError):
    """Adaptive refinement hit the depth limit before reaching the tolerance.

    Carries the worst offending subinterval as ``interval = (lo, hi)`` and
    the integral it belongs to as ``owner``: its index in
    :func:`integrate_many`, the point ``(t, z)`` in
    ``LagrangianSolution.position_quadrature``.
    """

    def __init__(self, message, interval=None, owner=None):
        super().__init__(message)
        self.interval = interval
        self.owner = owner


def _feval(f, *args):
    x = args[0]
    out = np.asarray(f(*args), dtype=float)
    if out.shape != x.shape:
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


def integrate_many(f, a, b, kinks=None, tol=1e-10):
    """Integrals of ``f`` over ``[a_p, b_p]`` for every ``p``, in one pass.

    ``f(x, owner)`` is called with 1-D arrays of points and of the index
    ``p`` of the integral each point belongs to, and must return values of
    the same shape (scalars broadcast).  ``kinks`` is an optional
    ``(len(a), K)`` array (NaN-padded) of points where integral ``p``'s
    integrand loses smoothness; those inside ``(a_p, b_p)`` become panel
    boundaries.  Integral ``p`` meets the absolute accuracy ``tol``: each of
    its panels gets the budget ``tol * (hi - lo) / |b_p - a_p|``.  ``a_p ==
    b_p`` gives 0 and ``a_p > b_p`` flips the sign.

    Raises :class:`QuadratureError` if any panel still fails its error budget
    after ``MAX_DEPTH`` bisection levels.
    """
    a = np.asarray(a, dtype=float).reshape(-1)
    b = np.asarray(b, dtype=float).reshape(-1)
    sign = np.where(b < a, -1.0, 1.0)
    a, b = np.minimum(a, b), np.maximum(a, b)
    if kinks is None:
        kinks = np.empty((len(a), 0))
    kinks = np.asarray(kinks, dtype=float).reshape(len(a), -1)
    total = np.zeros(len(a))
    full = a < b
    lo, hi, own = _panels(a[full], b[full], kinks[full])
    own = np.nonzero(full)[0][own]
    if len(lo) == 0:
        return total

    mid = 0.5 * (lo + hi)
    n = len(lo)
    fvals = _feval(f, np.concatenate([lo, mid, hi]), np.tile(own, 3))
    flo, fmid, fhi = fvals[:n], fvals[n:2 * n], fvals[2 * n:]
    simp = (hi - lo) / 6.0 * (flo + 4.0 * fmid + fhi)
    budget = tol * (hi - lo) / (b - a)[own]

    for depth in range(MAX_DEPTH + 1):
        n = len(lo)
        m1 = 0.5 * (lo + mid)
        m2 = 0.5 * (mid + hi)
        fm = _feval(f, np.concatenate([m1, m2]), np.concatenate([own, own]))
        fm1, fm2 = fm[:n], fm[n:]
        left = (mid - lo) / 6.0 * (flo + 4.0 * fm1 + fmid)
        right = (hi - mid) / 6.0 * (fmid + 4.0 * fm2 + fhi)
        err = left + right - simp
        done = np.abs(err) <= 15.0 * budget
        # Richardson-corrected value on accepted panels.
        total += np.bincount(
            own[done], weights=(left + right + err / 15.0)[done], minlength=len(a)
        )
        if done.all():
            return sign * total
        if depth == MAX_DEPTH:
            worst = int(np.argmax(np.where(done, -np.inf, np.abs(err))))
            raise QuadratureError(
                "adaptive Simpson: depth %d exceeded with panel error %.3e on "
                "[%.17g, %.17g]" % (MAX_DEPTH, abs(err[worst]), lo[worst], hi[worst]),
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


def integrate(f, a, b, kinks=(), tol=1e-10):
    """Integral of ``f`` over ``[a, b]`` to absolute accuracy ``tol``.

    ``f`` is called with 1-D numpy arrays of points and must return values of
    the same shape (scalars broadcast).  ``kinks`` lists points where ``f``
    loses smoothness; those inside ``(a, b)`` become panel boundaries.
    ``a > b`` integrates with the usual sign flip.

    Raises :class:`QuadratureError` if any panel still fails its error budget
    after ``MAX_DEPTH`` bisection levels.
    """
    kinks = np.asarray([float(k) for k in kinks], dtype=float)[None, :]
    return float(integrate_many(lambda x, owner: f(x), [a], [b], kinks, tol)[0])


def refine_sign_changes(f, edges, samples=9, iters=52):
    """Roots of ``f`` between consecutive ``edges``, located by bisection.

    Used to turn the sign changes of a difference of solutions into extra
    kinks so that ``integrate`` sees a smooth ``|f|`` on every panel.  Only
    sign changes visible at ``samples`` probe points per panel are found,
    which is all the piecewise-monotone integrands here need.  All detected
    brackets bisect together, one vectorized ``f`` call per iteration.
    """
    edges = np.asarray(edges, dtype=float)
    if len(edges) < 2:
        return []
    xs = np.concatenate(
        [np.linspace(edges[k], edges[k + 1], samples) for k in range(len(edges) - 1)]
    )
    vals = _feval(f, xs)
    # Drop bracket candidates that straddle a panel edge (duplicated points).
    sgn = np.sign(vals)
    flip = np.nonzero((sgn[:-1] * sgn[1:] < 0) & (np.diff(xs) > 0))[0]
    if flip.size == 0:
        return []
    lo = xs[flip].copy()
    hi = xs[flip + 1].copy()
    vlo = vals[flip].copy()
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        vm = _feval(f, mid)
        left = vlo * vm <= 0.0
        hi = np.where(left, mid, hi)
        vlo = np.where(left, vlo, vm)
        lo = np.where(left, lo, mid)
    return list(0.5 * (lo + hi))
