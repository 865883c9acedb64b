"""Exact entropy-solution engine in Lagrangian coordinates.

The initial coordinate Z0(x) = int_0^x N(w0) and its inverse X0 are
tabulated once per solution, X0 as a table certified against Z0
(``maps._inverse_table``); every family then translates at its constant
Lagrangian speed s_f.  Distinct speeds and d_t tau = d_z u make tau = 1/N
separable over families, so the Eulerian position map is, on every system,
X(t, z) = x_0 + tau_L (z - zeta_0) + t u_L + sum_f D_f(z - s_f t): D_f is
the primitive, zero on the left, of family f's share d_f of tau, and one
``StackedCheb`` of ``[D_f, d_f]`` rows, fitted once per solution, gives X
and Newton's slope dX/dz = 1/N in one pass.  Born-Infeld-like systems are
separable by structure; any other solution certifies its tables against
the time quadrature of M/N (``position_quadrature``) at construction.
Solution values at (t, x) follow by inverting X(t, .) with the safeguarded
Newton of ``maps.invert_increasing``.  At a fixed t, X(t, .) is smooth
between the kink images zeta_k + speed * t of every family (merged where two
of them share one position), and exactly affine with slope 1/N at the tail
states outside the outermost two, the core [zeta_0 + min speed * t,
zeta_K + max speed * t], where no Newton step is needed.  A scalar t
brackets each target by its own kink segment, from one position pass over
the kink images; an array t (a box time side, a few points per time)
brackets by the two core edges of each time.  A scalar t with few points
(``_SCALAR_POINT_ROWS``) runs on Python floats end to end: the kink images
sort without a read, each target bisects them with one-point position reads
and runs ``maps.invert_floats``, one table read per Newton step, with the
numpy path's IEEE operations in its order.  Callers that read one time
many times take a :class:`Snapshot`, which holds Z(t, .) as a certified
Chebyshev table between the same kink images (``snapshots`` fits several
times in one ladder, each keeping its bits); ``evaluate`` always runs
Newton.  The closed form of Born-Infeld-like systems
(``position_closed_form``) and the time quadrature stay as independent
oracles.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .cheb import StackedCheb, fit_piecewise
from .maps import (_EPS, InverseTable, InversionError, _floored_tol, _fmax, _inverse_table,
                   _invert_between_knots, _sorted_knots, invert_floats, invert_increasing)
from .quadrature import QuadratureError, integrate, integrate_abs, refine_sign_changes
from .systems import AdmissibilityError

# The per-family tables' certified gap to position_quadrature (criterion 3's bound).
_SEPARABLE_TOL = 1e-9
_SUPPORT_MARGIN = 1.0  # how far a support interval reaches past the core edges
# A scalar-t lagrangian_coordinate of at most this many (point, table row)
# pairs runs on Python floats (``_coordinate_floats``).  The float path's
# cost grows with the points and the table depth; it crossed the numpy
# path's at about 256-320 pairs on a depth-15 two-row stack (bi-two-ramp)
# and about 512 on shallower ones, so this keeps a fourfold margin.
_SCALAR_POINT_ROWS = 64
# Distinct kink images closer than this fraction of their scale 1 + max|z|
# could share or swap positions in X(t, .) by rounding, which only a full
# kink pass (``maps._sorted_knots``) resolves.
_KNOTS_APART = 2.0 ** -20


class UnsupportedModelError(TypeError):
    """The requested closed form needs a Born-Infeld-like system."""


def _check_times(t):
    """The float array ``t``; ValueError if a time in it is negative or not
    finite.  One time compares as a plain float, cheaper than a numpy op."""
    lo, hi = (t.item(),) * 2 if t.size == 1 else (t.min(initial=0.0), t.max(initial=0.0))
    if not 0.0 <= lo <= hi < np.inf:
        raise ValueError("t must be finite and nonnegative")
    return t


def _located(exc, t, x):
    """``exc`` from inverting ``X(t, .)``, reworded to name its point (t, x)."""
    return InversionError("Z(t=%.17g, x=%.17g): Z(t,.) %s" % (t, x, exc),
                          owner=(float(t), float(x)))


def check_profile_admissible(system, profile):
    """Raise AdmissibilityError unless every interpolated state is admissible.

    The segment interiors are sampled, which is exact for the affine
    admissibility predicates of the catalog systems.
    """
    system.check_admissible(profile(profile.segment_samples(9)))


def check_translated_gap(system, profile):
    """(min, max) of mu - lam over the Born-Infeld states translation can mix.

    Realized pairs put the mu argument at or ahead of the lam argument in
    the Lagrangian coordinate, so the minimal gap is min over u of
    mu(u) - max_{v <= u} lam(v); piecewise linearity puts the extrema at
    breakpoints.  Raises AdmissibilityError if the translated invariants
    close the mu > lam gap (the coordinate map would degenerate along the
    evolution).  Returns None for systems without Born-Infeld structure.
    """
    st = system.bi_structure
    if st is None:
        return None
    mu = profile.values[:, st.mu]
    lam = profile.values[:, st.lam]
    runmax = np.maximum.accumulate(lam)
    min_gap = min(float(np.min(mu - runmax)), float(mu[-1] - lam.max()))
    if min_gap <= 0.0:
        raise AdmissibilityError(
            "translated invariants close the mu > lam gap along the "
            "evolution; the coordinate map would degenerate"
        )
    return min_gap, float(mu.max() - lam.min())


def solve(system, profile, quad_tol=1e-10, inv_tol=1e-12):
    """Build the exact-solution evaluator for a system and initial profile.

    Every interpolated state of the profile must be admissible
    (``check_profile_admissible``).  Construction also refuses data whose
    per-component translations would mix into inadmissible states (for
    Born-Infeld data: translated invariants closing the mu > lam gap), since
    the coordinate map would stop being invertible at some later time.
    """
    check_profile_admissible(system, profile)
    return LagrangianSolution(system, profile, quad_tol, inv_tol)


class LagrangianSolution:
    """Immutable evaluator bundling a system and an initial profile."""

    def __init__(self, system, profile, quad_tol=1e-10, inv_tol=1e-12):
        self.system = system
        self.initial = profile
        self.quad_tol = float(quad_tol)
        self.inv_tol = float(inv_tol)
        xs = profile.breakpoints

        # Z0 = antiderivative of N(w0), anchored so Z0(0) = 0; its tails are
        # exactly affine with slopes N at the constant tail states.
        self._n0 = fit_piecewise(lambda x: system.density(profile(x)), xs)
        self._z0 = self._n0.antiderivative(anchor=0.0)
        self.zeta = self._z0(xs)

        if self._n0(profile.segment_samples(129)).min() <= 0.0:
            raise ValueError("density is not positive along the profile")
        self._check_mixed_states(profile)

        # Both tails of Z0 and of every X(t, .) are exactly affine, with
        # slopes N and 1/N at the constant tail states.
        n_left = self._n0.left_tail[0]
        n_right = self._n0.right_tail[0]
        self._tail_slopes = (1.0 / n_left, 1.0 / n_right)
        self._speed_range = (system.family_speeds[0], system.family_speeds[-1])
        # Up to this time every family's kink images zeta + s t strictly
        # increase: images below M = max|zeta| + max|s| t round by at most
        # eps M / 2 each, and M < min gap / (2 eps) keeps them apart.
        s_max = np.abs(system.family_speeds).max()
        m_max = np.diff(self.zeta).min() / (2.0 * np.finfo(float).eps)
        self._exact_time = (m_max - np.abs(self.zeta).max()) / s_max if s_max else np.inf
        # X0 = Z0^-1 between the knots breakpoints -> zeta; Newton reads
        # (Z0, N0) from one table pass.
        z0_step = StackedCheb([[self._z0, self._n0]])
        self._x0 = _inverse_table(lambda x, owner: tuple(z0_step(x[None])[:, 0]),
                                  [(xs, self.zeta)], (n_left, n_right),
                                  min(self.inv_tol, 1e-13), ["X0 = Z0^-1"])[0].table

        # Distinct constant Lagrangian speeds and d_t tau = d_z u make
        # tau = 1/N separable over families: tau(w) = tau_L + sum_f d_f with
        # d_f(u) = tau(w_L with family f's components from w0(X0(u))) - tau_L,
        # so X(t, z) = x_0 + tau_L (z - zeta_0) + t u_L + sum_f D_f(z - s_f t)
        # with D_f the antiderivative of d_f, zero on the left.  Each tau_f is
        # fitted itself and shifted by tau_L: on a zero d_f scale, rounding
        # blips would set the fit's degree.  All families share one ladder,
        # one X0 read per rung.  A family with an exactly zero table (a
        # passive component of tau) is dropped.
        w_left = profile.left_tail
        tau_left = 1.0 / float(system.density(w_left))
        self._left = (float(xs[0]), float(self.zeta[0]), tau_left,
                      float(system.flux(w_left)) * tau_left)
        owns = np.array([np.isin(np.arange(system.n), f.components) for f in system.families])
        taus = fit_piecewise(lambda u, owner: 1.0 / system.density(
            np.where(owns[owner], profile(self._x0(u)), w_left)), [self.zeta] * len(owns))
        rows, speeds = [], []
        for family, tau in zip(system.families, taus):
            d = tau.shifted(-tau_left)
            if any(c.any() for c in d.coefs) or d.left_tail[0] or d.right_tail[0]:
                rows.append([d.antiderivative(), d])
                speeds.append(family.speed)
        # a solution with no varying family keeps one zero row
        self._tables = StackedCheb(rows or [[d.antiderivative(), d]])
        self._table_speeds = np.array(speeds or [family.speed])
        if system.bi_structure is None:
            self._certify_tables()

    def _certify_tables(self):
        """ValueError unless the tables meet ``position_quadrature`` within
        ``_SEPARABLE_TOL`` at the kink images of a time at which the families
        overlap and of one after they have separated.

        Born-Infeld-like systems are separable by structure; for any other
        the identities the tables rest on (``tau`` separable over families,
        ``u = u_L - sum_f s_f d_f``) are a property of the system this
        certifies on the data at hand.
        """
        speeds = self.system.family_speeds
        t_apart = (self.zeta[-1] - self.zeta[0]) / np.diff(speeds).min(initial=np.inf)
        t = np.array([[0.5 * t_apart], [2.0 * t_apart]])
        zk, xk = self.solution_kinks(t[:, 0])
        gap = np.abs(xk - self.position_quadrature(t, zk))
        k = np.unravel_index(np.argmax(gap), gap.shape)
        if not gap[k] <= _SEPARABLE_TOL:
            raise ValueError(
                "X(t=%.17g, z=%.17g): the per-family tables miss the time "
                "quadrature by %.3e; %s is not separable over its families"
                % (t[k[0], 0], zk[k], gap[k], self.system.name))

    def _check_mixed_states(self, profile):
        """Raise unless every state translation can mix is admissible, N > 0.

        Translation mixes component values that never co-occur at t = 0.  For
        Born-Infeld data the translated gap decides (``check_translated_gap``);
        otherwise the product box of per-component ranges is sampled on a
        7-point mesh per axis (exact for piecewise-linear data).
        """
        if check_translated_gap(self.system, profile) is not None:
            return
        mesh = profile.range_mesh(7)
        if not self.system.admissible(mesh).all():
            raise ValueError(
                "translated component combinations leave the admissible domain; "
                "the coordinate map could degenerate along the evolution"
            )
        if self.system.density(mesh).min() <= 0.0:
            raise ValueError("density is not positive over the mixed-state box")

    # -- initial coordinate maps ----------------------------------------------

    def initial_coordinate(self, x):
        """Z0(x), the Lagrangian coordinate at t = 0."""
        return self._z0(x)

    def initial_position(self, z):
        """X0(z), inverse of Z0."""
        return self._x0(z)

    def state_lagrangian(self, t, z):
        """Initial data translated in Lagrangian coordinates; shape (..., n).

        Component i is w0_i(X0(z - speed_i * t)): pure translation.  All
        components share one X0 evaluation on the stacked arguments.
        """
        z = np.asarray(z, dtype=float)
        t = np.asarray(t, dtype=float)
        speeds = self.system.lagrangian_speeds
        x0 = self._x0(z[..., None] - speeds * t[..., None])
        out = np.empty(x0.shape)
        for i in range(self.system.n):
            out[..., i] = self.initial.component(i, x0[..., i])
        return out

    # -- Eulerian position map -------------------------------------------------

    def position_quadrature(self, t, z):
        """X(t, z) by the generic time quadrature of M/N along the fiber.

        ``X(t, z) = X0(z) + int_0^t (M/N)(w(tau, z)) dtau`` for broadcastable
        ``t`` and ``z``; scalar input returns a float.  The integrand is
        piecewise smooth between the crossing times (z - zeta_k) / speed of
        the breakpoint images, which are injected as quadrature kinks.  All
        points with ``t > 0`` share one adaptive pass; points with ``t == 0``
        return X0(z) exactly.  A :class:`QuadratureError` names the failing
        point's (t, z) and its tau interval.
        """
        t = self._check_kink_times(np.asarray(t, dtype=float))
        z = np.asarray(z, dtype=float)
        tb, zb = np.broadcast_arrays(t, z)
        tf = tb.reshape(-1)
        zf = zb.reshape(-1)
        out = np.array(self._x0(zf), dtype=float)

        def ratio(tau, zs):
            w = self.state_lagrangian(tau, zs)
            return self.system.flux(w) / self.system.density(w)

        moving = np.nonzero(tf > 0.0)[0]
        if len(moving):
            tm, zm = tf[moving], zf[moving]
            try:
                out[moving] += integrate(
                    lambda tau, owner: ratio(tau, zm[owner]),
                    np.zeros(len(moving)),
                    tm,
                    self._crossing_times(zm),
                    tol=self.quad_tol,
                )
            except QuadratureError as exc:
                k = exc.owner
                raise QuadratureError(
                    "X(t=%.17g, z=%.17g): %s" % (tm[k], zm[k], exc),
                    interval=exc.interval,
                    owner=(float(tm[k]), float(zm[k])),
                ) from exc
        if tb.ndim == 0:
            return float(out[0])
        return out.reshape(tb.shape)

    def _crossing_times(self, z):
        """Times (z - zeta_k) / speed when moving kinks cross fiber z, per row."""
        speeds = self.system.family_speeds
        speeds = speeds[speeds != 0.0]
        return ((z[:, None, None] - self.zeta) / speeds[:, None]).reshape(len(z), -1)

    def _primitive(self, i):
        """Running primitive of w0_i(X0(z)), anchored at z = 0."""
        f = fit_piecewise(lambda z: self.initial.component(i, self._x0(z)), self.zeta)
        return f.antiderivative(anchor=0.0)

    @cached_property
    def _p_mu(self):
        return self._primitive(self.system.bi_structure.mu)

    @cached_property
    def _p_lam(self):
        return self._primitive(self.system.bi_structure.lam)

    def position_closed_form(self, t, z):
        """X(t, z) for Born-Infeld-like systems from the two running primitives."""
        st = self.system.bi_structure
        if st is None:
            raise UnsupportedModelError(
                "%s lacks the Born-Infeld structure needed for the closed form"
                % self.system.name
            )
        t = np.asarray(t, dtype=float)
        z = np.asarray(z, dtype=float)
        return (self._p_mu(z + st.a * t) - self._p_lam(z - st.a * t)) / (2.0 * st.a)

    def position(self, t, z):
        """X(t, z) from one pass over the per-family tables.

        Strictly increasing in z with dX/dz = 1/N at the translated state.
        Raises ValueError for a negative or non-finite time, or one at which
        the kink images stop strictly increasing (``_check_kink_times``).
        """
        t = self._check_kink_times(np.asarray(t, dtype=float))
        x = self._position_and_slope(t, np.asarray(z, dtype=float))[0]
        return float(x) if x.ndim == 0 else x

    def _position_and_slope(self, t, z):
        """``(X(t, z), dX/dz)`` for broadcastable arrays ``t``, ``z``: one
        pass over the rows ``[D_f, d_f]`` at ``z - s_f t``, with
        ``dX/dz = tau_L + sum_f d_f = 1/N`` at the translated state."""
        x_0, zeta_0, tau_left, u_left = self._left
        u = z - self._table_speeds.reshape((-1,) + (1,) * max(np.ndim(t), np.ndim(z))) * t
        v = self._tables(u.reshape(len(u), -1)).sum(axis=1).reshape((2,) + u.shape[1:])
        return x_0 + tau_left * (z - zeta_0) + t * u_left + v[0], tau_left + v[1]

    def _float_step(self, t):
        """``(z, owner) -> (X(t, z), dX/dz)`` on Python floats at the float
        ``t``: ``_position_and_slope``'s IEEE operations in its order, so
        every value keeps its bits, one ``StackedCheb._row`` per row."""
        x_0, zeta_0, tau_left, u_left = self._left
        tu = t * u_left
        row = self._tables._row
        shifts = [s * t for s in self._table_speeds.tolist()]
        first, rest = shifts[0], list(enumerate(shifts))[1:]

        def step(z, owner=None):
            v, w = row(0, (z - first,))
            for q, st in rest:
                d_q, slope_q = row(q, (z - st,))
                v, w = v + d_q, w + slope_q
            return x_0 + tau_left * (z - zeta_0) + tu + v, tau_left + w

        return step

    def _newton_step(self, time_of):
        """``f(z, owner) = (X(t, z), dX/dz)`` at ``t = time_of(owner)``, as
        :func:`maps.invert_increasing` takes it: one table pass."""
        return lambda zs, owner: self._position_and_slope(time_of(owner), zs)

    def _check_kink_times(self, t):
        """``t`` under the time rule (``_check_times``); ValueError naming
        the largest time once some family's kink images ``zeta + s t`` no
        longer strictly increase, where ``z - s t`` has lost the digits of
        ``z`` that X(t, .) depends on."""
        t = _check_times(t)
        t_max = t.item() if t.size == 1 else t.max(initial=0.0)
        if t_max > self._exact_time:
            # an infinite image fails the strict increase below
            with np.errstate(over="ignore"):
                images = self.zeta + self.system.family_speeds[:, None] * t_max
            if not (images[:, 1:] > images[:, :-1]).all():
                raise ValueError("t=%.17g: the kink images zeta + speed t no longer "
                                 "strictly increase" % t_max)
        return t

    def _core(self, t):
        """``(z_lo, z_hi)``: outside it every component is in a tail state."""
        lo, hi = self._speed_range
        return self.zeta[0] + lo * t, self.zeta[-1] + hi * t

    def lagrangian_coordinate(self, t, x):
        """Z(t, x) = X(t, .)^{-1}(x) by safeguarded Newton, on every system.

        ``X(t, .)`` is smooth between the kink images ``zeta_k + speed t`` and
        exactly affine, with slopes ``1/N`` at the tail states, beyond the
        outermost two, the core edges (``_core``).  One ``position`` pass over
        the shape of ``t``, not of the broadcast, gives the brackets:

        * a scalar ``t`` takes every kink image (``solution_kinks``),
          merged by :func:`maps._sorted_knots` where two distinct knots share
          one position, and runs :func:`maps._invert_between_knots`: each
          target starts Newton from the secant inside its own knot segment,
          and a target beyond the core takes the exact affine inverse;
        * an array ``t`` takes the two core edges of each element and runs
          :func:`maps.invert_increasing` over the whole core, since a knot
          pass costs ``families * len(zeta)`` points per time, more than the
          Newton steps it saves on the few points per time of a box side.

        Each Newton step is one pass over the per-family tables
        (``_position_and_slope``), which gives ``X`` and its slope
        ``dX/dz = 1/N`` together.

        A scalar ``t`` with at most ``_SCALAR_POINT_ROWS`` (point, table row)
        pairs runs on Python floats instead (``_coordinate_floats``): each
        target bisects the sorted kink images with one-point position reads
        and runs :func:`maps.invert_floats`, one table read per Newton step.
        It makes the numpy path's IEEE operations in its order, so a point
        gets the same bits in any batch; where kink images could merge it
        takes the full kink pass above.  Times follow ``_check_kink_times``.
        An :class:`InversionError` names the worst point's (t, x).
        """
        t = self._check_kink_times(np.asarray(t, dtype=float))
        x = np.asarray(x, dtype=float)
        if t.ndim == 0 and 0 < x.size * len(self._table_speeds) <= _SCALAR_POINT_ROWS:
            z = self._coordinate_floats(float(t), x.reshape(-1).tolist())
            if z is not None:
                return z[0] if x.ndim == 0 else np.array(z).reshape(x.shape)
        if t.ndim == 0:
            shape, xb = x.shape, x.reshape(-1)
            time_of = lambda owner: t
            zk, xk = self.solution_kinks(t)  # family-major: core edges first and last
            gap = xk[-1] - xk[0]
        else:
            tb, xb = np.broadcast_arrays(t, x)
            shape, tb, xb = tb.shape, tb.reshape(-1), xb.reshape(-1)
            time_of = lambda owner: tb[owner]
            z_lo, z_hi = self._core(t)
            x_lo, x_hi = self.position(t, np.stack([z_lo, z_hi]))
            z_lo, z_hi, x_lo, x_hi = (np.broadcast_to(a, shape).reshape(-1)
                                      for a in (z_lo, z_hi, x_lo, x_hi))
            gap = x_hi - x_lo
        if xb.size == 0:
            return np.empty(shape)
        if not gap.min() > 0.0:  # NaN too: then no knot merge can raise
            k = int(np.argmin(np.broadcast_to(gap, xb.shape)))
            raise InversionError(
                "Z(t=%.17g, x=%.17g): X(t,.) is not increasing across its core"
                % (time_of(k), xb[k]),
                owner=(float(time_of(k)), float(xb[k])),
            )
        tol = _floored_tol(self.inv_tol, xb)
        step = self._newton_step(time_of)
        try:
            if t.ndim == 0:
                z = _invert_between_knots(step, *_sorted_knots(zk, xk), xb,
                                          self._tail_slopes, tol)
            else:
                z = invert_increasing(step, xb, z_lo, z_hi, x_lo, x_hi,
                                      *self._tail_slopes, tol)
        except InversionError as exc:
            raise _located(exc, time_of(exc.owner), xb[exc.owner]) from exc
        return float(z[0]) if shape == () else z.reshape(shape)

    def _coordinate_floats(self, t, x):
        """``lagrangian_coordinate`` at the float ``t`` on the list of floats
        ``x``, in Python floats, or None where the kink images might merge.

        The sorted distinct kink images need no position read: X(t, .)
        increases, so they sort its knots.  Each target is bracketed as
        :func:`maps._invert_between_knots` brackets it among the merged
        knots, by bisection on position reads cached for the call; the two
        core edges are read first, and a target beyond them keeps the whole
        core, where the affine tails make the bracket's inner ends unused.
        Those brackets are ``_sorted_knots``' only where no knots merge, so
        images closer than ``_KNOTS_APART`` of their scale, or reads that do
        not strictly increase along a bisection, return None for the full
        kink pass.  Newton runs :func:`maps.invert_floats`, the rule of
        ``invert_increasing`` with its operations in its order, so every
        value has the bits of the numpy path.
        """
        shifts = [s * t for s in self.system.family_speeds.tolist()]
        zs = sorted({zj + st for st in shifts for zj in self.zeta.tolist()})
        apart = _KNOTS_APART * (1.0 + max(abs(zs[0]), abs(zs[-1])))
        if not all(hi - lo > apart for lo, hi in zip(zs, zs[1:])):
            return None
        step = self._float_step(t)
        n = len(zs)
        ys = [None] * n
        ys[0], ys[-1] = step(zs[0])[0], step(zs[-1])[0]
        if not ys[-1] - ys[0] > 0.0:  # the full pass names the failure
            return None
        brackets, tols = [], []
        for y in x:
            lo, hi = 0, n - 1
            # searchsorted(side="right") - 1, clipped: NaN joins the last segment
            if not (y < ys[0] or y > ys[-1]):
                while hi - lo > 1:
                    mid = (lo + hi) // 2
                    if ys[mid] is None:
                        ys[mid] = step(zs[mid])[0]
                    if not ys[lo] < ys[mid] < ys[hi]:
                        return None
                    lo, hi = (lo, mid) if y < ys[mid] else (mid, hi)
            brackets.append((zs[lo], zs[hi], ys[lo], ys[hi]))
            tols.append(_fmax(self.inv_tol, 32.0 * _EPS * (abs(y) + 1.0)))
        try:
            return invert_floats(step, x, *zip(*brackets), *self._tail_slopes, tols)
        except InversionError as exc:
            raise _located(exc, t, x[exc.owner]) from exc

    # -- solution values --------------------------------------------------------

    def evaluate(self, t, x):
        """Entropy solution w(t, x); shape (..., n).

        Component i is w0_i(X0(Z(t, x) - speed_i t)).
        """
        z = self.lagrangian_coordinate(t, x)
        return self.state_lagrangian(t, z)

    def snapshot(self, t):
        """The solution at the fixed time ``t`` as a :class:`Snapshot`:
        ``snapshots([t])[0]``."""
        return self.snapshots([t])[0]

    def snapshots(self, times):
        """The solution at each fixed time of ``times``, as a list of :class:`Snapshot`.

        ``Z(t, .)`` is tabulated once by ``maps._inverse_table`` between
        the merged ``solution_kinks(t)``, the images of the translated
        breakpoint images ``zeta_k + speed t``, with exactly affine tails of
        slopes ``N`` at the tail states, and certified by
        ``|X(t, Z_tab(x)) - x| <= inv_tol`` (floored per segment by its
        rounding and its fit's error) on check points of every segment,
        bisecting the knot segments if need be.  It keeps the kinks'
        positions.  The times share one ``_inverse_table`` ladder: each keeps
        the bits it gets alone, and the first that fails raises.  Worth its
        build only where a time is read many times: the L1 experiments and
        the space sides of a box.
        """
        ts, late = [], None
        for t in times:
            try:
                ts.append(float(self._check_kink_times(np.asarray(t, dtype=float))))
            except ValueError as exc:  # raised once the times before it are built
                late = exc
                break
        kinks, at = [self.solution_kinks(t) for t in ts], np.array(ts)
        coordinates = _inverse_table(self._newton_step(at.__getitem__), kinks, self._tail_slopes,
                                     self.inv_tol, ["Z(t=%.17g, .)" % t for t in ts])
        if late is not None:
            raise late
        return [Snapshot(self, t, c, xk) for t, c, (_, xk) in zip(ts, coordinates, kinks)]

    def solution_kinks(self, t):
        """``(zk, X(t, zk))``: the kink images and the Eulerian positions where
        some component loses smoothness at time ``t``.

        ``zk = zeta_k + speed t`` are the breakpoint images under each
        family's translation, family-major and unsorted, so the core edges
        come first and last; both arrays have shape
        ``t.shape + (families * len(zeta),)``, from one ``position`` call.
        """
        t = np.asarray(t, dtype=float)[..., None]
        speeds = self.system.family_speeds
        zk = (self.zeta + speeds[:, None] * t[..., None]).reshape(
            t.shape[:-1] + (speeds.size * self.zeta.size,))
        return zk, self.position(t, zk)

    def support_interval(self, t, margin=_SUPPORT_MARGIN):
        """Interval outside which w(t, .) is exactly constant, with margin;
        both edges from one ``position`` call (arrays for array ``t``)."""
        t = np.asarray(t, dtype=float)
        x_lo, x_hi = np.asarray(self.position(t, np.stack(self._core(t))), dtype=float)
        lo, hi = x_lo - margin, x_hi + margin
        return (float(lo), float(hi)) if t.ndim == 0 else (lo, hi)

    # -- weak-form residuals ------------------------------------------------------

    def box_residuals(self, box):
        """(conservation residual, per-component entropy residuals) on one box.

        The exact solution satisfies d_t N + d_x M = 0 and, for every i, the
        entropy equality d_t(N w_i) + d_x(N lambda_i w_i) = 0, whose flux is
        exactly (M + speed_i) w_i.  All n + 1 laws integrate the same
        solution values over the same four sides of ``box = (t1, t2, A, B)``,
        so the box is one vector-valued ``integrate`` pass whose four owners,
        each on its own kinks, are the sides: space at ``t2`` and ``t1``
        (read from one ``snapshots`` call), time at ``B`` and ``A`` (Newton,
        kinks from one ``_time_kinks`` search).  Each keeps its own bits.
        """
        t1, t2, A, B = box
        if not 0 <= t1 < t2 < np.inf:
            raise ValueError("need finite t2 > t1 >= 0")
        if not -np.inf < A < B < np.inf:
            raise ValueError("need finite A < B")
        speeds = self.system.lagrangian_speeds
        snaps = self.snapshots([t2, t1])
        x_sides = np.array([B, A])
        time_kinks = self._time_kinks(x_sides, t1, t2)
        kinks = np.full((4, max(snaps[0].kinks.size, time_kinks.shape[1])), np.nan)
        kinks[:2, :snaps[0].kinks.size] = [snap.kinks for snap in snaps]
        kinks[2:, :time_kinks.shape[1]] = time_kinks

        def laws(x, owner):  # [N, N w] on the space sides, [M, (M + s) w] on the time sides
            out = np.empty((len(x), speeds.size + 1))
            space, time = np.flatnonzero(owner < 2), np.flatnonzero(owner >= 2)
            if space.size:
                which, z = owner[space], np.empty(space.size)
                for j, snap in enumerate(snaps):
                    z[which == j] = snap.coordinate(x[space[which == j]])
                w = self.state_lagrangian(np.array([snap.t for snap in snaps])[which], z)
                n = self.system.density(w)
                out[space] = np.column_stack([n, n[:, None] * w])
            if time.size:
                w = self.evaluate(x[time], x_sides[owner[time] - 2])
                m = self.system.flux(w)
                out[time] = np.column_stack([m, (m[:, None] + speeds) * w])
            return out

        side = integrate(laws, [A, A, t1, t1], [B, B, t2, t2], kinks, tol=self.quad_tol)
        res = np.abs(side[0] - side[1] + side[2] - side[3])
        return float(res[0]), tuple(float(r) for r in res[1:])

    def _time_kinks(self, x_side, t1, t2):
        """Times at which a characteristic kink passes the fixed abscissa.

        The Eulerian path of breakpoint image zeta_k in family f is
        tau -> X(tau, zeta_k + speed_f tau); each (side, path) pair is one
        owner of :func:`refine_sign_changes` on 8 equal panels of [t1, t2].
        A scalar ``x_side`` gives its roots as one array; an array gives one
        NaN-padded row of roots per side.
        """
        sides = np.asarray(x_side, dtype=float)
        speeds = self.system.family_speeds
        spd = np.tile(np.repeat(speeds, self.zeta.size), sides.size)
        zk = np.tile(self.zeta, speeds.size * sides.size)
        side_of = np.repeat(sides.reshape(-1), speeds.size * self.zeta.size)

        def path(tau, k):
            return self.position(tau, zk[k] + spd[k] * tau) - side_of[k]

        roots = refine_sign_changes(path, np.tile(np.linspace(t1, t2, 9), (spd.size, 1)))
        return roots[~np.isnan(roots)] if sides.ndim == 0 else roots.reshape(sides.size, -1)


@dataclass(frozen=True, eq=False)
class Snapshot:
    """A solution at one fixed time ``t`` (:meth:`LagrangianSolution.snapshot`).

    ``coordinate`` is ``Z(t, .)`` as a certified ``maps.InverseTable``;
    ``certificate`` reports its worst residual, segment count, maximum
    degree and its number of knot bisections.  ``kinks`` are the positions
    of ``solution_kinks(t)``, the core edges first and last.
    """

    solution: LagrangianSolution
    t: float
    coordinate: InverseTable
    kinks: np.ndarray

    @property
    def certificate(self):
        return self.coordinate.certificate

    def evaluate(self, x):
        """w(t, x) = w0(X0(Z_tab(x) - speed t)); shape (..., n)."""
        return self.solution.state_lagrangian(self.t, self.coordinate(x))


def _snapshot_side(snaps, which, comps):
    """The :func:`_l1_distances` side of component ``comps[p]`` of ``snaps[which[p]]``
    for every owner ``p``: the snapshots' kinks, and a reader that makes one
    coordinate read per snapshot on its points, then one ``state_lagrangian`` call."""

    def read(x, owner):
        k = which[owner]
        z = np.empty(len(x))
        for j, snap in enumerate(snaps):
            on = k == j
            z[on] = snap.coordinate(x[on])
        w = snaps[0].solution.state_lagrangian(np.array([s.t for s in snaps])[k], z)
        return w[np.arange(len(x)), comps[owner]]

    return np.array([snap.kinks for snap in snaps])[which], read


def _l1_distances(a, b, tol):
    """``int |a(x, p) - b(x, p)| dx`` for every owner ``p``, in one ``integrate_abs`` pass.

    A side is ``(kinks, read)``: ``read(x, owner)`` gives its values, and the first
    and last columns of the ``(P, K)`` array ``kinks`` bound where they differ from
    their tail value.  Owner ``p`` integrates between both sides' bounds widened by
    ``_SUPPORT_MARGIN``, with every kink as a panel edge."""
    (ka, read_a), (kb, read_b) = a, b
    lo = np.minimum(ka[:, 0], kb[:, 0]) - _SUPPORT_MARGIN
    hi = np.maximum(ka[:, -1], kb[:, -1]) + _SUPPORT_MARGIN
    return integrate_abs(lambda x, owner: read_a(x, owner) - read_b(x, owner),
                         lo, hi, np.column_stack([ka, kb]), tol)
