"""Exact entropy-solution engine in Lagrangian coordinates.

The initial coordinate Z0(x) = int_0^x N(w0) and its inverse X0 are
tabulated once per solution; every family then translates at its constant
Lagrangian speed, and the Eulerian position map X(t, .) is recovered either
by a time quadrature of M/N (any system) or, for Born-Infeld-like systems,
by the closed form built from running primitives of the two extreme
invariants.  Solution values at (t, x) follow by inverting X(t, .).
"""

import numpy as np

from .cheb import fit_piecewise
from .maps import InversionError, MonotoneMap
from .quadrature import integrate

MAX_NEWTON_ITERS = 200


class UnsupportedModelError(TypeError):
    """The requested closed form needs a Born-Infeld-like system."""


def check_profile_admissible(system, profile):
    """Raise AdmissibilityError unless every interpolated state is admissible.

    The segment interiors are sampled, which is exact for the affine
    admissibility predicates of the catalog systems.
    """
    xs = profile.breakpoints
    sample = np.unique(
        np.concatenate([np.linspace(xs[k], xs[k + 1], 9) for k in range(len(xs) - 1)])
    )
    system.check_admissible(profile(sample))


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
        self._z0 = self._n0.antiderivative(anchor=0.0, value=0.0)
        self.zeta = self._z0(xs)

        dense = np.concatenate(
            [np.linspace(xs[k], xs[k + 1], 129) for k in range(len(xs) - 1)]
        )
        nv = self._n0(dense)
        if nv.min() <= 0.0:
            raise ValueError("density is not positive along the profile")
        self.n_min = float(nv.min()) * 0.999
        self.n_max = float(nv.max()) * 1.001

        # Translation mixes component values that never co-occur at t = 0, so
        # the density range along the evolution is bounded over the product
        # box of per-component ranges (exact for piecewise-linear data).
        # These bounds only seed the inversion bracket; sign-change expansion
        # keeps the inversion correct even if they are slightly off.
        self.mix_n_min, self.mix_n_max = self._mixed_density_range(profile)

        n_left = self._n0.left_tail[0]
        n_right = self._n0.right_tail[0]
        self.z0_map = MonotoneMap(
            self._z0,
            x_lo=float(xs[0]),
            x_hi=float(xs[-1]),
            d_min=self.n_min,
            d_max=self.n_max,
            left_slope=n_left,
            right_slope=n_right,
            deriv=self._n0,
            tol=min(self.inv_tol, 1e-13),
        )
        self._x0 = fit_piecewise(
            self.z0_map.invert,
            self.zeta,
            tail_slopes=(1.0 / n_left, 1.0 / n_right),
        )

        self._bi = system.bi_structure
        if self._bi is not None:
            st = self._bi
            self._p_mu = fit_piecewise(
                lambda z: profile.component(st.mu, self._x0(z)), self.zeta
            ).antiderivative(anchor=0.0, value=0.0)
            self._p_lam = fit_piecewise(
                lambda z: profile.component(st.lam, self._x0(z)), self.zeta
            ).antiderivative(anchor=0.0, value=0.0)

    def _mixed_density_range(self, profile):
        st = self.system.bi_structure
        if st is not None:
            # Realized pairs put the mu argument at or ahead of the lam
            # argument in the Lagrangian coordinate, so the minimal gap is
            # min over u of mu(u) - max_{v <= u} lam(v); piecewise linearity
            # puts the extrema at breakpoints.
            mu = profile.values[:, st.mu]
            lam = profile.values[:, st.lam]
            runmax = np.maximum.accumulate(lam)
            min_gap = min(float(np.min(mu - runmax)), float(mu[-1] - lam.max()))
            if min_gap <= 0.0:
                raise ValueError(
                    "translated invariants close the mu > lam gap along the "
                    "evolution; the coordinate map would degenerate"
                )
            max_gap = float(mu.max() - lam.min())
            a = st.a
            return (2.0 * a / max_gap) * 0.99, (2.0 * a / min_gap) * 1.01
        axes = []
        for i in range(self.system.n):
            lo = float(profile.values[:, i].min())
            hi = float(profile.values[:, i].max())
            axes.append(np.linspace(lo, hi, 7) if hi > lo else np.array([lo]))
        mesh = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)
        mesh = mesh.reshape(-1, self.system.n)
        ok = self.system.admissible(mesh)
        if not ok.all():
            raise ValueError(
                "translated component combinations leave the admissible domain; "
                "the coordinate map could degenerate along the evolution"
            )
        nv = self.system.density(mesh)
        if nv.min() <= 0.0:
            raise ValueError("density is not positive over the mixed-state box")
        return float(nv.min()) * 0.99, float(nv.max()) * 1.01

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

        The integrand is piecewise smooth between the crossing times
        (z - zeta_k) / speed of the breakpoint images, which are injected as
        quadrature kinks.
        """
        t = float(t)
        z = float(z)
        if t < 0:
            raise ValueError("t must be nonnegative")
        base = float(self._x0(z))
        if t == 0.0:
            return base
        kinks = []
        for fam in self.system.families:
            if fam.speed != 0.0:
                taus = (z - self.zeta) / fam.speed
                kinks.extend(taus[(taus > 0.0) & (taus < t)])

        def ratio(tau):
            w = self.state_lagrangian(tau, z)
            return self.system.flux(w) / self.system.density(w)

        return base + integrate(ratio, 0.0, t, kinks=kinks, tol=self.quad_tol)

    def position_closed_form(self, t, z):
        """X(t, z) for Born-Infeld-like systems from the two running primitives."""
        if self._bi is None:
            raise UnsupportedModelError(
                "%s lacks the Born-Infeld structure needed for the closed form"
                % self.system.name
            )
        a = self._bi.a
        t = np.asarray(t, dtype=float)
        z = np.asarray(z, dtype=float)
        return (self._p_mu(z + a * t) - self._p_lam(z - a * t)) / (2.0 * a)

    def position(self, t, z):
        """X(t, z); closed form when the system supports it, else quadrature.

        Strictly increasing in z with dX/dz = 1/N at the translated state.
        """
        if self._bi is not None:
            return self.position_closed_form(t, z)
        t = np.asarray(t, dtype=float)
        z = np.asarray(z, dtype=float)
        if t.ndim == 0 and z.ndim == 0:
            return self.position_quadrature(float(t), float(z))
        tb, zb = np.broadcast_arrays(t, z)
        out = np.empty(tb.shape)
        for idx in np.ndindex(tb.shape):
            out[idx] = self.position_quadrature(float(tb[idx]), float(zb[idx]))
        return out

    def lagrangian_coordinate(self, t, x):
        """Z(t, x) = X(t, .)^{-1}(x): bracket from the mixed density bounds,
        expand until the root is sign-enclosed, then safeguarded Newton."""
        t = np.asarray(t, dtype=float)
        x = np.asarray(x, dtype=float)
        if np.any(t < 0):
            raise ValueError("t must be nonnegative")
        scalar = t.ndim == 0 and x.ndim == 0
        tb, xb = np.broadcast_arrays(np.atleast_1d(t), np.atleast_1d(x))
        tb = tb.reshape(-1).astype(float)
        xb = xb.reshape(-1).astype(float)

        c0 = np.atleast_1d(np.asarray(self.position(tb, np.zeros_like(tb)), dtype=float))
        d = xb - c0
        # X(t, .) - X(t, 0) lies between z/mix_n_max and z/mix_n_min.
        lo = np.minimum(d * self.mix_n_min, d * self.mix_n_max) - 1e-9
        hi = np.maximum(d * self.mix_n_min, d * self.mix_n_max) + 1e-9
        r_lo = np.asarray(self.position(tb, lo), dtype=float) - xb
        r_hi = np.asarray(self.position(tb, hi), dtype=float) - xb
        width = np.maximum(hi - lo, 1.0)
        for _ in range(80):
            bad_lo = r_lo > 0.0
            bad_hi = r_hi < 0.0
            if not (bad_lo.any() or bad_hi.any()):
                break
            if bad_lo.any():
                lo[bad_lo] -= width[bad_lo]
                r_lo[bad_lo] = (
                    np.asarray(self.position(tb[bad_lo], lo[bad_lo]), dtype=float)
                    - xb[bad_lo]
                )
            if bad_hi.any():
                hi[bad_hi] += width[bad_hi]
                r_hi[bad_hi] = (
                    np.asarray(self.position(tb[bad_hi], hi[bad_hi]), dtype=float)
                    - xb[bad_hi]
                )
            width *= 2.0
        else:
            raise InversionError("could not sign-enclose Z(t,.) inversion")

        z = np.clip(d * 0.5 * (self.mix_n_min + self.mix_n_max), lo, hi)
        done = np.zeros(z.shape, dtype=bool)
        tol = np.maximum(self.inv_tol, 32.0 * np.finfo(float).eps * (np.abs(xb) + 1.0))
        r = np.empty_like(z)
        for _ in range(MAX_NEWTON_ITERS):
            act = ~done
            r[act] = np.asarray(self.position(tb[act], z[act]), dtype=float) - xb[act]
            done |= np.abs(r) <= tol
            # With the root sign-enclosed, a collapsed bracket means the
            # position tables cannot resolve the residual any further.
            done |= (hi - lo) <= 4.0 * np.finfo(float).eps * np.maximum(1.0, np.abs(z))
            if done.all():
                break
            act = ~done
            pos = act & (r > 0.0)
            neg = act & (r <= 0.0)
            hi[pos] = np.minimum(hi[pos], z[pos])
            lo[neg] = np.maximum(lo[neg], z[neg])
            dens = self.system.density(self.state_lagrangian(tb[act], z[act]))
            cand = z[act] - r[act] * dens
            outside = (cand <= lo[act]) | (cand >= hi[act]) | ~np.isfinite(cand)
            cand[outside] = 0.5 * (lo[act] + hi[act])[outside]
            z[act] = cand
        else:
            raise InversionError(
                "Z(t,.) inversion stalled: worst residual %.3e (tol %.1e)"
                % (float(np.max(np.abs(r[~done]))), self.inv_tol)
            )
        if scalar:
            return float(z[0])
        return z.reshape(np.broadcast_shapes(np.asarray(t).shape, np.asarray(x).shape))

    # -- solution values --------------------------------------------------------

    def evaluate(self, t, x):
        """Entropy solution w(t, x); shape (..., n).

        Component i is w0_i(X0(Z(t, x) - speed_i t)).
        """
        z = self.lagrangian_coordinate(t, x)
        return self.state_lagrangian(t, z)

    def solution_kinks(self, t, lo=None, hi=None):
        """Eulerian positions where some component loses smoothness at time t.

        These are the images X(t, zeta_k + speed * t) of the breakpoint
        images under each family's translation.
        """
        t = float(t)
        out = []
        for fam in self.system.families:
            zk = self.zeta + fam.speed * t
            out.append(np.asarray(self.position(t, zk), dtype=float))
        kinks = np.unique(np.concatenate(out))
        if lo is not None:
            kinks = kinks[kinks > lo]
        if hi is not None:
            kinks = kinks[kinks < hi]
        return kinks

    def support_interval(self, t, margin=1.0):
        """Interval outside which w(t, .) is exactly constant, with margin."""
        t = float(t)
        speeds = [f.speed for f in self.system.families]
        z_lo = self.zeta[0] + min(speeds) * t
        z_hi = self.zeta[-1] + max(speeds) * t
        return (
            float(self.position(t, z_lo)) - margin,
            float(self.position(t, z_hi)) + margin,
        )

    # -- weak-form residuals ------------------------------------------------------

    def conservation_residual(self, t1, t2, A, B):
        """Box residual of the common conservation law d_t N + d_x M = 0."""
        return self._box_residual(
            (t1, t2, A, B),
            lambda w: self.system.density(w),
            lambda w: self.system.flux(w),
        )

    def entropy_residual(self, i, box):
        """Box residual of the entropy equality d_t(N w_i) + d_x(N lambda_i w_i) = 0.

        The flux uses N lambda_i = M + speed_i, exact by construction.
        """
        s = self.system.lagrangian_speeds[i]
        return self._box_residual(
            box,
            lambda w: self.system.density(w) * w[..., i],
            lambda w: (self.system.flux(w) + s) * w[..., i],
        )

    def box_residuals(self, box):
        """(conservation residual, per-component entropy residuals) on one box.

        Shares the kink computation across all the residual quadratures.
        """
        kinks = self._box_kinks(box)
        cons = self._box_residual(
            box,
            lambda w: self.system.density(w),
            lambda w: self.system.flux(w),
            kinks=kinks,
        )
        entropies = []
        for i in range(self.system.n):
            s = self.system.lagrangian_speeds[i]
            entropies.append(
                self._box_residual(
                    box,
                    lambda w, i=i: self.system.density(w) * w[..., i],
                    lambda w, i=i, s=s: (self.system.flux(w) + s) * w[..., i],
                    kinks=kinks,
                )
            )
        return cons, tuple(entropies)

    def _box_kinks(self, box):
        t1, t2, A, B = box
        return (
            self.solution_kinks(t1, lo=A, hi=B),
            self.solution_kinks(t2, lo=A, hi=B),
            self._time_kinks(A, t1, t2),
            self._time_kinks(B, t1, t2),
        )

    def _box_residual(self, box, point_density, point_flux, kinks=None):
        t1, t2, A, B = box
        if not (0 <= t1 < t2):
            raise ValueError("need t2 > t1 >= 0")
        if not A < B:
            raise ValueError("need A < B")
        if kinks is None:
            kinks = self._box_kinks(box)
        space1, space2, time_a, time_b = kinks

        def space_integral(t, kk):
            return integrate(
                lambda xs: point_density(self.evaluate(t, xs)),
                A, B, kinks=kk, tol=self.quad_tol,
            )

        def time_integral(x_side, kk):
            return integrate(
                lambda taus: point_flux(self.evaluate(taus, x_side)),
                t1, t2, kinks=kk, tol=self.quad_tol,
            )

        return abs(
            space_integral(t2, space2) - space_integral(t1, space1)
            + time_integral(B, time_b) - time_integral(A, time_a)
        )

    def _time_kinks(self, x_side, t1, t2, samples=65, iters=60):
        """Times at which a characteristic kink passes the fixed abscissa.

        The Eulerian path of breakpoint image zeta_k in family f is
        tau -> X(tau, zeta_k + speed_f tau); its crossings of x_side are
        bracketed on a sample grid and bisected.
        """
        taus = np.linspace(t1, t2, samples)
        speeds = np.array([f.speed for f in self.system.families])
        zz = self.zeta[None, None, :] + speeds[None, :, None] * taus[:, None, None]
        paths = np.asarray(
            self.position(taus[:, None, None], zz), dtype=float
        ) - x_side
        sgn = np.sign(paths)
        flips = np.nonzero(sgn[:-1] * sgn[1:] < 0)
        if len(flips[0]) == 0:
            return []
        lo = taus[flips[0]]
        hi = taus[flips[0] + 1]
        vlo = paths[flips]
        spd = speeds[flips[1]]
        zk = self.zeta[flips[2]]
        for _ in range(iters):
            mid = 0.5 * (lo + hi)
            vm = np.asarray(self.position(mid, zk + spd * mid), dtype=float) - x_side
            left = vlo * vm <= 0.0
            hi = np.where(left, mid, hi)
            lo = np.where(left, lo, mid)
            vlo = np.where(left, vlo, vm)
        return list(0.5 * (lo + hi))
