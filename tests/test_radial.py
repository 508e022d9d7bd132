"""Tests of the exact radial solution oracles.

Expected values were produced by independent routes: the Beta closed form
for the full singular integral, central finite differences for dm/dlambda,
the Picard double-integral fixed point for profile cross-checks, and a
bracketed root of mpmath quadrature of the raw integrand for pointwise
profile values.
"""

import math

import mpmath
import numpy as np
import pytest

from inflap import radial
from inflap.quadrature import QuadratureError

LAMBDA_B_UNIT = (math.pi * math.sqrt(2.0) / 4.0) ** 4  # ~1.5220170474062881


def mp_profile(p, r):
    """u(r) solving the profile's integral relation by a bracketed root
    (Illinois) on mpmath quadrature of the raw integrand, in u = distance to
    the singular endpoint; independent of inflap.quadrature."""
    if r == 0:
        return p.m if p.kind == "eigen_decaying" else p.delta
    with mpmath.workdps(30):
        target = mpmath.mpf(p.lam) ** 0.25 * r
        if p.kind == "eigen_decaying":  # integral of (1-s^4)^(-1/4) over [q, 1]
            def F(q):
                return mpmath.quad(
                    lambda u: (u * (2 - u) * (1 + (1 - u) ** 2)) ** -0.25, [0, 1 - q])

            q = mpmath.findroot(lambda q: F(q) - target, (0, 1), solver="illinois")
            return p.m * float(q)

        def G(v):  # integral of (s^4-1)^(-1/4) over [1, v]
            return mpmath.quad(
                lambda u: (u * (u + 2) * (u * u + 2 * u + 2)) ** -0.25, [0, v - 1])

        hi = mpmath.mpf(2)
        while G(hi) < target:
            hi *= 2
        v = mpmath.findroot(lambda v: G(v) - target, (1, hi), solver="illinois")
        return p.delta * float(v)


class TestEigenvalue:
    def test_unit_ball_closed_form(self):
        assert abs(radial.ball_eigenvalue(1.0) - LAMBDA_B_UNIT) < 1e-12

    def test_scaling_law(self):
        lam1 = radial.ball_eigenvalue(1.0)
        assert abs(radial.ball_eigenvalue(2.0) - lam1 / 16.0) < 1e-12
        products = [radial.ball_eigenvalue(R) * R ** 4 for R in (0.5, 1.0, 2.0, 4.0)]
        for p in products:
            assert abs(p / products[0] - 1.0) < 1e-10

    def test_large_radius_monotone_to_zero(self):
        vals = [radial.ball_eigenvalue(R) for R in (1.0, 10.0, 100.0, 1e4)]
        assert all(a > b for a, b in zip(vals, vals[1:]))
        assert vals[-1] < 1e-15

    def test_bad_radius(self):
        with pytest.raises(radial.RadialParameterError):
            radial.ball_eigenvalue(0.0)


class TestDecayingProfile:
    def test_eigenfunction_endpoints(self):
        lam = radial.ball_eigenvalue(1.0)
        p = radial.decaying_profile(1.0, lam, 1.0, fixed_which="m")
        assert p.eval(0.0) == 1.0
        assert abs(p.eval(1.0)) < 1e-10
        assert p.delta == 0.0

    def test_decreasing_and_implicit_relation(self):
        lam = 0.6 * radial.ball_eigenvalue(1.0)
        p = radial.decaying_profile(1.0, lam, 0.5, fixed_which="delta")
        r = np.linspace(0.0, 1.0, 101)
        u = p.eval(r)
        assert np.all(np.diff(u) < 0)
        assert abs(u[0] - p.m) < 1e-12
        assert abs(u[-1] - 0.5) < 1e-10
        # F(u(r)/m) = lam^(1/4) r at interior sample points
        from inflap.quadrature import f_decay

        for ri, ui in zip(r[5::20], u[5::20]):
            assert abs(f_decay(ui / p.m) - lam ** 0.25 * ri) < 1e-9

    def test_ode_residual_normalized(self):
        for frac in (0.3, 0.7, 1.0):
            lam = frac * radial.ball_eigenvalue(1.0)
            which = "m" if frac == 1.0 else "delta"
            p = radial.decaying_profile(1.0, lam, 1.0, fixed_which=which)
            r = np.linspace(0.05, 0.95, 91)
            res = np.abs(p.ode_residual(r)) / (lam * p.m ** 3)
            assert res.max() <= 1e-6

    def test_m_increases_with_lambda_fixed_delta(self):
        lam_b = radial.ball_eigenvalue(1.0)
        lams = np.linspace(0.2, 0.98, 9) * lam_b
        ms = [radial.decaying_profile(1.0, la, 1.0, fixed_which="delta").m
              for la in lams]
        assert all(a < b for a, b in zip(ms, ms[1:]))
        # m(lambda) -> infinity as lambda -> lambda_B
        assert radial.decaying_profile(1.0, 0.999999 * lam_b, 1.0,
                                       fixed_which="delta").m > 30.0

    def test_delta_decreases_with_lambda_fixed_m(self):
        lam_b = radial.ball_eigenvalue(1.0)
        lams = np.linspace(0.2, 0.999, 9) * lam_b
        ds = [radial.decaying_profile(1.0, la, 1.0, fixed_which="m").delta
              for la in lams]
        assert all(a > b for a, b in zip(ds, ds[1:]))
        assert ds[-1] < 0.1

    def test_parameter_errors(self):
        lam_b = radial.ball_eigenvalue(1.0)
        with pytest.raises(radial.RadialParameterError):
            radial.decaying_profile(1.0, 1.5 * lam_b, 1.0)
        with pytest.raises(radial.RadialParameterError):
            radial.decaying_profile(1.0, lam_b, 1.0, fixed_which="delta")
        with pytest.raises(radial.RadialParameterError):
            radial.decaying_profile(1.0, 0.5 * lam_b, 0.0, fixed_which="delta")

    def test_scalar_bisect_route_agrees(self):
        lam = 0.8 * radial.ball_eigenvalue(1.0)
        p = radial.decaying_profile(1.0, lam, 1.0, fixed_which="m")
        for r in (0.0, 0.2, 0.63, 1.0):
            assert abs(mp_profile(p, r) - float(p.eval(r))) < 1e-14


class TestGrowingProfile:
    def test_center_value_and_increase(self):
        g = radial.growing_profile(1.0, 1.0, 1.0)
        assert g.eval(0.0) == 1.0
        r = np.linspace(0.0, 1.0, 101)
        assert np.all(np.diff(g.eval(r)) > 0)

    def test_scalar_bisect_route_agrees(self):
        # r = 10 reaches u/delta ~ 2e4, where G is evaluated through log v
        g = radial.growing_profile(10.0, 1.0, 0.7)
        for r in (0.0, 1e-3, 0.2, 0.63, 1.0, 4.0, 10.0):
            assert abs(float(g.eval(r)) / mp_profile(g, r) - 1.0) < 1e-14

    def test_small_r_lower_bound(self):
        # u(r) - delta >= (3^(4/3) delta / 4) lam^(1/3) r^(4/3)
        g = radial.growing_profile(1.0, 2.0, 0.7)
        r = np.linspace(1e-4, 1.0, 200)
        lhs = g.eval(r) - 0.7
        rhs = 3.0 ** (4.0 / 3.0) * 0.7 / 4.0 * 2.0 ** (1.0 / 3.0) * r ** (4.0 / 3.0)
        assert np.all(lhs >= rhs * (1.0 - 1e-9))

    def test_ode_residual_normalized(self):
        g = radial.growing_profile(1.0, 1.0, 1.0)
        r = np.linspace(0.05, 0.95, 91)
        res = np.abs(g.ode_residual(r)) / (g.lam * g.sup ** 3)
        assert res.max() <= 1e-6

    def test_integral_fixed_point_identity(self):
        # u(r) = delta + (3 lam)^(1/3) II(u)(r), checked by quadrature on the
        # inverted profile itself
        from inflap.quadrature import cumulative_simpson

        g = radial.growing_profile(1.0, 1.3, 0.9)
        tau = np.linspace(0.0, 1.0, 4001)
        u = g.eval(tau ** 3)
        inner = cumulative_simpson(3.0 * tau ** 2 * u ** 3, tau[1] - tau[0])
        outer = cumulative_simpson(3.0 * tau ** 2 * np.cbrt(inner), tau[1] - tau[0])
        recon = 0.9 + (3.0 * 1.3) ** (1.0 / 3.0) * outer
        assert np.max(np.abs(recon - u)) < 1e-9

    def test_parameter_errors(self):
        with pytest.raises(radial.RadialParameterError):
            radial.growing_profile(1.0, -1.0, 1.0)
        with pytest.raises(radial.RadialParameterError):
            radial.growing_profile(1.0, 1.0, 0.0)


class TestPicardOracle:
    def test_growing_agreement(self):
        g = radial.growing_profile(1.0, 1.0, 1.0)
        r, u, iters = radial.picard_growing(1.0, 1.0, 1.0)
        assert iters < 100
        assert np.max(np.abs(u - g.eval(r))) < 1e-8

    def test_decaying_agreement(self):
        lam = 0.5 * radial.ball_eigenvalue(1.0)
        p = radial.decaying_profile(1.0, lam, 1.0, fixed_which="m")
        r, u, _ = radial.picard_decaying(1.0, lam, 1.0)
        assert np.max(np.abs(u - p.eval(r))) < 1e-8
        assert abs(u[-1] - p.delta) < 1e-8

    def test_divergence_reported(self):
        with pytest.raises(QuadratureError):
            radial.picard_growing(1.0, 1.0, 1.0, max_iter=2)


class TestDmDlambda:
    def test_positive_and_matches_finite_difference(self):
        lam_b = radial.ball_eigenvalue(1.0)
        rng = np.random.default_rng(42)
        for _ in range(10):
            lam = rng.uniform(0.15, 0.9) * lam_b
            delta = rng.uniform(0.3, 2.0)
            m = radial.decaying_profile(1.0, lam, delta, fixed_which="delta").m
            closed = radial.dm_dlambda(1.0, lam, delta, m)
            assert closed > 0
            eps = 1e-5
            fd = (
                radial.decaying_profile(1.0, lam + eps, delta).m
                - radial.decaying_profile(1.0, lam - eps, delta).m
            ) / (2 * eps)
            assert abs(closed / fd - 1.0) < 1e-4

    def test_vanishing_factor_near_lambda_zero(self):
        # delta/m -> 1 as lambda -> 0, so the (1-(delta/m)^4)^(1/4) factor
        # vanishes (like lambda^(1/12): slowly, but monotonically)
        lam_b = radial.ball_eigenvalue(1.0)
        factors = []
        for lam in (1e-2 * lam_b, 1e-6 * lam_b, 1e-10 * lam_b):
            m = radial.decaying_profile(1.0, lam, 1.0).m
            factors.append((1.0 - (1.0 / m) ** 4) ** 0.25)
        assert factors[0] > factors[1] > factors[2]
        assert factors[2] < 0.6 * factors[0]

    def test_delta_zero_is_domain_error(self):
        with pytest.raises(radial.RadialParameterError):
            radial.dm_dlambda(1.0, 0.5, 0.0, 1.0)


class TestGrowthBounds:
    def test_sigma_and_split_constant(self):
        gb = radial.growth_bounds(5.0, 1.0, 1.0)
        assert abs(gb.sigma - 2.0 / 15.0 ** 0.25) < 1e-15
        assert abs(gb.sigma - 1.0163) < 1e-4
        # A = G(2) in closed form, cross-checked by mpmath
        a_ref = float(mpmath.quad(lambda s: (s ** 4 - 1) ** (-0.25), [1, 2]))
        assert abs(gb.A - a_ref) < 1e-10
        assert abs(gb.B - math.exp(-gb.A)) < 1e-14

    @pytest.mark.parametrize("R", [5.0, 10.0, 20.0])
    def test_sandwich_strict(self, R):
        gb = radial.growth_bounds(R, 1.0, 1.0)
        uR = radial.growing_profile(R, 1.0, 1.0).sup
        assert gb.lower < uR < gb.upper

    def test_precondition(self):
        with pytest.raises(radial.RadialParameterError):
            radial.growth_bounds(0.1, 1.0, 1.0)


class TestSupLowerBound:
    def test_midpoint_value(self):
        lam_b = radial.ball_eigenvalue(1.0)
        p = radial.decaying_profile(1.0, lam_b / 2.0, 1.0, fixed_which="delta")
        ok, bound = radial.sup_lower_bound_check(lam_b / 2.0, 1.0, p)
        assert abs(bound - 1.0) < 1e-12  # (lambda/(lambda_B-lambda))^(1/3) = 1
        assert ok

    def test_sweep(self):
        lam_b = radial.ball_eigenvalue(1.0)
        rng = np.random.default_rng(7)
        for lam in rng.uniform(0.1, 0.9, size=12) * lam_b:
            p = radial.decaying_profile(1.0, lam, 1.0, fixed_which="delta")
            ok, _ = radial.sup_lower_bound_check(lam, 1.0, p)
            assert ok

    def test_bound_blows_up_near_eigenvalue(self):
        lam_b = radial.ball_eigenvalue(1.0)
        lam = 0.99999 * lam_b
        p = radial.decaying_profile(1.0, lam, 1.0, fixed_which="delta")
        ok, bound = radial.sup_lower_bound_check(lam, 1.0, p)
        assert bound > 30.0 and ok


def test_profile_csv_export(tmp_path):
    p = radial.decaying_profile(1.0, 1.0, 1.0, fixed_which="delta")
    path = tmp_path / "profile.csv"
    radial.profile_to_csv(p, path, n=11)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "r,u,du_dr"
    assert len(lines) == 12
    radial.eigenvalue_table_csv([0.5, 1.0, 2.0], tmp_path / "eig.csv")
    assert (tmp_path / "eig.csv").read_text().count("\n") == 4
