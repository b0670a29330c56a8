"""Quadrature engine: base-rule exactness, oracles, estimates, determinism."""

import cmath
import math
from dataclasses import replace

import numpy as np
import pytest

from gmeanrep import verify
from gmeanrep.quadrature import (
    QuadratureResult,
    QuadratureSpec,
    integrate,
    integrate_near_pole,
    kronrod_panel,
)

# frozen with a 40-digit independent quadrature of sqrt((t-1)(2-t))/t on [1,2]
WEIGHTED_SEMICIRCLE = 0.26950604222632361
LOG_RATIO = 0.51082562376599068  # ln(2.5/1.5)


def semicircle(t):
    return np.sqrt(np.clip((t - 1.0) * (2.0 - t), 0.0, None))


class TestSpec:
    def test_defaults(self):
        spec = QuadratureSpec()
        assert spec.abs_tol == 1e-12 and spec.rel_tol == 1e-10
        assert spec.max_subdivisions == 2000

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"abs_tol": 0.0},
            {"rel_tol": -1.0},
            {"max_subdivisions": 0},
        ],
    )
    def test_rejects_invalid(self, kwargs):
        with pytest.raises(ValueError):
            QuadratureSpec(**kwargs)


class TestBaseRule:
    def test_polynomial_exactness_kronrod(self):
        # design degree of the 15-point rule is 22
        for deg in range(23):
            exact = 1.0 / (deg + 1)
            k, _, _ = kronrod_panel(lambda t, d=deg: t**d, 0.0, 1.0)
            assert abs(k - exact) <= 1e-13 * exact, f"degree {deg}"

    def test_polynomial_exactness_gauss(self):
        # embedded 7-point Gauss rule is exact through degree 13
        for deg in range(14):
            exact = 1.0 / (deg + 1)
            _, g, _ = kronrod_panel(lambda t, d=deg: t**d, 0.0, 1.0)
            assert abs(g - exact) <= 1e-13 * exact, f"degree {deg}"

    def test_degree_14_breaks_gauss_not_kronrod(self):
        exact = 1.0 / 15
        k, g, _ = kronrod_panel(lambda t: t**14, 0.0, 1.0)
        assert abs(k - exact) <= 1e-13 * exact
        assert abs(g - exact) > 1e-13 * exact


class TestIntegrate:
    def test_zero_integrand(self):
        res = integrate(lambda t: np.zeros_like(t), 0.0, 1.0)
        assert res.value == 0.0 and res.error_estimate == 0.0 and res.converged

    def test_empty_interval(self):
        res = integrate(semicircle, 1.3, 1.3)
        assert res == QuadratureResult(0.0, 0.0, 0, True)

    def test_bounds_order(self):
        with pytest.raises(ValueError):
            integrate(semicircle, 2.0, 1.0)

    def test_semicircle_area(self):
        res = integrate(semicircle, 1.0, 2.0)
        assert res.converged
        assert abs(res.value - math.pi / 8) <= 1e-10

    def test_weighted_semicircle(self):
        res = integrate(lambda t: semicircle(t) / t, 1.0, 2.0)
        assert abs(res.value - WEIGHTED_SEMICIRCLE) <= 1e-9

    def test_weighted_semicircle_brute_force(self):
        # midpoint cross-check of the frozen value, independent of the engine
        n = 2_000_000
        t = np.linspace(1.0, 2.0, n, endpoint=False) + 0.5 / n
        brute = float(np.sum(semicircle(t) / t)) / n
        assert abs(brute - WEIGHTED_SEMICIRCLE) <= 1e-8

    def test_converged_estimate_within_tolerance(self):
        spec = QuadratureSpec()
        for f in (semicircle, lambda t: 1.0 / (t + 0.5), lambda t: np.exp(-t) * np.cos(t)):
            res = integrate(f, 1.0, 2.0, spec)
            assert res.converged
            assert res.error_estimate <= max(spec.abs_tol, spec.rel_tol * abs(res.value))

    def test_non_convergence_returns_flagged_result(self):
        spec = QuadratureSpec(abs_tol=1e-30, rel_tol=1e-30, max_subdivisions=4)
        res = integrate(semicircle, 1.0, 2.0, spec)
        assert not res.converged
        assert res.subdivisions_used == 4
        assert abs(res.value - math.pi / 8) <= 1e-6  # still a decent estimate

    def test_deterministic(self):
        r1 = integrate(lambda t: semicircle(t) / (t + 0.3), 1.0, 2.0)
        r2 = integrate(lambda t: semicircle(t) / (t + 0.3), 1.0, 2.0)
        assert r1 == r2

    def test_smooth_integrand(self):
        res = integrate(lambda t: np.exp(t), 0.0, 1.0)
        assert abs(res.value - (math.e - 1.0)) <= 1e-12

    def test_complex_integrand(self):
        z = 0.5 + 0.25j
        res = integrate(lambda t: 1.0 / (t + z), 1.0, 2.0)
        oracle = cmath.log(2 + z) - cmath.log(1 + z)
        assert isinstance(res.value, complex)
        assert abs(res.value - oracle) <= 1e-11

    def test_additivity(self):
        rng = np.random.default_rng(21)
        f = lambda t: semicircle(t) / (t + 0.7)
        for _ in range(20):
            m = float(rng.uniform(1.0, 2.0))
            whole = integrate(f, 1.0, 2.0)
            left = integrate(f, 1.0, m)
            right = integrate(f, m, 2.0)
            budget = whole.error_estimate + left.error_estimate + right.error_estimate + 1e-13
            assert abs(whole.value - left.value - right.value) <= budget

    def test_affine_covariance(self):
        alpha, beta = 2.5, -0.75
        direct = integrate(semicircle, 1.0, 2.0)
        mapped = integrate(
            lambda s: semicircle(alpha * s + beta) * alpha,
            (1.0 - beta) / alpha,
            (2.0 - beta) / alpha,
        )
        assert abs(direct.value - mapped.value) <= (
            direct.error_estimate + mapped.error_estimate + 1e-12
        )

    def test_error_estimate_honesty(self):
        # true error (vs a 10x tighter rerun) within 10x the estimate, >= 95%
        rng = np.random.default_rng(22)
        spec = QuadratureSpec()
        tight = QuadratureSpec(abs_tol=1e-13, rel_tol=1e-11)
        honest = 0
        cases = 50
        for _ in range(cases):
            c = rng.uniform(0.2, 3.0, 3)
            f = lambda t, c=c: semicircle(t) ** (1 + c[0] % 1) / (t + c[1]) + c[2] * np.sin(t)
            est = integrate(f, 1.0, 2.0, spec)
            ref = integrate(f, 1.0, 2.0, tight)
            true_err = abs(est.value - ref.value)
            if true_err == 0.0 or true_err <= 10.0 * est.error_estimate:
                honest += 1
        assert honest / cases >= 0.95

    def test_honesty_suite_reports_a_lying_estimate(self, monkeypatch):
        # every loose-spec value is off by 1e-6, far beyond 10x its estimate
        spec = QuadratureSpec()

        def lying(f, lo, hi, s=None):
            res = integrate(f, lo, hi, s)
            return replace(res, value=res.value + 1e-6) if s == spec else res

        monkeypatch.setattr(verify, "integrate", lying)
        res = verify.SuiteResult(suite="quad-error-honesty", cases_run=10)
        verify._suite_quad_error_honesty(np.random.default_rng(23), 10, {"quad": spec}, res)
        assert not res.passed
        (failure,) = res.failures
        assert failure["case"] == "aggregate" and float(failure["observed"]) == 0.0


class TestNearPole:
    def test_pole_outside_identical(self):
        f = lambda t: 1.0 / (t + 0.5)
        assert integrate_near_pole(f, 1.0, 2.0, -0.5) == integrate(f, 1.0, 2.0)

    def test_pole_outside_log_oracle(self):
        res = integrate_near_pole(lambda t: 1.0 / (t + 0.5), 1.0, 2.0, -0.5)
        assert abs(res.value - LOG_RATIO) <= 1e-12

    def test_interior_pole_log_oracle(self):
        z = complex(-1.5, 1e-3)
        res = integrate_near_pole(lambda t: 1.0 / (t + z), 1.0, 2.0, -z.real)
        oracle = cmath.log(2 + z) - cmath.log(1 + z)
        assert abs(res.value - oracle) <= 1e-9
        # the imaginary part picks up nearly a full -pi across the pole
        assert abs(abs(res.value.imag) - math.pi) <= 5e-3

    def test_interior_pole_tiny_offset(self):
        z = complex(-1.5, 1e-7)
        res = integrate_near_pole(lambda t: 1.0 / (t + z), 1.0, 2.0, -z.real)
        oracle = cmath.log(2 + z) - cmath.log(1 + z)
        assert abs(res.value - oracle) <= 1e-7 * abs(oracle)

    def test_density_times_kernel(self):
        # remainder-style integrand with the pole projection mid-segment
        z = complex(-1.5, 1e-4)
        res = integrate_near_pole(lambda t: semicircle(t) / (t + z), 1.0, 2.0, 1.5)
        ref = integrate_near_pole(
            lambda t: semicircle(t) / (t + z), 1.0, 2.0, 1.5, QuadratureSpec(abs_tol=1e-13, rel_tol=1e-12)
        )
        assert abs(res.value - ref.value) <= 1e-8
        assert res.converged
