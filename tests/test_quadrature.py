"""Quadrature engine: base-rule exactness, oracles, estimates, determinism."""

import cmath
import math
from dataclasses import replace

import numpy as np
import pytest

from gmeanrep import verify
from gmeanrep.quadrature import (
    JACOBI_NODES,
    QuadratureResult,
    QuadratureSpec,
    _adaptive,
    _ellipse_rho,
    gauss_jacobi,
    integrate,
    integrate_near_pole,
    kronrod_panel,
    segment_rule,
)

from conftest import seeded_suite

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


def exactness_failures(rule: str) -> list:
    """Failures of the ``quad-polynomial-exactness`` suite that name ``rule``."""
    failures = seeded_suite("quad-polynomial-exactness", 0, 1).failures
    # every contract the suite can break names one of the two rules
    assert all(("Kronrod" in f["contract"]) != ("Gauss" in f["contract"]) for f in failures)
    return [f for f in failures if rule in f["contract"]]


class TestBaseRule:
    def test_polynomial_exactness_kronrod(self):
        # design degree of the 15-point rule is 22
        assert not exactness_failures("Kronrod")

    def test_polynomial_exactness_gauss(self):
        # embedded 7-point Gauss rule is exact through degree 13
        assert not exactness_failures("Gauss")

    def test_degree_14_breaks_gauss_not_kronrod(self):
        exact = 1.0 / 15
        k, g, _ = kronrod_panel(lambda t: t**14, 0.0, 1.0)
        assert abs(k - exact) <= 1e-13 * exact
        assert abs(g - exact) > 1e-13 * exact


class TestGaussJacobi:
    @pytest.mark.parametrize("alpha, beta", [(1 / 3, 2 / 3), (7 / 8, 1 / 8), (1 / 300, 1 / 300)])
    def test_polynomial_exactness(self, alpha, beta):
        # int (1-x)^alpha (1+x)^beta u^k dx with u = (1+x)/2 is
        # 2^(alpha+beta+1) B(beta+k+1, alpha+1), exact through k = 2N-1
        x, w = gauss_jacobi(JACOBI_NODES, alpha, beta)
        u = 0.5 * (1.0 + x)
        for k in range(2 * JACOBI_NODES):
            log_beta = math.lgamma(beta + k + 1) + math.lgamma(alpha + 1) - math.lgamma(alpha + beta + k + 2)
            exact = math.exp((alpha + beta + 1) * math.log(2.0) + log_beta)
            assert abs(w @ u**k - exact) <= 1e-12 * exact, k

    def test_nodes_ascend_inside_interval(self):
        x, w = gauss_jacobi(JACOBI_NODES, 0.5, 0.25)
        assert np.all(np.diff(x) > 0.0) and -1.0 < x[0] and x[-1] < 1.0
        assert np.all(w > 0.0)

    def test_segment_rule_cached_read_only(self):
        x, w = segment_rule(1, 2, 3)
        assert segment_rule(1, 2, 3)[0] is x
        # keyed in lowest terms: Gauss-Legendre is one rule for every n
        assert segment_rule(2, 4, 6)[0] is x
        assert segment_rule(0, 0, 3)[0] is segment_rule(0, 0, 200)[0]
        # the weight's exponent at x = 1 belongs to the upper end
        ref_x, ref_w = gauss_jacobi(JACOBI_NODES, 2 / 3, 1 / 3)
        assert np.array_equal(x, ref_x) and np.array_equal(w, ref_w)
        with pytest.raises(ValueError):
            x[0] = 0.0

    def test_bernstein_rho(self):
        # on the interval the ellipse degenerates; off it rho = s + sqrt(s^2 - 1)
        # for the semi-major axis s = (|t - lo| + |t - hi|) / (hi - lo)
        def axis(lo, hi, t):
            return (abs(t - lo) + abs(t - hi)) / (hi - lo)

        assert _ellipse_rho(axis(1.0, 3.0, 2.5)) == 1.0
        assert _ellipse_rho(axis(-1.0, 1.0, 2.0)) == pytest.approx(2.0 + math.sqrt(3.0), rel=1e-15)
        assert _ellipse_rho(axis(-1.0, 1.0, 1j)) == pytest.approx(1.0 + math.sqrt(2.0), rel=1e-15)
        assert _ellipse_rho(axis(0.0, 1.0, -np.inf)) == np.inf


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

    def test_nan_integrand_not_converged(self):
        # a nan error estimate fails every tolerance comparison; it must not
        # read as converged
        res = integrate(lambda t: np.full_like(t, math.nan), 1.0, 2.0)
        assert not res.converged

    def test_machine_width_panels_not_converged(self):
        # every panel is one ulp wide, so none can be split, while the error
        # total still misses the tolerance
        step = lambda t: (t > 1.0 + 4 * math.ulp(1.0)).astype(float)
        _, error, subdivisions, converged = _adaptive(
            step, 1.0, 1.0 + 8 * math.ulp(1.0), QuadratureSpec(abs_tol=1e-300, rel_tol=1e-300)
        )
        assert error > 1e-300 and subdivisions == 0
        assert not converged

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
        assert seeded_suite("quad-additivity", 21, 20).passed

    def test_affine_covariance(self):
        assert seeded_suite("quad-affine-covariance", 21, 20).passed

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
        res = seeded_suite("quad-error-honesty", 23, 10)
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
