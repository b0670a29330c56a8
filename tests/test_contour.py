"""Keyhole-contour diagnostics: pieces, limits, and the Cauchy reconstruction."""

import math

import numpy as np
import pytest

from gmeanrep import contour
from gmeanrep.cli import EXIT_QUAD, main
from gmeanrep.contour import (
    ContourSpec,
    GeometryError,
    big_circle_term,
    cauchy_eval,
    line_collapse_check,
    small_circle_term,
)
from gmeanrep.means import Sequence, arithmetic_mean, gmean_excess_shifted
from gmeanrep.quadrature import QuadratureFailure, QuadratureResult


class TestContourSpec:
    def test_defaults(self):
        spec = ContourSpec()
        assert spec.eps == 1e-3 and spec.r == 1e3

    @pytest.mark.parametrize("kwargs", [{"eps": 0.0}, {"eps": 2.0, "r": 1.0}])
    def test_rejects_invalid(self, kwargs):
        with pytest.raises(ValueError):
            ContourSpec(**kwargs)


class TestGeometry:
    def test_annulus_violations(self):
        a = Sequence((1, 2))
        with pytest.raises(GeometryError):
            cauchy_eval(a, 1e-4 + 0j)  # |z| <= eps
        with pytest.raises(GeometryError):
            cauchy_eval(a, 2e3 + 0j)  # |z| >= r

    def test_cut_rejected(self):
        with pytest.raises(Exception):
            cauchy_eval(Sequence((1, 2)), -1.0 + 0j)

    def test_indentation_strip_rejected(self):
        with pytest.raises(GeometryError):
            cauchy_eval(Sequence((1, 2)), complex(-1.0, 4e-4))  # |im| <= eps, re < 0

    def test_too_close_to_small_circle(self):
        with pytest.raises(GeometryError):
            cauchy_eval(Sequence((1, 2)), complex(1.0005e-3, 0.0))


class TestPieces:
    def test_decomposition_identity(self):
        bd = cauchy_eval(Sequence((1, 2, 3)), 2 + 1j)
        assert bd.total == bd.small_arc + bd.outer_arc + bd.upper_line + bd.lower_line

    def test_constant_sequence_all_vanish(self):
        bd = cauchy_eval(Sequence((5, 5, 5)), 1 + 1j)
        for piece in (bd.small_arc, bd.outer_arc, bd.upper_line, bd.lower_line, bd.total):
            assert abs(piece) <= 1e-8

    def test_small_arc_decay(self):
        a = Sequence((1, 2))
        mags = [abs(small_circle_term(a, 1.0 + 0j, e)) for e in (1e-2, 1e-3, 1e-4)]
        assert mags[0] > mags[1] > mags[2]
        # decay rate eps^(1+1/n): log-log slope at least 1
        slope = (math.log10(mags[0]) - math.log10(mags[2])) / 2.0
        assert slope >= 1.0

    def test_small_arc_bound(self):
        # |term| <= eps * max|h on arc| / (|z| - eps)
        a, z, eps = Sequence((1, 2, 3)), 1j, 1e-3
        term = small_circle_term(a, z, eps)
        theta = np.linspace(-math.pi / 2, math.pi / 2, 181)
        h_max = max(abs(gmean_excess_shifted(a, eps * np.exp(1j * theta))))
        assert abs(term) <= eps * h_max / (abs(z) - eps)
        assert abs(term) <= 1e-2

    def test_small_arc_constant_sequence(self):
        assert abs(small_circle_term(Sequence((4, 4)), 1 + 1j, 1e-3)) <= 1e-12

    def test_outer_arc_constant_sequence(self):
        assert abs(big_circle_term(Sequence((4, 4)), 1 + 1j, 1e3)) <= 1e-12

    def test_small_arc_geometry_checked(self):
        with pytest.raises(GeometryError):
            small_circle_term(Sequence((1, 2)), 0.5 + 0j, 0.6)

    def test_outer_arc_reproduces_rebased_mean(self):
        # beyond the last entry the cut jump vanishes, so the full-circle
        # integral picks out the constant Laurent coefficient for every r
        assert abs(big_circle_term(Sequence((1, 2)), 1.0 + 0j, 1e4) - 0.5) <= 1e-3
        for r in (1e3, 1e4, 1e5):
            err = abs(big_circle_term(Sequence((1, 2, 3)), 1j, r) - 1.0)
            assert err <= 1e-6, (r, err)

    def test_outer_arc_geometry_checked(self):
        with pytest.raises(GeometryError):
            big_circle_term(Sequence((1, 2)), 1.0 + 0j, 0.5)
        with pytest.raises(GeometryError):
            big_circle_term(Sequence((1, 9)), 2.0 + 0j, 5.0)  # r <= max(a)

    def test_arcs_match_fixed_gauss_rule(self):
        # values of a 512-node composite 16-point Gauss rule on each arc
        a, z = Sequence((1, 2, 3)), 1j
        small = 8.492939802729341e-09 - 2.6044372399825905e-05j
        outer = 1.0000000000000147 + 8.145611333335946e-15j
        assert abs(small_circle_term(a, z, 1e-3) - small) <= 1e-10 * abs(small)
        assert abs(big_circle_term(a, z, 1e3) - outer) <= 1e-10 * abs(outer)

    def test_line_integrand_reflection_symmetry(self):
        # for real z the lower-line integrand is the conjugate of the upper
        a, z, eps = Sequence((1, 2, 3)), 2.0 + 0j, 1e-3
        shifted = a.shifted()
        for x in (-2.5, -1.0, -0.3):
            up = gmean_excess_shifted(a, complex(x, eps)) / (complex(x, eps) - z)
            lo = gmean_excess_shifted(a, complex(x, -eps)) / (complex(x, -eps) - z)
            assert abs(lo - up.conjugate()) <= 1e-12 * max(1.0, abs(up))


class TestReconstruction:
    def test_two_entry_example(self):
        a = Sequence((1, 2))
        bd = cauchy_eval(a, 1.0 + 0j)
        assert abs(bd.total - (math.sqrt(2) - 1)) <= 1e-3

    def test_three_entry_complex_point(self):
        a = Sequence((1, 2, 3))
        bd = cauchy_eval(a, 2 + 1j)
        assert abs(bd.total - gmean_excess_shifted(a, 2 + 1j)) <= 1e-3

    def test_refinement_reduces_error(self):
        a = Sequence((1, 2))
        target = gmean_excess_shifted(a, 1.0)
        base = abs(cauchy_eval(a, 1.0 + 0j, ContourSpec()).total - target)
        fine = abs(cauchy_eval(a, 1.0 + 0j, ContourSpec(eps=5e-4, r=2e3)).total - target)
        assert fine < base


class TestLineCollapse:
    def test_trivial_constant(self):
        lines, collapsed = line_collapse_check(Sequence((3, 3)), 1.0 + 0j, 1e-6, 1e3)
        assert abs(lines) <= 1e-10 and abs(collapsed) == 0.0

    def test_two_entry_example(self):
        # both sides equal the rebased excess minus the rebased mean
        a = Sequence((1, 3))
        lines, collapsed = line_collapse_check(a, 1.0 + 0j, 1e-6, 1e3)
        assert abs(lines - collapsed) <= 1e-3
        oracle = gmean_excess_shifted(a, 1.0) - (arithmetic_mean(a) - a.min)
        assert abs(collapsed - oracle) <= 1e-6

    def test_discrepancy_decreases_with_eps(self):
        a = Sequence((1, 2, 3))
        d4 = abs(np.subtract(*line_collapse_check(a, 2.0 + 0j, 1e-4, 1e3)))
        d6 = abs(np.subtract(*line_collapse_check(a, 2.0 + 0j, 1e-6, 1e3)))
        assert d6 < d4 or d6 <= 1e-9

    def test_geometry_checked(self):
        with pytest.raises(GeometryError):
            line_collapse_check(Sequence((1, 2)), 1e-8 + 0j, 1e-6, 1e3)

    def test_outer_radius_must_exceed_entries(self):
        with pytest.raises(GeometryError):
            line_collapse_check(Sequence((1, 9)), 2 + 0j, 1e-6, 5.0)


class TestNonConvergence:
    @pytest.fixture
    def failing_lines(self, monkeypatch):
        def unconverged(f, lo, hi, pole, spec=None):
            return QuadratureResult(0.0, 1.0, 0, False)

        monkeypatch.setattr(contour, "integrate_near_pole", unconverged)

    def test_cauchy_eval_raises(self, failing_lines):
        with pytest.raises(QuadratureFailure):
            cauchy_eval(Sequence((1, 2)), 1.0 + 0j)

    def test_line_collapse_raises(self, failing_lines):
        with pytest.raises(QuadratureFailure):
            line_collapse_check(Sequence((1, 2)), 1.0 + 0j, 1e-4, 1e3)

    def test_cli_exit_code(self, failing_lines, capsys):
        assert main(["contour", "--a", "1,2", "--z", "1"]) == EXIT_QUAD
        assert "quadrature failure" in capsys.readouterr().err
