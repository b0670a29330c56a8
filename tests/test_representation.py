"""Integral-representation layer: remainder transform and derived quantities."""

import math
from math import comb

import numpy as np
import pytest

from gmeanrep.boundary import density_moment
from gmeanrep.means import (
    CutViolation,
    Sequence,
    arithmetic_mean,
    geometric_mean,
    gmean_excess,
    gmean_excess_shifted,
    principal_gmean,
)
from gmeanrep.quadrature import QuadratureFailure, QuadratureSpec
from gmeanrep.representation import (
    RemainderValue,
    am_gm_gap,
    gmean_via_representation,
    remainder,
    shifted_excess_via_representation,
)
from gmeanrep.verify import random_sequence, representation_z_grid

GAP_12 = 0.08578643762690495  # 3/2 - sqrt(2), frozen at 40 digits
REM_123_AT_1 = 0.11550085938518324  # 3 - 24**(1/3), frozen at 40 digits
GAP_123 = 0.18287940716786034  # 2 - 6**(1/3), frozen at 40 digits


class TestRemainder:
    def test_constant_sequence_zero(self):
        rem = remainder(Sequence((4, 4, 4)), 2 + 3j)
        assert rem.value == 0j
        assert rem.per_segment == ()
        assert rem.total_error_estimate == 0.0

    def test_two_entry_closed_form(self):
        rem = remainder(Sequence((1, 2)), 0.0)
        assert abs(rem.value - GAP_12) <= 1e-9
        assert rem.value.imag == 0.0

    def test_three_entry_direct_oracle(self):
        rem = remainder(Sequence((1, 2, 3)), 1.0)
        assert abs(rem.value.real - REM_123_AT_1) <= 1e-9
        # same thing straight from the direct layer
        oracle = arithmetic_mean(Sequence((1, 2, 3))) + 1.0 - principal_gmean(Sequence((1, 2, 3)), 1.0).real
        assert abs(rem.value.real - oracle) <= 1e-10

    def test_value_is_sum_of_segments(self):
        rem = remainder(Sequence((1, 2, 3, 5)), 0.5 + 0.5j)
        assert rem.value == sum((c for _, c, _ in rem.per_segment), 0j)
        assert [idx for idx, _, _ in rem.per_segment] == [1, 2, 3]

    def test_real_axis_realness(self):
        rem = remainder(Sequence((1, 2, 3)), 4.0)
        assert abs(rem.value.imag) <= rem.total_error_estimate
        assert rem.value.real >= -rem.total_error_estimate

    def test_cut_rejected(self):
        with pytest.raises(CutViolation):
            remainder(Sequence((1, 2)), -1.5)

    def test_non_convergence_carries_partial_result(self):
        spec = QuadratureSpec(abs_tol=1e-30, rel_tol=1e-30, max_subdivisions=2)
        with pytest.raises(QuadratureFailure) as exc:
            remainder(Sequence((1, 2)), 0.0, spec)
        partial = exc.value.result
        assert isinstance(partial, RemainderValue)
        assert abs(partial.value - GAP_12) <= 1e-6

    def test_ill_conditioned_flagged(self):
        near = remainder(Sequence((1, 3)), complex(-2.0, 1e-7))
        far = remainder(Sequence((1, 3)), complex(-2.0, 1e-3))
        # within 1e-6 of the cut the estimate carries an eps/dist penalty
        floor = np.finfo(float).eps / 1e-7 * abs(near.value)
        assert near.total_error_estimate >= floor
        assert near.total_error_estimate > far.total_error_estimate

    def test_density_scale_hook(self):
        base = remainder(Sequence((1, 2)), 0.0).value.real
        bumped = remainder(Sequence((1, 2)), 0.0, density_scale=1.001).value.real
        assert bumped == pytest.approx(1.001 * base, rel=1e-9)


class TestGmeanViaRepresentation:
    def test_constant_sequence_exact(self):
        assert gmean_via_representation(Sequence((5, 5, 5)), 1 + 1j) == 6 + 1j

    def test_square_root(self):
        v = gmean_via_representation(Sequence((1, 2)), 0.0)
        assert abs(v - math.sqrt(2)) <= 1e-9

    def test_complex_point(self):
        a = Sequence((1, 2, 3, 4))
        assert abs(gmean_via_representation(a, 2 + 3j) - principal_gmean(a, 2 + 3j)) <= 1e-8

    def test_matches_direct_on_seeded_corpus(self):
        rng = np.random.default_rng(41)
        for _ in range(30):
            a = random_sequence(rng)
            for z in representation_z_grid(a):
                direct = principal_gmean(a, z)
                via = gmean_via_representation(a, z)
                assert abs(via - direct) <= max(1e-8, 1e-8 * abs(direct)), (a.values, z)


class TestShiftedExcessViaRepresentation:
    def test_constant_zero(self):
        assert shifted_excess_via_representation(Sequence((2, 2)), 1.0) == 0j

    def test_closed_forms(self):
        assert abs(shifted_excess_via_representation(Sequence((1, 3)), 2.0) - (2 * math.sqrt(2) - 2)) <= 1e-9
        assert abs(shifted_excess_via_representation(Sequence((1, 2)), 1.0) - (math.sqrt(2) - 1)) <= 1e-9

    def test_rebased_cut_rejected(self):
        with pytest.raises(CutViolation):
            shifted_excess_via_representation(Sequence((1, 2)), 0.0)

    def test_consistency_with_unshifted_representation(self):
        rng = np.random.default_rng(42)
        for _ in range(20):
            a = random_sequence(rng)
            z = complex(rng.uniform(0.1, 5.0), rng.uniform(-2.0, 2.0))
            lhs = shifted_excess_via_representation(a, z)
            rhs = gmean_via_representation(a, z - a.min) - z
            assert abs(lhs - rhs) <= 1e-8

    def test_matches_direct_excess(self):
        rng = np.random.default_rng(43)
        for _ in range(20):
            a = random_sequence(rng)
            z = complex(rng.uniform(0.1, 5.0), rng.uniform(0.1, 2.0))
            assert abs(shifted_excess_via_representation(a, z) - gmean_excess_shifted(a, z)) <= 1e-8


class TestAmGmGap:
    def test_constant_exact_zero(self):
        assert am_gm_gap(Sequence((9, 9, 9, 9))) == 0.0

    def test_two_entries(self):
        assert abs(am_gm_gap(Sequence((1, 2))) - GAP_12) <= 1e-9

    def test_three_entries(self):
        assert abs(am_gm_gap(Sequence((1, 2, 3))) - GAP_123) <= 1e-8

    def test_corpus_properties(self):
        rng = np.random.default_rng(44)
        for _ in range(50):
            a = random_sequence(rng)
            gap = am_gm_gap(a)
            direct = arithmetic_mean(a) - geometric_mean(a)
            assert gap >= -1e-10
            assert abs(gap - direct) <= 1e-9
            if a.max == a.min:
                assert abs(gap) <= 1e-9
            if a.max / a.min >= 1.1:
                assert gap > 1e-6


class TestStructuralProperties:
    def test_herglotz_positivity(self):
        rng = np.random.default_rng(45)
        for _ in range(100):
            a = random_sequence(rng)
            z = complex(rng.uniform(-20, 20), 10.0 ** rng.uniform(-3, 1.5))
            assert gmean_excess_shifted(a, z).imag >= -1e-10

    def test_complete_monotonicity(self):
        rng = np.random.default_rng(46)
        for _ in range(5):
            a = random_sequence(rng)
            for delta in np.geomspace(0.1, a.min + 1e3, 6):
                vals = [remainder(a, -a.min + float(delta) + 0.1 * k).value.real for k in range(5)]
                for m in range(5):
                    diff = math.fsum((-1.0) ** (m - j) * comb(m, j) * vals[j] for j in range(m + 1))
                    assert (-1.0) ** m * diff >= -1e-8

    def test_monotone_decrease(self):
        rng = np.random.default_rng(47)
        for _ in range(20):
            a = random_sequence(rng)
            if a.max == a.min:
                continue
            z1 = -a.min + 10.0 ** rng.uniform(-1, 2)
            z2 = z1 + 10.0 ** rng.uniform(-1, 1)
            assert remainder(a, z2).value.real < remainder(a, z1).value.real + 1e-10

    def test_large_z_decay_bound(self):
        eps = float(np.finfo(float).eps)
        rng = np.random.default_rng(48)
        for _ in range(20):
            a = random_sequence(rng)
            am = arithmetic_mean(a)
            m0 = density_moment(a, 0)
            for big in (1e3, 1e4, 1e5):
                dev = abs(gmean_excess(a, complex(big, 0.0)) - am)
                assert dev <= m0 / big * 1.01 + 64.0 * eps * (big + am)

    def test_near_cut_accuracy(self):
        # pole projection inside a segment, tiny imaginary offset
        a = Sequence((1, 3))
        for im in (1e-2, 1e-3, 1e-4, 1e-5, 1e-6, -1e-6):
            z = complex(-2.0, im)
            assert abs(gmean_via_representation(a, z) - principal_gmean(a, z)) <= 1e-8

    def test_near_cut_error_estimate_honesty(self):
        # achieved remainder error within 10x the estimate, 1e-6..1e-2 off the loaded cut
        rng = np.random.default_rng(49)
        for _ in range(30):
            a = random_sequence(rng)
            if a.max == a.min:
                continue
            for sign in (1.0, -1.0):
                z = complex(rng.uniform(-a.max, -a.min), sign * 10.0 ** rng.uniform(-6, -2))
                rem = remainder(a, z)
                truth = arithmetic_mean(a) + z - principal_gmean(a, z)
                assert abs(rem.value - truth) <= 10.0 * rem.total_error_estimate, (a.values, z)
