"""Integral-representation layer: remainder transform and derived quantities."""

import cmath
import math
from dataclasses import replace

import numpy as np
import pytest

import os
import subprocess
import sys
import warnings
from pathlib import Path

import gmeanrep
from gmeanrep import quadrature, representation
from gmeanrep.boundary import segments
from gmeanrep.means import (
    CutViolation,
    Sequence,
    arithmetic_mean,
    geometric_mean,
    gmean_excess_shifted,
    principal_gmean,
)
from gmeanrep.quadrature import QuadratureFailure, QuadratureSpec, integrate, integrate_near_pole
from gmeanrep.representation import (
    RemainderValue,
    am_gm_gap,
    density_moment,
    gmean_via_representation,
    remainder,
    shifted_excess_via_representation,
)
from gmeanrep.verify import random_sequence, representation_z_grid

from conftest import seeded_suite

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

    def test_panels(self, monkeypatch):
        a = Sequence((1, 2, 3))
        # far from the cut every segment is one panel
        assert remainder(a, 1.0).panels == (1, 1)
        # the pole -z inside segment 1, next to the cut
        assert remainder(a, complex(-1.5, 1e-4)).panels[0] > 1
        # the pole just beyond the end of segment 2
        assert remainder(a, complex(-3.001, 1e-4)).panels[1] > 1
        # a tolerance no rule can certify raises after the planned panels
        monkeypatch.setattr(representation, "_SPEC", QuadratureSpec(abs_tol=1e-30, rel_tol=1e-30))
        with pytest.raises(QuadratureFailure) as exc:
            remainder(a, 1.0)
        assert exc.value.result.panels == (2, 2)
        # a plan beyond the panel budget raises with the whole-segment value
        monkeypatch.setattr(representation, "_SPEC", QuadratureSpec(max_subdivisions=4))
        with pytest.raises(QuadratureFailure) as exc:
            remainder(a, complex(-1.5, 1e-4))
        assert exc.value.result.panels == (1, 1)
        assert "segment(s) [1]" in str(exc.value)

    def test_subnormal_distance_raises(self):
        # below 1/DBL_MAX, on the scaled entries, 1/(t+z) would overflow on
        # the narrowest panels: no panel is planned and the call raises at
        # once with the finite whole-segment value, never nan
        for im in (1e-310, 1e-308, 5e-324):
            with pytest.raises(QuadratureFailure) as exc:
                remainder(Sequence((1, 2, 3)), complex(-1.5, im))
            partial = exc.value.result
            assert cmath.isfinite(partial.value), im
            assert partial.panels == (1, 1), im
            assert "segment(s) [1]" in str(exc.value)
        # just above that bound the planned panels still compute the value
        a, z = Sequence((1, 2, 3)), complex(-1.5, 3e-308)
        rem = remainder(a, z)
        assert abs(rem.value - (arithmetic_mean(a) + z - principal_gmean(a, z))) <= rem.total_error_estimate

    def test_real_axis_realness(self):
        rem = remainder(Sequence((1, 2, 3)), 4.0)
        assert abs(rem.value.imag) <= rem.total_error_estimate
        assert rem.value.real >= -rem.total_error_estimate

    def test_cut_rejected(self):
        with pytest.raises(CutViolation):
            remainder(Sequence((1, 2)), -1.5)

    def test_non_convergence_carries_partial_result(self, monkeypatch):
        spec = QuadratureSpec(abs_tol=1e-30, rel_tol=1e-30, max_subdivisions=2)
        monkeypatch.setattr(representation, "_SPEC", spec)
        with pytest.raises(QuadratureFailure) as exc:
            remainder(Sequence((1, 2)), 0.0)
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

    def test_flag_is_relative_to_the_entries(self):
        # z = 0 is as far from the cut of (1e-300, 2e-300) as 0 is from (1, 2)
        rem = remainder(Sequence((1e-300, 2e-300)), 0.0)
        assert rem.total_error_estimate <= 1e-12 * rem.value.real

    def test_runtime_needs_no_scipy(self):
        # the runtime depends on numpy alone
        code = (
            "import sys, gmeanrep; "
            "gmeanrep.remainder(gmeanrep.Sequence((1, 2, 3)), 1 + 1j); "
            "sys.exit('scipy' in sys.modules)"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(gmeanrep.__file__).parents[1]))
        assert subprocess.run([sys.executable, "-c", code], env=env, timeout=60).returncode == 0

    def test_density_scale_hook(self):
        base = remainder(Sequence((1, 2)), 0.0).value.real
        bumped = remainder(Sequence((1, 2)), 0.0, density_scale=1.001).value.real
        assert bumped == pytest.approx(1.001 * base, rel=1e-9)


def _bits(rem: RemainderValue) -> str:
    # repr round-trips every float and tells -0.0 from 0.0
    return repr((rem.value, rem.per_segment, rem.total_error_estimate, rem.panels))


def _assert_batch_is_scalar(a, zs, batch=None):
    batch = remainder(a, np.array(zs, dtype=complex)) if batch is None else batch
    assert len(batch) == len(zs)
    for z, got in zip(zs, batch):
        assert _bits(got) == _bits(remainder(a, z)), (a.values, z)


class TestBatch:
    """A point of an array call is bit for bit its scalar call."""

    def test_corpus_grids(self):
        rng = np.random.default_rng(60)
        for _ in range(12):
            a = random_sequence(rng)
            zs = representation_z_grid(a)
            _assert_batch_is_scalar(a, zs)
            via = gmean_via_representation(a, np.array(zs))
            assert repr(via.tolist()) == repr([gmean_via_representation(a, z) for z in zs])

    def test_near_cut_planned_panels(self):
        rng = np.random.default_rng(61)
        planned = 0
        for _ in range(8):
            a = random_sequence(rng)
            if a.max == a.min:
                continue
            zs = [
                complex(rng.uniform(-a.max, -a.min), sign * 10.0 ** rng.uniform(-300, -2))
                for sign in (1, -1) * 4
            ]
            batch = remainder(a, np.array(zs))
            planned += sum(k > 1 for rem in batch for k in rem.panels)
            _assert_batch_is_scalar(a, zs, batch)
        assert planned > 10

    def test_shuffled_batch(self):
        a = Sequence((0.3, 1.0, 1.0, 2.5, 7.0))
        zs = representation_z_grid(a) + [complex(-1.7, 1e-5), complex(-0.5, -1e-9)]
        order = np.random.default_rng(62).permutation(len(zs))
        _assert_batch_is_scalar(a, [zs[i] for i in order])

    def test_batch_longer_than_one_chunk(self):
        # (1, 2, 3) has 2 segments: a chunk holds _BLOCK // (2 * JACOBI_NODES) points
        a = Sequence((1, 2, 3))
        per_chunk = representation._BLOCK // (2 * quadrature.JACOBI_NODES)
        rng = np.random.default_rng(63)
        zs = [complex(rng.uniform(-3.0, 3.0), rng.uniform(-2.0, 2.0)) for _ in range(2 * per_chunk + 7)]
        _assert_batch_is_scalar(a, zs)

    def test_many_blocks_and_chunks(self, monkeypatch):
        # blocks of one panel and chunks of a few points give the same bits
        rng = np.random.default_rng(64)
        a = Sequence(10.0 ** rng.uniform(-1.0, 1.0, 8))
        zs = representation_z_grid(a)
        scalar = [_bits(remainder(a, z)) for z in zs]
        monkeypatch.setattr(representation, "_BLOCK", 3 * quadrature.JACOBI_NODES)
        assert [_bits(rem) for rem in remainder(a, np.array(zs))] == scalar

    def test_empty_batch(self):
        assert remainder(Sequence((1, 2, 3)), np.array([], dtype=complex)) == []
        assert remainder(Sequence((4, 4)), np.array([])) == []
        assert gmean_via_representation(Sequence((1, 2, 3)), np.array([])).shape == (0,)

    def test_failure_names_the_point(self):
        a = Sequence((1, 2, 3))
        bad = complex(-1.5, 1e-310)
        zs = [1.0 + 0j, complex(-1.5, 1e-4), bad, 0j]
        with pytest.raises(QuadratureFailure) as exc:
            remainder(a, np.array(zs))
        assert f"z={bad!r} on segment(s) [1]" in str(exc.value)
        assert str(exc.value).count("z=") == 1
        partial = exc.value.result
        assert len(partial) == len(zs)
        assert all(cmath.isfinite(rem.value) for rem in partial)
        with pytest.raises(QuadratureFailure) as one:
            remainder(a, bad)
        assert _bits(partial[2]) == _bits(one.value.result)
        for z, rem in zip(zs[:2] + zs[3:], partial[:2] + partial[3:]):
            assert _bits(rem) == _bits(remainder(a, z))

    def test_point_on_the_cut(self):
        with pytest.raises(CutViolation):
            remainder(Sequence((1, 2, 3)), np.array([1.0, -2.0, 1j]))
        with pytest.raises(ValueError):
            remainder(Sequence((1, 2, 3)), np.ones((2, 2)))


class TestFixedRule:
    def test_bound_covers_admitted_pairs(self):
        # every (segment, z) pair the a-priori bound admits is within its
        # estimate of a tight adaptive reference
        spec = representation._SPEC
        tight = QuadratureSpec(abs_tol=1e-16, rel_tol=1e-13)
        rng = np.random.default_rng(50)
        admitted = 0
        for _ in range(12):
            a = random_sequence(rng)
            segs = segments(a)
            if not segs:
                continue
            zs = representation_z_grid(a)[::4]
            zs += [complex(-a.min + 10.0 ** rng.uniform(-3, 1), 0.0) for _ in range(4)]
            zs += [complex(rng.uniform(-a.max, -a.min), 10.0 ** rng.uniform(-2, 0.5)) for _ in range(6)]
            whole = [representation._Panel(seg, 0.0, seg.lo, seg.hi, seg.m_lo, seg.m_hi) for seg in segs]
            for z in zs:
                (values,), (estimates,) = representation._rule(a.values, whole, np.array([z]), -1)
                for seg, value, est in zip(segs, values, estimates):
                    if not est <= max(spec.abs_tol, spec.rel_tol * abs(value)):
                        continue
                    admitted += 1
                    ref = integrate_near_pole(
                        lambda t, seg=seg, z=z: seg.density(t) / (t + z), seg.lo, seg.hi, -z.real, tight
                    )
                    assert abs(value - ref.value) <= est, (a.values, z, seg.index)
        assert admitted > 100

    def test_moment_bound_covers_admitted_panels(self):
        # every whole-segment moment panel the a-priori bound admits, and
        # every panel planned for the others, is within its estimate of a
        # tight adaptive reference, integrated in offsets from an end so
        # that panels 1e-12 wide keep their digits
        tight = QuadratureSpec(abs_tol=1e-300, rel_tol=1e-13)
        rng = np.random.default_rng(53)
        corpus = [random_sequence(rng) for _ in range(12)]
        corpus += [Sequence((1, 1 + 1e-12, 2)), Sequence((1, 2, 2, 2, 3)), Sequence((0.5, 1, 1 + 1e-6, 3, 3 + 1e-9, 4))]
        admitted = planned = 0
        for a in corpus:
            for order in (0, 1):
                for seg in segments(a):
                    panels = [representation._Panel(seg, 0.0, seg.lo, seg.hi, seg.m_lo, seg.m_hi)]
                    ((value,),), ((est,),) = representation._rule(a.values, panels, np.zeros(1), order)
                    if representation._admitted(value, est, representation._SPEC.abs_tol):
                        admitted += 1
                    else:
                        panels = representation._plan(a.values, seg)
                        planned += len(panels)
                    (values,), (estimates,) = representation._rule(a.values, panels, np.zeros(1), order)
                    for p, value, est in zip(panels, values, estimates):
                        c, lo, hi = (seg.lo, 0.0, seg.hi - seg.lo) if p.anchor == 0.0 else (p.anchor, p.lo, p.hi)
                        offsets = np.array(a.values)[:, None] - c
                        with np.errstate(divide="ignore"):
                            ref = integrate(
                                lambda u, c=c, offsets=offsets, order=order: (
                                    np.exp(np.log(np.abs(offsets - u)).sum(axis=0) / a.n) * (c + u) ** order
                                ),
                                lo,
                                hi,
                                tight,
                            )
                        assert ref.converged
                        assert abs(value - ref.value) <= est, (a.values, order, p)
        assert admitted > 60 and planned > 40


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
        assert seeded_suite("representation-equivalence", 41, 30).passed


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
        assert seeded_suite("am-gm-gap", 44, 50).passed

    def test_corpus_properties_suite_can_fail(self, monkeypatch):
        exact = representation.am_gm_gap
        monkeypatch.setattr(representation, "am_gm_gap", lambda a: exact(a) + 1e-6)
        contracts = [f["contract"] for f in seeded_suite("am-gm-gap", 44, 50).failures]
        assert contracts.count("representation gap matches direct A - G within 1e-9") == 50

    @staticmethod
    def direct_gap(lo, hi):
        # A - G of two entries with no product that could under- or overflow
        return lo / 2 + hi / 2 - math.sqrt(lo) * math.sqrt(hi)

    def test_overflowing_range_value(self):
        # a segment this wide overflowed the tanh-sinh weight before the
        # entries were scaled to [1, 2)
        gap = am_gm_gap(Sequence((1e300, 1.7e308)))
        assert gap == pytest.approx(self.direct_gap(1e300, 1.7e308), rel=1e-12)

    def test_underflowing_range_value(self):
        # h**(1+p+q) underflows to 0 on the unscaled segment
        gap = am_gm_gap(Sequence((1e-300, 2e-300)))
        assert gap == pytest.approx(self.direct_gap(1e-300, 2e-300), rel=1e-12)

    @pytest.mark.parametrize("entries", [(1e-322, 2e-322), (1e-320, 2e-320)])
    def test_subnormal_entries(self, entries):
        # the scaled abs_tol used to overflow to inf below max(a) of about
        # 5.6e-321, so no estimate was admitted
        a = Sequence(entries)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert am_gm_gap(a) == arithmetic_mean(a) - geometric_mean(a)

    @pytest.mark.parametrize("entries", [(1e-310, 1.0), (1e-300, 1e300), (5e-324, 1.7e308)])
    def test_subnormal_ratio_raises(self, entries):
        # min/max below 1/DBL_MAX: the pole z = 0 touches the scaled segment,
        # so it is not planned and the whole-segment value rides on the raise
        with pytest.raises(QuadratureFailure) as exc:
            am_gm_gap(Sequence(entries))
        partial = exc.value.result
        assert cmath.isfinite(partial.value)
        assert partial.panels == (1,)


class TestStructuralProperties:
    def test_herglotz_positivity(self):
        assert seeded_suite("herglotz-positivity", 45, 100).passed

    def test_complete_monotonicity(self):
        assert seeded_suite("complete-monotonicity", 46, 5).passed

    def test_monotone_decrease(self):
        assert seeded_suite("monotone-decrease", 47, 20).passed

    def test_monotone_decrease_suite_can_fail(self, monkeypatch):
        # R(z) + z increases along the real axis
        exact = representation.remainder

        def rising(a, z):
            return [replace(res, value=res.value + p) for res, p in zip(exact(a, z), z)]

        monkeypatch.setattr(representation, "remainder", rising)
        res = seeded_suite("monotone-decrease", 47, 20)
        # one failure for each of the 18 non-constant draws
        assert len(res.failures) == 18
        assert {f["contract"] for f in res.failures} == {"remainder strictly decreasing on the real axis"}

    def test_large_z_decay_bound(self):
        assert seeded_suite("large-z-decay", 48, 20).passed

    @pytest.mark.parametrize(
        "suite, factor, contract",
        [
            ("mass-identity", 1.0 + 1e-6, "density mass == Var(a)/2 within 10x quad tolerance"),
            ("large-z-decay", 1.02, "R*(A - excess(R)) at R=1e5 matches mass within 1%"),
        ],
    )
    def test_moment_suites_can_fail(self, monkeypatch, suite, factor, contract):
        assert seeded_suite(suite, 48, 20).passed
        exact = representation.density_moment
        monkeypatch.setattr(representation, "density_moment", lambda a, order: factor * exact(a, order))
        res = seeded_suite(suite, 48, 20)
        assert not res.passed
        assert {f["contract"] for f in res.failures} == {contract}

    def test_near_cut_accuracy(self):
        # pole projection inside a segment, tiny imaginary offset
        a = Sequence((1, 3))
        for im in (1e-2, 1e-3, 1e-4, 1e-5, 1e-6, -1e-6):
            z = complex(-2.0, im)
            assert abs(gmean_via_representation(a, z) - principal_gmean(a, z)) <= 1e-8

    def test_near_cut_error_estimate_honesty(self):
        # achieved remainder error within 10x the estimate, 1e-300..1e-2 off the loaded cut
        rng = np.random.default_rng(49)
        for _ in range(30):
            a = random_sequence(rng)
            if a.max == a.min:
                continue
            for sign in (1.0, -1.0):
                z = complex(rng.uniform(-a.max, -a.min), sign * 10.0 ** rng.uniform(-300, -2))
                rem = remainder(a, z)
                truth = arithmetic_mean(a) + z - principal_gmean(a, z)
                assert abs(rem.value - truth) <= 10.0 * rem.total_error_estimate, (a.values, z)

    @pytest.mark.parametrize("d", [1e-2, 1e-6, 1e-8, 1e-12, 1e-20, 1e-40, 1e-100, 1e-300])
    def test_near_cut_probe(self, d):
        # the middle of the loaded cut, d above it: computed, within the estimate
        rng = np.random.default_rng(2026)
        probe = [Sequence((1, 2, 3))]
        while len(probe) < 13:
            a = random_sequence(rng)
            if a.max > a.min:
                probe.append(a)
        for a in probe:
            z = complex(-0.5 * (a.min + a.max), d)
            rem = remainder(a, z)
            truth = arithmetic_mean(a) + z - principal_gmean(a, z)
            assert abs(rem.value - truth) <= rem.total_error_estimate, (a.values, z)


def test_remainder_never_calls_the_adaptive_engine(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the adaptive engine was called")

    monkeypatch.setattr(quadrature, "_adaptive", refuse)
    rng = np.random.default_rng(52)
    for _ in range(20):
        a = random_sequence(rng)
        for z in representation_z_grid(a)[::4]:
            remainder(a, z)
        # near the loaded cut
        for _ in range(4):
            remainder(a, complex(rng.uniform(-a.max, -a.min), 10.0 ** rng.uniform(-6, -2)))
    wide = Sequence(10.0 ** rng.uniform(-1.0, 1.0, 200))
    for z in (0.0, 1 + 1j, complex(-0.5 * (wide.min + wide.max), 0.3)):
        remainder(wide, z)
    a, z = Sequence((1, 2, 3)), complex(-1.5, 1e-300)
    rem = remainder(a, z)
    assert abs(rem.value - (arithmetic_mean(a) + z - principal_gmean(a, z))) <= rem.total_error_estimate


def test_density_moment_never_calls_the_adaptive_engine(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the adaptive engine was called")

    monkeypatch.setattr(quadrature, "_adaptive", refuse)
    rng = np.random.default_rng(54)
    corpus = [random_sequence(rng) for _ in range(20)]
    corpus += [Sequence(10.0 ** rng.uniform(-1.0, 1.0, 200)), Sequence((1, 2, 2, 2, 3)), Sequence((1, 1 + 1e-12, 2))]
    for a in corpus:
        assert density_moment(a, 1) >= 0.0
        am = arithmetic_mean(a)
        var_half = (math.fsum(v * v for v in a.values) / a.n - am * am) / 2.0
        assert abs(density_moment(a, 0) - var_half) <= 1e-10 * max(1.0, var_half), a.values
