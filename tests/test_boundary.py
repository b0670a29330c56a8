"""Branch-cut boundary data: segments, the cut-limit formula, moments."""

import math
import re
import warnings

import numpy as np
import pytest

from gmeanrep.boundary import (
    DomainError,
    boundary_imag_limit,
    boundary_imag_numeric,
    density_samples,
    segments,
)
from gmeanrep.means import Sequence, arithmetic_mean
from gmeanrep.representation import density_moment
from gmeanrep.verify import _sample_t_away_from_junctions, random_sequence

from conftest import seeded_suite


class TestSegments:
    def test_constant_sequence_has_none(self):
        assert segments(Sequence((7, 7, 7))) == []
        assert segments(Sequence([3.0])) == []

    def test_two_entries(self):
        (seg,) = segments(Sequence((1, 2)))
        assert seg.index == 1
        assert (seg.lo, seg.hi) == (1.0, 2.0)
        assert seg.weight == math.sin(math.pi / 2) / math.pi == 1.0 / math.pi

    def test_repr_has_no_address(self):
        # verify reports print segments; a closure address would vary per run
        (seg,) = segments(Sequence((1, 2)))
        assert "0x" not in repr(seg)

    def test_duplicate_entry_dropped(self):
        segs = segments(Sequence((1, 2, 2, 5)))
        assert [(s.index, s.lo, s.hi) for s in segs] == [(1, 1.0, 2.0), (3, 2.0, 5.0)]
        assert segs[0].weight == pytest.approx(math.sin(math.pi / 4) / math.pi, rel=1e-15)
        assert segs[1].weight == pytest.approx(math.sin(3 * math.pi / 4) / math.pi, rel=1e-15)

    def test_weights_in_range(self):
        rng = np.random.default_rng(31)
        for _ in range(50):
            a = Sequence(10.0 ** rng.uniform(-1, 1, int(rng.integers(2, 9))))
            for seg in segments(a):
                assert 0.0 < seg.weight <= 1.0 / math.pi
                assert seg.lo < seg.hi

    def test_density_vanishes_at_endpoints(self):
        for vals in ((1, 2), (1, 2, 3), (0.3, 0.9, 4.4, 9.1)):
            for seg in segments(Sequence(vals)):
                assert seg.density(np.array([seg.lo]))[0] == 0.0
                assert seg.density(np.array([seg.hi]))[0] == 0.0

    def test_density_positive_inside(self):
        (seg,) = segments(Sequence((1, 2)))
        t = np.linspace(1.01, 1.99, 17)
        assert (seg.density(t) > 0).all()

    def test_density_closed_form_two_entries(self):
        (seg,) = segments(Sequence((1, 2)))
        t = np.linspace(1, 2, 21)
        np.testing.assert_allclose(seg.density(t), np.sqrt((t - 1) * (2 - t)), atol=1e-15)


class TestBatch:
    def test_density_is_the_same_in_any_batch(self):
        # a point of an array call is bit for bit its scalar call, in any order
        rng = np.random.default_rng(67)
        corpus = [random_sequence(rng) for _ in range(20)]
        corpus += [Sequence(10.0 ** rng.uniform(-2.0, 2.0, n)) for n in (9, 50, 150, 400)]
        for a in corpus:
            for seg in segments(a)[:3]:
                ts = np.concatenate((np.linspace(seg.lo, seg.hi, 9), rng.uniform(seg.lo, seg.hi, 8)))
                scalar = [repr(seg.density(t)) for t in ts.tolist()]
                assert [repr(d) for d in seg.density(ts).tolist()] == scalar, a.values
                assert [repr(d) for d in seg.density(ts[::-1]).tolist()] == scalar[::-1], a.values


class TestBoundaryLimit:
    def test_interior_value(self):
        # rebased (1,3) -> (0,2); |0-1|^(1/2) * |2-1|^(1/2) * sin(pi/2)
        assert boundary_imag_limit(Sequence((1, 3)), 1.0) == pytest.approx(1.0, abs=1e-15)

    def test_constant_sequence_zero(self):
        assert boundary_imag_limit(Sequence((4, 4, 4)), 0.7) == 0.0

    def test_beyond_last_entry_zero(self):
        assert boundary_imag_limit(Sequence((1, 2, 3)), 10.0) == 0.0

    def test_junction_zero(self):
        assert boundary_imag_limit(Sequence((1, 2, 3)), 1.0) == 0.0  # t = a2 - a1

    @pytest.mark.parametrize("t", [0.0, -1.0])
    def test_nonpositive_rejected(self, t):
        with pytest.raises(DomainError):
            boundary_imag_limit(Sequence((1, 2)), t)

    def test_nonnegative_everywhere(self):
        assert seeded_suite("boundary-nonnegative", 32, 50).passed

    @pytest.mark.parametrize(
        "suite, fault, contract",
        [
            ("boundary-limit", lambda v: 1.01 * v, "|numeric(1e-6) - closed| <= 1e-3"),
            ("boundary-nonnegative", lambda v: -v, "closed-form boundary limit >= 0"),
            # an offset is not homogeneous of degree 1
            ("boundary-scaling", lambda v: v + 1e-9, "boundary limit scales covariantly to 1e-12"),
        ],
    )
    def test_suites_can_fail(self, monkeypatch, suite, fault, contract):
        from gmeanrep import boundary

        assert seeded_suite(suite, 36, 10).passed
        exact = boundary.boundary_imag_limit
        monkeypatch.setattr(boundary, "boundary_imag_limit", lambda a, t: fault(exact(a, t)))
        res = seeded_suite(suite, 36, 10)
        assert not res.passed
        assert {f["contract"] for f in res.failures} == {contract}

    def test_junction_free_draws_match_one_at_a_time(self):
        # the block draws of the boundary suites give the values and leave the
        # generator as the one-draw-at-a-time rejection loop does
        def one_at_a_time(rng, a, count):
            shifted = a.shifted()
            out = []
            for _ in range(40 * count):
                t = float(rng.uniform(1e-2, shifted[-1] + 1.0))
                if all(abs(t - s) >= 1e-2 for s in shifted):
                    out.append(t)
                    if len(out) == count:
                        break
            return out

        rng = np.random.default_rng(37)
        seqs = [random_sequence(rng) for _ in range(20)]
        # entries 0.015 apart over a span of 80: about one draw in 80 lands away
        # from them, so the cap of 40 * count draws is met
        seqs.append(Sequence(np.arange(1.0, 81.0, 0.015)))
        for seed, a in enumerate(seqs):
            for count in (0, 1, 10, 50):
                ref, got = np.random.default_rng(seed), np.random.default_rng(seed)
                expected = one_at_a_time(ref, a, count)
                assert repr(_sample_t_away_from_junctions(got, a, count)) == repr(expected), (seed, count)
                assert got.bit_generator.state == ref.bit_generator.state, (seed, count)
        assert len(expected) < 50

    def test_scaling_covariance(self):
        rng = np.random.default_rng(33)
        for _ in range(50):
            a = Sequence(10.0 ** rng.uniform(-1, 1, int(rng.integers(2, 9))))
            lam = 10.0 ** rng.uniform(-2, 2)
            b = Sequence([lam * v for v in a.values])
            t = float(rng.uniform(0.01, a.max - a.min + 1.0))
            lhs = boundary_imag_limit(b, lam * t)
            rhs = lam * boundary_imag_limit(a, t)
            assert abs(lhs - rhs) <= 1e-12 * max(abs(rhs), 1e-300)


class TestBoundaryNumeric:
    def test_matches_closed_form(self):
        v = boundary_imag_numeric(Sequence((1, 3)), 1.0, 1e-6)
        assert abs(v - 1.0) <= 1e-4

    def test_constant_sequence_tiny(self):
        assert abs(boundary_imag_numeric(Sequence((6, 6)), 2.0, 1e-4)) <= 1e-12

    def test_junction_tends_to_zero(self):
        # the vanishing factor makes the junction value scale like eps^(1/n)
        a = Sequence((1, 2, 3))
        vals = [abs(boundary_imag_numeric(a, 1.0, e)) for e in (1e-4, 1e-6, 1e-8)]
        assert vals[0] <= 0.1
        assert vals[0] > vals[1] > vals[2]

    def test_eps_refinement_improves(self):
        assert seeded_suite("boundary-limit", 34, 20).passed

    def test_invalid_arguments(self):
        with pytest.raises(DomainError):
            boundary_imag_numeric(Sequence((1, 2)), -1.0, 1e-6)
        with pytest.raises(DomainError):
            boundary_imag_numeric(Sequence((1, 2)), 1.0, 0.0)
        # both forms share one check of t
        for form in (boundary_imag_limit, lambda a, t: boundary_imag_numeric(a, t, 1e-6)):
            with pytest.raises(DomainError, match="got 0.0"):
                form(Sequence((1, 2)), np.array([1.0, 0.0, 2.0]))
            with pytest.raises(ValueError, match="1-D"):
                form(Sequence((1, 2)), np.ones((2, 2)))

    def test_array_of_t_is_the_same_in_any_batch(self):
        # a value of an array call is bit for bit its scalar call, in order,
        # reversed and on a strided view, for the numeric and the closed form
        rng = np.random.default_rng(68)
        corpus = [random_sequence(rng) for _ in range(20)]
        corpus += [Sequence(10.0 ** rng.uniform(-2.0, 2.0, n)) for n in (9, 150)]
        corpus += [Sequence((4, 4, 4)), Sequence([3.0]), Sequence((1, 2, 2, 5))]
        forms = [lambda a, t, eps=eps: boundary_imag_numeric(a, t, eps) for eps in (1e-6, 1e-8)]
        forms.append(boundary_imag_limit)
        for a in corpus:
            # junctions and points beyond the last entry among the draws
            junctions = [s for s in a.shifted() if s > 0.0]
            ts = np.concatenate((rng.uniform(1e-2, a.max - a.min + 2.0, 25), junctions, [a.max - a.min + 1.0]))
            for form in forms:
                scalar = [repr(form(a, t)) for t in ts.tolist()]
                assert [repr(v) for v in form(a, ts).tolist()] == scalar, a.values
                assert [repr(v) for v in form(a, ts[::-1]).tolist()] == scalar[::-1], a.values
                assert [repr(v) for v in form(a, ts[::2]).tolist()] == scalar[::2], a.values
        for form in forms:
            assert form(Sequence((1, 3)), np.array([])).shape == (0,)
            assert isinstance(form(Sequence((1, 3)), 1.0), float)


class TestDensityMoment:
    def test_constant_sequence_zero(self):
        assert density_moment(Sequence((2, 2, 2)), 0) == 0.0

    def test_two_entry_mass_is_semicircle_area(self):
        # (1/pi) * area of the radius-1/2 semicircle = 1/8; equally Var/2
        assert abs(density_moment(Sequence((1, 2)), 0) - 0.125) <= 1e-10

    def test_three_entry_mass(self):
        assert abs(density_moment(Sequence((1, 2, 3)), 0) - 1.0 / 3.0) <= 1e-8

    def test_mass_equals_half_variance(self):
        rng = np.random.default_rng(35)
        for _ in range(20):
            a = Sequence(10.0 ** rng.uniform(-1, 1, int(rng.integers(1, 9))))
            am = arithmetic_mean(a)
            var_half = (math.fsum(v * v for v in a.values) / a.n - am * am) / 2.0
            assert abs(density_moment(a, 0) - var_half) <= 1e-10 * max(1.0, var_half)

    def test_first_moment_positive(self):
        assert density_moment(Sequence((1, 2, 3)), 1) > 0.0

    def test_negative_order_rejected(self):
        with pytest.raises(ValueError):
            density_moment(Sequence((1, 2)), -1)

    def test_integer_orders(self):
        a = Sequence((1, 2, 3))
        for order in (0, 2):
            expected = repr(density_moment(a, order))
            for same in (np.int64(order), np.int32(order), np.uint8(order)):
                assert repr(density_moment(a, same)) == expected, same
        for bad in (2.0, 1.5, np.float64(2.0), "2", None):
            with pytest.raises(TypeError, match=re.escape(f"moment order must be an integer, got {bad!r}")):
                density_moment(a, bad)

    def test_non_convergence_carries_partial_sum(self, monkeypatch):
        from gmeanrep import representation
        from gmeanrep.quadrature import QuadratureFailure, QuadratureSpec

        spec = QuadratureSpec(abs_tol=1e-30, rel_tol=1e-30, max_subdivisions=2)
        monkeypatch.setattr(representation, "_SPEC", spec)
        with pytest.raises(QuadratureFailure) as exc:
            density_moment(Sequence((1, 2)), 0)
        assert abs(exc.value.result - 0.125) <= 1e-6

    @pytest.mark.parametrize(
        "entries, expected",
        [
            ((1e-300, 2e-300), 0.0),
            ((1e-160, 3e-160), 5e-321),
            ((1e153, 1e154), (1e154 - 1e153) ** 2 / 8),
            ((1.0, 1e150), (1e150 - 1.0) ** 2 / 8),
            ((1e154, 1e155), math.inf),
        ],
    )
    def test_entries_at_the_ends_of_the_double_range(self, entries, expected):
        # the mass (hi - lo)**2 / 8 of two entries: it underflows to 0, or
        # to a subnormal, or it overflows and raises, never with a warning
        from gmeanrep.quadrature import QuadratureFailure

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            if expected == math.inf:
                with pytest.raises(QuadratureFailure):
                    density_moment(Sequence(entries), 0)
            else:
                assert density_moment(Sequence(entries), 0) == pytest.approx(expected, rel=1e-14, abs=0.0)


class TestDensitySamples:
    def test_empty_for_constant(self):
        assert density_samples(Sequence((3, 3))) == []

    def test_rows_shape_and_weighting(self):
        rows = density_samples(Sequence((1, 2)), points_per_segment=5)
        assert len(rows) == 5
        for t, d, wd, idx in rows:
            assert 1.0 <= t <= 2.0
            assert idx == 1
            assert wd == pytest.approx(d / math.pi, rel=1e-15)
        assert rows[0][1] == 0.0 and rows[-1][1] == 0.0
