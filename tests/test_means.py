"""Direct-evaluation layer: means, principal branch, excess functions."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gmeanrep import contour, representation, verify
from gmeanrep.means import (
    CutViolation,
    Sequence,
    arithmetic_mean,
    geometric_mean,
    gmean_excess,
    gmean_excess_shifted,
    principal_gmean,
)

from conftest import seeded_suite

# frozen with a 40-digit independent evaluation of exp((ln1+ln2+ln3)/3)
G123 = 1.8171205928321397
# frozen: principal square root of (1+i)(2+i) = 1+3i via polar form
SQRT_1_3I = complex(1.4426152744526829, 1.0397782600555705)

entries = st.lists(
    st.floats(min_value=0.1, max_value=10.0, allow_nan=False), min_size=1, max_size=8
)


class TestSequence:
    def test_sorts_on_construction(self):
        assert Sequence((3, 1, 2)).values == (1.0, 2.0, 3.0)

    def test_single_entry(self):
        a = Sequence([4.0])
        assert a.n == 1 and a.min == a.max == 4.0

    @pytest.mark.parametrize("bad", [(), (0.0,), (-1.0, 2.0), (float("nan"),), (float("inf"),)])
    def test_rejects_invalid(self, bad):
        with pytest.raises(ValueError):
            Sequence(bad)

    def test_shifted_starts_at_zero(self):
        assert Sequence((2, 5, 9)).shifted() == (0.0, 3.0, 7.0)

    @given(entries)
    @settings(max_examples=50, derandomize=True)
    def test_sorted_invariant(self, vals):
        a = Sequence(vals)
        assert list(a.values) == sorted(a.values)
        assert all(v > 0 for v in a.values)


class TestMeans:
    def test_arithmetic_exact_cases(self):
        assert arithmetic_mean(Sequence((1, 2, 3))) == 2.0
        assert arithmetic_mean(Sequence((0.1, 10))) == 5.05

    def test_arithmetic_constant(self):
        assert arithmetic_mean(Sequence((7.3, 7.3, 7.3))) == pytest.approx(7.3, rel=1e-15)

    def test_geometric_exact_cases(self):
        assert geometric_mean(Sequence((2, 8))) == pytest.approx(4.0, rel=1e-14)
        assert geometric_mean(Sequence((1, 2, 3))) == pytest.approx(G123, rel=1e-14)

    def test_geometric_constant(self):
        assert geometric_mean(Sequence((0.37, 0.37))) == pytest.approx(0.37, rel=1e-15)

    def test_means_within_range(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            a = Sequence(10.0 ** rng.uniform(-1, 1, int(rng.integers(1, 9))))
            for m in (arithmetic_mean(a), geometric_mean(a)):
                assert a.min * (1 - 1e-12) <= m <= a.max * (1 + 1e-12)

    @given(entries)
    @settings(max_examples=50, derandomize=True)
    def test_permutation_invariance(self, vals):
        rev = Sequence(list(reversed(vals)))
        a = Sequence(vals)
        assert arithmetic_mean(a) == arithmetic_mean(rev)
        assert geometric_mean(a) == geometric_mean(rev)


class TestPrincipalGmean:
    def test_real_point_matches_geometric_mean(self):
        a = Sequence((1, 2, 3))
        v = principal_gmean(a, 0.0)
        assert v.imag == 0.0
        assert v.real == pytest.approx(G123, rel=1e-14)

    def test_constant_sequence(self):
        v = principal_gmean(Sequence((5, 5, 5)), 1 + 1j)
        assert abs(v - (6 + 1j)) <= 2e-15 * abs(6 + 1j)

    def test_principal_square_root(self):
        v = principal_gmean(Sequence((1, 2)), 1j)
        assert abs(v - SQRT_1_3I) <= 1e-14

    def test_branch_squares_back(self):
        # sanity that the frozen oracle is itself right: v**2 == 1+3i
        v = principal_gmean(Sequence((1, 2)), 1j)
        assert abs(v * v - (1 + 3j)) <= 1e-14

    @pytest.mark.parametrize("z", [-1.0, -1.5, -100.0])
    def test_cut_rejected(self, z):
        with pytest.raises(CutViolation):
            principal_gmean(Sequence((1, 2)), z)

    def test_just_off_cut_allowed(self):
        principal_gmean(Sequence((1, 2)), complex(-1.5, 1e-12))
        principal_gmean(Sequence((1, 2)), -1.0 + 1e-12)  # real, right of the cut

    @pytest.mark.parametrize("z", [float("nan"), complex(1, float("inf"))])
    def test_nonfinite_rejected(self, z):
        with pytest.raises(ValueError):
            principal_gmean(Sequence((1, 2)), z)

    def test_array_matches_scalar(self):
        a = Sequence((1, 2, 3))
        zs = np.array([0.5 + 0.5j, -2.0 + 1j, 4.0 - 0.25j])
        vec = principal_gmean(a, zs)
        for z, v in zip(zs, vec):
            assert v == principal_gmean(a, complex(z))

    def test_array_cut_rejected(self):
        with pytest.raises(CutViolation):
            principal_gmean(Sequence((1, 2)), np.array([1.0 + 0j, -3.0 + 0j]))

    @pytest.mark.parametrize("entries", [(1, 4), (1, 4, 9)])
    def test_points_that_are_not_1d_rejected(self, entries):
        # a 2-D array used to broadcast against the entries: wrong values for
        # n = 2 (1.414 and 2.236 where 3.162 is due) and an untyped numpy
        # error for n = 3
        a = Sequence(entries)
        public = [
            principal_gmean, gmean_excess, gmean_excess_shifted, representation.remainder,
            representation.gmean_via_representation, representation.shifted_excess_via_representation,
            lambda a, z: contour.small_circle_term(a, z, 1e-3), lambda a, z: contour.big_circle_term(a, z, 1e3),
            contour.cauchy_eval, lambda a, z: contour.line_collapse_check(a, z, 1e-3, 1e3),
        ]
        for f in public:
            with pytest.raises(ValueError, match="a scalar or a 1-D array of points, got shape \\(2, 2\\)"):
                f(a, np.ones((2, 2)))

    def test_branch_consistency(self):
        # n-th power recovers the product
        assert seeded_suite("branch-consistency", 11, 200).passed

    def test_branch_consistency_suite_can_fail(self, monkeypatch):
        # a 1e-9 relative error raises the n-th power's error far past 1e-12
        exact = verify.principal_gmean
        monkeypatch.setattr(verify, "principal_gmean", lambda a, z: exact(a, z) * (1 + 1e-9))
        assert len(seeded_suite("branch-consistency", 11, 200).failures) == 200

    def test_real_positivity(self):
        rng = np.random.default_rng(12)
        for _ in range(100):
            a = Sequence(10.0 ** rng.uniform(-1, 1, int(rng.integers(1, 9))))
            v = principal_gmean(a, -a.min + 10.0 ** rng.uniform(-2, 3))
            assert v.imag == 0.0 and v.real > 0.0

    @given(entries, st.floats(0.01, 100.0))
    @settings(max_examples=50, derandomize=True)
    def test_homogeneity(self, vals, lam):
        a = Sequence(vals)
        z = 0.7 + 1.3j
        lhs = principal_gmean(Sequence([lam * v for v in vals]), lam * z)
        rhs = lam * principal_gmean(a, z)
        assert abs(lhs - rhs) <= 1e-12 * abs(rhs)


class TestBatch:
    """A point of an array call is bit for bit its scalar call, in any order."""

    @staticmethod
    def corpus():
        rng = np.random.default_rng(66)
        seqs = [verify.random_sequence(rng) for _ in range(20)]
        return seqs + [Sequence(10.0 ** rng.uniform(-2.0, 2.0, n)) for n in (9, 50, 150, 400)]

    @staticmethod
    def assert_batch_is_scalar(f, a, zs):
        zs = np.array(zs, dtype=complex)
        scalar = [repr(f(a, z)) for z in zs.tolist()]
        assert [repr(v) for v in f(a, zs).tolist()] == scalar, a.values
        assert [repr(v) for v in f(a, zs[::-1]).tolist()] == scalar[::-1], a.values

    def test_principal_gmean(self):
        for a in self.corpus():
            self.assert_batch_is_scalar(principal_gmean, a, verify.representation_z_grid(a))

    def test_matches_the_cmath_loop(self):
        # the per-factor cmath loop sums the same logs in another order, so
        # the two agree to the rounding of that sum, amplified by exp
        eps = np.finfo(float).eps
        for a in self.corpus():
            for z in verify.representation_z_grid(a):
                logs = [cmath.log(v + z) for v in a.values]
                ref = cmath.exp(sum(logs) / a.n)
                bound = (a.n + 2) * eps * max(1.0, max(abs(g) for g in logs))
                assert abs(principal_gmean(a, z) - ref) <= bound * abs(ref), (a.values, z)

    def test_gmean_excess_shifted(self):
        # the grid rebased by min(a), off the rebased cut (-inf, 0]
        for a in self.corpus():
            self.assert_batch_is_scalar(gmean_excess_shifted, a, [z + a.min for z in verify.representation_z_grid(a)])


class TestExcess:
    def test_constant(self):
        v = gmean_excess(Sequence((3, 3, 3, 3)), 2 - 1j)
        assert abs(v - 3.0) <= 1e-14

    def test_large_shift_tends_to_arithmetic_mean(self):
        v = gmean_excess(Sequence((1, 2, 3)), 1e6 + 0j)
        assert abs(v - 2.0) <= 5e-7

    def test_at_zero(self):
        assert gmean_excess(Sequence((1, 2)), 0.0) == pytest.approx(math.sqrt(2), abs=1e-14)

    def test_rebased_constant_is_zero(self):
        assert abs(gmean_excess_shifted(Sequence((4, 4)), 0.3 + 7j)) <= 1e-12

    def test_rebased_near_cut_limit(self):
        # (1,3) rebases to (0,2); at -1 the square root lands on +i
        v = gmean_excess_shifted(Sequence((1, 3)), complex(-1, 1e-6))
        assert abs(v - (1 + 1j)) <= 1e-5

    def test_rebased_real_point(self):
        v = gmean_excess_shifted(Sequence((1, 2)), 1.0)
        assert v.real == pytest.approx(math.sqrt(2) - 1, abs=1e-14)
        assert v.imag == 0.0

    def test_rebased_cut_rejected(self):
        for z in (0.0, -0.5, -10.0):
            with pytest.raises(CutViolation):
                gmean_excess_shifted(Sequence((1, 2)), z)

    def test_rebase_identity(self):
        # excess of the rebased sequence == excess(a, z - a1) - a1
        rng = np.random.default_rng(13)
        for _ in range(100):
            a = Sequence(10.0 ** rng.uniform(-1, 1, int(rng.integers(1, 9))))
            z = complex(rng.uniform(-5, 5), rng.uniform(0.01, 5))
            lhs = gmean_excess_shifted(a, z)
            rhs = gmean_excess(a, z - a.min) - a.min
            assert abs(lhs - rhs) <= 1e-14 * max(1.0, abs(rhs))

    def test_schwarz_reflection(self):
        assert seeded_suite("schwarz-reflection", 14, 100).passed

    def test_small_z_vanishing(self):
        assert seeded_suite("small-z-vanishing", 15, 50).passed

    def test_degenerate_single_entry(self):
        # n = 1: excess is identically the entry, zero segments downstream
        v = gmean_excess(Sequence([2.5]), 3 - 4j)
        assert abs(v - 2.5) <= 1e-14 * 5
