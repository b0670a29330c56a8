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
import weakref
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


def _cold(call):
    # the call with the memo of the whole-segment rule emptied first
    representation._LAST[0] = None
    return call()


class TestMemo:
    """The whole-segment rule is kept for the last sequence only, and a call
    that finds it there is bit for bit a call that builds it."""

    A = Sequence((0.3, 1.0, 1.0, 2.5, 7.0))
    ZS = [1.0 + 0j, 0j, complex(-1.7, 1e-5), complex(-0.5, -1e-9), 3 - 2j]

    def test_scalar_call(self):
        for z in self.ZS:
            cold = _bits(_cold(lambda: remainder(self.A, z)))
            assert _bits(remainder(self.A, z)) == cold, z
            # a sequence of the same length, right after it, is not served A's rule
            other = Sequence((0.3, 1.0, 1.5, 2.5, 7.0))
            assert _bits(remainder(other, z)) == _bits(_cold(lambda: remainder(other, z))), z

    def test_array_call(self):
        cold = [_bits(rem) for rem in _cold(lambda: remainder(self.A, np.array(self.ZS)))]
        assert [_bits(rem) for rem in remainder(self.A, np.array(self.ZS))] == cold

    def test_density_scale_after_a_cached_call(self):
        scale = 1 + 1e-6
        for z in self.ZS:
            cold = _bits(_cold(lambda: remainder(self.A, z, density_scale=scale)))
            remainder(self.A, z)
            warm = remainder(self.A, z, density_scale=scale)
            assert _bits(warm) == cold, z
            assert warm.value != remainder(self.A, z).value, z

    def test_density_moment_after_remainder(self):
        for order in (0, 2):
            cold = _cold(lambda: density_moment(self.A, order))
            remainder(self.A, 1.0)
            assert repr(density_moment(self.A, order)) == repr(cold), order

    def test_cached_arrays_are_read_only(self):
        remainder(self.A, 1.0)
        key, kept = representation._LAST[0]
        assert key[0] == representation._scaled(self.A.values, 1)[0]
        assert sum(len(block.anchor) for block in kept.blocks) == len(kept.segs) == 3
        for block in kept.blocks:
            for array in block:
                assert not array.flags.writeable
        with pytest.raises(ValueError):
            kept.blocks[0].weights[0, 0] = 0.0

    def test_one_build_per_sequence(self, monkeypatch):
        # k calls on one sequence build its whole-segment weights once; a
        # second sequence replaces it, so coming back builds them again
        builds = []
        build = representation._panel_weights

        def counting(values, panels):
            if all(p.anchor == 0.0 and (p.lo, p.hi) == (p.seg.lo, p.seg.hi) for p in panels):
                builds.append(len(panels))
            return build(values, panels)

        monkeypatch.setattr(representation, "_panel_weights", counting)
        a = Sequence(10.0 ** np.random.default_rng(65).uniform(-1.0, 1.0, 40))
        zs = representation_z_grid(a)[:8]
        _cold(lambda: remainder(a, zs[0]))
        once = list(builds)
        # n = 40 takes more than one build per sequence at the default _BLOCK
        assert len(once) > 1 and sum(once) == len(segments(a))
        for z in zs[1:]:
            remainder(a, z)
        remainder(a, np.array(zs))
        gmean_via_representation(a, zs[1])
        am_gm_gap(a)
        density_moment(a, 0)
        assert builds == once
        remainder(Sequence((1, 2, 3)), 1.0)
        assert builds == once + [2]
        remainder(a, zs[0])
        assert builds == once + [2] + once
        assert len(representation._LAST) == 1


def _kept_rule():
    return representation._LAST[0][1]


def _walked_plan(values, seg, z):
    """A segment's plan walked from its halves with the pole, the planner
    the refining one replaced: the reference for the refined plans."""
    x0 = None if z is None else -z.real
    if z is not None and math.hypot(x0 - min(max(x0, seg.lo), seg.hi), z.imag) < representation._TINY:
        return None
    prev, after = representation._neighbours(values, seg)
    if z is not None and seg.lo < x0 < seg.hi:
        left, right = 0.5 * (x0 - seg.lo), 0.5 * (seg.hi - x0)
        halves = ((seg.lo, left), (x0, -left), (x0, right), (seg.hi, -right))
    else:
        half = 0.5 * (seg.hi - seg.lo)
        halves = ((seg.lo, half), (seg.hi, -half))
    panels = []
    for anchor, far in halves:
        poles = () if z is None else (-z - anchor,)
        ends = (seg.lo - anchor, seg.hi - anchor)
        neighbours = (prev - anchor, after - anchor)
        work = [(0.0, far)]
        while work:
            if len(panels) + len(work) > representation._SPEC.max_subdivisions:
                return None
            a, b = work.pop()
            lo, hi = min(a, b), max(a, b)
            m_lo = seg.m_lo if lo == ends[0] else 0
            m_hi = seg.m_hi if hi == ends[1] else 0
            points = (*poles, neighbours[0] if m_lo else ends[0], neighbours[1] if m_hi else ends[1])
            if min(abs(p - lo) + abs(p - hi) for p in points) >= representation._S_NEED * (hi - lo):
                panels.append(representation._Panel(seg, anchor, lo, hi, m_lo, m_hi))
            else:
                cut = a + (b - a) * representation._GRADING
                work += [(cut, b), (a, cut)]
    return panels


class TestKeptPlans:
    """A segment's pole-free plan and its blocks are kept with the
    whole-segment rule, and a pair whose pole fails no kept panel uses
    them, bit for bit as a plan made and built for the call."""

    @staticmethod
    def poles(rng, values, seg):
        # z = 0, x0 exactly at an end, poles just off a neighbouring entry
        # and one anywhere near the segment
        width = seg.hi - seg.lo
        zs = [0j]
        for x in (seg.lo, seg.hi):
            zs += [complex(-x, sign * width * 10.0 ** rng.uniform(-12.0, 0.0)) for sign in (1, -1)]
        for x in representation._neighbours(values, seg):
            if math.isfinite(x):
                d = width * 10.0 ** rng.uniform(-14.0, -1.0)
                zs += [complex(-x - d, d), complex(-x + d, -d), complex(-x, d)]
        zs.append(complex(-rng.uniform(seg.lo - width, seg.hi + width), width * rng.uniform(-1.0, 1.0)))
        return zs

    @classmethod
    def corpus(cls, rng):
        # (values, seg, z) for n = 2..300 and every segment's poles
        for n in [*range(2, 300, 23), 300]:
            a = Sequence(10.0 ** rng.uniform(-1.0, 1.0, n))
            for seg in segments(a):
                yield from ((a.values, seg, z) for z in cls.poles(rng, a.values, seg))

    def test_kept_plan_served_exactly_when_plan_returns_it(self, monkeypatch):
        # each pair gets _plan's own panels, and the kept plan and blocks
        # exactly when _plan, given the kept plan, returns that very list;
        # the blocks are stand-ins here
        monkeypatch.setattr(representation, "_blocks", lambda values, panels: [])
        kept_pairs = other_pairs = 0
        last = None
        for values, seg, z in self.corpus(np.random.default_rng(67)):
            if values is not last:
                kept, last = representation._Kept(segments(Sequence(values)), []), values
            panels, blocks = representation._planned(values, kept, seg, z)
            assert panels == representation._plan(values, seg, z), (values, seg.index, z)
            plan = kept.plans[seg.index]
            keeps = representation._plan(values, seg, z, plan.panels) is plan.panels
            assert (panels is plan.panels) == keeps, (values, seg.index, z)
            if keeps and plan.blocks is not None:
                assert blocks is plan.blocks, (values, seg.index, z)
            kept_pairs += keeps
            other_pairs += not keeps
        assert kept_pairs > 1000 and other_pairs > 1000

    def test_refined_plan_is_the_walk_with_the_pole(self, monkeypatch):
        # the pole-free plan refined by a pole is the plan walked from the
        # halves with that pole, also where the budget runs out
        rng = np.random.default_rng(69)
        cases = list(self.corpus(rng))
        refined = 0
        for budget in (representation._SPEC.max_subdivisions, 6, 2):
            monkeypatch.setattr(representation, "_SPEC", QuadratureSpec(max_subdivisions=budget))
            free = {}
            for values, seg, z in cases:
                if (values, seg.index) not in free:
                    free[values, seg.index] = representation._plan(values, seg)
                    assert free[values, seg.index] == _walked_plan(values, seg, None)
                plan = representation._plan(values, seg, z, free[values, seg.index])
                assert plan == _walked_plan(values, seg, z), (values, seg.index, z, budget)
                refined += plan is not None and plan is not free[values, seg.index] and not seg.lo < -z.real < seg.hi
        assert refined > 1000

    def test_warm_call_is_cold_call(self, monkeypatch):
        rng = np.random.default_rng(68)
        for n in (120, 210, 300):
            a = Sequence(10.0 ** rng.uniform(-1.0, 1.0, n))
            # the wide-n points and one 1e-6 above the cut at an entry
            zs = [0j, 1 + 1j, 10 + 0j, complex(-0.5 * (a.min + a.max), 0.3), complex(-a.values[n // 2], 1e-6)]
            cold = [_bits(_cold(lambda: remainder(a, z))) for z in zs]
            for z in zs:
                remainder(a, z)
            assert [_bits(remainder(a, z)) for z in zs] == cold, n
            assert [_bits(rem) for rem in remainder(a, np.array(zs))] == cold, n
            assert any(plan.blocks for plan in _kept_rule().plans.values()), n
            # and with no plan kept, every plan is built for its call
            with monkeypatch.context() as m:
                m.setattr(representation, "_KEPT_NODES", 0)
                assert [_bits(_cold(lambda: remainder(a, z))) for z in zs] == cold, n
                assert not any(plan.blocks for plan in _kept_rule().plans.values()), n

    def test_kept_arrays_are_read_only(self):
        # the entries 1e-9 apart bind the whole-segment rule on both sides
        a = Sequence((0.3, 1.0, 1.0 + 1e-9, 2.5, 7.0))
        _cold(lambda: remainder(a, 1 + 1j))
        density_moment(a, 0)
        plans = [plan for plan in _kept_rule().plans.values() if plan.blocks]
        assert plans
        for plan in plans:
            for block in plan.blocks:
                for array in block:
                    assert not array.flags.writeable
        with pytest.raises(ValueError):
            plans[0].blocks[0].weights[0, 0] = 0.0

    def test_one_build_per_plan(self, monkeypatch):
        # every pole here is far from the entries and binds no plan: each
        # pole-free plan is built once, and density_moment shares them
        built = []
        build = representation._panel_weights

        def counting(values, panels):
            built.extend((p.seg.index, p.anchor, p.lo, p.hi) for p in panels if p.anchor != 0.0)
            return build(values, panels)

        monkeypatch.setattr(representation, "_panel_weights", counting)
        a = Sequence(10.0 ** np.random.default_rng(70).uniform(-1.0, 1.0, 300))
        _cold(lambda: density_moment(a, 0))
        kept = _kept_rule()
        by_moment = {i for i, plan in kept.plans.items() if plan.blocks}
        assert by_moment
        zs = [0j, 1 + 1j, 10 + 0j, 2j, 0.5 - 3j]
        for _ in range(2):
            for z in zs:
                remainder(a, z)
            remainder(a, np.array(zs))
            density_moment(a, 0)
            density_moment(a, 2)
        assert _kept_rule() is kept
        plans = {i: plan for i, plan in kept.plans.items() if plan.blocks}
        assert by_moment < set(plans)
        assert sorted(built) == sorted((p.seg.index, p.anchor, p.lo, p.hi) for plan in plans.values() for p in plan.panels)

    def test_a_new_target_drops_the_plans(self, monkeypatch):
        # a plan depends on _SPEC's panel budget, so the kept rule is keyed
        # by _SPEC too: a smaller budget is never served a larger plan
        a = Sequence((0.3, 1.0, 1.0 + 1e-9, 2.5, 7.0))
        assert max(_cold(lambda: remainder(a, 1 + 1j)).panels) > 2
        monkeypatch.setattr(representation, "_SPEC", QuadratureSpec(max_subdivisions=2))
        with pytest.raises(QuadratureFailure) as warm:
            remainder(a, 1 + 1j)
        with pytest.raises(QuadratureFailure) as cold:
            _cold(lambda: remainder(a, 1 + 1j))
        assert _bits(warm.value.result) == _bits(cold.value.result)

    def test_kept_plans_are_bounded(self, monkeypatch):
        # 150 pairs of entries 1e-15 apart plan about 20 panels on each
        # segment between pairs, more than _KEPT_NODES holds
        rng = np.random.default_rng(71)
        base = 10.0 ** rng.uniform(-1.0, 1.0, 150)
        a = Sequence(np.concatenate([base, base * (1 + 1e-15)]))
        with monkeypatch.context() as m:
            m.setattr(representation, "_KEPT_NODES", 0)
            cold = [_bits(_cold(lambda: remainder(a, 1 + 1j))), repr(density_moment(a, 0))]
        warm = [_bits(_cold(lambda: remainder(a, 1 + 1j))), repr(density_moment(a, 0))]
        assert warm == cold
        plans = _kept_rule().plans.values()
        # the bound the module states: _KEPT_NODES nodes, 25 bytes a node
        assert 0 < _kept_rule().plan_nodes() <= representation._KEPT_NODES
        assert sum(array.nbytes for plan in plans if plan.blocks for block in plan.blocks for array in block) <= 25 * representation._KEPT_NODES
        assert any(plan.panels and not plan.blocks for plan in plans)
        # the plans go with the sequence: a call on another drops them
        last = weakref.ref(_kept_rule())
        del plans
        remainder(Sequence((1, 2, 3)), 1.0)
        assert last() is None
        assert _kept_rule().plans == {} and len(representation._LAST) == 1


def _where_weights(values, panels):
    """``weights``, ``base`` and ``off`` of ``_panel_weights`` by full-size
    selects over every entry and a masked copy for the entries in the Jacobi
    weight: the reference for the row ranges that replace them."""
    n = len(values)
    v = np.asarray(values)[:, None, None]
    rules = [quadrature.segment_rule(p.m_lo, p.m_hi, n) for p in panels]
    x = np.array([r[0] for r in rules])
    w = np.array([r[1] for r in rules])
    columns = np.array([
        (p.anchor, p.lo, p.hi, p.seg.lo, p.seg.lo if p.m_lo else math.nan, p.seg.hi if p.m_hi else math.nan, 1.0 + (p.m_lo + p.m_hi) / n)
        for p in panels
    ])
    anchor, lo, hi, seg_lo, in_lo, in_hi, power = columns.T[:, :, None]
    h = 0.5 * (hi - lo)
    from_lo = h * (1.0 + x)
    from_hi = h * (1.0 - x)
    offset = v - anchor
    under = v <= seg_lo
    with np.errstate(over="ignore", under="ignore", divide="ignore", invalid="ignore"):
        dist = np.where(under, from_lo, from_hi)
        dist += np.where(under, lo - offset, offset - hi)
        np.copyto(dist, 1.0, where=(v == in_lo) | (v == in_hi))
        weights = w * h**power * np.exp(np.log(dist).sum(axis=0) / n)
    lower = x <= 0.0
    return weights, np.where(lower, lo, hi), np.where(lower, from_lo, -from_hi)


class TestPanelWeights:
    """The z-free weights built by row ranges are bit for bit the full-size
    selects they replace."""

    CASES = [
        (1.0, 2.0),
        # a duplicate at the first and at the last segment
        (1.0, 1.0, 2.0, 3.0, 3.0),
        (0.5, 0.5, 0.5, 1.0, 2.0, 2.5, 2.5),
        # constant runs
        (2.0, 2.0, 2.0, 2.0, 5.0),
        (1.0, 3.0, 3.0, 3.0, 3.0),
        (1.0, 2.0, 2.0, 2.0, 3.0, 4.0, 4.0, 5.0),
        (0.5, 1.0, 1.0 + 1e-6, 3.0, 3.0 + 1e-9, 4.0),
    ]

    @staticmethod
    def assert_same(values, panels):
        blocks = representation._blocks(values, panels)
        ref = _where_weights(values, panels)
        for name, expected in zip(("weights", "base", "off"), ref):
            got = np.concatenate([getattr(block, name) for block in blocks])
            assert got.tobytes() == expected.tobytes(), (values, name)

    @staticmethod
    def whole(values):
        return [representation._Panel(seg, 0.0, seg.lo, seg.hi, seg.m_lo, seg.m_hi) for seg in segments(Sequence(values))]

    def test_whole_segments(self):
        # the panels of one build carry different end splits
        for values in self.CASES:
            self.assert_same(values, self.whole(values))

    def test_planned_panels(self):
        # panels anchored at the ends and at the pole projection x0, one
        # segment's plan at a time and all segments' plans in one build
        for values in self.CASES:
            everything = []
            for seg in segments(Sequence(values)):
                for z in (None, complex(-0.5 * (seg.lo + seg.hi), 1e-9), complex(-seg.lo - 1e-4 * (seg.hi - seg.lo), -1e-7)):
                    plan = representation._plan(values, seg, z)
                    if z is not None:
                        assert any(p.anchor == -z.real for p in plan) or -z.real == seg.lo
                    self.assert_same(values, plan)
                    everything += plan
            self.assert_same(values, everything)

    def test_several_builds(self, monkeypatch):
        rng = np.random.default_rng(66)
        long = tuple(sorted((10.0 ** rng.uniform(-1.0, 1.0, 40)).tolist()))
        # n = 40 takes two builds at the default _BLOCK, every case one build
        # per panel at the small one
        self.assert_same(long, self.whole(long))
        monkeypatch.setattr(representation, "_BLOCK", 3 * quadrature.JACOBI_NODES)
        for values in self.CASES + [long]:
            self.assert_same(values, self.whole(values))
            seg = segments(Sequence(values))[-1]
            self.assert_same(values, representation._plan(values, seg, complex(-0.5 * (seg.lo + seg.hi), 1e-9)))


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
                (values,), (estimates,) = representation._rule(representation._blocks(a.values, whole), np.array([z]), -1)
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
                    ((value,),), ((est,),) = representation._rule(representation._blocks(a.values, panels), np.zeros(1), order)
                    if representation._admitted(value, est, representation._SPEC.abs_tol):
                        admitted += 1
                    else:
                        panels = representation._plan(a.values, seg)
                        planned += len(panels)
                    (values,), (estimates,) = representation._rule(representation._blocks(a.values, panels), np.zeros(1), order)
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

    def test_entries_near_the_top_of_the_range(self):
        # A = 1.35e308 although the entries' sum overflows
        a = Sequence((1e308, 1.7e308))
        zs = [1.0, 1j, -1e308 + 1e307j]
        for z, via in zip(zs, gmean_via_representation(a, np.array(zs, dtype=complex))):
            direct = principal_gmean(a, z)
            assert abs(via - direct) <= 1e-12 * abs(direct), z
            assert via == gmean_via_representation(a, z), z


class TestShiftedExcessViaRepresentation:
    def test_constant_zero(self):
        assert shifted_excess_via_representation(Sequence((2, 2)), 1.0) == 0j

    def test_closed_forms(self):
        assert abs(shifted_excess_via_representation(Sequence((1, 3)), 2.0) - (2 * math.sqrt(2) - 2)) <= 1e-9
        assert abs(shifted_excess_via_representation(Sequence((1, 2)), 1.0) - (math.sqrt(2) - 1)) <= 1e-9

    def test_rebased_entries_near_the_top_of_the_range(self):
        # the rebased entries (0, 1.7e308, 1.7e308) sum beyond the double range
        a = Sequence((1.0, 1.7e308, 1.7e308))
        for z in (1e300, 1e306, 1e306j):
            direct = gmean_excess_shifted(a, z)
            assert abs(shifted_excess_via_representation(a, z) - direct) <= 1e-11 * abs(direct), z

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
