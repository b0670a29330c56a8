"""The integral representation: remainder transform and derived quantities.

The remainder is a Stieltjes transform of the nonnegative segment densities,

    R(z) = (1/pi) * sum_l sin(l*pi/n) * int_{a_l}^{a_{l+1}} density(t)/(t+z) dt,

and the principal geometric mean is recovered as ``A + z - R(z)`` where ``A``
is the arithmetic mean.  At ``z = 0`` the remainder is exactly the
arithmetic-minus-geometric gap, which the nonnegative integrand keeps >= 0.

Every segment integral is computed with one rule, the
``JACOBI_NODES``-point Gauss–Jacobi rule of
:func:`gmeanrep.quadrature.segment_rule`, whose weight carries the density's
endpoint powers ``(t - a_l)**(m_l/n)`` and ``(a_{l+1} - t)**(m_{l+1}/n)``,
with the a-priori error bound ``C * rho**(-2N) * sum_j |W_j * k(t_j)|`` for
a kernel ``k``: ``1/(t + z)`` for ``R``, ``t**order`` for ``density_moment``.
It is applied first to the whole segment and, where that bound misses the
one accuracy target ``_SPEC``, the default ``QuadratureSpec()``, to panels
planned from the segment's known singularities, the entries and the pole
``-z``, before anything is evaluated (:func:`_plan`); ``_SPEC`` also bounds
the panels of one segment.  No caller chooses another target: the 1e-8
equivalence gate is the one contract it serves.  ``RemainderValue.panels``
records the panel count per segment.  All of it runs on the entries scaled by
a power of two to ``max(a)`` in [1, 2) (``R`` is homogeneous of degree 1), so
entries from 1e-300 to 1e308 neither under- nor overflow.

``remainder`` and ``gmean_via_representation`` take a complex scalar or a
1-D array of points.  The rule weights do not depend on ``z``: the
whole-segment weights of the last sequence seen are kept, read-only, until a
call on another sequence (or another ``_BLOCK`` or ``_SPEC``) replaces them
(:func:`_kept`), so an array call, a run of scalar calls and
``density_moment`` on one sequence build them once, and each point forms only
``1/(t_j + z)`` and the pole's ``rho``; the moment is the same loop at the
single point ``c = 0`` (:func:`_rule`).  Admission stays per (segment,
``z``).  Where the whole-segment rule misses, a close neighbouring entry,
not the pole, is most often what narrows the ellipse, and the plan is then
the pole-free one.  So each segment's pole-free plan, ``_plan`` with
``z=None``, and its blocks are kept beside the whole-segment blocks and
dropped with them, made the first time a point needs them, and used by
every point whose pole neither cuts the segment nor binds the plan and by
``density_moment`` (:func:`_planned`).  Any other plan and its panels are
built for the call alone, as are blocks that would take the kept plans
beyond ``_KEPT_NODES`` nodes: at most 25 bytes a node, 1.6 MB.  The scalar
call is the length-one case of the same code, and a point's result is bit
for bit the same in any batch and whether its weights were kept or built.

``z = 0`` needs no special handling: the integration variable stays >= min(a)
> 0, so ``1/(t+z)`` is bounded for every ``re(z) > -min(a)``.  Within 1e-6 of
the loaded cut (measured on the scaled entries) the error estimate grows by
``eps / distance`` times the value, flagging the point; the value itself is
computed down to distances of 1e-300.  A pole closer than ``1/DBL_MAX`` to a
segment, on the scaled entries, would need panels on which ``1/(t+z)``
overflows, so that segment is not planned and the call raises at once with
the finite whole-segment value (README "Numerical notes").
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .boundary import SegmentDensity, _segments_raw
from .means import Sequence, _check_cut, _check_point, _check_scalar_point
from .quadrature import (
    _ROUNDOFF,
    JACOBI_NODES,
    QuadratureFailure,
    QuadratureSpec,
    _ellipse_rho,
    segment_rule,
)

# the one accuracy target: the tolerances every segment must meet and the
# panel budget of one segment
_SPEC = QuadratureSpec()
# below this distance, on the scaled entries, results are flagged ill-conditioned
_ILL_CONDITIONED = 1e-6
# a pole closer than this to a segment, on the scaled entries, would need
# panels on which 1/(t+z) overflows
_TINY = 1.0 / sys.float_info.max
# constant of the a-priori bound: Trefethen's 64/15 for Gauss rules
# (SIAM Rev. 2008, Thm 4.5); on seeded corpora the achieved error stays
# below 1.3 rho**(-2N) times the same sum
_BOUND_C = 64.0 / 15.0
# a planned panel's bound aims at this share of rel_tol, so that the summed
# estimates of a segment still pass when its panels partly cancel
_PLAN_MARGIN = 0.1
# a planned panel is admitted when the Bernstein ellipse through its nearest
# singularity has at least this semi-major axis, in units of its half-width:
# the ellipse whose bound meets _PLAN_MARGIN times _SPEC.rel_tol
_RHO_PLAN = (_BOUND_C / max(_PLAN_MARGIN * _SPEC.rel_tol, _ROUNDOFF)) ** (0.5 / JACOBI_NODES)
_S_NEED = 0.5 * (_RHO_PLAN + 1.0 / _RHO_PLAN)
# a panel that misses the plan's rho is cut at this fraction of its length
# from the end nearer its anchor
_GRADING = 1.0 / 30.0
# elements in the largest temporary of the rule: 512 KB of float64
_BLOCK = 1 << 16
# nodes of the pole-free plans kept for one sequence, all plans together;
# 150 pairs of entries 1e-15 apart would keep 2.6 times as many
_KEPT_NODES = 1 << 16


@dataclass(frozen=True)
class RemainderValue:
    """Remainder transform value with per-segment diagnostics.

    ``value`` is the sum of the per-segment contributions (reduced in
    ascending segment order); ``per_segment`` holds
    ``(segment_index, contribution, error_estimate)`` triples, and ``panels``
    gives, in the same order, the number of Gauss–Jacobi panels each
    contribution took: 1 is the whole-segment rule.
    """

    value: complex
    per_segment: tuple[tuple[int, complex, float], ...]
    total_error_estimate: float
    panels: tuple[int, ...]

    def to_dict(self) -> dict:
        return {
            "value": {"re": self.value.real, "im": self.value.imag},
            "per_segment": [
                {"segment": idx, "re": c.real, "im": c.imag, "error_estimate": e, "panels": k}
                for (idx, c, e), k in zip(self.per_segment, self.panels)
            ],
            "total_error_estimate": self.total_error_estimate,
        }


class _Panel(NamedTuple):
    """``[anchor + lo, anchor + hi]`` inside ``seg``; ``m_lo``/``m_hi`` are
    the segment's end multiplicities where the panel touches that end, else
    0.  A whole segment is the panel ``(seg, 0.0, seg.lo, seg.hi, seg.m_lo,
    seg.m_hi)``."""

    seg: SegmentDensity
    anchor: float
    lo: float
    hi: float
    m_lo: int
    m_hi: int


def _loaded_cut_distance(values: tuple[float, ...], z: complex) -> float:
    """Distance from z to the loaded cut portion [-max(values), -min(values)]."""
    lo, hi = -values[-1], -values[0]
    x = min(max(z.real, lo), hi)
    return math.hypot(z.real - x, z.imag)


def _neighbours(values: tuple[float, ...], seg: SegmentDensity) -> tuple[float, float]:
    """The entries next to the segment, as floats; -inf or inf where there is
    none."""
    below = seg.index - seg.m_lo - 1
    above = seg.index + seg.m_hi
    return (
        float(values[below]) if below >= 0 else -math.inf,
        float(values[above]) if above < len(values) else math.inf,
    )


class _Block(NamedTuple):
    """The z-free part of the rule on a block of panels: one row per panel,
    one column per node.  The kernel's nodes are ``t = (anchor + c + base) +
    off``; ``near / width`` is the semi-major axis of the Bernstein ellipse
    through the neighbouring entries."""

    anchor: np.ndarray
    lo: np.ndarray
    hi: np.ndarray
    base: np.ndarray
    off: np.ndarray
    weights: np.ndarray
    near: np.ndarray
    width: np.ndarray


def _panel_weights(values: np.ndarray, panels: list[_Panel]) -> _Block:
    """The z-free part of the rule on a block of panels, for a caller that
    ignores overflow and invalid operations; ``values`` is the 1-D array of
    the sorted entries.

    On a panel with ``t = anchor + u``, ``u`` running from ``lo`` to ``hi``
    with half-width ``h``, the density is ``h**(p+q) * (1+x)**p * (1-x)**q *
    s(t)`` with ``p = m_lo/n``, ``q = m_hi/n`` and ``s`` the product over the
    other entries, analytic on the panel.  The rule carries the Jacobi
    weight, so ``W_j = w_j * h**(1+p+q) * s(t_j)``.  The distances to the
    ends, ``h*(1+x)`` and ``h*(1-x)``, are added to the entries' offsets from
    those ends, so nodes near an end keep their relative accuracy; a node is
    ``(anchor + lo) + h*(1+x)`` on the lower half and ``(anchor + hi) +
    (-h*(1-x))`` on the upper one, which are ``base`` and ``off``.
    """
    n = len(values)
    v = values[:, None, None]
    rules = [segment_rule(p.m_lo, p.m_hi, n) for p in panels]
    x = np.array([r[0] for r in rules])
    w = np.array([r[1] for r in rules])
    rows = []
    for p in panels:
        prev, after = _neighbours(values, p.seg)
        # the entries at an end the panel touches are in the Jacobi weight;
        # the ellipse then passes through the next entry instead of that end
        below = (prev if p.m_lo else p.seg.lo) - p.anchor
        above = (after if p.m_hi else p.seg.hi) - p.anchor
        rows.append((
            p.anchor, p.lo, p.hi, p.seg.lo,
            # |t - lo| + |t - hi| of the nearer of the two
            min(abs(below - p.lo) + abs(below - p.hi), abs(above - p.lo) + abs(above - p.hi)),
            1.0 + (p.m_lo + p.m_hi) / n,
        ))
    anchor, lo, hi, seg_lo, near, power = np.array(rows).T[:, :, None]
    width = hi - lo
    h = 0.5 * width
    from_lo = h * (1.0 + x)
    from_hi = h * (1.0 - x)
    # |a_k - t| for every other entry, built in the one block-sized array.
    # The entries are sorted, so rows [0, first) lie below every panel's
    # segment and rows [last, n) above it; only the rows between, none when
    # the panels share a segment, need a select.
    index = [p.seg.index for p in panels]
    first, last = min(index), max(index)
    offset = v - anchor
    under = v <= seg_lo
    # the entries' offsets from the ends first: a broadcast fill, then adds
    # of equal inner shapes
    dist = np.empty((n, *x.shape))
    dist[...] = np.where(under, lo - offset, offset - hi)
    dist[:first] += from_lo
    if first < last:
        dist[first:last] += np.where(under[first:last], from_lo, from_hi)
    dist[last:] += from_hi
    # the entries in the Jacobi weight, rows [index - m_lo, index + m_hi)
    for column, (i, p) in enumerate(zip(index, panels)):
        if p.m_lo or p.m_hi:
            dist[i - p.m_lo : i + p.m_hi, column] = 1.0
    log_s = np.log(dist, out=dist).sum(axis=0) / n
    weights = w * h**power * np.exp(log_s)
    lower = x <= 0.0
    base = np.where(lower, lo, hi)
    off = np.where(lower, from_lo, -from_hi)
    return _Block(anchor, lo, hi, base, off, weights, near, width)


def _blocks(values: tuple[float, ...], panels: list[_Panel]) -> list[_Block]:
    """The rule's blocks for the panels: :func:`_panel_weights` built on runs
    of panels whose ``n x panels x nodes`` temporary stays at about
    ``_BLOCK`` elements, joined into blocks of up to ``_BLOCK`` nodes, since
    the kernel's temporaries do not grow with ``n``.  For a caller that
    ignores overflow and invalid operations, as ``_panel_weights``, unless
    every panel is a whole segment: there every distance is positive and
    below 2 on the scaled entries, so underflow alone can occur."""
    per_build = max(1, _BLOCK // (len(values) * JACOBI_NODES))
    per_block = max(1, _BLOCK // (per_build * JACOBI_NODES))
    array = np.array(values)
    built = [_panel_weights(array, panels[i : i + per_build]) for i in range(0, len(panels), per_build)]
    return [
        run[0] if len(run) == 1 else _Block(*map(np.concatenate, zip(*run)))
        for run in (built[i : i + per_block] for i in range(0, len(built), per_block))
    ]


def _freeze(blocks: list[_Block]) -> list[_Block]:
    """The blocks, with every array set read-only."""
    for block in blocks:
        for array in block:
            array.setflags(write=False)
    return blocks


class _Plan(NamedTuple):
    """A segment's pole-free plan, ``_plan(values, seg)`` (``None`` beyond
    the panel budget), and its read-only blocks: ``None`` until a pole-free
    pair uses them, and while they would take the kept plans beyond
    ``_KEPT_NODES``."""

    panels: list[_Panel] | None
    blocks: list[_Block] | None


@dataclass(frozen=True)
class _Kept:
    """The z-free rule kept for the one sequence seen last: its segments,
    the read-only blocks of their whole-segment rule and, by segment index,
    the :class:`_Plan` of each segment a call has planned without a binding
    pole."""

    segs: list[SegmentDensity]
    blocks: list[_Block]
    plans: dict[int, _Plan] = field(default_factory=dict)

    def __iter__(self):
        # unpacks as the whole-segment rule, ``segs, blocks``
        return iter((self.segs, self.blocks))

    def plan_nodes(self) -> int:
        """Nodes of the plans whose blocks are kept."""
        return JACOBI_NODES * sum(len(plan.panels) for plan in self.plans.values() if plan.blocks is not None)


# (key, _Kept) of the one sequence seen last; read and replaced whole, so it
# never holds two, and a sequence's plans go with its whole-segment blocks
_LAST: list = [None]


def _kept(values: tuple[float, ...]) -> _Kept:
    """The kept rule of the (scaled) entries, built for the last sequence
    seen: repeated calls on one sequence, scalar or array, ``remainder`` or
    ``density_moment``, build its whole-segment blocks once and each
    pole-free plan at most once.  The key carries the block layout and the
    accuracy target with the entries."""
    key = (values, _BLOCK, _SPEC)
    last = _LAST[0]
    if last is not None and last[0] == key:
        return last[1]
    _LAST[0] = None  # drop the old entry before building the new one
    segs = _segments_raw(values)
    blocks = _blocks(values, [_Panel(seg, 0.0, seg.lo, seg.hi, seg.m_lo, seg.m_hi) for seg in segs])
    kept = _Kept(segs, _freeze(blocks))
    _LAST[0] = (key, kept)
    return kept


def _bound(s):
    """``C * rho**(-2N)`` for semi-major axis ``s``, floored at roundoff."""
    return np.maximum(_BOUND_C * _ellipse_rho(s) ** (-2.0 * JACOBI_NODES), _ROUNDOFF)


def _rule(blocks: list[_Block], points: np.ndarray, order: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss–Jacobi values ``sum_j W_j * k(t_j)`` of the panel integrals
    ``int k * density dt`` for the kernel ``k(t) = (t + c)**order``, and their
    estimates ``C * rho**(-2N) * sum_j |W_j * k(t_j)|``, one row per point
    ``c`` of the 1-D array ``points`` and one column per panel of ``blocks``.

    ``order = -1`` is the Stieltjes kernel of ``R`` at ``c = z``: its pole
    ``-z`` and the neighbours set ``rho``, the smallest ellipse through them.
    ``order >= 0`` is the moment kernel, taken at the single point ``c = 0``:
    it has no pole, so the neighbours alone set ``rho``.

    The weights come prebuilt from :func:`_blocks`, and only the kernel and
    the pole's ``rho`` are formed per point, on chunks of points that keep
    the largest temporary at about ``_BLOCK`` elements.  Every sum runs along
    the nodes, the contiguous last axis, so a point's values do not depend on
    the other points or on the chunking.
    """
    columns = sum(len(block.anchor) for block in blocks)
    column = points.reshape(-1, 1, 1)
    vals = np.empty((len(points), columns), dtype=points.dtype)
    ests = np.empty((len(points), columns))
    start = 0
    with np.errstate(over="ignore", under="ignore", divide="ignore", invalid="ignore"):
        for anchor, lo, hi, base, off, weights, near, width in blocks:
            cols = slice(start, start + len(anchor))
            start = cols.stop
            per_chunk = max(1, _BLOCK // weights.size)
            for c in range(0, len(points), per_chunk):
                chunk = column[c : c + per_chunk]
                t = ((anchor + chunk) + base) + off
                terms = weights / t if order < 0 else weights * t**order
                vals[c : c + per_chunk, cols] = terms.sum(axis=-1)
                s = near
                if order < 0:
                    pole = -chunk - anchor
                    s = np.minimum(np.abs(pole - lo) + np.abs(pole - hi), near)
                ests[c : c + per_chunk, cols] = _bound(s / width)[..., 0] * np.abs(terms).sum(axis=-1)
    return vals, ests


def _too_close(seg: SegmentDensity, z: complex) -> bool:
    """Whether the pole ``-z`` lies within ``_TINY`` of the segment."""
    x0 = -z.real
    nearest = min(max(x0, seg.lo), seg.hi)
    return math.hypot(x0 - nearest, z.imag) < _TINY


def _wide_enough(points: tuple, lo: float, hi: float) -> bool:
    """The plan's admission test: the smallest Bernstein ellipse of the
    panel ``[lo, hi]`` through ``points`` has semi-major axis ``_S_NEED``
    or more."""
    return min(abs(p - lo) + abs(p - hi) for p in points) >= _S_NEED * (hi - lo)


def _plan(values: tuple[float, ...], seg: SegmentDensity, z: complex | None = None) -> list[_Panel] | None:
    """Panels for a segment the whole-segment rule does not admit, chosen
    from its singularities alone, or ``None`` when more than
    ``_SPEC.max_subdivisions`` would be needed or the pole lies within
    ``_TINY`` of the segment.  ``z=None`` plans for a kernel with no pole.

    The segment is cut at the pole projection ``x0 = -re(z)`` when that lies
    inside, and each part at its midpoint, so every half has one anchor:
    ``lo``, ``hi`` or ``x0``, the point of the half nearest to each
    singularity.  A half is one panel while that panel's Bernstein ellipse
    through the pole, the neighbouring entries and the segment ends it does
    not touch is wide enough for its bound to meet ``_PLAN_MARGIN`` times
    ``_SPEC.rel_tol`` (never finer than roundoff); otherwise it is cut at
    ``_GRADING`` of its length from the anchor end and both pieces are
    checked again.  Offsets stay relative to the anchor (``x0 + z`` is
    exactly ``i*im(z)``).
    """
    if z is not None and _too_close(seg, z):
        return None
    prev, after = _neighbours(values, seg)
    if z is not None and seg.lo < -z.real < seg.hi:
        x0 = -z.real
        left, right = 0.5 * (x0 - seg.lo), 0.5 * (seg.hi - x0)
        halves = ((seg.lo, left), (x0, -left), (x0, right), (seg.hi, -right))
    else:
        half = 0.5 * (seg.hi - seg.lo)
        halves = ((seg.lo, half), (seg.hi, -half))
    panels: list[_Panel] = []
    for anchor, far in halves:
        poles = () if z is None else (-z - anchor,)
        ends = (seg.lo - anchor, seg.hi - anchor)
        neighbours = (prev - anchor, after - anchor)
        work = [(0.0, far)]
        while work:
            if len(panels) + len(work) > _SPEC.max_subdivisions:
                return None
            a, b = work.pop()  # a is the end nearer the anchor
            lo, hi = min(a, b), max(a, b)
            m_lo = seg.m_lo if lo == ends[0] else 0
            m_hi = seg.m_hi if hi == ends[1] else 0
            points = (*poles, neighbours[0] if m_lo else ends[0], neighbours[1] if m_hi else ends[1])
            if _wide_enough(points, lo, hi):
                panels.append(_Panel(seg, anchor, lo, hi, m_lo, m_hi))
            else:
                cut = a + (b - a) * _GRADING
                work += [(cut, b), (a, cut)]
    return panels


def _admitted(val, est: float, abs_tol: float) -> bool:
    # an overflowed value or estimate can never certify itself
    return est <= max(abs_tol, _SPEC.rel_tol * abs(val)) < math.inf


def _built(values: tuple[float, ...], panels: list[_Panel] | None):
    """``(panels, blocks)`` with the blocks built for this call alone."""
    return panels, None if panels is None else _blocks(values, panels)


def _pole_cuts(seg: SegmentDensity, z: complex) -> bool:
    """Whether the pole ``-z`` makes :func:`_plan` start another tree:
    ``x0 = -re(z)`` lies inside the segment, or the pole within ``_TINY``
    of it."""
    return seg.lo < -z.real < seg.hi or _too_close(seg, z)


def _pole_binds(panels: list[_Panel], z: complex) -> bool:
    """Whether the pole ``-z`` fails :func:`_wide_enough` on some panel of a
    pole-free plan.  Where it neither binds nor cuts the segment, ``_plan``
    with the pole walks exactly the pole-free tree: each panel's test takes
    the smallest sum over the same points and the pole, so every pole-free
    split happens and the pole adds none (with too many panels both plans
    are ``None``)."""
    return not all(_wide_enough((-z - p.anchor,), p.lo, p.hi) for p in panels)


def _planned(values: tuple[float, ...], kept: _Kept, seg: SegmentDensity, z: complex | None):
    """``_plan(values, seg, z)`` and its blocks, for a caller that ignores
    overflow and invalid operations: the kept pole-free plan and its blocks
    unless the pole ``-z`` cuts the segment or binds the plan (``z=None``
    has no pole), else planned and built for this call.  The pole-free plan
    is made the first time a pole that does not cut the segment needs it,
    and its blocks the first time one that does not bind it does; blocks
    that would take the kept plans beyond ``_KEPT_NODES`` are built per
    call."""
    if z is not None and _pole_cuts(seg, z):
        return _built(values, _plan(values, seg, z))
    plan = kept.plans.get(seg.index)
    if plan is None:
        plan = kept.plans[seg.index] = _Plan(_plan(values, seg), None)
    if plan.panels is None:
        return plan
    if z is not None and _pole_binds(plan.panels, z):
        return _built(values, _plan(values, seg, z))
    if plan.blocks is None:
        blocks = _blocks(values, plan.panels)
        if kept.plan_nodes() + len(plan.panels) * JACOBI_NODES > _KEPT_NODES:
            return plan.panels, blocks
        plan = kept.plans[seg.index] = _Plan(plan.panels, _freeze(blocks))
    return plan


def _segment_integrals(values, kept: _Kept, points: np.ndarray, order: int, abs_tol: float):
    """Per point ``c`` of ``points``, :func:`_rule`'s integrals over each
    segment of ``kept.segs`` as ``(vals, ests, counts, failed)``: the
    whole-segment rule on the kept blocks, taken at every point in one call,
    where it is admitted, else the sums over the panels of
    :func:`_planned`; ``counts`` holds the panel counts and ``failed`` the
    indices of the segments that fail."""
    segs = kept.segs
    whole_vals, whole_ests = _rule(kept.blocks, points, order)
    for c, vals, ests in zip(points.tolist(), whole_vals.tolist(), whole_ests.tolist()):
        counts, failed = [1] * len(segs), []
        for i, seg in enumerate(segs):
            if _admitted(vals[i], ests[i], abs_tol):
                continue
            with np.errstate(over="ignore", under="ignore", divide="ignore", invalid="ignore"):
                plan, blocks = _planned(values, kept, seg, c if order < 0 else None)
                if plan is not None:
                    panel_vals, panel_ests = _rule(blocks, np.array([c]), order)
                    vals[i], ests[i], counts[i] = panel_vals.sum().item(), float(panel_ests.sum()), len(plan)
            if plan is None or not _admitted(vals[i], ests[i], abs_tol):
                failed.append(seg.index)
        yield vals, ests, counts, failed


def _scaled(values: tuple[float, ...], degree: int) -> tuple[tuple[float, ...], int, float]:
    """The entries scaled by ``2**-e`` (exact) to ``max`` in [1, 2), so that
    ``h**(1+p+q)`` neither under- nor overflows, ``e``, and ``_SPEC.abs_tol``
    scaled for a quantity homogeneous of degree ``degree``."""
    e = math.frexp(values[-1])[1] - 1
    # past 2**1000 the target admits any estimate the scaled entries give;
    # the clamp keeps it finite down to subnormal entries
    abs_tol = max(math.ldexp(_SPEC.abs_tol, min(-e * degree, 1000)), math.ulp(0.0))
    return tuple(math.ldexp(v, -e) for v in values), e, abs_tol


def _remainder_raw(
    values: tuple[float, ...], z, density_scale: float
) -> RemainderValue | list[RemainderValue]:
    """``R`` at a complex ``z`` (a :class:`RemainderValue`) or at each point
    of a 1-D complex array (a list of them), one point at a time except for
    the whole-segment rule, which takes every point in one call.  A failure
    names each point that failed and carries the partial result of every
    point, in the same form."""
    points = z.tolist() if isinstance(z, np.ndarray) else [z]
    if values[0] == values[-1]:
        results = [RemainderValue(0j, (), 0.0, ())] * len(points)
        return results if isinstance(z, np.ndarray) else results[0]
    # R is homogeneous of degree 1: R_a(z) = s * R_{a/s}(z/s)
    scaled, e, abs_tol = _scaled(values, 1)
    scale = math.ldexp(1.0, e)
    zs = [p / scale for p in points]
    kept = _kept(scaled)
    segs = kept.segs
    integrals = _segment_integrals(scaled, kept, np.array(zs, dtype=complex), -1, abs_tol)
    # the fault-injection scale rides on each segment's weight (exact at 1.0)
    weights = [seg.weight * density_scale for seg in segs]
    results, failures = [], []
    for point, zk, (vals, ests, counts, failed) in zip(points, zs, integrals):
        per = tuple(
            (seg.index, scale * (w * complex(val)), scale * (w * est))
            for seg, w, val, est in zip(segs, weights, vals, ests)
        )
        value = sum((c for _, c, _ in per), 0j)
        total_err = float(sum(e for _, _, e in per))
        dist = _loaded_cut_distance(scaled, zk)
        if dist < _ILL_CONDITIONED:
            # a relative change eps in z moves R by about eps/dist times its size
            total_err += math.ulp(1.0) / max(dist, 1e-300) * sum(abs(c) for _, c, _ in per)
        results.append(RemainderValue(value, per, total_err, tuple(counts)))
        if failed:
            failures.append(f"z={point!r} on segment(s) {failed}")
    result = results if isinstance(z, np.ndarray) else results[0]
    if failures:
        raise QuadratureFailure(
            f"remainder quadrature did not converge at {'; '.join(failures)}", result=result
        )
    return result


def remainder(a: Sequence, z, density_scale: float = 1.0) -> RemainderValue | list[RemainderValue]:
    """The remainder transform ``R(z)`` of the sequence at a point off the cut.

    ``z`` may be a complex scalar, giving a :class:`RemainderValue`, or a
    1-D ndarray, giving a list with one :class:`RemainderValue` per point.
    Each point's result is bit for bit its scalar call's, whatever batch it
    comes in.  For real ``z > -min(a)`` the value is real nonnegative up to
    quadrature error.  ``density_scale`` rescales the densities and exists
    for fault injection in the verification harness; leave it at 1.0 for
    real use.

    Raises:
        CutViolation: for a point on ``(-inf, -min(a)]``.
        QuadratureFailure: when a segment's estimate misses the tolerance,
            its panel plan needs more than ``max_subdivisions`` panels, or a
            point lies within about 5e-309 times ``max(a)`` of a segment
            (``1/(t+z)`` would overflow there).  The message names each
            point that failed, and the partial result of every point rides
            on the exception, in the form a success would have returned.
        ValueError: for a non-finite point or an array that is not 1-D.
    """
    z = _check_point(z)
    _check_cut(z, -a.values[0], "remainder")
    return _remainder_raw(a.values, z, density_scale)


def _reconstruct(a: Sequence, z, rem):
    """``A + z - R(z)`` from checked point(s) ``z`` and their :func:`remainder`."""
    am = math.fsum(a.values) / a.n
    if isinstance(z, np.ndarray):
        return am + z - np.array([r.value for r in rem], dtype=complex)
    return am + z - rem.value


def gmean_via_representation(a: Sequence, z, density_scale: float = 1.0) -> complex | np.ndarray:
    """Principal geometric mean reconstructed as ``A + z - R(z)``; a 1-D
    ndarray of ``z`` gives an array, each entry bit for bit its scalar call."""
    z = _check_point(z)
    return _reconstruct(a, z, remainder(a, z, density_scale))


def shifted_excess_via_representation(a: Sequence, z) -> complex:
    """Rebased excess reconstructed from the rebased representation.

    Uses the segments of ``a - a1`` directly: ``A(a - a1) - R_shifted(z)``.
    Equals ``gmean_via_representation(a, z - a1) - z`` up to combined
    quadrature error, and :func:`gmeanrep.means.gmean_excess_shifted` up to
    representation error.

    Raises:
        CutViolation: for ``z`` on ``(-inf, 0]``.
    """
    z = _check_scalar_point(z)
    _check_cut(z, 0.0, "shifted_excess_via_representation")
    shifted = a.shifted()
    rem = _remainder_raw(shifted, z, 1.0)
    return math.fsum(shifted) / a.n - rem.value


def am_gm_gap(a: Sequence) -> float:
    """Arithmetic-minus-geometric gap via the representation at ``z = 0``.

    Nonnegative, and zero exactly when all entries coincide (no segments).

    Raises:
        QuadratureFailure: as :func:`remainder`.
    """
    return remainder(a, 0.0).value.real


def density_moment(a: Sequence, order: int) -> float:
    """Weighted moment ``sum_l w_l * int_{a_l}^{a_{l+1}} t**order * density dt``.

    The zeroth moment is the total mass of the remainder measure and equals
    half the population variance of the entries.

    Raises:
        QuadratureFailure: if a segment misses ``_SPEC`` or the moment
            overflows; the partial sum (``inf`` on overflow) rides on it.
    """
    if order < 0:
        raise ValueError(f"moment order must be >= 0, got {order}")
    # the moment is homogeneous of degree order + 2
    scaled, e, abs_tol = _scaled(a.values, order + 2)
    shift = e * (order + 2)
    kept = _kept(scaled)
    segs = kept.segs
    ((vals, _, _, failed),) = _segment_integrals(scaled, kept, np.zeros(1), order, abs_tol)
    try:
        total = math.ldexp(sum((seg.weight * val for seg, val in zip(segs, vals)), 0.0), shift)
    except OverflowError:
        raise QuadratureFailure(f"moment of order {order} overflows the double range", result=math.inf) from None
    if failed:
        raise QuadratureFailure(f"moment quadrature did not converge on segment(s) {failed}", result=total)
    return total
