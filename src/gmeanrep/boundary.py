"""Branch-cut boundary data: per-segment densities and the cut-limit formula.

Between consecutive entries of the sequence the principal branch picks up a
constant phase ``l*pi/n``, so the imaginary part of the rebased excess
approaches a closed-form limit on the cut: ``[prod_k |a_k - a1 - t|]**(1/n) *
sin(l*pi/n)`` on the l-th gap and zero beyond the last entry.  Divided by pi,
that limit is exactly the density integrated by the remainder transform in
:mod:`gmeanrep.representation`.

Densities are always evaluated in log space (products of up to n small
factors underflow otherwise) and vanish identically at segment endpoints.
The cut limit and its finite-offset counterpart take a float or a 1-D array
of ``t`` on one path, a float being the length-one array.  All closed forms:
:mod:`gmeanrep.representation` integrates the densities.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .means import Sequence, gmean_excess_shifted


class DomainError(ValueError):
    """Raised for boundary evaluations outside the cut parameter range."""


def _log_abs_product(values, t):
    """``(1/n) * sum_k log|t - v_k|`` over a 1-D ``t``; -inf at zeros.  Each
    point's logs are summed along the contiguous last axis, so its value does
    not depend on the other points."""
    t = np.asarray(t, dtype=float)
    with np.errstate(divide="ignore"):
        return np.log(np.abs(t[:, None] - np.asarray(values, dtype=float))).sum(axis=-1) / len(values)


def _density_fn(values) -> Callable[[np.ndarray], np.ndarray]:
    def density(t):
        out = np.exp(_log_abs_product(values, np.atleast_1d(t)))
        return out if np.ndim(t) else float(out[0])

    return density


@dataclass(frozen=True)
class SegmentDensity:
    """One branch-cut segment ``(a_l, a_{l+1})`` with its weight and density.

    ``index`` is the 1-based gap index l in [1, n-1]; ``weight`` is
    ``sin(l*pi/n)/pi``; ``density`` maps t to ``prod_k |a_k - t|**(1/n)`` and
    vanishes at both endpoints.  ``m_lo`` and ``m_hi`` count the entries
    equal to ``lo`` and to ``hi``: near its ends the density behaves like
    ``(t - lo)**(m_lo/n)`` and ``(hi - t)**(m_hi/n)``.  Zero-length segments
    are never constructed.
    """

    index: int
    lo: float
    hi: float
    weight: float
    m_lo: int
    m_hi: int
    density: Callable[[np.ndarray], np.ndarray] = field(repr=False)


def _segments_raw(values: tuple[float, ...]) -> list[SegmentDensity]:
    n = len(values)
    segs = []
    for ell in range(1, n):
        lo, hi = values[ell - 1], values[ell]
        if lo == hi:
            continue
        segs.append(
            SegmentDensity(
                index=ell,
                lo=lo,
                hi=hi,
                weight=math.sin(ell * math.pi / n) / math.pi,
                m_lo=ell - bisect_left(values, lo),
                m_hi=bisect_right(values, hi) - ell,
                density=_density_fn(values),
            )
        )
    return segs


def segments(a: Sequence) -> list[SegmentDensity]:
    """The nondegenerate cut segments of ``a`` in ascending order.

    Empty when all entries are equal (or n = 1); gaps of zero length
    (duplicated entries) are dropped since they carry no integral mass.
    """
    return _segments_raw(a.values)


def _check_cut_parameter(t) -> np.ndarray:
    """``t`` as a 1-D float array; raises :class:`DomainError` naming the
    first value that is not positive, and ``ValueError`` for other shapes."""
    ts = np.atleast_1d(np.asarray(t, dtype=float))
    if ts.ndim != 1:
        raise ValueError(f"expected a scalar or a 1-D array of t, got shape {ts.shape}")
    bad = ts[~(ts > 0.0)]
    if bad.size:
        raise DomainError(f"cut parameter must be positive, got {float(bad[0])!r}")
    return ts


def boundary_imag_limit(a: Sequence, t):
    """Closed form of the cut limit of ``Im gmean_excess_shifted(a, -t + i*eps)``.

    For ``t`` in the l-th rebased gap ``(a_l - a1, a_{l+1} - a1)`` this is
    ``[prod_k |a_k - a1 - t|]**(1/n) * sin(l*pi/n)``; beyond the last entry it
    is zero, and at the gap junctions the product itself vanishes, so the
    value is zero there as well.  ``t`` may be a float or a 1-D ndarray; the
    return type matches, and each value is bit for bit its scalar call's.

    Raises:
        DomainError: if any ``t <= 0``.
        ValueError: for an array that is not 1-D.
    """
    ts = _check_cut_parameter(t)
    shifted = a.shifted()
    ell = np.searchsorted(shifted, ts, side="left")
    # exp runs on the fresh contiguous array, so no value depends on the layout of t
    out = np.exp(_log_abs_product(shifted, ts)) * np.sin(ell * math.pi / a.n)
    out[ts > shifted[-1]] = 0.0
    return out if np.ndim(t) else float(out[0])


def boundary_imag_numeric(a: Sequence, t, eps: float):
    """``Im gmean_excess_shifted(a, -t + i*eps)``; tends to the closed form as
    ``eps -> 0+``.  Defined for every ``t > 0`` and ``eps > 0`` (the point is
    always off the cut).  ``t`` may be a float or a 1-D ndarray; the return
    type matches, and each value is bit for bit its scalar call's.
    """
    ts = _check_cut_parameter(t)
    if not eps > 0.0:
        raise DomainError(f"eps must be positive, got {eps!r}")
    out = gmean_excess_shifted(a, -ts + 1j * eps).imag
    return out if np.ndim(t) else float(out[0])


def density_samples(a: Sequence, points_per_segment: int = 101):
    """Sample the segment densities for CSV export.

    Returns rows ``(t, density, weighted_density, segment_index)`` with
    ``points_per_segment`` equispaced points per segment, endpoints included
    (where the density is exactly zero).
    """
    rows = []
    for seg in segments(a):
        ts = np.linspace(seg.lo, seg.hi, points_per_segment)
        dens = seg.density(ts)
        for t, d in zip(ts, dens):
            rows.append((float(t), float(d), float(seg.weight * d), seg.index))
    return rows
