"""The integral representation: remainder transform and derived quantities.

The remainder is a Stieltjes transform of the nonnegative segment densities,

    R(z) = (1/pi) * sum_l sin(l*pi/n) * int_{a_l}^{a_{l+1}} density(t)/(t+z) dt,

and the principal geometric mean is recovered as ``A + z - R(z)`` where ``A``
is the arithmetic mean.  At ``z = 0`` the remainder is exactly the
arithmetic-minus-geometric gap, which the nonnegative integrand keeps >= 0.

Each segment integral is first tried with one fixed rule: the
``JACOBI_NODES``-point Gauss–Jacobi rule whose weight carries the density's
endpoint powers ``(t - a_l)**(m_l/n) * (a_{l+1} - t)**(m_{l+1}/n)``, so what
is left is analytic on the segment.  An a-priori bound,
``C * rho**(-2N) * sum_j |W_j / (t_j + z)|`` with ``rho`` the smallest
Bernstein ellipse through the pole ``-z`` or a neighbouring entry, admits the
rule's value when it meets the caller's ``QuadratureSpec`` exactly as the
adaptive integrator's own stopping test would.  Every other (segment, z)
pair takes the adaptive path of :func:`gmeanrep.quadrature.integrate_near_pole`,
which splits a segment containing the pole projection ``-re(z)`` there once.
``RemainderValue.paths`` records which path each segment took.  All of it
runs on the entries scaled by a power of two to ``max(a)`` in [1, 2) (``R``
is homogeneous of degree 1), so entries from 1e-300 to 1e308 neither under-
nor overflow.

``z = 0`` needs no special handling: the integration variable stays >= min(a)
> 0, so ``1/(t+z)`` is bounded for every ``re(z) > -min(a)``.  Within 1e-6 of
the loaded cut (measured in the caller's units) the error estimate grows by
``eps / distance`` times the value, flagging the point; closer than about
1e-8 calls may raise ``QuadratureFailure``, and below about 1e-20 they may
return garbage flagged only by that estimate (README "Numerical notes").
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .boundary import SegmentDensity, _segments_raw
from .means import Sequence, _check_cut, _check_point
from .quadrature import (
    _ROUNDOFF,
    JACOBI_NODES,
    QuadratureFailure,
    QuadratureSpec,
    bernstein_rho,
    integrate_near_pole,
    segment_rule,
)

# below this distance results are flagged ill-conditioned
_ILL_CONDITIONED = 1e-6
# constant of the a-priori bound: Trefethen's 64/15 for Gauss rules
# (SIAM Rev. 2008, Thm 4.5); on seeded corpora the achieved error stays
# below 1.3 rho**(-2N) times the same sum
_BOUND_C = 64.0 / 15.0
# elements in the largest temporary of the fixed rule: 512 KB of float64
_BLOCK = 1 << 16


@dataclass(frozen=True)
class RemainderValue:
    """Remainder transform value with per-segment diagnostics.

    ``value`` is the sum of the per-segment contributions (reduced in
    ascending segment order); ``per_segment`` holds
    ``(segment_index, contribution, error_estimate)`` triples, and ``paths``
    names, in the same order, how each contribution was computed:
    ``"fixed"`` (the Gauss–Jacobi rule, admitted by its a-priori bound),
    ``"adaptive"`` (the adaptive integrator) or ``"split"`` (the adaptive
    integrator on both sides of a pole inside the segment).
    """

    value: complex
    per_segment: tuple[tuple[int, complex, float], ...]
    total_error_estimate: float
    paths: tuple[str, ...]

    def to_dict(self) -> dict:
        return {
            "value": {"re": self.value.real, "im": self.value.imag},
            "per_segment": [
                {"segment": idx, "re": c.real, "im": c.imag, "error_estimate": e, "path": path}
                for (idx, c, e), path in zip(self.per_segment, self.paths)
            ],
            "total_error_estimate": self.total_error_estimate,
        }


def _loaded_cut_distance(values: tuple[float, ...], z: complex) -> float:
    """Distance from z to the loaded cut portion [-max(values), -min(values)]."""
    lo, hi = -values[-1], -values[0]
    x = min(max(z.real, lo), hi)
    return math.hypot(z.real - x, z.imag)


def _fixed_rule(
    values: tuple[float, ...], segs: list[SegmentDensity], z: complex, density_scale: float
) -> tuple[np.ndarray, np.ndarray]:
    """Gauss–Jacobi values of the segment integrals ``int density/(t+z) dt``
    and their a-priori error estimates, one entry per segment.

    On [lo, hi] with ``t = c + h*x`` the density is
    ``h**(p+q) * (1+x)**p * (1-x)**q * s(t)`` with ``p = m_lo/n``,
    ``q = m_hi/n`` and ``s`` the product over the other entries, analytic on
    the segment.  The rule carries the Jacobi weight, so the value is
    ``sum_j W_j / (t_j + z)`` with ``W_j = w_j * h**(1+p+q) * s(t_j)``.  The
    distances ``t - lo = h*(1+x)`` and ``hi - t = h*(1-x)`` are formed
    without cancellation, so nodes near an end keep their relative accuracy.
    The estimate is ``C * rho**(-2N) * sum_j |W_j / (t_j + z)|`` for the
    smallest Bernstein ellipse through the pole ``-z`` or a neighbouring
    entry, floored at the adaptive panels' roundoff share of the same sum.
    Segments go in blocks whose largest temporary has about ``_BLOCK``
    elements.
    """
    n = len(values)
    v = np.asarray(values)[:, None, None]
    per_block = max(1, _BLOCK // (n * JACOBI_NODES))
    vals, ests = [], []
    for start in range(0, len(segs), per_block):
        block = segs[start : start + per_block]
        rules = [segment_rule(seg.m_lo, seg.m_hi, n) for seg in block]
        x = np.stack([r[0] for r in rules])
        w = np.stack([r[1] for r in rules])
        lo = np.array([[seg.lo] for seg in block])
        hi = np.array([[seg.hi] for seg in block])
        power = np.array([[1.0 + (seg.m_lo + seg.m_hi) / n] for seg in block])
        # the entries next to the segment; +-inf where there is none
        prev = np.array([values[seg.index - seg.m_lo - 1] if seg.index > seg.m_lo else -np.inf for seg in block])
        after = np.array([values[seg.index + seg.m_hi] if seg.index + seg.m_hi < n else np.inf for seg in block])
        h = 0.5 * (hi - lo)
        from_lo = h * (1.0 + x)
        from_hi = h * (1.0 - x)
        with np.errstate(over="ignore", under="ignore", divide="ignore", invalid="ignore"):
            # |a_k - t| for every other entry, built in the one block-sized
            # array; the entries equal to lo or hi are in the Jacobi weight
            below = v < lo
            dist = np.where(below, from_lo, from_hi)
            dist += np.where(below, lo - v, v - hi)
            np.copyto(dist, 1.0, where=(v >= lo) & (v <= hi))
            log_s = np.log(dist, out=dist).sum(axis=0) / n
            weights = w * h**power * np.exp(log_s) * density_scale
            terms = weights / np.where(x <= 0.0, (lo + z) + from_lo, (hi + z) - from_hi)
            value = terms.sum(axis=1)
            size = np.abs(terms).sum(axis=1)
            lo, hi = lo[:, 0], hi[:, 0]
            rho = np.minimum(
                bernstein_rho(lo, hi, -z),
                np.minimum(bernstein_rho(lo, hi, prev), bernstein_rho(lo, hi, after)),
            )
            ests.append(np.maximum(_BOUND_C * rho ** (-2.0 * JACOBI_NODES), _ROUNDOFF) * size)
        vals.append(value)
    return np.concatenate(vals), np.concatenate(ests)


def _remainder_raw(
    values: tuple[float, ...], z: complex, spec: QuadratureSpec, density_scale: float
) -> RemainderValue:
    if values[0] == values[-1]:
        return RemainderValue(0j, (), 0.0, ())
    # R is homogeneous of degree 1, R_a(z) = s * R_{a/s}(z/s): work on entries
    # scaled by a power of two (exact), max in [1, 2), so that neither
    # h**(1+p+q) nor the tanh-sinh weights under- or overflow
    scale = math.ldexp(1.0, math.frexp(values[-1])[1] - 1)
    scaled = tuple(v / scale for v in values)
    zs = z / scale
    spec_s = replace(spec, abs_tol=max(spec.abs_tol / scale, math.ulp(0.0)))
    segs = _segments_raw(scaled)
    fixed_vals, fixed_ests = _fixed_rule(scaled, segs, zs, density_scale)
    pole = -zs.real
    per = []
    paths = []
    failed = []
    for seg, val, est in zip(segs, fixed_vals.tolist(), fixed_ests.tolist()):
        if est <= max(spec_s.abs_tol, spec_s.rel_tol * abs(val)):
            paths.append("fixed")
        else:
            def f(t, seg=seg):
                return seg.density(t) * (density_scale / (t + zs))

            res = integrate_near_pole(f, seg.lo, seg.hi, pole, spec_s)
            val, est = res.value, res.error_estimate
            paths.append("split" if seg.lo < pole < seg.hi else "adaptive")
            if not res.converged:
                failed.append(seg.index)
        per.append((seg.index, scale * (seg.weight * complex(val)), scale * (seg.weight * est)))
    value = sum((c for _, c, _ in per), 0j)
    total_err = float(sum(e for _, _, e in per))
    dist = _loaded_cut_distance(values, z)
    if dist < _ILL_CONDITIONED:
        # cancellation in 1/(t+z) grows like 1/dist; surface it to callers
        total_err += np.finfo(float).eps / max(dist, 1e-300) * sum(abs(c) for _, c, _ in per)
    result = RemainderValue(value, tuple(per), total_err, tuple(paths))
    if failed:
        raise QuadratureFailure(
            f"remainder quadrature did not converge on segment(s) {failed}", result=result
        )
    return result


def remainder(
    a: Sequence, z, spec: QuadratureSpec | None = None, density_scale: float = 1.0
) -> RemainderValue:
    """The remainder transform ``R(z)`` of the sequence at a point off the cut.

    For real ``z > -min(a)`` the value is real nonnegative up to quadrature
    error.  ``density_scale`` rescales the densities and exists for fault
    injection in the verification harness; leave it at 1.0 for real use.

    Raises:
        CutViolation: for ``z`` on ``(-inf, -min(a)]``.
        QuadratureFailure: when a segment integral fails to converge; the
            partial :class:`RemainderValue` rides on the exception.
    """
    z = complex(_check_point(z))
    _check_cut(z, -a.values[0], "remainder")
    if spec is None:
        spec = QuadratureSpec()
    return _remainder_raw(a.values, z, spec, density_scale)


def gmean_via_representation(
    a: Sequence, z, spec: QuadratureSpec | None = None, density_scale: float = 1.0
) -> complex:
    """Principal geometric mean reconstructed as ``A + z - R(z)``."""
    z = complex(_check_point(z))
    rem = remainder(a, z, spec, density_scale)
    return math.fsum(a.values) / a.n + z - rem.value


def shifted_excess_via_representation(
    a: Sequence, z, spec: QuadratureSpec | None = None
) -> complex:
    """Rebased excess reconstructed from the rebased representation.

    Uses the segments of ``a - a1`` directly: ``A(a - a1) - R_shifted(z)``.
    Equals ``gmean_via_representation(a, z - a1) - z`` up to combined
    quadrature error, and :func:`gmeanrep.means.gmean_excess_shifted` up to
    representation error.

    Raises:
        CutViolation: for ``z`` on ``(-inf, 0]``.
    """
    z = complex(_check_point(z))
    _check_cut(z, 0.0, "shifted_excess_via_representation")
    if spec is None:
        spec = QuadratureSpec()
    shifted = a.shifted()
    rem = _remainder_raw(shifted, z, spec, 1.0)
    return math.fsum(shifted) / a.n - rem.value


def am_gm_gap(a: Sequence, spec: QuadratureSpec | None = None) -> float:
    """Arithmetic-minus-geometric gap via the representation at ``z = 0``.

    Nonnegative, and zero exactly when all entries coincide (no segments).

    Raises:
        QuadratureFailure: as :func:`remainder`.
    """
    return remainder(a, 0.0, spec).value.real
