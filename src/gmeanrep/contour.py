"""Keyhole-contour diagnostics for the rebased excess function.

The rebased excess is analytic off the cut ``(-inf, 0]``, so the Cauchy
integral over a keyhole contour — a small half circle of radius ``eps``
around the origin, two horizontal lines at ``±i*eps`` along the cut, and an
outer arc of radius ``r`` — reproduces its value at any enclosed point.  This
module evaluates the four pieces separately so the three limit claims behind
the integral representation can be watched numerically: the small arc
vanishes, the outer arc tends to the rebased arithmetic mean, and the two
lines collapse onto the cut-limit density integral.

Every piece is integrated by :mod:`gmeanrep.quadrature`: the arcs over their
angle with the default :class:`~gmeanrep.quadrature.QuadratureSpec`, the
lines over ``x`` with a fixed line budget, split at the cut junctions and at
the real projection of ``z``.  An integral that does not converge raises
:class:`~gmeanrep.quadrature.QuadratureFailure`.  Every function here takes
one scalar point: each piece is an adaptive integral of its own per point,
so an array form would only loop over the points.

The contour is closed approximately: the lines are truncated at ``x = -r``
and the outer arc spans the full ``(-pi, pi)``; the resulting O(eps/r)
junction mismatch is part of the reported reconstruction error and shrinks
as ``eps`` decreases and ``r`` grows.  This module validates the derivation;
production evaluation lives in :mod:`gmeanrep.representation`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import representation
from .means import Sequence, _check_cut, _check_scalar_point, _gmean_raw
from .quadrature import QuadratureFailure, QuadratureSpec, integrate, integrate_near_pole

_TWO_PI_I = 2j * math.pi

# tolerances and subdivision budget of each horizontal-line integral
_LINE_SPEC = QuadratureSpec(abs_tol=1e-11, rel_tol=1e-10, max_subdivisions=136)


class GeometryError(ValueError):
    """Raised when an evaluation point conflicts with the contour geometry."""


@dataclass(frozen=True)
class ContourSpec:
    """Keyhole geometry.

    ``eps`` is both the small half-circle radius and the line offset from the
    cut; ``r`` the outer radius.
    """

    eps: float = 1e-3
    r: float = 1e3

    def __post_init__(self):
        if not (0.0 < self.eps < self.r):
            raise ValueError(f"need 0 < eps < r, got eps={self.eps}, r={self.r}")


@dataclass(frozen=True)
class ContourBreakdown:
    """The four contour pieces and their sum (small, outer, upper, lower)."""

    small_arc: complex
    outer_arc: complex
    upper_line: complex
    lower_line: complex
    total: complex

    def to_dict(self) -> dict:
        return {
            name: {"re": v.real, "im": v.imag}
            for name, v in (
                ("small_arc", self.small_arc),
                ("outer_arc", self.outer_arc),
                ("upper_line", self.upper_line),
                ("lower_line", self.lower_line),
                ("total", self.total),
            )
        }


def _excess_shifted_raw(shifted: tuple[float, ...], w: np.ndarray) -> np.ndarray:
    return _gmean_raw(shifted, w) - w


def _value_or_raise(res, what: str) -> complex:
    """The value of a contour integral, or a raise when it did not converge."""
    if not res.converged:
        raise QuadratureFailure(f"{what} integral did not converge", result=res)
    return complex(res.value)


def _arc_integral(a: Sequence, z: complex, radius: float, lo: float, hi: float, what: str) -> complex:
    """Cauchy integral over the arc ``radius * e^{i*theta}``, theta in [lo, hi]."""
    shifted = a.shifted()

    def g(theta):
        w = radius * np.exp(1j * theta)
        return (1j * w) * _excess_shifted_raw(shifted, w) / (w - z) / _TWO_PI_I

    return _value_or_raise(integrate(g, lo, hi), what)


def small_circle_term(a: Sequence, z, eps: float) -> complex:
    """Small-arc piece: the half circle ``eps * e^{i*theta}`` traversed from
    ``theta = pi/2`` down to ``-pi/2`` (indenting around the origin).

    Its magnitude decays like ``eps**(1 + 1/n)`` as ``eps -> 0``.
    """
    z = _check_scalar_point(z)
    if not (0.0 < eps < abs(z)):
        raise GeometryError(f"need 0 < eps < |z|, got eps={eps}, |z|={abs(z)}")
    # reversed orientation: from pi/2 to -pi/2
    return -_arc_integral(a, z, eps, -0.5 * math.pi, 0.5 * math.pi, "small-arc")


def big_circle_term(a: Sequence, z, r: float) -> complex:
    """Outer-arc piece over ``theta`` in ``(-pi, pi)`` at radius ``r``.

    Converges to the arithmetic mean of the rebased entries as ``r -> inf``.
    Beyond the last entry the cut carries no jump, so over the full circle the
    integral picks out the constant Laurent coefficient exactly; the residual
    is discretization plus cancellation noise (which grows with ``r``), not a
    1/r tail.
    """
    z = _check_scalar_point(z)
    if not r > abs(z):
        raise GeometryError(f"need r > |z|, got r={r}, |z|={abs(z)}")
    if not r > a.max:
        raise GeometryError(f"need r > max(a), got r={r}, max={a.max}")
    return _arc_integral(a, z, r, -math.pi, math.pi, "outer-arc")


def _line_terms(a: Sequence, z: complex, eps: float, r: float):
    """Upper and lower horizontal-line pieces, split at the cut junctions."""
    shifted = a.shifted()
    cuts = sorted({-r, 0.0} | {-s for s in shifted if 0.0 < s < r})

    def piece(sign: float) -> complex:
        offset = 1j * sign * eps

        def f(x):
            w = x + offset
            return _excess_shifted_raw(shifted, w) / (w - z) / _TWO_PI_I

        total = 0j
        for lo, hi in zip(cuts, cuts[1:]):
            total += _value_or_raise(integrate_near_pole(f, lo, hi, z.real, _LINE_SPEC), "line")
        return total

    upper = piece(+1.0)          # integral from -r to 0 at +i*eps
    lower = -piece(-1.0)         # integral from 0 to -r at -i*eps
    return upper, lower


def _contour_distance(z: complex, eps: float, r: float) -> float:
    """Distance from z to the four contour pieces."""
    d_small = abs(abs(z) - eps)
    d_outer = abs(r - abs(z))
    dx = max(z.real, -r - z.real, 0.0)
    d_lines = min(math.hypot(dx, z.imag - eps), math.hypot(dx, z.imag + eps))
    return min(d_small, d_outer, d_lines)


def _check_geometry(a: Sequence, z: complex, eps: float, r: float) -> None:
    if not (eps < abs(z) < r):
        raise GeometryError(f"need eps < |z| < r, got eps={eps}, |z|={abs(z)}, r={r}")
    _check_cut(z, 0.0, "cauchy_eval")
    if z.real < 0.0 and abs(z.imag) <= eps:
        raise GeometryError("z lies inside the cut indentation strip |im z| <= eps")
    d = _contour_distance(z, eps, r)
    if not d > 0.5 * eps:
        raise GeometryError(f"z too close to the contour: distance {d} <= eps/2")


def cauchy_eval(a: Sequence, z, spec: ContourSpec | None = None) -> ContourBreakdown:
    """Cauchy-integral reconstruction of the rebased excess at ``z``.

    Evaluates the four keyhole pieces and their sum; the total converges to
    ``gmean_excess_shifted(a, z)`` as ``eps -> 0`` and ``r -> inf``.

    Raises:
        GeometryError: when ``z`` is outside the annulus ``eps < |z| < r``,
            on the cut, inside the indentation strip, or within ``eps/2`` of
            the contour.
        QuadratureFailure: when an arc or line integral does not converge.
    """
    z = _check_scalar_point(z)
    if spec is None:
        spec = ContourSpec()
    _check_geometry(a, z, spec.eps, spec.r)
    small = small_circle_term(a, z, spec.eps)
    outer = big_circle_term(a, z, spec.r)
    upper, lower = _line_terms(a, z, spec.eps, spec.r)
    total = small + outer + upper + lower
    return ContourBreakdown(small, outer, upper, lower, total)


def line_collapse_check(a: Sequence, z, eps: float, r: float) -> tuple[complex, complex]:
    """The two line pieces against their collapsed cut-limit form.

    Returns ``(upper + lower, -R_shifted(z))``, where ``R_shifted`` is the
    remainder transform of the rebased entries computed by
    :mod:`gmeanrep.representation` to its one accuracy target.  The pair agrees to
    ``O(eps**(1/n))`` plus discretization error.

    Raises:
        GeometryError: as :func:`cauchy_eval`, and when ``r <= max(a)``, so
            the lines cover every rebased segment.
        QuadratureFailure: when a line integral or a segment integral of the
            remainder does not converge.
    """
    z = _check_scalar_point(z)
    ContourSpec(eps=eps, r=r)  # validates 0 < eps < r
    _check_geometry(a, z, eps, r)
    if not r > a.max:
        raise GeometryError(f"need r > max(a), got r={r}, max={a.max}")
    upper, lower = _line_terms(a, z, eps, r)
    collapsed = -representation._remainder_raw(a.shifted(), z, 1.0).value
    return upper + lower, collapsed
