"""The integral representation: remainder transform and derived quantities.

The remainder is a Stieltjes transform of the nonnegative segment densities,

    R(z) = (1/pi) * sum_l sin(l*pi/n) * int_{a_l}^{a_{l+1}} density(t)/(t+z) dt,

and the principal geometric mean is recovered as ``A + z - R(z)`` where ``A``
is the arithmetic mean.  At ``z = 0`` the remainder is exactly the
arithmetic-minus-geometric gap, which the nonnegative integrand keeps >= 0.

``z = 0`` needs no special handling: the integration variable stays >= min(a)
> 0, so ``1/(t+z)`` is bounded for every ``re(z) > -min(a)``.  A segment that
contains the pole projection ``-re(z)`` is split there once (see
:func:`gmeanrep.quadrature.integrate_near_pole`).  Within 1e-6 of the loaded
cut the error estimate grows by ``eps / distance`` times the value, flagging
the point; closer than about 1e-8 calls raise ``QuadratureFailure``, and below
about 1e-20 they may return garbage flagged only by that estimate (README
"Numerical notes").
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .boundary import _segments_raw
from .means import Sequence, _check_cut, _check_point
from .quadrature import QuadratureFailure, QuadratureSpec, integrate_near_pole

# below this distance results are flagged ill-conditioned
_ILL_CONDITIONED = 1e-6


@dataclass(frozen=True)
class RemainderValue:
    """Remainder transform value with per-segment diagnostics.

    ``value`` is the sum of the per-segment contributions (reduced in
    ascending segment order); ``per_segment`` holds
    ``(segment_index, contribution, error_estimate)`` triples.
    """

    value: complex
    per_segment: tuple[tuple[int, complex, float], ...]
    total_error_estimate: float

    def to_dict(self) -> dict:
        return {
            "value": {"re": self.value.real, "im": self.value.imag},
            "per_segment": [
                {"segment": idx, "re": c.real, "im": c.imag, "error_estimate": e}
                for idx, c, e in self.per_segment
            ],
            "total_error_estimate": self.total_error_estimate,
        }


def _loaded_cut_distance(values: tuple[float, ...], z: complex) -> float:
    """Distance from z to the loaded cut portion [-max(values), -min(values)]."""
    lo, hi = -values[-1], -values[0]
    x = min(max(z.real, lo), hi)
    return math.hypot(z.real - x, z.imag)


def _remainder_raw(
    values: tuple[float, ...], z: complex, spec: QuadratureSpec, density_scale: float
) -> RemainderValue:
    segs = _segments_raw(values)
    pole = -z.real
    per = []
    failed = []
    for seg in segs:
        def f(t, seg=seg):
            return seg.density(t) * (density_scale / (t + z))

        res = integrate_near_pole(f, seg.lo, seg.hi, pole, spec)
        per.append((seg.index, seg.weight * complex(res.value), seg.weight * res.error_estimate))
        if not res.converged:
            failed.append(seg.index)
    value = sum((c for _, c, _ in per), 0j)
    total_err = float(sum(e for _, _, e in per))
    if segs:
        dist = _loaded_cut_distance(values, z)
        if dist < _ILL_CONDITIONED:
            # cancellation in 1/(t+z) grows like 1/dist; surface it to callers
            total_err += np.finfo(float).eps / max(dist, 1e-300) * sum(
                abs(c) for _, c, _ in per
            )
    result = RemainderValue(value, tuple(per), total_err)
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
