"""Direct evaluation of the principal branch of the shifted geometric mean.

The central object is ``principal_gmean(a, z)``, the single-valued analytic
determination of ``[prod_k (a_k + z)]**(1/n)`` on the complex plane cut along
``(-inf, -min(a)]``.  It is defined factor-wise, as the exponential of the
average of principal logarithms: each factor's own cut lies inside the common
ray, the averaged argument stays in ``(-pi, pi)``, and real positive inputs
stay exactly real.

All evaluations here are closed-form; the integral-representation counterparts
live in :mod:`gmeanrep.representation`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np


class CutViolation(ValueError):
    """Raised when an evaluation point lies on the branch cut."""


@dataclass(frozen=True)
class Sequence:
    """A positive, ascending-sorted tuple of reals.

    Inputs are sorted on construction; the original order is not retained
    (the means are symmetric and the segment machinery requires ascending
    order).  Entries must be finite and strictly positive; ``n >= 1``.
    """

    values: tuple[float, ...]

    def __init__(self, values: Iterable[float]):
        vals = tuple(sorted(float(v) for v in values))
        if not vals:
            raise ValueError("sequence must contain at least one entry")
        for v in vals:
            if not math.isfinite(v) or v <= 0.0:
                raise ValueError(f"sequence entries must be finite and > 0, got {v!r}")
        object.__setattr__(self, "values", vals)

    @property
    def n(self) -> int:
        return len(self.values)

    @property
    def min(self) -> float:
        return self.values[0]

    @property
    def max(self) -> float:
        return self.values[-1]

    def shifted(self) -> tuple[float, ...]:
        """Entries rebased so the minimum sits at zero: ``(0, a2-a1, ...)``."""
        a1 = self.values[0]
        return tuple(v - a1 for v in self.values)

    def __iter__(self):
        return iter(self.values)

    def __len__(self) -> int:
        return len(self.values)


def _check_point(z) -> complex | np.ndarray:
    """Coerce to a complex scalar or 1-D array; reject other shapes and
    non-finite components."""
    if isinstance(z, np.ndarray) and z.ndim > 0:
        if z.ndim != 1:
            raise ValueError(f"expected a scalar or a 1-D array of points, got shape {z.shape}")
        w = np.asarray(z, dtype=complex)
        if not np.isfinite(w).all():
            raise ValueError("evaluation points must have finite components")
        return w
    w = complex(z)
    if not (math.isfinite(w.real) and math.isfinite(w.imag)):
        raise ValueError(f"evaluation point must have finite components, got {w!r}")
    return w


def _check_cut(z, cut_end: float, label: str) -> None:
    """Reject points on the ray ``(-inf, cut_end]``."""
    if isinstance(z, np.ndarray):
        on_cut = (z.imag == 0.0) & (z.real <= cut_end)
        if on_cut.any():
            raise CutViolation(f"point on the branch cut (-inf, {cut_end}] of {label}")
    elif z.imag == 0.0 and z.real <= cut_end:
        raise CutViolation(f"z={z} lies on the branch cut (-inf, {cut_end}] of {label}")


def _gmean_raw(values: tuple[float, ...], z):
    """exp of the average of principal logs of ``v + z`` over the tuple.

    Scalar in, scalar out; 1-D array in, 1-D array out.  A scalar is the
    length-one array, and each point's logs are summed along the contiguous
    last axis, so a point's value is bit for bit the same in any batch.  No
    cut checking; callers validate first.
    """
    points = z if isinstance(z, np.ndarray) else np.array([z])
    g = np.exp(np.add.reduce(np.log(points[:, None] + values), axis=-1) / len(values))
    return g if isinstance(z, np.ndarray) else complex(g[0])


def arithmetic_mean(a: Sequence) -> float:
    """Average of the entries; lies in [min(a), max(a)]."""
    return math.fsum(a.values) / a.n


def geometric_mean(a: Sequence) -> float:
    """n-th root of the product, computed in log space for overflow safety."""
    return math.exp(math.fsum(math.log(v) for v in a.values) / a.n)


def principal_gmean(a: Sequence, z):
    """Principal branch of ``[prod_k (a_k + z)]**(1/n)``.

    ``z`` may be a complex scalar or a 1-D ndarray; the return type matches,
    and each point's value is bit for bit the same in any batch.
    Valid for ``z`` off the cut ``(-inf, -min(a)]``.  For real ``z > -min(a)``
    the result is real positive (the factor logs have exactly zero imaginary
    part) and equals the geometric mean of the shifted entries.

    Raises:
        CutViolation: if any point has ``im == 0`` and ``re <= -min(a)``.
    """
    z = _check_point(z)
    _check_cut(z, -a.values[0], "principal_gmean")
    return _gmean_raw(a.values, z)


def gmean_excess(a: Sequence, z):
    """``principal_gmean(a, z) - z``: the excess of the shifted geometric mean
    over the shift.  Tends to the arithmetic mean of ``a`` as ``z -> inf``.
    """
    z = _check_point(z)
    _check_cut(z, -a.values[0], "gmean_excess")
    return _gmean_raw(a.values, z) - z


def gmean_excess_shifted(a: Sequence, z):
    """Excess for the sequence rebased at its minimum: ``G(a - a1 + z) - z``.

    The rebased sequence starts at zero, so the branch cut is ``(-inf, 0]``.
    Satisfies ``gmean_excess_shifted(a, z) == gmean_excess(a, z - a1) - a1``
    up to rounding.

    Raises:
        CutViolation: if any point has ``im == 0`` and ``re <= 0``.
    """
    z = _check_point(z)
    _check_cut(z, 0.0, "gmean_excess_shifted")
    return _gmean_raw(a.shifted(), z) - z
