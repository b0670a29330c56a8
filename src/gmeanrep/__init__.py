"""Integral representation of the complex geometric mean, with verification.

The principal branch of the shifted geometric mean ``[prod (a_k + z)]**(1/n)``
admits a Stieltjes-type representation: arithmetic mean plus shift minus an
integral of nonnegative densities over the gaps between the sorted entries.
This package evaluates both sides, exposes the branch-cut boundary data and
the quadrature engine behind the integral side, reconstructs the identity
through an explicit keyhole-contour Cauchy integral, and ships a seeded
verification harness plus CLI around the whole of it.
"""

from .boundary import (
    DomainError,
    SegmentDensity,
    boundary_imag_limit,
    boundary_imag_numeric,
    density_moment,
    density_samples,
    segments,
)
from .contour import (
    ContourBreakdown,
    ContourSpec,
    GeometryError,
    big_circle_term,
    cauchy_eval,
    line_collapse_check,
    small_circle_term,
)
from .means import (
    CutViolation,
    Sequence,
    arithmetic_mean,
    geometric_mean,
    gmean_excess,
    gmean_excess_shifted,
    principal_gmean,
)
from .quadrature import (
    QuadratureFailure,
    QuadratureResult,
    QuadratureSpec,
    integrate,
    integrate_near_pole,
    kronrod_panel,
)
from .representation import (
    RemainderValue,
    am_gm_gap,
    gmean_via_representation,
    remainder,
    shifted_excess_via_representation,
)
from .verify import VerifyReport, run_suites

__version__ = "0.1.0"

__all__ = [
    "CutViolation",
    "DomainError",
    "GeometryError",
    "QuadratureFailure",
    "Sequence",
    "SegmentDensity",
    "QuadratureSpec",
    "QuadratureResult",
    "RemainderValue",
    "ContourSpec",
    "ContourBreakdown",
    "VerifyReport",
    "arithmetic_mean",
    "geometric_mean",
    "principal_gmean",
    "gmean_excess",
    "gmean_excess_shifted",
    "segments",
    "boundary_imag_limit",
    "boundary_imag_numeric",
    "density_moment",
    "density_samples",
    "integrate",
    "integrate_near_pole",
    "kronrod_panel",
    "remainder",
    "gmean_via_representation",
    "shifted_excess_via_representation",
    "am_gm_gap",
    "cauchy_eval",
    "small_circle_term",
    "big_circle_term",
    "line_collapse_check",
    "run_suites",
    "__version__",
]
