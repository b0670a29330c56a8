"""Batch verification suites: every library invariant, run over seeded corpora.

Each invariant's contracts and tolerances are written once, in its suite, and
every suite integrates to the library's one accuracy target, the default
``QuadratureSpec()``, so no option moves a bound.  The suites that evaluate
the remainder at several points of one sequence (representation-equivalence,
complete-monotonicity, monotone-decrease) pass them in one array call; each
point's result is bit for bit its scalar call's.  :func:`run_suite` runs one
suite on a given generator and case count (the tests call it);
:func:`run_suites`, behind ``gmeanrep verify``, runs all of them on
per-suite substreams of the master seed, with the case caps of ``_SUITES``,
so reports are byte-identical across runs.  ``perturb_density`` is fault
injection: it must break the representation-equivalence suite.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from math import comb
from typing import Callable

import numpy as np

from . import boundary, contour, representation
from .means import (
    Sequence,
    arithmetic_mean,
    geometric_mean,
    gmean_excess,
    gmean_excess_shifted,
    principal_gmean,
)
from .quadrature import QuadratureSpec, integrate, kronrod_panel

_EPS = float(np.finfo(float).eps)

# the adaptive engine's default, at which the quad suites test the engine;
# mass-identity's bound derives from representation._SPEC, the same numbers
_QUAD = QuadratureSpec()
# representation-equivalence points per sequence, and their least distance
# to the cut
_Z_GRID_COUNT = 40
_Z_GRID_MIN_DIST = 0.05


@dataclass
class SuiteResult:
    suite: str
    cases_run: int
    failures: list = field(default_factory=list)
    max_error: float = 0.0
    wall_time: float = 0.0

    @property
    def passed(self) -> bool:
        return not self.failures

    def record(self, err: float) -> None:
        if err > self.max_error:
            self.max_error = float(err)

    def fail(self, case, contract: str, observed) -> None:
        self.failures.append({"case": str(case), "contract": contract, "observed": str(observed)})

    def to_dict(self) -> dict:
        # wall_time deliberately left out: serialized reports are byte-identical
        return {
            "suite": self.suite,
            "cases_run": self.cases_run,
            "max_error": self.max_error,
            "failures": self.failures,
        }


@dataclass
class VerifyReport:
    seed: int
    cases: int
    perturb_density: float
    suites: list[SuiteResult]

    @property
    def passed(self) -> bool:
        return all(s.passed for s in self.suites)

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "cases": self.cases,
            "perturb_density": self.perturb_density,
            "passed": self.passed,
            "suites": [s.to_dict() for s in self.suites],
        }


def random_sequence(rng: np.random.Generator) -> Sequence:
    """Standard corpus draw: n in 1..8, entries log-uniform in [0.1, 10],
    10% of draws forced to contain a duplicate, 5% forced constant."""
    n = int(rng.integers(1, 9))
    vals = 10.0 ** rng.uniform(-1.0, 1.0, n)
    roll = float(rng.uniform())
    if roll < 0.05:
        vals[:] = vals[0]
    elif roll < 0.15 and n >= 2:
        i = int(rng.integers(0, n))
        j = int(rng.integers(0, n))
        vals[j] = vals[i]
    return Sequence(vals)


def cut_distance(a: Sequence, z: complex) -> float:
    """Distance from z to the branch cut ``(-inf, -min(a)]``."""
    z = complex(z)
    if z.real <= -a.min:
        return abs(z.imag)
    return math.hypot(z.real + a.min, z.imag)


def representation_z_grid(a: Sequence) -> list[complex]:
    """Deterministic grid of ``_Z_GRID_COUNT`` evaluation points at distance
    >= ``_Z_GRID_MIN_DIST`` from the cut: real points right of the cut,
    rings around the origin, and points hugging the loaded cut portion from
    above and below."""
    out: list[complex] = []
    for d in (0.05, 0.1, 0.5, 1.0, 2.0, 5.0, 10.0, 50.0, 1000.0):
        out.append(complex(-a.min + d, 0.0))
    for rad in (0.1, 0.5, 1.0, 2.5, 6.0, 12.0):
        for k in range(10):
            th = 2.0 * math.pi * (k + 0.5) / 10.0
            out.append(rad * complex(math.cos(th), math.sin(th)))
    for x in np.linspace(-a.max, -a.min, 5):
        for y in (0.05, -0.05, 0.4, -0.4):
            out.append(complex(float(x), y))
    return [z for z in out if cut_distance(a, z) >= _Z_GRID_MIN_DIST][:_Z_GRID_COUNT]


def stable_large_z_deficit(a: Sequence, big: float) -> float:
    """``big * (A - gmean_excess(a, big))`` for large real ``big``, evaluated
    through log1p/expm1 so the O(1/big) deficit survives cancellation.  Used
    as the quadrature-free oracle for the density mass."""
    vals = np.asarray(a.values)
    excess = big * math.expm1(float(np.log1p(vals / big).mean()))
    return big * (arithmetic_mean(a) - excess)


def _off_cut_point(rng: np.random.Generator, a: Sequence, min_dist: float = 1e-3) -> complex:
    for _ in range(64):
        z = complex(rng.uniform(-2 * a.max, 2 * a.max), rng.uniform(-5.0, 5.0))
        if cut_distance(a, z) >= min_dist:
            return z
    return complex(a.max, 1.0)


# ---------------------------------------------------------------------------
# suites


def _suite_branch_consistency(rng, cases, ctx, res: SuiteResult):
    for _ in range(cases):
        a = random_sequence(rng)
        z = _off_cut_point(rng, a)
        g = principal_gmean(a, z)
        lhs = g**a.n
        rhs = complex(np.prod([v + z for v in a.values]))
        err = abs(lhs - rhs) / max(abs(rhs), 1e-300)
        res.record(err)
        if err > 1e-12:
            res.fail((a.values, z), "G**n == prod(a_k + z) to 1e-12 relative", err)


def _suite_real_positivity(rng, cases, ctx, res: SuiteResult):
    for _ in range(cases):
        a = random_sequence(rng)
        z = -a.min + 10.0 ** rng.uniform(-2.0, 3.0)
        g = principal_gmean(a, complex(z, 0.0))
        res.record(abs(g.imag))
        if abs(g.imag) > 1e-14 or not g.real > 0.0:
            res.fail((a.values, z), "real z > -min(a): im == 0 within 1e-14, re > 0", g)


def _suite_schwarz_reflection(rng, cases, ctx, res: SuiteResult):
    for _ in range(cases):
        a = random_sequence(rng)
        z = _off_cut_point(rng, a, min_dist=1e-2)
        # the rebased cut is (-inf, 0]; keep the point clearly off it
        if z.real <= 0.0 and abs(z.imag) < 1e-2:
            z = complex(z.real, math.copysign(0.5, z.imag if z.imag else 1.0))
        h = gmean_excess_shifted(a, z)
        hc = gmean_excess_shifted(a, z.conjugate())
        err = abs(hc - h.conjugate()) / max(abs(h), 1.0)
        res.record(err)
        if err > 1e-14:
            res.fail((a.values, z), "h(conj z) == conj(h(z)) within 1e-14 relative", err)


def _suite_small_z_vanishing(rng, cases, ctx, res: SuiteResult):
    for _ in range(cases):
        a = random_sequence(rng)
        vals = [abs(z * gmean_excess_shifted(a, complex(z, 0.0))) for z in (1e-2, 1e-4, 1e-6)]
        res.record(vals[-1])
        ok = (vals[0] > vals[1] > vals[2]) or all(v <= 1e-18 for v in vals)
        if not ok:
            res.fail(a.values, "|z*h(z)| decreasing on z in {1e-2,1e-4,1e-6}", vals)


def _suite_homogeneity(rng, cases, ctx, res: SuiteResult):
    for _ in range(cases):
        a = random_sequence(rng)
        z = _off_cut_point(rng, a)
        lam = 10.0 ** rng.uniform(-2.0, 2.0)
        lhs = principal_gmean(Sequence([lam * v for v in a.values]), lam * z)
        rhs = lam * principal_gmean(a, z)
        err = abs(lhs - rhs) / max(abs(rhs), 1e-300)
        res.record(err)
        if err > 1e-12:
            res.fail((a.values, z, lam), "G(lam*a, lam*z) == lam*G(a,z) to 1e-12 relative", err)


def _suite_permutation_invariance(rng, cases, ctx, res: SuiteResult):
    for _ in range(cases):
        a = random_sequence(rng)
        shuffled = list(a.values)
        rng.shuffle(shuffled)
        b = Sequence(shuffled)
        if arithmetic_mean(a) != arithmetic_mean(b) or geometric_mean(a) != geometric_mean(b):
            res.fail(a.values, "means invariant under input reordering", shuffled)


def _sample_t_away_from_junctions(rng, a: Sequence, count: int) -> list[float]:
    """Up to ``count`` values of ``t``, uniform on ``[1e-2, max(a) - min(a) +
    1]`` and at least 1e-2 from every entry of ``a - min(a)``, out of at most
    ``40 * count`` draws.  The draws come in blocks of the values still
    needed, so the count is reached only at the end of a block and the
    generator is left as one draw at a time would leave it."""
    shifted = a.shifted()
    span = shifted[-1] + 1.0
    out: list[float] = []
    drawn = 0
    while len(out) < count and drawn < 40 * count:
        block = rng.uniform(1e-2, span, min(count - len(out), 40 * count - drawn))
        drawn += block.size
        away = np.all(np.abs(block[:, None] - np.array(shifted)) >= 1e-2, axis=1)
        out += block[away].tolist()
    return out


def _suite_boundary_limit(rng, cases, ctx, res: SuiteResult):
    improved = 0
    total = 0
    for _ in range(cases):
        a = random_sequence(rng)
        ts = np.array(_sample_t_away_from_junctions(rng, a, 50))
        closed = boundary.boundary_imag_limit(a, ts)
        err6 = np.abs(boundary.boundary_imag_numeric(a, ts, 1e-6) - closed)
        err8 = np.abs(boundary.boundary_imag_numeric(a, ts, 1e-8) - closed)
        res.record(err6.max(initial=0.0))
        total += ts.size
        improved += int(np.count_nonzero((err8 < err6) | (err8 <= 1e-12)))
        bad = err6 > 1e-3
        for t, err in zip(ts[bad].tolist(), err6[bad].tolist()):
            res.fail((a.values, t), "|numeric(1e-6) - closed| <= 1e-3", err)
    if total and improved / total < 0.95:
        res.fail("aggregate", "error at eps=1e-8 smaller in >= 95% of pairs", improved / total)


def _suite_boundary_endpoints(rng, cases, ctx, res: SuiteResult):
    for _ in range(cases):
        a = random_sequence(rng)
        for seg in boundary.segments(a):
            lo_v = seg.density(np.array([seg.lo]))[0]
            hi_v = seg.density(np.array([seg.hi]))[0]
            if lo_v != 0.0 or hi_v != 0.0:
                res.fail((a.values, seg.index), "density vanishes exactly at endpoints", (lo_v, hi_v))


def _suite_boundary_nonnegative(rng, cases, ctx, res: SuiteResult):
    for _ in range(cases):
        a = random_sequence(rng)
        ts = rng.uniform(1e-6, a.max - a.min + 2.0, 50)
        vs = boundary.boundary_imag_limit(a, ts)
        bad = vs < 0.0
        for t, v in zip(ts[bad].tolist(), vs[bad].tolist()):
            res.fail((a.values, t), "closed-form boundary limit >= 0", v)


def _suite_boundary_scaling(rng, cases, ctx, res: SuiteResult):
    for _ in range(cases):
        a = random_sequence(rng)
        lam = 10.0 ** rng.uniform(-2.0, 2.0)
        b = Sequence([lam * v for v in a.values])
        sa, sb = boundary.segments(a), boundary.segments(b)
        if len(sa) != len(sb):
            res.fail((a.values, lam), "segment count invariant under scaling", (len(sa), len(sb)))
            continue
        for ga, gb in zip(sa, sb):
            err = max(abs(gb.lo - lam * ga.lo), abs(gb.hi - lam * ga.hi)) / (lam * a.max)
            res.record(err)
            if err > 1e-12 or gb.index != ga.index:
                res.fail((a.values, lam), "segments scale covariantly", (ga, gb))
        ts = np.array(_sample_t_away_from_junctions(rng, a, 10))
        lhs = boundary.boundary_imag_limit(b, lam * ts)
        rhs = lam * boundary.boundary_imag_limit(a, ts)
        errs = np.where(rhs != 0.0, np.abs(lhs - rhs) / np.maximum(np.abs(rhs), 1e-300), np.abs(lhs))
        res.record(errs.max(initial=0.0))
        bad = errs > 1e-12
        for t, err in zip(ts[bad].tolist(), errs[bad].tolist()):
            res.fail((a.values, lam, t), "boundary limit scales covariantly to 1e-12", err)


def _suite_mass_identity(rng, cases, ctx, res: SuiteResult):
    for _ in range(cases):
        a = random_sequence(rng)
        m0 = representation.density_moment(a, 0)
        am = arithmetic_mean(a)
        var_half = (math.fsum(v * v for v in a.values) / a.n - am * am) / 2.0
        tol = 10.0 * max(representation._SPEC.abs_tol, representation._SPEC.rel_tol * abs(m0)) + 1e-13
        err = abs(m0 - var_half)
        res.record(err)
        if err > tol:
            res.fail(a.values, "density mass == Var(a)/2 within 10x quad tolerance", err)
        # quadrature-free oracle: Richardson-extrapolated large-z deficit
        v1 = stable_large_z_deficit(a, 1e6)
        v2 = stable_large_z_deficit(a, 1e7)
        extrap = (1e7 * v2 - 1e6 * v1) / (1e7 - 1e6)
        err2 = abs(extrap - m0)
        if err2 > max(1e-4 * abs(m0), 1e-8):
            res.fail(a.values, "mass matches extrapolated large-z deficit", err2)


def _suite_quad_polynomial_exactness(rng, cases, ctx, res: SuiteResult):
    for deg in range(23):
        exact = 1.0 / (deg + 1)
        k, g, _ = kronrod_panel(lambda t, d=deg: t**d, 0.0, 1.0)
        err = abs(k - exact) / exact
        res.record(err)
        if err > 1e-13:
            res.fail(deg, "Kronrod panel exact on [0,1] to 1e-13 relative", err)
        if deg <= 13:
            gerr = abs(g - exact) / exact
            res.record(gerr)
            if gerr > 1e-13:
                res.fail(deg, "embedded Gauss rule exact through degree 13", gerr)
    res.cases_run = 23


def _random_segment_integrand(rng):
    while True:
        a = random_sequence(rng)
        segs = boundary.segments(a)
        if segs:
            break
    seg = segs[int(rng.integers(0, len(segs)))]
    kind = int(rng.integers(0, 3))
    if kind == 0:
        f = seg.density
    elif kind == 1:
        m = int(rng.integers(1, 4))
        f = lambda t, seg=seg, m=m: seg.density(t) * t**m
    else:
        z = complex(rng.uniform(-a.max, a.max), float(rng.uniform(0.1, 2.0)))
        f = lambda t, seg=seg, z=z: seg.density(t) / (t + z)
    return f, seg


def _suite_quad_error_honesty(rng, cases, ctx, res: SuiteResult):
    tight = QuadratureSpec(
        abs_tol=_QUAD.abs_tol / 10.0,
        rel_tol=_QUAD.rel_tol / 10.0,
        max_subdivisions=_QUAD.max_subdivisions * 4,
    )
    honest = 0
    for _ in range(cases):
        f, seg = _random_segment_integrand(rng)
        est = integrate(f, seg.lo, seg.hi, _QUAD)
        ref = integrate(f, seg.lo, seg.hi, tight)
        true_err = abs(est.value - ref.value)
        if true_err == 0.0 or true_err <= 10.0 * est.error_estimate:
            honest += 1
        res.record(true_err)
    if honest / cases < 0.95:
        res.fail("aggregate", "true error <= 10x estimate in >= 95% of integrands", honest / cases)


def _suite_quad_additivity(rng, cases, ctx, res: SuiteResult):
    for _ in range(cases):
        f, seg = _random_segment_integrand(rng)
        m = float(rng.uniform(seg.lo, seg.hi))
        whole = integrate(f, seg.lo, seg.hi, _QUAD)
        left = integrate(f, seg.lo, m, _QUAD)
        right = integrate(f, m, seg.hi, _QUAD)
        gap = abs(whole.value - left.value - right.value)
        budget = whole.error_estimate + left.error_estimate + right.error_estimate + 1e-13
        res.record(gap)
        if gap > budget:
            res.fail((seg.lo, m, seg.hi), "integral additive within combined estimates", gap)


def _suite_quad_affine_covariance(rng, cases, ctx, res: SuiteResult):
    for _ in range(cases):
        f, seg = _random_segment_integrand(rng)
        alpha = 10.0 ** rng.uniform(-1.0, 1.0)
        beta = float(rng.uniform(-2.0, 2.0))
        direct = integrate(f, seg.lo, seg.hi, _QUAD)
        mapped = integrate(
            lambda s, f=f: f(alpha * s + beta) * alpha,
            (seg.lo - beta) / alpha,
            (seg.hi - beta) / alpha,
            _QUAD,
        )
        gap = abs(direct.value - mapped.value)
        budget = direct.error_estimate + mapped.error_estimate + 1e-12
        res.record(gap)
        if gap > budget:
            res.fail((seg.lo, seg.hi, alpha, beta), "affine substitution preserves value", gap)


def _suite_representation_equivalence(rng, cases, ctx, res: SuiteResult):
    scale = 1.0 + ctx["perturb_density"]
    for _ in range(cases):
        a = ctx["fixed"] or random_sequence(rng)
        zs = np.array(representation_z_grid(a))
        vias = representation.gmean_via_representation(a, zs, density_scale=scale)
        for z, via, direct in zip(zs.tolist(), vias.tolist(), principal_gmean(a, zs).tolist()):
            err = abs(via - direct)
            res.record(err)
            if err > max(1e-8, 1e-8 * abs(direct)):
                res.fail((a.values, z), "representation matches direct evaluation to 1e-8", err)


def _suite_am_gm_gap(rng, cases, ctx, res: SuiteResult):
    for _ in range(cases):
        a = ctx["fixed"] or random_sequence(rng)
        gap = representation.am_gm_gap(a)
        direct = arithmetic_mean(a) - geometric_mean(a)
        res.record(abs(gap - direct))
        if gap < -1e-10:
            res.fail(a.values, "gap >= -1e-10", gap)
        if a.max == a.min and abs(gap) > 1e-9:
            res.fail(a.values, "gap == 0 +- 1e-9 for constant sequences", gap)
        if a.max / a.min >= 1.1 and gap <= 1e-6:
            res.fail(a.values, "gap > 1e-6 when max/min >= 1.1", gap)
        if abs(gap - direct) > 1e-9:
            res.fail(a.values, "representation gap matches direct A - G within 1e-9", gap - direct)


def _suite_herglotz_positivity(rng, cases, ctx, res: SuiteResult):
    for _ in range(cases):
        a = random_sequence(rng)
        for _ in range(4):
            z = complex(rng.uniform(-20.0, 20.0), 10.0 ** rng.uniform(-3.0, 1.5))
            h = gmean_excess_shifted(a, z)
            res.record(max(0.0, -h.imag))
            if h.imag < -1e-10:
                res.fail((a.values, z), "im(h) >= -1e-10 in the upper half-plane", h.imag)


def _suite_complete_monotonicity(rng, cases, ctx, res: SuiteResult):
    step = 0.1
    for _ in range(cases):
        a = random_sequence(rng)
        starts = [-a.min + float(delta) for delta in np.geomspace(0.1, a.min + 1e3, 8)]
        rems = representation.remainder(a, np.array([z0 + k * step for z0 in starts for k in range(5)]))
        for i, z0 in enumerate(starts):
            vals = [r.value.real for r in rems[5 * i : 5 * i + 5]]
            for m in range(5):
                diff = math.fsum((-1.0) ** (m - j) * comb(m, j) * vals[j] for j in range(m + 1))
                signed = (-1.0) ** m * diff
                res.record(max(0.0, -signed))
                if signed < -1e-8:
                    res.fail((a.values, z0, m), "(-1)^m forward differences >= -1e-8", signed)


def _suite_monotone_decrease(rng, cases, ctx, res: SuiteResult):
    for _ in range(cases):
        a = random_sequence(rng)
        if a.max == a.min:
            continue
        z1 = -a.min + 10.0 ** rng.uniform(-1.0, 2.0)
        z2 = z1 + 10.0 ** rng.uniform(-1.0, 1.0)
        r1, r2 = (r.value.real for r in representation.remainder(a, np.array([z1, z2])))
        res.record(max(0.0, r2 - r1))
        if not r2 < r1 + 1e-10:
            res.fail((a.values, z1, z2), "remainder strictly decreasing on the real axis", (r1, r2))


def _suite_large_z_decay(rng, cases, ctx, res: SuiteResult):
    for _ in range(cases):
        a = random_sequence(rng)
        am = arithmetic_mean(a)
        m0 = representation.density_moment(a, 0)
        for big in (1e3, 1e4, 1e5):
            dev = abs(gmean_excess(a, complex(big, 0.0)) - am)
            bound = m0 / big * 1.01 + 64.0 * _EPS * (big + am)
            if dev > bound:
                res.fail((a.values, big), "|excess(R) - A| <= mass/R * 1.01 (+fp floor)", dev)
        scaled = stable_large_z_deficit(a, 1e5)
        err = abs(scaled - m0)
        res.record(err)
        if err > max(0.01 * abs(m0), 1e-9):
            res.fail(a.values, "R*(A - excess(R)) at R=1e5 matches mass within 1%", err)


def _contour_case(rng):
    while True:
        a = random_sequence(rng)
        for _ in range(64):
            rad = 10.0 ** rng.uniform(-0.3, 1.0)
            th = float(rng.uniform(-2.6, 2.6))
            z = rad * complex(math.cos(th), math.sin(th))
            if z.real > 0.0 or abs(z.imag) > 0.2:
                return a, z


def _suite_contour_decomposition(rng, cases, ctx, res: SuiteResult):
    for _ in range(cases):
        a, z = _contour_case(rng)
        bd = contour.cauchy_eval(a, z)
        gap = abs(bd.total - (bd.small_arc + bd.outer_arc + bd.upper_line + bd.lower_line))
        res.record(gap)
        if gap != 0.0:
            res.fail((a.values, z), "total is exactly the sum of the four pieces", gap)


def _suite_contour_reconstruction(rng, cases, ctx, res: SuiteResult):
    base = contour.ContourSpec()
    fine = contour.ContourSpec(eps=base.eps / 2.0, r=base.r * 2.0)
    max_base = 0.0
    max_fine = 0.0
    for _ in range(cases):
        a, z = _contour_case(rng)
        target = gmean_excess_shifted(a, z)
        err_b = abs(contour.cauchy_eval(a, z, base).total - target)
        err_f = abs(contour.cauchy_eval(a, z, fine).total - target)
        max_base = max(max_base, err_b)
        max_fine = max(max_fine, err_f)
        res.record(err_b)
        if err_b > 1e-3:
            res.fail((a.values, z), "contour total within 1e-3 of the excess at defaults", err_b)
    if cases and not max_fine < max_base:
        res.fail("aggregate", "halving eps and doubling r strictly reduces max error", (max_base, max_fine))


def _suite_contour_line_collapse(rng, cases, ctx, res: SuiteResult):
    for _ in range(cases):
        a, z = _contour_case(rng)
        d4 = abs(np.subtract(*contour.line_collapse_check(a, z, 1e-4, 1e3)))
        d6 = abs(np.subtract(*contour.line_collapse_check(a, z, 1e-6, 1e3)))
        res.record(d6)
        if d4 > 1e-3 or d6 > 1e-3:
            res.fail((a.values, z), "line sum within 1e-3 of collapsed cut integral", (d4, d6))
        if not (d6 < d4 or d6 <= 1e-9):
            res.fail((a.values, z), "collapse discrepancy decreases with eps", (d4, d6))


def _suite_contour_limit_attribution(rng, cases, ctx, res: SuiteResult):
    for _ in range(cases):
        a, z = _contour_case(rng)
        shifted_mean = arithmetic_mean(a) - a.min
        arc = contour.big_circle_term(a, z, 1e3)
        err_arc = abs(arc - shifted_mean)
        res.record(err_arc)
        if err_arc > 1e-6:
            res.fail((a.values, z), "outer arc reproduces the rebased arithmetic mean", err_arc)
        lines, collapsed = contour.line_collapse_check(a, z, 1e-4, 1e3)
        if abs(lines - collapsed) > 1e-3:
            res.fail((a.values, z), "lines reproduce the cut-density integral within 1e-3", abs(lines - collapsed))


def _suite_small_circle_vanishing(rng, cases, ctx, res: SuiteResult):
    for _ in range(cases):
        a, z = _contour_case(rng)
        mags = [abs(contour.small_circle_term(a, z, e)) for e in (1e-2, 1e-3, 1e-4)]
        res.record(mags[-1])
        ok = (mags[0] > mags[1] > mags[2]) or all(m <= 1e-14 for m in mags)
        if not ok:
            res.fail((a.values, z), "small-arc magnitude strictly decreasing in eps", mags)


# name -> (callable, case cap under run_suites; None = full requested count)
_SUITES: dict[str, tuple[Callable, int | None]] = {
    "branch-consistency": (_suite_branch_consistency, None),
    "real-positivity": (_suite_real_positivity, None),
    "schwarz-reflection": (_suite_schwarz_reflection, None),
    "small-z-vanishing": (_suite_small_z_vanishing, 100),
    "homogeneity": (_suite_homogeneity, None),
    "permutation-invariance": (_suite_permutation_invariance, None),
    "boundary-limit": (_suite_boundary_limit, 50),
    "boundary-endpoints": (_suite_boundary_endpoints, 100),
    "boundary-nonnegative": (_suite_boundary_nonnegative, 100),
    "boundary-scaling": (_suite_boundary_scaling, 100),
    "mass-identity": (_suite_mass_identity, 100),
    "quad-polynomial-exactness": (_suite_quad_polynomial_exactness, 1),
    "quad-error-honesty": (_suite_quad_error_honesty, 200),
    "quad-additivity": (_suite_quad_additivity, 100),
    "quad-affine-covariance": (_suite_quad_affine_covariance, 100),
    "representation-equivalence": (_suite_representation_equivalence, None),
    "am-gm-gap": (_suite_am_gm_gap, None),
    "herglotz-positivity": (_suite_herglotz_positivity, 25),
    "complete-monotonicity": (_suite_complete_monotonicity, 25),
    "monotone-decrease": (_suite_monotone_decrease, 50),
    "large-z-decay": (_suite_large_z_decay, 100),
    "contour-decomposition": (_suite_contour_decomposition, 5),
    "contour-reconstruction": (_suite_contour_reconstruction, 20),
    "contour-line-collapse": (_suite_contour_line_collapse, 8),
    "contour-limit-attribution": (_suite_contour_limit_attribution, 8),
    "small-circle-vanishing": (_suite_small_circle_vanishing, 8),
}


def run_suite(
    name: str,
    rng: np.random.Generator,
    cases: int,
    perturb_density: float = 0.0,
    fixed_sequence: Sequence | None = None,
) -> SuiteResult:
    """Run the suite ``name`` over ``cases`` instances drawn from ``rng``.

    The suite's case cap does not apply here; :func:`run_suites` applies it.
    ``perturb_density`` and ``fixed_sequence`` are as in :func:`run_suites`.
    """
    fn, _ = _SUITES[name]
    ctx = {"perturb_density": perturb_density, "fixed": fixed_sequence}
    res = SuiteResult(suite=name, cases_run=cases)
    t0 = time.perf_counter()
    fn(rng, cases, ctx, res)
    res.wall_time = time.perf_counter() - t0
    return res


def run_suites(
    seed: int,
    cases: int,
    perturb_density: float = 0.0,
    fixed_sequence: Sequence | None = None,
    progress: Callable[[SuiteResult], None] | None = None,
) -> VerifyReport:
    """Run every suite through :func:`run_suite` on its own substream of
    ``seed``, over ``cases`` instances or the suite's cap if smaller.

    ``perturb_density`` scales the densities of the representation-equivalence
    suite by ``1 + perturb_density``.  ``fixed_sequence`` pins the corpus of
    the representation-equivalence and am-gm-gap suites to one sequence; they
    then draw nothing.  ``progress`` gets each suite's result as it finishes.
    """
    if cases < 1:
        raise ValueError("cases must be >= 1")
    results = []
    for idx, (name, (_, cap)) in enumerate(_SUITES.items()):
        n = cases if cap is None else min(cases, cap)
        res = run_suite(name, np.random.default_rng([seed, idx]), n, perturb_density, fixed_sequence)
        results.append(res)
        if progress is not None:
            progress(res)
    return VerifyReport(seed=seed, cases=cases, perturb_density=perturb_density, suites=results)
