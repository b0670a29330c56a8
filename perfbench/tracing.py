"""The traced run: per-layer figures from spans recorded in the benchmark's own
code around calls into the library's public functions.

The library carries no instrumentation.  For each point the benchmark times
``representation.remainder`` and ``means.principal_gmean`` as the library runs
them, then rebuilds the remainder from the public layers below it:
``boundary.segments``, each segment's ``density(t) / (t + z)`` integrated by
``quadrature.integrate`` (or ``integrate_near_pole`` when the pole lies inside
the segment or the point is within 1e-2 of the loaded cut, as the README
documents), and one ``quadrature.kronrod_panel`` per segment.  A counting
wrapper on the rebuilt integrand records evaluations, and each density call
is a span of its own.

Spans (name, start, end, parent) stay in memory until the run ends; the
results take the spans up to the end of the first batch, a fixed set of work
for a seed.  A span's self time is its duration minus that of its children.
"""

from __future__ import annotations

import math
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass, fields

import numpy as np

from gmeanrep import (
    am_gm_gap,
    cauchy_eval,
    density_moment,
    gmean_excess_shifted,
    integrate,
    integrate_near_pole,
    kronrod_panel,
    line_collapse_check,
    principal_gmean,
    remainder,
    run_suites,
    segments,
)

from measure import VERIFY_CASES, VERIFY_SEED, Outcome, another, check_point, gate_tol, metric
from workloads import POINT_WORKLOADS, Batch

NEAR_CUT = 1e-2  # README: below this distance the pole-aware split is mandatory
CONTOUR_TOL = 1e-3  # the contour suites' own contract


class Tracer:
    """In-memory spans: ``[name, start, end, parent index]``."""

    def __init__(self):
        self.spans: list[list] = []
        self.kept = 0  # number of spans that dump() writes out
        self._stack = [-1]

    @contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), 0.0, self._stack[-1]])
        self._stack.append(idx)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[idx][2] = time.perf_counter()

    def add(self, name: str, start: float, end: float) -> None:
        """Record a span that was timed elsewhere, under the open span."""
        self.spans.append([name, start, end, self._stack[-1]])

    def durations(self, *names: str) -> list[float]:
        return [e - s for n, s, e, _ in self.spans if n in names]

    def self_times(self) -> dict[str, dict]:
        child = [0.0] * len(self.spans)
        for name, s, e, parent in self.spans:
            if parent >= 0:
                child[parent] += e - s
        out: dict[str, dict] = {}
        for (name, s, e, _), c in zip(self.spans, child):
            row = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += e - s
            row["self_s"] += e - s - c
        return out

    def dump(self) -> dict:
        """The first ``kept`` spans in compact form: times in microseconds
        from the first span's start."""
        spans = self.spans[: self.kept]
        if not spans:
            return {"names": [], "spans": []}
        t0 = spans[0][1]
        names = sorted({s[0] for s in spans})
        ids = {n: i for i, n in enumerate(names)}
        rows = [
            [ids[n], round((s - t0) * 1e6, 1), round((e - t0) * 1e6, 1), p]
            for n, s, e, p in spans
        ]
        return {"names": names, "columns": ["name", "start_us", "end_us", "parent"], "spans": rows}


@dataclass
class Counts:
    """Deterministic work counts of the rebuilt remainder."""

    points: int = 0
    segments: int = 0
    integrals: int = 0
    evals: int = 0
    subdivisions: int = 0
    near_pole: int = 0
    unconverged: int = 0
    density_pts: int = 0

    def __iadd__(self, other: "Counts") -> "Counts":
        for f in fields(self):
            setattr(self, f.name, getattr(self, f.name) + getattr(other, f.name))
        return self


def _loaded_cut_distance(a, z: complex) -> float:
    x = min(max(z.real, -a.max), -a.min)
    return math.hypot(z.real - x, z.imag)


def _integrand(tr: Tracer, seg, z: complex, counts: Counts, count_evals: bool):
    """``density(t) / (t + z)`` written as the library writes it, so the
    rebuilt integrals match the library's bit for bit."""

    def f(t):
        with tr.span("boundary.density"):
            d = seg.density(t)
        counts.density_pts += t.size
        if count_evals:
            counts.evals += t.size
        return d * (1.0 / (t + z))

    return f


def rebuild_remainder(tr: Tracer, a, z: complex, counts: Counts) -> complex:
    """The remainder rebuilt from the public boundary and quadrature layers."""
    with tr.span("bench.rebuild"):
        with tr.span("boundary.segments"):
            segs = segments(a)
        pole = -z.real
        near_cut = bool(segs) and _loaded_cut_distance(a, z) < NEAR_CUT
        total = 0j
        for seg in segs:
            f = _integrand(tr, seg, z, counts, count_evals=True)
            if near_cut or seg.lo < pole < seg.hi:
                counts.near_pole += 1
                with tr.span("quadrature.integrate_near_pole"):
                    res = integrate_near_pole(f, seg.lo, seg.hi, pole)
            else:
                with tr.span("quadrature.integrate"):
                    res = integrate(f, seg.lo, seg.hi)
            counts.integrals += 1
            counts.subdivisions += res.subdivisions_used
            counts.unconverged += not res.converged
            total += seg.weight * complex(res.value)
            g = _integrand(tr, seg, z, counts, count_evals=False)
            with tr.span("quadrature.kronrod_panel"):
                kronrod_panel(g, seg.lo, seg.hi)
    return total


@dataclass
class PointStats:
    """Accuracy figures over the traced points."""

    max_scaled_err: float = 0.0  # |via - direct| / gate tolerance
    est_ratio: float = 0.0  # |via - direct| / total_error_estimate
    rebuild_max_diff: float = 0.0  # |rebuilt R - library R|


def traced_point(tr, a, z, counts: Counts, stats: PointStats, outcome: Outcome) -> None:
    with tr.span("bench.point"):
        try:
            with tr.span("representation.remainder"):
                rem = remainder(a, z)
        except Exception as exc:  # any raise is a failed point; the run goes on
            outcome.record(False, f"{a.values} z={z}: {type(exc).__name__}: {exc}")
            return
        via = math.fsum(a.values) / a.n + z - rem.value
        with tr.span("means.principal_gmean"):
            direct = principal_gmean(a, z)
        rebuilt = rebuild_remainder(tr, a, z, counts)
    err = abs(via - direct)
    counts.points += 1
    counts.segments += len(rem.per_segment)
    stats.max_scaled_err = max(stats.max_scaled_err, err / gate_tol(direct))
    if rem.total_error_estimate > 0.0:
        stats.est_ratio = max(stats.est_ratio, err / rem.total_error_estimate)
    stats.rebuild_max_diff = max(stats.rebuild_max_diff, abs(rebuilt - rem.value))
    ok = err <= gate_tol(direct)
    outcome.record(ok, "" if ok else f"{a.values} z={z}: |via - direct| = {err:.3e}")


def contour_point(rng: np.random.Generator, a) -> complex:
    """A point well inside the keyhole: |z| in [0.5, 10], off the cut strip."""
    while True:
        rad = 10.0 ** rng.uniform(-0.3, 1.0)
        th = float(rng.uniform(-2.6, 2.6))
        z = rad * complex(math.cos(th), math.sin(th))
        if z.real > 0.0 or abs(z.imag) > 0.2:
            return z


def sequence_probes(tr, a, outcome: Outcome, contour_rng=None) -> None:
    """Per-sequence calls of the layers the point loop does not reach."""
    with tr.span("boundary.density_moment"):
        density_moment(a, 0)
    with tr.span("representation.am_gm_gap"):
        am_gm_gap(a)
    if contour_rng is None:
        return
    z = contour_point(contour_rng, a)
    with tr.span("contour.cauchy_eval"):
        total = cauchy_eval(a, z).total
    err = abs(total - gmean_excess_shifted(a, z))
    outcome.record(err <= CONTOUR_TOL, f"{a.values} z={z}: contour error {err:.3e}")
    with tr.span("contour.line_collapse_check"):
        lines, collapsed = line_collapse_check(a, z, 1e-4, 1e3)
    gap = abs(lines - collapsed)
    outcome.record(gap <= CONTOUR_TOL, f"{a.values} z={z}: line collapse gap {gap:.3e}")


def _batch_wall(batch: Batch) -> float:
    """Untraced wall time of a batch, with the same work as ``verify_s``."""
    unchecked = Outcome()
    t0 = time.perf_counter()
    for a, zs in batch:
        for z in zs:
            check_point(a, z, 1.0, unchecked)
    return time.perf_counter() - t0


def traced_points(tr, stream, seconds, outcome, contour_rng=None):
    """Trace whole batches from ``stream`` for ``seconds``.

    The first batch also runs untraced: the tracing overhead compares the two
    runs of its points.  The work counts are taken on it alone, so they
    repeat exactly for a seed."""
    start = time.perf_counter()
    first = next(stream)
    untraced = _batch_wall(first)
    counts: list[Counts] = []
    walls: list[float] = []
    stats = PointStats()
    batch = first
    while True:
        c = Counts()
        t0 = time.perf_counter()
        for a, zs in batch:
            for z in zs:
                traced_point(tr, a, z, c, stats, outcome)
        if not counts:
            traced = time.perf_counter() - t0
        for a, _ in batch:
            sequence_probes(tr, a, outcome, contour_rng)
        counts.append(c)
        walls.append(time.perf_counter() - t0)
        tr.kept = tr.kept or len(tr.spans)
        if not another(start, seconds, walls):
            break
        batch = next(stream)
    return counts, stats, 100.0 * (traced - untraced) / untraced


def _median_span(tr: Tracer, names: tuple[str, ...], scale: float) -> tuple[float, int]:
    d = tr.durations(*names)
    return (statistics.median(d) * scale if d else 0.0), len(d)


def layer_metrics(tr: Tracer, counts: list[Counts], stats: PointStats, overhead_pct: float) -> dict:
    first = counts[0]
    total = Counts()
    for c in counts:
        total += c
    basis = {"points": first.points, "integrals": first.integrals, "basis": "first batch"}
    out = {}
    for key, names, unit, scale in (
        ("means.gmean_us", ("means.principal_gmean",), "us", 1e6),
        ("boundary.segments_us", ("boundary.segments",), "us", 1e6),
        ("boundary.moment_us", ("boundary.density_moment",), "us", 1e6),
        ("quadrature.panel_us", ("quadrature.kronrod_panel",), "us", 1e6),
        ("quadrature.integral_us", ("quadrature.integrate", "quadrature.integrate_near_pole"), "us", 1e6),
        ("representation.remainder_us", ("representation.remainder",), "us", 1e6),
        ("representation.am_gm_gap_us", ("representation.am_gm_gap",), "us", 1e6),
        ("contour.cauchy_eval_ms", ("contour.cauchy_eval",), "ms", 1e3),
        ("contour.line_collapse_ms", ("contour.line_collapse_check",), "ms", 1e3),
    ):
        value, n = _median_span(tr, names, scale)
        if n:
            out[key] = metric(value, unit, n, stat="median")
    density_s = math.fsum(tr.durations("boundary.density"))
    out["boundary.density_ns_per_pt"] = metric(
        density_s / max(total.density_pts, 1) * 1e9, "ns", total.density_pts
    )
    ints = max(first.integrals, 1)
    out["quadrature.evals_per_integral"] = metric(first.evals / ints, "count", first.integrals, **basis)
    out["quadrature.subdivisions_per_integral"] = metric(
        first.subdivisions / ints, "count", first.integrals, **basis
    )
    out["quadrature.near_pole_integrals"] = metric(first.near_pole, "count", first.integrals, **basis)
    out["quadrature.near_pole_share"] = metric(first.near_pole / ints, "share", first.integrals, **basis)
    out["quadrature.unconverged"] = metric(first.unconverged, "count", first.integrals, **basis)
    out["representation.segments_per_point"] = metric(
        first.segments / max(first.points, 1), "count", first.points, **basis
    )
    out["representation.max_scaled_err"] = metric(stats.max_scaled_err, "ratio", total.points)
    out["representation.est_ratio"] = metric(stats.est_ratio, "ratio", total.points)
    out["representation.rebuild_max_diff"] = metric(stats.rebuild_max_diff, "abs", total.points)
    out["trace.overhead_pct"] = metric(overhead_pct, "%", first.points, basis="first batch")
    return out


def trace_workload(workload: str, seed: int, seconds: float):
    """The traced run of one workload.  Returns (layer metrics, outcome, tracer).

    ``harness`` traces one ``run_suites`` (a span per suite, from the progress
    callback's clock), then traces the corpus-grid stream with contour probes
    on every sequence.
    """
    tr = Tracer()
    outcome = Outcome()
    contour_rng = None
    if workload == "harness":
        clock = [0.0]

        def progress(res) -> None:
            now = time.perf_counter()
            tr.add(f"verify.{res.suite}", clock[0], now)
            clock[0] = now

        t0 = time.perf_counter()
        with tr.span("verify.run_suites"):
            clock[0] = time.perf_counter()
            report = run_suites(VERIFY_SEED, VERIFY_CASES, progress=progress)
        failed = [s.suite for s in report.suites if not s.passed]
        outcome.record(report.passed, f"run_suites: failed suites {failed}")
        seconds = max(seconds - (time.perf_counter() - t0), 0.0)
        contour_rng = np.random.default_rng([seed, 2])
        stream = POINT_WORKLOADS["corpus-grid"].batches(seed)
    else:
        stream = POINT_WORKLOADS[workload].batches(seed)
    counts, stats, overhead = traced_points(tr, stream, seconds, outcome, contour_rng)
    layers = layer_metrics(tr, counts, stats, overhead)
    for name, s, e, parent in tr.spans:
        if name.startswith("verify.") and name != "verify.run_suites":
            layers[f"{name}_s"] = metric(e - s, "s", 1)
    return layers, outcome, tr
