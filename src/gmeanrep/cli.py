"""Command-line front end: evaluate, sweep, and verify.

Subcommands
-----------
eval     direct vs representation value at one point (json/csv/table)
density  cut-limit table or raw segment-density samples (csv)
gap      arithmetic-minus-geometric gap, direct and via representation (csv)
contour  keyhole-contour piece breakdown at one point (csv/json/table)
verify   run every invariant suite over a seeded corpus (json/csv/table)
sweep    representation error over a rectangular grid of points (csv)

Exit codes: 0 success, 1 configuration error, 2 branch-cut violation,
3 quadrature non-convergence, 4 verification failure, 5 unwritable output.

Complex arguments use the form ``a+bi`` (no spaces, e.g. ``2+3i``, ``-1.5``,
``1e-3i``); prefer ``--z=-1.5`` over ``--z -1.5`` so the shell token is not
mistaken for a flag.  Relative ``--out`` paths resolve under the
``GMEANREP_OUT_DIR`` environment variable when it is set.  All numbers are
written in shortest round-trip form; reruns with identical configuration
produce byte-identical output.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import pathlib
import re
import sys

import numpy as np

from . import __version__
from .boundary import DomainError, _segments_raw, boundary_imag_limit, boundary_imag_numeric, density_samples
from .contour import ContourSpec, GeometryError, cauchy_eval
from .means import (
    CutViolation,
    Sequence,
    arithmetic_mean,
    geometric_mean,
    principal_gmean,
)
from .quadrature import QuadratureFailure
from .representation import _reconstruct, am_gm_gap, remainder
from .verify import cut_distance, run_suites

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_CUT = 2
EXIT_QUAD = 3
EXIT_VERIFY = 4
EXIT_OUTPUT = 5

OUT_DIR_ENV = "GMEANREP_OUT_DIR"


class _Parser(argparse.ArgumentParser):
    # the exit-code contract reserves 2 for cut violations
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(EXIT_CONFIG)


def parse_sequence(text: str) -> Sequence:
    try:
        return Sequence(float(tok) for tok in text.split(","))
    except ValueError as exc:
        raise ValueError(f"invalid sequence {text!r}: {exc}") from exc


def parse_complex(text: str) -> complex:
    """Parse ``a+bi`` (optional sign, no spaces); plain decimals on the real axis."""
    txt = text.replace(" ", "").replace("I", "i").replace("j", "i")
    try:
        z = complex(float(txt), 0.0)
    except ValueError:
        jtxt = txt.replace("i", "j")
        jtxt = re.sub(r"(?<![0-9.])j", "1j", jtxt)  # bare or signed unit: i, +i, -i
        try:
            z = complex(jtxt)
        except ValueError as exc:
            raise ValueError(f"invalid complex number {text!r} (expected a+bi)") from exc
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise ValueError(f"complex argument must be finite, got {text!r}")
    return z


def ffmt(x) -> str:
    """Shortest round-trip decimal form."""
    return repr(float(x))


def cfmt(z: complex) -> str:
    sign = "+" if z.imag >= 0 else "-"
    return f"{ffmt(z.real)}{sign}{ffmt(abs(z.imag))}i"


def _resolve_out(path: str) -> pathlib.Path:
    p = pathlib.Path(path)
    base = os.environ.get(OUT_DIR_ENV)
    if base and not p.is_absolute():
        p = pathlib.Path(base) / p
    return p


def _emit(text: str, out: str | None) -> int:
    if out is None:
        sys.stdout.write(text)
        return EXIT_OK
    try:
        with open(_resolve_out(out), "w", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        sys.stderr.write(f"cannot write output: {exc}\n")
        return EXIT_OUTPUT
    return EXIT_OK


def _csv_text(header: list[str], rows: list[list[str]]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


# ---------------------------------------------------------------------------
# commands


def cmd_eval(args) -> int:
    a = parse_sequence(args.a)
    z = parse_complex(args.z)
    direct = principal_gmean(a, z)
    rem = remainder(a, z)
    via = _reconstruct(a, z, rem)
    abs_error = abs(direct - via)
    if args.format == "json":
        payload = {
            "direct_value": {"re": direct.real, "im": direct.imag},
            "repr_value": {"re": via.real, "im": via.imag},
            "abs_error": abs_error,
            "quad_error_estimate": rem.total_error_estimate,
            "segments_evaluated": len(rem.per_segment),
        }
        if args.detail:
            payload["remainder"] = rem.to_dict()
        text = json.dumps(payload, indent=2) + "\n"
    elif args.format == "csv":
        header = ["direct_re", "direct_im", "repr_re", "repr_im", "abs_error",
                  "quad_error_estimate", "segments_evaluated"]
        row = [ffmt(direct.real), ffmt(direct.imag), ffmt(via.real), ffmt(via.imag),
               ffmt(abs_error), ffmt(rem.total_error_estimate), str(len(rem.per_segment))]
        text = _csv_text(header, [row])
    else:
        text = (
            f"sequence             {','.join(ffmt(v) for v in a.values)}\n"
            f"z                    {cfmt(z)}\n"
            f"direct_value         {cfmt(direct)}\n"
            f"repr_value           {cfmt(via)}\n"
            f"abs_error            {ffmt(abs_error)}\n"
            f"quad_error_estimate  {ffmt(rem.total_error_estimate)}\n"
            f"segments_evaluated   {len(rem.per_segment)}\n"
        )
    return _emit(text, args.out)


def cmd_density(args) -> int:
    a = parse_sequence(args.a)
    if args.kind == "segments":
        rows = [
            [ffmt(t), ffmt(d), ffmt(wd), str(idx)]
            for t, d, wd, idx in density_samples(a, args.points)
        ]
        return _emit(_csv_text(["t", "density", "weighted_density", "segment_index"], rows), args.out)
    rows = []
    shifted_segs = _segments_raw(a.shifted())
    for seg in shifted_segs:
        for t in np.linspace(seg.lo, seg.hi, args.points + 2)[1:-1]:
            t = float(t)
            rows.append(
                [ffmt(t), ffmt(boundary_imag_limit(a, t)),
                 ffmt(boundary_imag_numeric(a, t, args.eps)), str(seg.index)]
            )
    if shifted_segs:
        top = a.max - a.min
        for t in (top + 0.5, top + 1.0, top + 2.0):
            rows.append(
                [ffmt(t), ffmt(boundary_imag_limit(a, t)),
                 ffmt(boundary_imag_numeric(a, t, args.eps)), "0"]
            )
    return _emit(_csv_text(["t", "closed", "numeric_eps", "segment"], rows), args.out)


def cmd_gap(args) -> int:
    a = parse_sequence(args.a)
    am = arithmetic_mean(a)
    gm = geometric_mean(a)
    row = [
        ",".join(ffmt(v) for v in a.values),
        ffmt(am),
        ffmt(gm),
        ffmt(am - gm),
        ffmt(am_gm_gap(a)),
    ]
    return _emit(_csv_text(["a", "A", "G", "gap_direct", "gap_repr"], [row]), args.out)


def cmd_contour(args) -> int:
    a = parse_sequence(args.a)
    z = parse_complex(args.z)
    bd = cauchy_eval(a, z, ContourSpec(eps=args.eps, r=args.r))
    pieces = (
        ("small_arc", bd.small_arc), ("outer_arc", bd.outer_arc),
        ("upper_line", bd.upper_line), ("lower_line", bd.lower_line),
        ("total", bd.total),
    )
    if args.format == "json":
        text = json.dumps(bd.to_dict(), indent=2) + "\n"
    elif args.format == "table":
        text = "".join(f"{name:<12} {cfmt(val)}\n" for name, val in pieces)
    else:
        rows = [[name, ffmt(val.real), ffmt(val.imag)] for name, val in pieces]
        text = _csv_text(["piece", "re", "im"], rows)
    return _emit(text, args.out)


def cmd_verify(args) -> int:
    if args.cases < 1:
        raise ValueError("--cases must be >= 1")
    fixed = parse_sequence(args.a) if args.a else None

    def progress(res):
        status = "ok" if res.passed else f"{len(res.failures)} FAILURES"
        sys.stderr.write(
            f"{res.suite}: {res.cases_run} cases, max_err={res.max_error:.3e}, "
            f"{res.wall_time:.2f}s, {status}\n"
        )

    report = run_suites(
        seed=args.seed,
        cases=args.cases,
        perturb_density=args.perturb_density,
        fixed_sequence=fixed,
        progress=progress,
    )
    if args.format == "json":
        text = json.dumps(report.to_dict(), indent=2) + "\n"
    elif args.format == "csv":
        rows = [
            [s.suite, str(s.cases_run), ffmt(s.max_error), str(len(s.failures))]
            for s in report.suites
        ]
        text = _csv_text(["suite", "cases_run", "max_error", "failure_count"], rows)
    else:
        width = max(len(s.suite) for s in report.suites)
        lines = [
            f"{s.suite:<{width}}  {s.cases_run:>5}  {s.max_error:.3e}  "
            f"{'pass' if s.passed else 'FAIL(' + str(len(s.failures)) + ')'}"
            for s in report.suites
        ]
        lines.append("overall: " + ("pass" if report.passed else "FAIL"))
        text = "\n".join(lines) + "\n"
    code = _emit(text, args.out)
    if code != EXIT_OK:
        return code
    return EXIT_OK if report.passed else EXIT_VERIFY


def cmd_sweep(args) -> int:
    a = parse_sequence(args.a)
    grid = [
        complex(float(re_z), float(im_z))
        for re_z in np.linspace(args.re_min, args.re_max, args.grid)
        for im_z in np.linspace(args.im_min, args.im_max, args.grid)
    ]
    zs = [z for z in grid if cut_distance(a, z) >= 0.05]
    points = np.array(zs, dtype=complex)
    rems = remainder(a, points)
    directs = principal_gmean(a, points).tolist()
    rows = [
        [ffmt(z.real), ffmt(z.imag), ffmt(abs(direct - via)), ffmt(rem.total_error_estimate)]
        for z, direct, via, rem in zip(zs, directs, _reconstruct(a, points, rems).tolist(), rems)
    ]
    return _emit(_csv_text(["re_z", "im_z", "abs_error", "quad_error"], rows), args.out)


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="gmeanrep", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("eval", help="direct vs representation value at one point")
    p.add_argument("--a", required=True, help="comma-separated positive entries (sorted on use)")
    p.add_argument("--z", required=True, help="evaluation point, a+bi form")
    p.add_argument("--format", choices=("json", "csv", "table"), default="json")
    p.add_argument("--detail", action="store_true", help="include per-segment remainder data (json)")
    p.add_argument("--out", default=None, help="output path (stdout when omitted)")
    p.set_defaults(func=cmd_eval)

    p = subs.add_parser("density", help="cut-limit table or segment-density samples (csv)")
    p.add_argument("--a", required=True)
    p.add_argument("--eps", type=float, default=1e-6, help="offset for the numeric boundary column")
    p.add_argument("--points", type=int, default=9, help="sample points per segment")
    p.add_argument("--kind", choices=("limit", "segments"), default="limit",
                   help="limit: closed vs numeric cut limit; segments: raw density samples")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_density)

    p = subs.add_parser("gap", help="arithmetic-minus-geometric gap (csv)")
    p.add_argument("--a", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_gap)

    p = subs.add_parser("contour", help="keyhole-contour breakdown at one point")
    p.add_argument("--a", required=True)
    p.add_argument("--z", required=True)
    p.add_argument("--eps", type=float, default=1e-3, help="small-arc radius and line offset")
    p.add_argument("--r", type=float, default=1e3, help="outer-arc radius")
    p.add_argument("--format", choices=("csv", "json", "table"), default="csv")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_contour)

    p = subs.add_parser("verify", help="run every invariant suite over a seeded corpus")
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--cases", type=int, default=200)
    p.add_argument("--a", default=None, help="pin the corpus to one sequence")
    p.add_argument("--perturb-density", type=float, default=0.0,
                   help="fault injection: scale densities by 1+x (must fail the equivalence suite)")
    p.add_argument("--format", choices=("json", "csv", "table"), default="json")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_verify)

    p = subs.add_parser("sweep", help="representation error over a grid of points (csv)")
    p.add_argument("--a", required=True)
    p.add_argument("--grid", type=int, default=20, help="points per axis")
    p.add_argument("--re-min", type=float, default=-0.9)
    p.add_argument("--re-max", type=float, default=5.0)
    p.add_argument("--im-min", type=float, default=-3.0)
    p.add_argument("--im-max", type=float, default=3.0)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_sweep)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except CutViolation as exc:
        sys.stderr.write(f"branch-cut violation: {exc}\n")
        return EXIT_CUT
    except QuadratureFailure as exc:
        sys.stderr.write(f"quadrature failure: {exc}\n")
        return EXIT_QUAD
    except (DomainError, GeometryError, ValueError) as exc:
        sys.stderr.write(f"configuration error: {exc}\n")
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
