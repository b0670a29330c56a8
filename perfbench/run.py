"""gmeanrep benchmark: four seeded workloads, checked results, one JSON line.

Run from the root of a gmeanrep checkout:

    python3 perfbench/run.py --workload corpus-grid --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off; ``--trace 1``
is the separate traced run that gives the per-layer metrics and the tracing
overhead.  The library is imported from ``src/`` of the checkout; without it
the benchmark exits with code 2 and prints no result.

A table goes to standard output, then, as the last line, one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  The full results,
with sample counts, the tail percentile, per-layer self times, the spans of a
traced run and a provenance block, go to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

WORKLOADS = ("corpus-grid", "near-cut", "wide-n", "harness")
DEFAULT_SEED = 1
# keep this seed out of tuning: re-check a claim on it before accepting it
HELD_OUT_SEED = 20261017
SETUP_REPEATS = 7  # and as many cold evals
IMPORT_REPEATS = 3
CHILD_TIMEOUT_S = 60

# the metric names and units of BENCHMARK.json, in order
END_TO_END = {
    "points_per_s": "1/s",
    "point_p50_us": "us",
    "point_tail_us": "us",
    "verify_s": "s",
    "cold_eval_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}
PER_LAYER = {
    "means.gmean_us": "us",
    "boundary.density_ns_per_pt": "ns",
    "boundary.segments_us": "us",
    "boundary.moment_us": "us",
    "quadrature.panel_us": "us",
    "quadrature.integral_us": "us",
    "quadrature.evals_per_integral": "count",
    "quadrature.subdivisions_per_integral": "count",
    "quadrature.near_pole_integrals": "count",
    "representation.remainder_us": "us",
    "representation.segments_per_point": "count",
    "representation.max_scaled_err": "ratio",
    "representation.est_ratio": "ratio",
    "representation.am_gm_gap_us": "us",
    "cli.import_s": "s",
    "trace.overhead_pct": "%",
}


def python(*args: str) -> subprocess.CompletedProcess:
    """A fresh interpreter on the checkout's ``src``, run to completion."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run(
        [sys.executable, *args], cwd=ROOT, env=env, capture_output=True, text=True,
        timeout=CHILD_TIMEOUT_S, check=False,
    )


def setup_probe(workload: str, seed: int) -> None:
    """Child side of ``setup_s``: first import, input generation, one warm-up
    call, timed from before the import."""
    t0 = time.perf_counter()
    from gmeanrep import gmean_via_representation, run_suites

    from measure import VERIFY_SEED
    from workloads import POINT_WORKLOADS

    if workload == "harness":
        run_suites(VERIFY_SEED, 1)
    else:
        a, zs = next(POINT_WORKLOADS[workload].batches(seed))[0]
        gmean_via_representation(a, zs[0])
    print(time.perf_counter() - t0)


def child_seconds(args: list[str], repeats: int, outcome) -> list[float]:
    """Run a timing child ``repeats`` times; each prints its own seconds."""
    out = []
    for _ in range(repeats):
        proc = python(*args)
        ok = proc.returncode == 0
        outcome.record(ok, f"child {args[-1][:40]!r}: exit {proc.returncode}: {proc.stderr.strip()[-300:]}")
        if ok:
            out.append(float(proc.stdout.split()[-1]))
    return out


class Children:
    """Fresh-interpreter timings spread evenly over a run: ``setup_s`` probes
    and cold ``gmeanrep eval`` runs, alternating.  Each child is one chunk for
    the speed scale."""

    def __init__(self, args, eval_input, seconds: float, speed, outcome):
        from gmeanrep import principal_gmean

        a, z = eval_input
        self.direct = principal_gmean(a, z)
        self.eval_argv = ["-m", "gmeanrep.cli", "eval", "--a", ",".join(repr(v) for v in a.values),
                          f"--z={z.real!r}{z.imag:+}i", "--format", "json"]
        self.probe_argv = [str(HERE / "run.py"), "--setup-probe", "--workload", args.workload,
                           "--seed", str(args.seed)]
        self.jobs = [self.setup_probe, self.cold_eval] * SETUP_REPEATS
        self.step = seconds / len(self.jobs)
        self.done = 0
        self.start = time.perf_counter()
        self.speed = speed
        self.outcome = outcome
        self.times: dict[str, list[tuple[float, int]]] = {"setup_s": [], "cold_eval_s": []}

    def due(self, final: bool = False) -> None:
        """Run every child whose slot has come; with ``final``, all the rest."""
        while self.done < len(self.jobs) and (
            final or time.perf_counter() - self.start >= self.done * self.step
        ):
            self.jobs[self.done]()
            self.done += 1

    def _record(self, name: str, seconds: float) -> None:
        self.times[name].append((seconds, len(self.speed.samples)))
        self.speed.sample()

    def setup_probe(self) -> None:
        proc = python(*self.probe_argv)
        ok = proc.returncode == 0
        self.outcome.record(ok, f"setup probe: exit {proc.returncode}: {proc.stderr.strip()[-300:]}")
        if ok:
            self._record("setup_s", float(proc.stdout.split()[-1]))

    def cold_eval(self) -> None:
        """A fresh ``python -m gmeanrep.cli eval``, checked against the
        in-process direct value."""
        from measure import gate_tol

        t0 = time.perf_counter()
        proc = python(*self.eval_argv)
        self._record("cold_eval_s", time.perf_counter() - t0)
        ok = proc.returncode == 0
        if ok:
            rv = json.loads(proc.stdout)["repr_value"]
            ok = abs(complex(rv["re"], rv["im"]) - self.direct) <= gate_tol(self.direct)
        self.outcome.record(ok, f"cold eval: exit {proc.returncode}: {proc.stderr.strip()[-300:]}")

    def metrics(self) -> dict:
        from measure import metric

        return {
            name: metric(statistics.median(t * self.speed.around(mark) for t, mark in rows), "s", len(rows))
            for name, rows in self.times.items() if rows
        }


def git_commit() -> str | None:
    """HEAD of the checkout when it is a git work tree, read from ``.git``."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def workload_why(name: str) -> str | None:
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError):
        return None
    return next((w["why"] for w in spec["workloads"] if w["name"] == name), None)


def provenance(args) -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": git_commit(),
        "workload": args.workload,
        "why": workload_why(args.workload),
        "seed": args.seed,
        "held_out_seed": HELD_OUT_SEED,
        "seconds": args.seconds,
        "trace": args.trace,
        "load_model": "closed loop: one process, one thread, one caller",
        "started": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


def end_to_end(args, outcome) -> tuple[dict, dict]:
    from measure import Speed, metric, run_harness, run_points
    from workloads import HARNESS_EVAL, POINT_WORKLOADS

    speed = Speed()
    if args.workload == "harness":
        children = Children(args, HARNESS_EVAL, args.seconds, speed, outcome)
        metrics, run_outcome, suites = run_harness(args.seconds, speed, between=children.due)
    else:
        wl = POINT_WORKLOADS[args.workload]
        a, zs = next(wl.batches(args.seed))[0]
        children = Children(args, (a, zs[0]), args.seconds, speed, outcome)
        metrics, run_outcome = run_points(wl, args.seed, args.seconds, speed, between=children.due)
        suites = {}
    children.due(final=True)
    outcome.absorb(run_outcome)
    metrics.update(children.metrics())
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics["peak_rss_mb"] = metric(rss, "MB", 1)
    for name, times in suites.items():
        metrics[f"verify.{name}_s"] = metric(statistics.median(times), "s", len(times))
    return metrics, {"speed": speed.summary()}


def traced(args, outcome) -> tuple[dict, dict, dict]:
    from measure import metric
    from tracing import trace_workload

    layers, run_outcome, tr = trace_workload(args.workload, args.seed, args.seconds)
    outcome.absorb(run_outcome)
    imports = child_seconds(
        ["-c", "import time; t = time.perf_counter(); import gmeanrep; print(time.perf_counter() - t)"],
        IMPORT_REPEATS, outcome,
    )
    if imports:
        layers["cli.import_s"] = metric(statistics.median(imports), "s", len(imports))
    self_times = tr.self_times()
    modules: dict[str, float] = {}
    for name, row in self_times.items():
        mod = name.split(".")[0]
        modules[mod] = modules.get(mod, 0.0) + row["self_s"]
    return layers, {"by_span": self_times, "by_module_s": modules}, tr.dump()


def report(args, metrics: dict, outcome, wanted: dict, extra: dict, spans: dict | None = None) -> dict:
    missing = [k for k in wanted if k not in metrics]
    correct = outcome.failed == 0 and not missing
    for name, m in metrics.items():
        notes = ", ".join(f"{k}={v}" for k, v in m.items() if k not in ("value", "unit"))
        print(f"{name:40s} {m['value']:>16.6g} {m['unit']:6s} {notes}")
    print(f"{'fail_frac':40s} {outcome.fail_frac:>16.6g} {'share':6s} "
          f"failed={outcome.failed}, attempted={outcome.attempted}")
    for line in outcome.failures:
        print(f"failure: {line}")
    if missing:
        print(f"missing metrics: {missing}")
    results = {
        "provenance": provenance(args),
        "correct": correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "fail_frac": outcome.fail_frac,
        "failures": outcome.failures,
        "metrics": metrics,
        **extra,
    }
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps(results, indent=1) + "\n")
    print(f"results: {(OUT / stem).relative_to(ROOT)}.json")
    if spans is not None:
        (OUT / f"{stem}.spans.json").write_text(json.dumps(spans) + "\n")
    return {
        "correct": correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {k: {"value": metrics[k]["value"], "unit": u} for k, u in wanted.items() if k in metrics},
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if not (SRC / "gmeanrep" / "__init__.py").is_file():
        print(f"error: no gmeanrep package under {SRC}; run from a gmeanrep checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0

    from measure import Outcome

    outcome = Outcome()
    if args.trace:
        metrics, self_times, spans = traced(args, outcome)
        line = report(args, metrics, outcome, PER_LAYER, {"self_times": self_times}, spans)
    else:
        metrics, extra = end_to_end(args, outcome)
        line = report(args, metrics, outcome, END_TO_END, extra)
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
