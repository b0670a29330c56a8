"""Bit-level fingerprint of the representation layer.

Prints one line per record: the ``repr`` of a ``remainder`` result (value,
per-segment triples, error estimate and panel counts) or of a
``density_moment`` value.  A call that raises ``QuadratureFailure`` records
its message and partial result instead.  Two checkouts that print the same
bytes give every covered value, estimate and panel count bit for bit alike,
so a change meant to keep the numbers is checked with

    PYTHONPATH=src python tests/fingerprint.py > before.txt   # on the parent
    PYTHONPATH=src python tests/fingerprint.py > after.txt    # on the change
    cmp before.txt after.txt

Records, from seeded draws:

- corpus: ``random_sequence`` draws on ``representation_z_grid``, as scalar
  calls in a row, one array call, and every fourth point with the kept rule
  dropped first; the moments of orders 0 and 2;
- near-cut: points ``x +- i*d`` with ``x`` on the loaded cut and ``d`` from
  1e-6 down to 1e-300 times ``max(a)``, scalar and array;
- wide-n: ``n`` from 100 to 300 at ``0``, ``1+1i``, ``10`` and 0.3 above the
  middle of the loaded cut, scalar, array and cold; the moments;
- extremes: points 1e-300 and 1e-310 off the cut, and entries from 1e-300
  to 1e308.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from gmeanrep import Sequence, representation
from gmeanrep.quadrature import QuadratureFailure
from gmeanrep.representation import RemainderValue, density_moment, remainder
from gmeanrep.verify import random_sequence, representation_z_grid


def _bits(result) -> str:
    # repr round-trips every float and tells -0.0 from 0.0
    if isinstance(result, RemainderValue):
        return repr((result.value, result.per_segment, result.total_error_estimate, result.panels))
    return repr(result)


def _record(call) -> list[str]:
    """The result of ``call()`` as one string per point."""
    try:
        result = call()
    except QuadratureFailure as exc:
        result, failure = exc.result, f"failed ({exc}) "
    else:
        failure = ""
    results = result if isinstance(result, list) else [result]
    return [failure + _bits(r) for r in results]


def _cold(call):
    # the call with the kept rule of the last sequence dropped first
    representation._LAST[0] = None
    return call()


def _points(label: str, a: Sequence, zs: list[complex], cold_every: int = 0):
    for z in zs:
        (line,) = _record(lambda: remainder(a, z))
        yield f"{label} scalar {z!r} {line}"
    for z, line in zip(zs, _record(lambda: remainder(a, np.array(zs, dtype=complex)))):
        yield f"{label} array {z!r} {line}"
    for z in zs[::cold_every] if cold_every else ():
        (line,) = _record(lambda: _cold(lambda: remainder(a, z)))
        yield f"{label} cold {z!r} {line}"


def _moments(label: str, a: Sequence):
    for order in (0, 2):
        (line,) = _record(lambda: density_moment(a, order))
        yield f"{label} moment {order} {line}"


def records(count: int = 48, seed: int = 3):
    """The fingerprint's lines: ``count`` corpus and near-cut sequences and
    ``max(2, count // 4)`` wide-n ones, drawn from ``seed``."""
    rng = np.random.default_rng([seed, 0])
    for i in range(count):
        a = random_sequence(rng)
        yield from _points(f"corpus {i}", a, representation_z_grid(a), cold_every=4)
        yield from _moments(f"corpus {i}", a)
    rng = np.random.default_rng([seed, 1])
    offsets = [10.0**-k for k in (6, 8, 10, 12, 15, 20, 30, 50, 100, 150, 200, 250, 300)]
    for i in range(count):
        a = random_sequence(rng)
        xs = rng.uniform(-a.max, -a.min, len(offsets))
        zs = [complex(float(x), (-1.0) ** k * d * a.max) for k, (x, d) in enumerate(zip(xs, offsets))]
        if a.max == a.min:
            zs = [complex(-a.min, d * a.max) for d in offsets]
        yield from _points(f"near-cut {i}", a, zs)
    rng = np.random.default_rng([seed, 2])
    wide = max(2, count // 4)
    for i, n in enumerate(np.linspace(100, 300, wide).astype(int).tolist()):
        a = Sequence(10.0 ** rng.uniform(-1.0, 1.0, n))
        zs = [0j, 1 + 1j, 10 + 0j, complex(-0.5 * (a.min + a.max), 0.3)]
        yield from _points(f"wide-n {i} n={n}", a, zs, cold_every=1)
        yield from _moments(f"wide-n {i} n={n}", a)
    three = Sequence((1.0, 2.0, 3.0))
    yield from _points("extreme (1, 2, 3)", three, [complex(-1.5, 1e-300), complex(-2.5, -1e-300), complex(-1.5, 1e-310)])
    for values in ((1e-300, 2e-300), (1e-300, 1e308), (1e308, 1.7e308), (1e-300, 1.0, 1e308)):
        a = Sequence(values)
        zs = [0j, 1 + 0j, 1j, complex(-a.max, 1e-300 * a.max), complex(-0.5 * a.min - 0.5 * a.max, 1e-310 * a.max)]
        # an offset that underflows to 0 would put the point on the cut
        yield from _points(f"extreme {values!r}", a, [z for z in zs if z.imag or z.real > -a.min])
        yield from _moments(f"extreme {values!r}", a)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--count", type=int, default=48, help="corpus and near-cut sequences (default 48)")
    parser.add_argument("--seed", type=int, default=3)
    args = parser.parse_args(argv)
    for line in records(args.count, args.seed):
        sys.stdout.write(line + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
