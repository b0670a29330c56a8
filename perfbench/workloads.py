"""Seeded inputs for the benchmark workloads.

Every sequence and evaluation point is drawn here from the workload seed, with
the benchmark's own generator: the library receives only ``Sequence`` objects
and complex points, so a change to ``gmeanrep.verify`` cannot silently change
a workload.

Inputs come as an endless stream of batches.  A run consumes batches until its
time is up, so a faster library sees more of the same stream and never the
same (sequence, point) pair twice.  Each batch is stratified in ``n``, which
keeps the cost of a batch, and so every figure, steady from seed to seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

from gmeanrep import Sequence

Batch = list[tuple[Sequence, list[complex]]]


def corpus_sequence(rng: np.random.Generator, n: int) -> Sequence:
    """Acceptance-corpus draw for a given ``n``: entries log-uniform in
    [0.1, 10], 10% of draws with a forced duplicate, 5% constant."""
    vals = 10.0 ** rng.uniform(-1.0, 1.0, n)
    roll = float(rng.uniform())
    if roll < 0.05:
        vals[:] = vals[0]
    elif roll < 0.15 and n >= 2:
        i, j = (int(k) for k in rng.integers(0, n, 2))
        vals[j] = vals[i]
    return Sequence(vals)


def corpus_ns(rng: np.random.Generator, repeats: int) -> list[int]:
    """``n`` in 1..8, each value ``repeats`` times, in random order."""
    ns = np.repeat(np.arange(1, 9), repeats)
    rng.shuffle(ns)
    return [int(n) for n in ns]


def _cut_distance(a: Sequence, z: complex) -> float:
    """Distance from z to the cut ``(-inf, -min(a)]``."""
    if z.real <= -a.min:
        return abs(z.imag)
    return math.hypot(z.real + a.min, z.imag)


def z_grid(a: Sequence, count: int = 40, min_dist: float = 0.05) -> list[complex]:
    """The acceptance sweep's grid: real points right of the cut, rings around
    the origin and points 0.05 and 0.4 off the loaded cut, keeping the first
    ``count`` at distance >= ``min_dist`` from the cut.  With the default
    count the truncation usually drops the cut-hugging points, exactly as in
    the acceptance sweep."""
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
    return [z for z in out if _cut_distance(a, z) >= min_dist][:count]


def corpus_grid_batch(rng: np.random.Generator) -> Batch:
    """8 corpus sequences (each n in 1..8 once), 40 grid points each."""
    seqs = [corpus_sequence(rng, n) for n in corpus_ns(rng, 1)]
    return [(a, z_grid(a)) for a in seqs]


def near_cut_batch(rng: np.random.Generator) -> Batch:
    """16 corpus sequences (each n in 1..8 twice), 8 points ``x +- i*d`` each:
    ``x`` uniform on the loaded cut ``[-max, -min]``, ``d`` log-uniform in
    [1e-6, 1e-2), the sign alternating."""
    out = []
    for n in corpus_ns(rng, 2):
        a = corpus_sequence(rng, n)
        xs = rng.uniform(-a.max, -a.min, 8)
        ds = 10.0 ** rng.uniform(-6.0, -2.0, 8)
        out.append((a, [complex(float(x), (-1.0) ** k * float(d)) for k, (x, d) in enumerate(zip(xs, ds))]))
    return out


def wide_n_batch(rng: np.random.Generator) -> Batch:
    """4 sequences with ``n`` in [100, 300] (one per quarter of the range),
    entries log-uniform in [0.1, 10], evaluated at ``z = 0`` (the AM-GM gap),
    ``1+1i``, 10 and a point 0.3 above the middle of the loaded cut."""
    out = []
    for k in range(4):
        n = 100 + 50 * k + int(rng.integers(0, 51 if k == 3 else 50))
        a = Sequence(10.0 ** rng.uniform(-1.0, 1.0, n))
        mid = -0.5 * (a.min + a.max)
        out.append((a, [0j, 1 + 1j, 10 + 0j, complex(mid, 0.3)]))
    return out


@dataclass(frozen=True)
class PointWorkload:
    name: str
    batch: Callable[[np.random.Generator], Batch]

    def batches(self, seed: int) -> Iterator[Batch]:
        rng = np.random.default_rng([seed, 1])
        while True:
            yield self.batch(rng)


# why each workload exists is recorded in BENCHMARK.json and README.md
POINT_WORKLOADS = {
    w.name: w
    for w in (
        PointWorkload("corpus-grid", corpus_grid_batch),
        PointWorkload("near-cut", near_cut_batch),
        PointWorkload("wide-n", wide_n_batch),
    )
}

# the one input of the harness's cold `gmeanrep eval` runs
HARNESS_EVAL = (Sequence([1.0, 2.0, 3.0]), 1 + 1j)
