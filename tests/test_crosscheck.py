"""Cross-validation against independent third-party evaluators.

These tests compare against scipy's QUADPACK wrapper and arbitrary-precision
mpmath evaluations.  Neither package is a dependency of the library; the
module skips where they are unavailable.
"""

import numpy as np
import pytest

from gmeanrep import representation
from gmeanrep.boundary import segments
from gmeanrep.means import principal_gmean
from gmeanrep.quadrature import JACOBI_NODES, gauss_jacobi, integrate
from gmeanrep.representation import remainder
from gmeanrep.verify import random_sequence


def test_integrate_matches_scipy_quad():
    scipy_integrate = pytest.importorskip("scipy.integrate")
    rng = np.random.default_rng(71)
    for _ in range(15):
        while True:
            a = random_sequence(rng)
            segs = segments(a)
            if segs:
                break
        seg = segs[int(rng.integers(0, len(segs)))]
        shift = float(rng.uniform(0.1, 3.0))
        f = lambda t, seg=seg, shift=shift: seg.density(np.atleast_1d(t))[0] / (t + shift)
        ref, ref_err = scipy_integrate.quad(f, seg.lo, seg.hi, epsabs=1e-12, epsrel=1e-11, limit=200)
        mine = integrate(lambda t, seg=seg, shift=shift: seg.density(t) / (t + shift), seg.lo, seg.hi)
        assert abs(mine.value - ref) <= 1e-8 * max(1.0, abs(ref)) + 10 * ref_err


@pytest.mark.parametrize("alpha, beta", [(1 / 3, 2 / 3), (7 / 8, 1 / 8), (1 / 300, 1 / 300)])
def test_gauss_jacobi_matches_scipy(alpha, beta):
    special = pytest.importorskip("scipy.special")
    ref_x, ref_w = special.roots_jacobi(JACOBI_NODES, alpha, beta)
    x, w = gauss_jacobi(JACOBI_NODES, alpha, beta)
    assert np.max(np.abs(x - ref_x)) <= 1e-15
    # scipy's smallest weights are themselves only good to about 3e-12
    assert np.max(np.abs(w - ref_w) / ref_w) <= 1e-11


def test_principal_gmean_matches_mpmath():
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 50
    rng = np.random.default_rng(72)
    for _ in range(25):
        a = random_sequence(rng)
        z = complex(rng.uniform(-15, 15), rng.uniform(0.01, 8) * rng.choice([-1.0, 1.0]))
        ref = mp.exp(mp.fsum((mp.log(mp.mpc(v) + z) for v in a.values)) / a.n)
        mine = principal_gmean(a, z)
        assert abs(mine - complex(ref)) <= 1e-13 * max(1.0, abs(complex(ref)))


def test_remainder_matches_mpmath_quadrature():
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 30
    rng = np.random.default_rng(73)
    for _ in range(6):
        a = random_sequence(rng)
        if not segments(a):
            continue
        z = complex(rng.uniform(-0.5, 4.0), rng.uniform(0.3, 3.0))
        ref = mp.mpc(0)
        vals = [mp.mpf(v) for v in a.values]
        for seg in segments(a):
            def f(t, vals=vals, n=a.n):
                prod = mp.fsum(mp.log(abs(v - t)) for v in vals) / n
                return mp.e**prod / (t + z)

            ref += mp.sin(seg.index * mp.pi / a.n) / mp.pi * mp.quad(f, [seg.lo, seg.hi])
        mine = remainder(a, z).value
        assert abs(mine - complex(ref)) <= 1e-9 * max(1.0, abs(complex(ref)))


def test_bound_covers_planned_panels():
    # every panel of a planned segment is within its a-priori estimate of a
    # 30-digit reference; the adaptive integrator is no reference this close
    # to the cut (off by 1.7e-10 at 1e-7)
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 30
    rng = np.random.default_rng(74)
    checked = 0
    for _ in range(4):
        a = random_sequence(rng)
        if a.max == a.min:
            continue
        zs = [complex(rng.uniform(-a.max, -a.min), d) for d in (1e-3, 1e-8, 1e-20)]
        zs.append(complex(-a.max - 1e-3, 1e-4))  # the pole just beyond the last segment
        for z in zs:
            for seg in segments(a):
                plan = representation._plan(a.values, seg, z)
                (values,), (estimates,) = representation._rule(representation._blocks(a.values, plan), np.array([z]), -1)
                for panel, value, est in zip(plan, values, estimates):
                    offsets = [mp.mpf(v) - panel.anchor for v in a.values]
                    shifted = mp.mpc(z) + panel.anchor

                    def f(u, offsets=offsets, shifted=shifted):
                        log_s = mp.fsum(mp.log(abs(o - u)) for o in offsets) / a.n
                        return mp.exp(log_s) / (u + shifted)

                    ref = complex(mp.quad(f, [panel.lo, panel.hi]))
                    assert abs(value - ref) <= est, (a.values, z, seg.index, panel)
                    checked += 1
    assert checked > 150
